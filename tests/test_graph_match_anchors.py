"""Keyed and composed pairs of the graph matcher, and the window score.

``Scorer.similarity`` scores two texts from the grams that overlap the
window outside of which they are equal, and must return exactly the
float the Counter arithmetic gives (``==``, not close: the graph matcher
compares it with its threshold): for texts built from a random prefix,
suffix and two names, the empty name included, for texts with no common
head or tail, for texts of fewer than three characters, for repeated
grams that straddle the window and for windows at either end of a text,
and for every pair either search scores on the merge inputs and the
generated workloads.

The matcher scores only what keys and composition leave open, so the
pairs it scores grow linearly with rename-fanout's hub methods and with
package-rename's files, and the match of the merge with the branch it
reaches through base scores at most two pairs per composed pair: its
context, and its body where the two declarations differ.  Members
renamed and edited on one branch, which no key pairs, are paired through
base in the match of the merge with the other branch, one body and one
context scored for each, where the greedy would score every pair of
their bucket.
"""

import random

from hypothesis import example, given, settings, strategies as st

from conftest import bench_gen, merge_inputs
from mergeweaver import graph_diff
from mergeweaver.merge3 import merge_scenario
from mergeweaver.pipeline import run_scenario
from mergeweaver.similarity import Scorer
from test_similarity import reference_similarity

# a small alphabet repeats grams across the window's edges
_text = st.text(alphabet="ab(. 1", max_size=12)


@settings(max_examples=500, deadline=None)
@given(prefix=_text, name_a=_text, name_b=_text, suffix=_text)
@example(prefix="", name_a="", name_b="", suffix="")
@example(prefix="", name_a="a", name_b="ab", suffix="")
@example(prefix="a", name_a="", name_b="b", suffix="a")
@example(prefix="", name_a="run", name_b="stop", suffix="(int x)")
@example(prefix="int ", name_a="run", name_b="stop", suffix="")
@example(prefix="aaaa", name_a="a", name_b="", suffix="aaaa")
@example(prefix="abab", name_a="ab", name_b="ba", suffix="abab")
# no common head or tail
@example(prefix="", name_a="ab(. 1", name_b="1 .(ba", suffix="")
@example(prefix="", name_a="abab", name_b="baba", suffix="")
@example(prefix="", name_a="aab", name_b="baa", suffix="")
# texts of fewer than three characters
@example(prefix="", name_a="", name_b="ab", suffix="")
@example(prefix="", name_a="a", name_b="b", suffix="")
@example(prefix="", name_a="ab", name_b="ba", suffix="")
@example(prefix="a", name_a="", name_b="abc", suffix="")
def test_the_window_score_equals_the_reference(prefix, name_a, name_b,
                                               suffix):
    a, b = prefix + name_a + suffix, prefix + name_b + suffix
    scorer = Scorer()
    assert scorer.similarity(a, b) == reference_similarity(a, b)
    assert scorer.similarity(b, a) == reference_similarity(b, a)
    # equal texts score 1.0 unscored
    assert scorer.scored == (2 if a != b else 0)


def test_the_window_score_of_unrelated_texts_equals_the_reference():
    rnd = random.Random(11)
    texts = ["".join(rnd.choice("ab(). =1") for _ in range(rnd.randint(0, 30)))
             for _ in range(60)]
    for a in texts:
        for b in texts:
            assert Scorer().similarity(a, b) \
                == reference_similarity(a, b), (a, b)


def test_every_window_score_of_the_merges_equals_the_reference(
        generated, scored_pairs):
    for d in merge_inputs() + generated:
        run_scenario(d / "base", d / "left", d / "right")
    for a, b, sim in scored_pairs:
        assert sim == reference_similarity(a, b), (a, b)
    assert sum(1 for a, b, _ in scored_pairs if a != b) >= 100


def _match_counts(tmp_path, monkeypatch, workload: str, **size) -> list:
    """(composed, scored, composed pairs) of each graph match that
    ``build_fourway`` makes on the workload, in call order."""
    out = tmp_path / f"{workload}-{size}"
    bench_gen.write_workload(bench_gen.generate(workload, 1, **size), out)
    counts = []
    match = graph_diff.match_graphs

    def counted(ga, gb, scorer, via=None):
        scored = scorer.scored
        got = match(ga, gb, scorer, via)
        composed = sum(1 for a, b in got.items()
                       if via is not None and a != b and via(a) == b)
        counts.append((via is not None, scorer.scored - scored, composed))
        return got

    monkeypatch.setattr(graph_diff, "match_graphs", counted)
    graph_diff.build_fourway(merge_scenario(out / "base", out / "left",
                                            out / "right"))
    return counts


def test_pairs_scored_grow_linearly_and_composing_scores_one_per_pair(
        tmp_path, monkeypatch):
    for workload, key, small, large in (("rename-fanout", "methods", 16, 64),
                                        ("package-rename", "files", 24, 48)):
        totals = []
        for n in (small, large):
            counts = _match_counts(tmp_path, monkeypatch, workload,
                                   **{key: n})
            (_, scored, composed), = [c for c in counts if c[0]]
            assert composed >= n // 2, (workload, n)
            # each composed pair's context, and its body where the two
            # declarations differ
            assert scored <= 2 * composed, (workload, n)
            totals.append(sum(c[1] for c in counts))
        # pairs scored per hub method or per file do not grow
        got_small, got_large = totals
        assert got_large * small <= 1.05 * got_small * large, workload
        if workload == "rename-fanout":
            # a renamed hub method's body in base against left, and its
            # body and context in the merge against right
            assert got_small <= 3 * small


HUB = """\
package p;

public class Hub {{
{methods}
}}
"""

METHOD = """\
    public int {name}(int x) {{
        int y = x + {k};
        y = y * {k} + total;
        total = total + y;
        return {ret};
    }}
"""


def test_a_member_renamed_and_edited_is_paired_through_base(
        tmp_path, monkeypatch):
    # left renames each hub method and edits its body, so no key pairs
    # the merge's method with right's; composing through base does
    names = range(8)
    versions = {
        "base": [METHOD.format(name=f"m{k}", k=k, ret="y") for k in names],
        "left": [METHOD.format(name=f"n{k}", k=k, ret="y - 1")
                 for k in names],
        "right": [METHOD.format(name=f"m{k}", k=k, ret="y") for k in names],
    }
    for version, methods in versions.items():
        (tmp_path / version / "p").mkdir(parents=True)
        (tmp_path / version / "p" / "Hub.java").write_text(
            HUB.format(methods="    int total;\n" + "".join(methods)))
        other = "package p;\n\npublic class Other {\n%s}\n" % (
            "    int extra;\n" if version == "right" else "")
        (tmp_path / version / "p" / "Other.java").write_text(other)
    counts = []
    match = graph_diff.match_graphs

    def counted(ga, gb, scorer, via=None):
        scored = scorer.scored
        got = match(ga, gb, scorer, via)
        counts.append((ga.version + gb.version, via is not None,
                       scorer.scored - scored, got))
        return got

    monkeypatch.setattr(graph_diff, "match_graphs", counted)
    fw = graph_diff.build_fourway(merge_scenario(
        tmp_path / "base", tmp_path / "left", tmp_path / "right"))
    (_, _, _, delta), = [c for c in counts if c[0] == "bl"]
    assert sum(1 for a, b in delta.items() if a != b) == len(names)
    (_, composed, scored, cap), = [c for c in counts if c[0] == "amr"]
    assert composed and cap is fw.cap_right
    renamed = {f"method:p.Hub.n{k}(int)": f"method:p.Hub.m{k}(int)"
               for k in names}
    assert {a: b for a, b in cap.items() if a != b} == renamed
    # a body and a context per composed pair, not every pair of the bucket
    assert scored <= 2 * len(names)
