"""Both trigram searches against the verbatim copies they replaced.

``reference_similarity_search`` keeps ``match_graphs`` and
``match_context`` as they were before one per-merge Scorer served both,
with the Counter kernel, a per-call profile memo, a relation scan per
entity context and the greedy scoring every pair of a bucket.  The graph
matcher now takes composed and unique-key pairs before it scores the
rest, which could move a pair where another entity of the bucket scores
higher with one of them, so each match counts the ids the reference pairs
otherwise (moved) and must be one to one.  On every corpus scenario and
control, the fanout fixture, the three ``bench/gen.py`` workloads at
seeds 1 and 4242 and the seeded mutations of the unit-facts test, no pair
may move, and the four graph matches of each merge must give the same
match dicts, in the same order; every anchor search of the example
strategy must pair the same statements with the same scores, sigma and
exact count, or raise the same NoAnchor message, which names the best
score below the bar.  The graph matches of package-rename at 48 files,
with thousands of distinct grams, must match too, and each score the
merge computed, and each the reference greedy would compute, scored
through the merge's Scorer, must equal the Counter kernel's.

The context strings of a merge come from one relation scan per graph,
which covers exactly the graph's ids that some graph of the merge lacks;
they must equal the per-entity scan for every entity they cover, including
an entity that relates to itself.  The memo lives on the merge: the
search modules hold no memo of their own, and merges run one after another
in one process give what fresh processes give.
"""

import gc
import json
import os
import random
import subprocess
import sys
from collections import Counter

import pytest

import reference_similarity_search as ref
import test_unit_facts as mutations
from conftest import (GENERATED, ROOT, bench_gen, merge_inputs,
                      parse_snippet, reference_match_pairs, run_corpus)
from mergeweaver import graph_diff, matching, similarity
from mergeweaver.conflicts import detect_conflicts
from mergeweaver.graph_diff import build_fourway
from mergeweaver.inference import NoRelevantEdit, infer_pattern
from mergeweaver.matching import (MergedMember, NoAnchor, _merged_member,
                                  match_context)
from mergeweaver.merge3 import (TextualConflict, merge_scenario, merge_texts,
                                parse_versions)
from mergeweaver.mining import mine_examples
from mergeweaver.peg import DuplicateEntity, EntityGraph
from mergeweaver.pipeline import report_to_dict, run_scenario
from mergeweaver.similarity import Scorer
from mergeweaver.syntax import SyntaxTree


@pytest.fixture(scope="module")
def merges(generated) -> list:
    """(name, four-way graph) of every merge input and generated
    workload."""
    out = []
    for d in merge_inputs() + generated:
        scenario = merge_scenario(d / "base", d / "left", d / "right")
        out.append((d.name, build_fourway(scenario)))
    return out


def _graph_matches(fw):
    return ((fw.delta_left.matches, fw.base, fw.left),
            (fw.delta_right.matches, fw.base, fw.right),
            (fw.cap_left, fw.merged, fw.left),
            (fw.cap_right, fw.merged, fw.right))


def _moved(got: dict, ga, gb) -> int:
    """The ga ids the reference greedy pairs otherwise than ``got`` does,
    after asserting that ``got`` is one to one and, when none is, that it
    holds the reference's pairs in the reference's order."""
    want = ref.match_graphs(ga, gb)
    assert len(set(got.values())) == len(got)
    moved = sum(1 for a in got.keys() | want.keys() if got.get(a) != want.get(a))
    if not moved:
        assert list(got.items()) == list(want.items())
    return moved


def test_graph_matches_equal_the_reference(merges):
    by_similarity = 0
    for name, fw in merges:
        for got, ga, gb in _graph_matches(fw):
            assert _moved(got, ga, gb) == 0, name
            by_similarity += sum(1 for a, b in got.items() if a != b)
    assert by_similarity >= 100


def test_graph_matches_of_seeded_mutations_equal_the_reference():
    # the seeded mutations of the unit-facts test: renamed, moved,
    # duplicated and retyped types and members, edited bodies and heads
    moved = by_similarity = merges = 0
    for seed in range(240):
        rng = random.Random(seed)
        base = mutations.base_project(rng)
        left = mutations._mutant(rng, base, set())
        right = mutations._mutant(rng, base, set()) if rng.random() < 0.6 \
            else base
        b, l, r = (mutations._texts(v) for v in (base, left, right))
        try:
            am = merge_texts(b, l, r)
        except TextualConflict:
            am = l
        try:
            fw = build_fourway(parse_versions(b, l, r, am))
        except DuplicateEntity:
            continue
        merges += 1
        for got, ga, gb in _graph_matches(fw):
            moved += _moved(got, ga, gb)
            by_similarity += sum(1 for a, b in got.items() if a != b)
    assert merges >= 150 and by_similarity >= 100
    assert moved == 0


def test_a_wide_vocabulary_matches_as_the_reference(tmp_path, scored_pairs):
    bench_gen.write_workload(
        bench_gen.generate("package-rename", 1, files=48), tmp_path)
    fw = build_fourway(merge_scenario(tmp_path / "base", tmp_path / "left",
                                      tmp_path / "right"))
    for got, ga, gb in _graph_matches(fw):
        assert _moved(got, ga, gb) == 0
        # the pairs the reference greedy scores, through the merge's Scorer
        for a, b in reference_match_pairs(ga, gb):
            fw.scorer.similarity(a, b)
    for a, b, sim in set(scored_pairs):
        assert sim == ref.profile_similarity(ref.profile(a), ref.profile(b))
    assert fw.scorer.scored > 9000


def _outcome(search) -> tuple:
    try:
        ms = search()
    except NoAnchor as exc:
        return ("no-anchor", str(exc))
    return ([(p.id, m.id, sc) for p, m, sc in ms.pairs], ms.sigma, ms.exact)


def test_anchor_searches_equal_the_reference(merges):
    outcomes = Counter()
    for name, fw in merges:
        for conflict in detect_conflicts(fw):
            if conflict.using_am is None or conflict.using_am.decl is None:
                continue
            member = _merged_member(fw, conflict.using_am)
            for ex in mine_examples(fw, conflict):
                try:
                    pattern = infer_pattern(ex, conflict)
                except NoRelevantEdit:
                    continue
                got = _outcome(lambda: match_context(pattern, member))
                want = _outcome(
                    lambda: ref.match_context(pattern, member.tree))
                assert got == want, name
                outcomes[got[0] == "no-anchor"] += 1
    assert outcomes[False] >= 100 and outcomes[True] >= 1


TIED_MEMBER = """\
class XmlClientConfigBuilder {
    private void handleSerializers(final Node node) {
        for (Node child : childElements(node)) {
            final String name2 = cleanNodeName(child);
            if ("type-serializer".equals(name2)) {
                TypeSerializerConfig serializerConfig = new TypeSerializerConfig();
                serializerConfig.setClassName(getAttribute(child, "class-name"));
                serializerConfig.setTypeClassName(typeClassName);
                serializerConfig.setTypeClassName(typeClassName);
                addTypeSerializer(serializerConfig);
            }
            if ("type-serializer".equals(name2)) {
                TypeSerializerConfig serializerConfig = new TypeSerializerConfig();
                serializerConfig.setClassName(getAttribute(child, "class-name"));
                serializerConfig.setTypeClassName(typeClassName);
                serializerConfig.setTypeClassName(typeClassName);
                addTypeSerializer(serializerConfig);
            }
        }
    }
}
"""


def test_tied_anchor_and_sibling_scores_break_as_the_reference_does():
    run = run_corpus("serializer-rename")
    (conflict,) = run.report.conflicts
    ex = next(e for e in mine_examples(run.fourway, conflict)
              if e.host.endswith("handleSerializers(Node)"))
    pattern = infer_pattern(ex, conflict)
    tree = parse_snippet(TIED_MEMBER).tree
    decl = next(n for n in tree.nodes() if n.kind == "MethodDecl")
    got = _outcome(lambda: match_context(
        pattern, MergedMember(SyntaxTree(decl), Scorer())))
    assert got == _outcome(
        lambda: ref.match_context(pattern, SyntaxTree(decl)))
    # both anchors and both copies of the preceding sibling score 2.0
    pairs, _sigma, exact = got
    assert exact == 4 and len(pairs) == 5


def test_batched_context_strings_equal_the_per_entity_scan(merges):
    covered = 0
    for name, fw in merges:
        graphs = (fw.base, fw.left, fw.right, fw.merged)
        shared = set(fw.base.entities).intersection(
            *(g.entities for g in graphs[1:]))
        for graph, table in fw.scorer._contexts.items():
            # one scan covers exactly the ids some graph of the merge lacks
            assert graph in graphs, name
            assert table.keys() == graph.entities.keys() - shared, name
            for eid, text in table.items():
                assert text == ref.context_string(
                    graph, graph.entities[eid]), (name, eid)
                covered += 1
    assert covered >= 500


def test_each_graph_is_scanned_once_per_merge(monkeypatch):
    scans = Counter()
    scan = EntityGraph.context_strings

    def counted(graph, ids):
        scans[graph.version] += 1
        return scan(graph, ids)

    monkeypatch.setattr(EntityGraph, "context_strings", counted)
    scanned = 0
    for d in merge_inputs():
        scans.clear()
        build_fourway(merge_scenario(d / "base", d / "left", d / "right"))
        assert set(scans.values()) <= {1}, d.name
        scanned += len(scans)
    assert scanned >= 20


RECURSIVE = """\
package p;

public class Maths {{
    public int {name}(int n) {{
        if (n <= 1) {{
            return 1;
        }}
        return n * {name}(n - 1);
    }}
}}
"""


def test_a_recursive_method_keeps_its_own_fqn_in_its_context(tmp_path):
    for version, name in (("base", "fact"), ("left", "factorial"),
                          ("right", "fact")):
        (tmp_path / version / "p").mkdir(parents=True)
        (tmp_path / version / "p" / "Maths.java").write_text(
            RECURSIVE.format(name=name))
    fw = build_fourway(merge_scenario(tmp_path / "base", tmp_path / "left",
                                      tmp_path / "right"))
    fact = fw.base.find("method", "p.Maths.fact(int)")
    context = fw.scorer.context(fw.base, fact)
    assert context == ref.context_string(fw.base, fact)
    assert context.split() == ["p.Maths", "p.Maths.fact(int)"]
    renamed = fw.left.find("method", "p.Maths.factorial(int)")
    assert "p.Maths.factorial(int)" in fw.scorer.context(fw.left, renamed)
    assert fw.delta_left.matches[fact.id] == renamed.id


def _module_state(module) -> dict:
    """Every dict, set and list a module or one of its classes holds."""
    state = {}
    for name, value in vars(module).items():
        if isinstance(value, (dict, set, list)):
            state[name] = repr(value)
        if isinstance(value, type) and value.__module__ == module.__name__:
            for attr, held in vars(value).items():
                if isinstance(held, (dict, set, list)):
                    state[f"{name}.{attr}"] = repr(held)
        assert not hasattr(value, "cache_info"), name
    return state


FRESH = """\
import json, sys
from mergeweaver.pipeline import report_to_dict, run_scenario
from mergeweaver.similarity import Scorer
from mergeweaver.syntax import SyntaxTree
d = sys.argv[1]
run = run_scenario(d + "/base", d + "/left", d + "/right")
print(json.dumps([report_to_dict(run.report, include_timing=False),
                  [r.text for r in run.report.resolutions]]))
"""


def _fresh_run(d) -> list:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", FRESH, str(d)], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def test_merges_in_one_process_equal_fresh_runs(generated):
    dirs = dict(zip(GENERATED, generated))
    fanout = dirs["rename-fanout", 1]
    renamed = dirs["method-rename", 1]
    fresh = {d: _fresh_run(d) for d in (fanout, renamed)}
    modules = (similarity, graph_diff, matching)
    before = [_module_state(m) for m in modules]
    for d in (fanout, renamed, fanout):
        gc.collect()
        run = run_scenario(d / "base", d / "left", d / "right")
        got = [report_to_dict(run.report, include_timing=False),
               [r.text for r in run.report.resolutions]]
        assert json.loads(json.dumps(got)) == fresh[d], d.name
        assert run.fourway.scorer.scored > 0
        del run
    assert [_module_state(m) for m in modules] == before
