"""The window score against the Counter arithmetic it must equal.

A Scorer counts a pair of texts from the grams that overlap the window
where they differ; the reference below builds the Counter ``a & b`` of
the whole texts.  The floats must be equal, not close: the anchor bar
and the graph matcher's threshold compare them exactly.  Besides random
and edge-case strings, every pair of texts that either search scores on
the merge inputs and the generated workloads is checked, with each score
the merge's Scorer returned for it.  The graph matcher scores only the
pairs its keys and composition leave open, so each pair the
all-against-all reference greedy would score is scored through the
merge's Scorer as well.
"""

import itertools
import random

from conftest import FANOUT, merge_inputs, reference_match_pairs
from mergeweaver.merge3 import merge_scenario
from mergeweaver.pipeline import run_scenario
from mergeweaver.printer import statement_header_text
from mergeweaver.similarity import Scorer
from mergeweaver.syntax import STATEMENT_KINDS
from reference_similarity_search import trigrams


def reference_similarity(a: str, b: str) -> float:
    if a == b:
        return 1.0
    ta, tb = trigrams(a), trigrams(b)
    total = sum(ta.values()) + sum(tb.values())
    if total == 0:
        return 1.0
    return 2.0 * sum((ta & tb).values()) / total


def assert_same_on_all_pairs(texts: list[str]) -> int:
    # one Scorer shared by every pair, one fresh for each
    shared = Scorer()
    pairs = 0
    for a, b in itertools.product(texts, repeat=2):
        want = reference_similarity(a, b)
        assert Scorer().similarity(a, b) == want, (a, b)
        assert shared.similarity(a, b) == want, (a, b)
        pairs += 1
    return pairs


def test_seeded_random_strings():
    rnd = random.Random(5)
    # a small alphabet makes repeated grams, so counts above one overlap
    alphabet = "ab(). =1"
    texts = ["".join(rnd.choice(alphabet) for _ in range(rnd.randint(0, 24)))
             for _ in range(100)]
    assert assert_same_on_all_pairs(texts) == 100 * 100


def test_short_equal_and_empty_strings():
    texts = ["", "a", "b", "ab", "ba", "aa", "abc", "aaa", "aaaa", "abab",
             "x.run(1)", "x.run(1)", "aaaaa", "aa1", "aaa1", "aaaaaa1"]
    assert_same_on_all_pairs(texts)
    assert Scorer().similarity("", "") == 1.0
    assert Scorer().similarity("ab", "ab") == 1.0
    assert Scorer().similarity("ab", "abc") == 0.0
    scorer = Scorer()
    # "aaaa" has the gram "aaa" twice; "aaa" once: overlap is min(2, 1)
    assert scorer.similarity("aaaa", "aaa") == 2.0 / 3
    # "aaa1" shares one "aaa" with "aaaa", and its "aa1" matches nothing
    assert scorer.similarity("aaa1", "aaaa") == 2.0 / 4


def test_every_header_pair_of_the_fanout_fixture():
    scenario = merge_scenario(FANOUT / "base", FANOUT / "left",
                              FANOUT / "right")
    texts = sorted({statement_header_text(n)
                    for version in ("base", "left", "right", "am")
                    for sf in getattr(scenario, version).values()
                    for n in sf.tree.nodes() if n.kind in STATEMENT_KINDS})
    assert len(texts) > 50
    assert_same_on_all_pairs(texts)


def test_every_pair_either_search_scores_matches_the_reference(
        generated, scored_pairs):
    pairs = 0
    for d in merge_inputs() + generated:
        scored_pairs.clear()
        fw = run_scenario(d / "base", d / "left", d / "right").fourway
        scorer = fw.scorer
        assert scorer.scored == sum(1 for a, b, _ in scored_pairs if a != b), d
        # the graph matcher scores keyed and composed pairs only; the
        # pairs the all-against-all greedy would score go through the
        # merge's Scorer here, so they are still checked on every input
        for ga, gb in ((fw.base, fw.left), (fw.base, fw.right),
                       (fw.merged, fw.left), (fw.merged, fw.right)):
            for a, b in reference_match_pairs(ga, gb):
                scorer.similarity(a, b)
        scores: dict[tuple[str, str], float] = {}
        for a, b, sim in scored_pairs:
            assert scores.setdefault((a, b), sim) == sim, (d, a, b)
        for (a, b), sim in scores.items():
            assert sim == reference_similarity(a, b), (d, a, b)
        pairs += scorer.scored
    assert pairs > 5000
