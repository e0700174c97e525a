"""The set kernel against the Counter arithmetic it replaced.

A profile stores the k-th repeat of a gram as the gram followed by k, and
profile_similarity takes the size of a set intersection; the reference
below builds the Counter ``a & b`` as the earlier code did.  The floats
must be equal, not close: the anchor bar and the graph matcher's threshold
compare them exactly.  Besides random and edge-case strings, every pair of
texts that either search scores on the merge inputs and the generated
workloads is checked, with the score the merge's Scorer kept for it.
"""

import itertools
import random

from conftest import FANOUT, merge_inputs
from mergeweaver.merge3 import merge_scenario
from mergeweaver.pipeline import run_scenario
from mergeweaver.printer import statement_header_text
from mergeweaver.similarity import (Scorer, profile, profile_similarity,
                                    trigram_similarity)
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
    profiles = {t: profile(t) for t in texts}
    scorer = Scorer()
    pairs = 0
    for a, b in itertools.product(texts, repeat=2):
        want = reference_similarity(a, b)
        assert profile_similarity(profiles[a], profiles[b]) == want, (a, b)
        assert trigram_similarity(a, b) == want, (a, b)
        assert scorer.similarity(a, b) == want, (a, b)
        pairs += 1
    return pairs


def test_seeded_random_strings():
    rnd = random.Random(5)
    # a small alphabet makes repeated grams, so counts above one overlap;
    # the digit lets a plain gram look like a tagged one
    alphabet = "ab(). =1"
    texts = ["".join(rnd.choice(alphabet) for _ in range(rnd.randint(0, 24)))
             for _ in range(100)]
    assert assert_same_on_all_pairs(texts) == 100 * 100


def test_short_equal_and_empty_strings():
    texts = ["", "a", "b", "ab", "ba", "aa", "abc", "aaa", "aaaa", "abab",
             "x.run(1)", "x.run(1)", "aaaaa", "aa1", "aaa1", "aaaaaa1"]
    assert_same_on_all_pairs(texts)
    assert profile_similarity(profile(""), profile("")) == 1.0
    assert profile_similarity(profile("ab"), profile("ab")) == 1.0
    assert profile_similarity(profile("ab"), profile("abc")) == 0.0
    # "aaaa" has the gram "aaa" twice; "aaa" once: overlap is min(2, 1)
    assert profile_similarity(profile("aaaa"), profile("aaa")) == 2.0 / 3
    # the second "aaa" is tagged "aaa1", which no plain gram can equal
    assert profile("aaaa")[1] == {"aaa", "aaa1"}
    assert profile("aaa1")[1] == {"aaa", "aa1"}


def test_profile_size_counts_every_occurrence():
    for text in ("", "a", "abc", "aaaa", "abcabcabc", "x.run(x.run(1))"):
        grams = trigrams(text)
        _text, tagged, size = profile(text)
        assert size == sum(grams.values()) == len(tagged), text


def test_every_header_pair_of_the_fanout_fixture():
    scenario = merge_scenario(FANOUT / "base", FANOUT / "left",
                              FANOUT / "right")
    texts = sorted({statement_header_text(n)
                    for version in ("base", "left", "right", "am")
                    for sf in getattr(scenario, version).values()
                    for n in sf.tree.nodes() if n.kind in STATEMENT_KINDS})
    assert len(texts) > 50
    assert_same_on_all_pairs(texts)


def test_every_pair_either_search_scores_matches_the_reference(generated):
    pairs = 0
    for d in merge_inputs() + generated:
        scorer = run_scenario(d / "base", d / "left", d / "right") \
            .fourway.scorer
        assert scorer.scored == len(scorer._scores), d
        for (a, b), sim in scorer._scores.items():
            assert sim == reference_similarity(a, b), (d, a, b)
        for text, prof in scorer._profiles.items():
            assert prof == profile(text), (d, text)
        pairs += scorer.scored
    assert pairs > 5000
