"""The trigram overlap kernel against the Counter arithmetic it replaced.

profile_similarity counts the multiset overlap by walking the smaller
Counter; the reference below builds ``a & b`` as the earlier code did.  The
floats must be equal, not close: the anchor bar and the graph matcher's
threshold compare them exactly.
"""

import itertools
import random

from conftest import FANOUT
from mergeweaver.merge3 import merge_scenario
from mergeweaver.printer import statement_header_text
from mergeweaver.similarity import (profile, profile_similarity, trigrams,
                                    trigram_similarity)
from mergeweaver.syntax import STATEMENT_KINDS


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
    pairs = 0
    for a, b in itertools.product(texts, repeat=2):
        want = reference_similarity(a, b)
        assert profile_similarity(profiles[a], profiles[b]) == want, (a, b)
        assert trigram_similarity(a, b) == want, (a, b)
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
             "x.run(1)", "x.run(1)"]
    assert_same_on_all_pairs(texts)
    assert profile_similarity(profile(""), profile("")) == 1.0
    assert profile_similarity(profile("ab"), profile("ab")) == 1.0
    assert profile_similarity(profile("ab"), profile("abc")) == 0.0
    # "aaaa" has the gram "aaa" twice; "aaa" once: overlap is min(2, 1)
    assert profile_similarity(profile("aaaa"), profile("aaa")) == 2.0 / 3


def test_every_header_pair_of_the_fanout_fixture():
    scenario = merge_scenario(FANOUT / "base", FANOUT / "left",
                              FANOUT / "right")
    texts = sorted({statement_header_text(n)
                    for version in ("base", "left", "right", "am")
                    for sf in getattr(scenario, version).values()
                    for n in sf.tree.nodes() if n.kind in STATEMENT_KINDS})
    assert len(texts) > 50
    assert_same_on_all_pairs(texts)
