"""The mask kernel against the Counter arithmetic it replaced.

A Scorer reads a text's multiset of grams as a set of occurrence-tagged
grams (the k-th repeat of a gram is the gram followed by k), interns each
tag to a bit, and takes the popcount of the AND of two masks; the
reference below builds the Counter ``a & b`` as the earlier code did.  The
floats must be equal, not close: the anchor bar and the graph matcher's
threshold compare them exactly.  Besides random and edge-case strings,
texts profiled while the vocabulary was narrow are scored against texts
profiled after it grew past one and past sixteen 64-bit words, and every
pair of texts that either search scores on the merge inputs and the
generated workloads is checked, with each score the merge's Scorer
returned for it.  The graph matcher scores only the pairs its keys and
composition leave open, so each pair the all-against-all reference greedy
would score is scored through the merge's Scorer as well.
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
    # two vocabularies that meet the texts in opposite orders, so the
    # same tag gets different bits in each
    forward, backward = Scorer(), Scorer()
    for text in reversed(texts):
        backward.similarity(text, "")
    pairs = 0
    for a, b in itertools.product(texts, repeat=2):
        want = reference_similarity(a, b)
        assert Scorer().similarity(a, b) == want, (a, b)
        assert forward.similarity(a, b) == want, (a, b)
        assert backward.similarity(a, b) == want, (a, b)
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
    assert Scorer().similarity("", "") == 1.0
    assert Scorer().similarity("ab", "ab") == 1.0
    assert Scorer().similarity("ab", "abc") == 0.0
    scorer = Scorer()
    # "aaaa" has the gram "aaa" twice; "aaa" once: overlap is min(2, 1)
    assert scorer.similarity("aaaa", "aaa") == 2.0 / 3
    # the second "aaa" is tagged "aaa1", a tag of its own
    assert scorer.grams == 2
    # which no plain gram can equal: "aaa1" brings "aa1" only
    assert scorer.similarity("aaa1", "aaaa") == 2.0 / 4
    assert scorer.grams == 3


def test_profile_size_counts_every_occurrence():
    for text in ("", "a", "abc", "aaaa", "abcabcabc", "x.run(x.run(1))"):
        scorer = Scorer()
        # a one-character gram no trigram of text can equal
        scorer.similarity(text, "#")
        assert scorer.profiled == 2, text
        assert scorer.grams == sum(trigrams(text).values()) + 1, text


def _grown_texts(rnd: random.Random, count: int) -> list[str]:
    """Texts sharing a few common grams, each also bringing new ones."""
    common = ["foo.bar(", "x = x + 1;", "aaaaaa", "return "]
    wide = "".join(chr(c) for c in range(0x100, 0x180))
    return [rnd.choice(common)
            + "".join(rnd.choice(wide) for _ in range(rnd.randint(3, 40)))
            + rnd.choice(common) for _ in range(count)]


def test_masks_of_different_widths_score_as_the_reference():
    rnd = random.Random(17)
    scorer = Scorer()
    texts: list[str] = []
    widths: list[int] = []          # the vocabulary after each text
    for text in _grown_texts(rnd, 160):
        for old in texts:
            want = reference_similarity(old, text)
            assert scorer.similarity(old, text) == want, (old, text)
            assert scorer.similarity(text, old) == want, (old, text)
        scorer.similarity(text, text + "#")
        texts.append(text)
        widths.append(scorer.grams)
    # the first texts fit one word, the last need more than sixteen
    assert widths[0] < 64 and widths[-1] > 1024
    early = [t for t, w in zip(texts, widths) if w <= 64]
    late = [t for t, w in zip(texts, widths) if w > 1024]
    assert early and late
    # a narrow mask held against a wide one shares some of its bits
    assert any(scorer.similarity(a, b) > 0 for a in early for b in late)
    # scores kept before the vocabulary grew equal a fresh Scorer's
    fresh = Scorer()
    for a, b in itertools.product(early, late):
        assert scorer.similarity(a, b) == fresh.similarity(a, b)
        assert scorer.similarity(b, a) == fresh.similarity(b, a)


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
        # the graph matcher scores keyed and composed pairs only, mostly
        # from their window; the pairs the all-against-all greedy would
        # score go through the merge's masks here, so wide masks of every
        # input are still checked
        for ga, gb in ((fw.base, fw.left), (fw.base, fw.right),
                       (fw.merged, fw.left), (fw.merged, fw.right)):
            for a, b in reference_match_pairs(ga, gb):
                scorer.similarity(a, b)
        scores: dict[tuple[str, str], float] = {}
        for a, b, sim in scored_pairs:
            assert scores.setdefault((a, b), sim) == sim, (d, a, b)
        for (a, b), sim in scores.items():
            assert sim == reference_similarity(a, b), (d, a, b)
        assert (scorer.grams > 0) == (scorer.scored > 0), d
        pairs += scorer.scored
    assert pairs > 5000
