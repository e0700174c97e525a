"""Character trigram similarity.

Dice coefficient over the multisets of character 3-grams of the two inputs.
Strings shorter than three characters contribute themselves as a single
gram so the metric stays defined (and equal strings always score 1.0).
"""

from __future__ import annotations

from collections import Counter


def trigrams(text: str) -> Counter:
    if len(text) < 3:
        return Counter({text: 1})
    return Counter(text[i:i + 3] for i in range(len(text) - 2))


# (text, its trigram multiset, the multiset's size)
Profile = tuple[str, Counter, int]


def profile(text: str) -> Profile:
    grams = trigrams(text)
    return text, grams, sum(grams.values())


def profile_similarity(a: Profile, b: Profile) -> float:
    """trigram_similarity of two profiled texts.

    The multiset overlap walks the smaller Counter and looks each gram up
    in the larger one instead of building ``a & b``: the same integer, so
    the same float.
    """
    if a[0] == b[0]:
        return 1.0
    total = a[2] + b[2]
    if total == 0:
        return 1.0
    small, large = a[1], b[1]
    if len(small) > len(large):
        small, large = large, small
    get = large.get
    overlap = 0
    for gram, n in small.items():
        m = get(gram)
        if m:
            overlap += n if n < m else m
    return 2.0 * overlap / total


def trigram_similarity(a: str, b: str) -> float:
    if a == b:
        return 1.0
    return profile_similarity(profile(a), profile(b))
