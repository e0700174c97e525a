"""Character trigram similarity, scored once per merge.

Dice coefficient over the multisets of character 3-grams of two texts.
Strings shorter than three characters contribute themselves as a single
gram so the metric stays defined (and equal strings always score 1.0).

A profile holds a text's multiset as a set: the k-th repeat (k >= 1) of a
gram is stored as the gram followed by ``str(k)``.  A plain gram has three
characters and a tagged one at least four, and a tagged gram splits back
into its gram and its k, so no two occurrences collide.  The size of the
intersection of two such sets is then the size of the multiset
intersection: the same integer over the same total, so the same float.

Both trigram searches of a merge, the entity graph matcher (graph_diff)
and the anchor search (matching), score through one Scorer, which
``build_fourway`` keeps on the merge's FourWayGraph.  It profiles each text
once, scores each pair of texts once and prints each declaration once, and
it builds each graph's context strings with one relation scan, made on
the first request and covering only the entities a match of the merge
leaves unmatched by id.  No context string needs a deferred body's
relation (see peg's "Deferred bodies"): those join entities every graph
holds, which each match pairs by id.  The memo lives as long as the merge
and no longer; the module holds none.
"""

from __future__ import annotations

from .peg import Entity, EntityGraph

# (text, its occurrence-tagged trigram set, the multiset's size)
Profile = tuple[str, frozenset, int]


def profile(text: str) -> Profile:
    if len(text) < 3:
        return text, frozenset((text,)), 1
    grams = [text[i:i + 3] for i in range(len(text) - 2)]
    tagged = set(grams)
    if len(tagged) < len(grams):
        repeats: dict[str, int] = {}
        tagged = set()
        for gram in grams:
            k = repeats.get(gram, 0)
            repeats[gram] = k + 1
            tagged.add(gram + str(k) if k else gram)
    return text, frozenset(tagged), len(grams)


def profile_similarity(a: Profile, b: Profile) -> float:
    """trigram_similarity of two profiled texts."""
    if a[0] == b[0]:
        return 1.0
    return 2.0 * len(a[1] & b[1]) / (a[2] + b[2])


def trigram_similarity(a: str, b: str) -> float:
    if a == b:
        return 1.0
    return profile_similarity(profile(a), profile(b))


class Scorer:
    """One merge's trigram scores and the texts they compare.

    ``profiled`` counts the texts profiled, ``scored`` the pairs of unequal
    texts scored, and ``hits`` the calls of ``similarity`` that the memo
    answered.
    """

    def __init__(self) -> None:
        self._profiles: dict[str, Profile] = {}
        self._scores: dict[tuple[str, str], float] = {}
        # keyed by the entity, which holds its declaration, so no id() in
        # a key can be reused; a package is its own graph's entity
        self._bodies: dict[Entity, str] = {}
        self._contexts: dict[EntityGraph, dict[str, str]] = {}
        self._unmatched: dict[EntityGraph, set[str]] = {}
        self.profiled = 0
        self.scored = 0
        self.hits = 0

    def similarity(self, a: str, b: str) -> float:
        if a == b:
            return 1.0
        key = (a, b)
        sim = self._scores.get(key)
        if sim is not None:
            self.hits += 1
            return sim
        self.scored += 1
        sim = self._scores[key] = profile_similarity(self._profile(a),
                                                     self._profile(b))
        return sim

    def _profile(self, text: str) -> Profile:
        got = self._profiles.get(text)
        if got is None:
            self.profiled += 1
            got = self._profiles[text] = profile(text)
        return got

    def body_text(self, graph: EntityGraph, entity: Entity) -> str:
        """``graph.body_text(entity)``, each declaration printed once."""
        text = self._bodies.get(entity)
        if text is None:
            text = self._bodies[entity] = graph.body_text(entity)
        return text

    def expect_match(self, ga: EntityGraph, gb: EntityGraph) -> None:
        """Declares that ga and gb will be matched: each may then be asked
        for the context of every entity whose id the other lacks."""
        for g, other in ((ga, gb), (gb, ga)):
            self._unmatched.setdefault(g, set()).update(
                g.entities.keys() - other.entities.keys())

    def context(self, graph: EntityGraph, entity: Entity) -> str:
        """``entity``'s context string.  The first request in a graph
        scans its relations once for every entity an expected match may
        ask for."""
        table = self._contexts.setdefault(graph, {})
        text = table.get(entity.id)
        if text is None:
            wanted = self._unmatched.get(graph, set()) - table.keys()
            wanted.add(entity.id)
            table.update(graph.context_strings(wanted))
            text = table[entity.id]
        return text
