"""Character trigram similarity, counted from the window where texts differ.

Dice coefficient over the multisets of character 3-grams of two texts.
Strings shorter than three characters contribute themselves as a single
gram so the metric stays defined (and equal strings always score 1.0).

Two texts equal but for one window share the n_a - |W_a| + |W_a & W_b|
grams that do not overlap it, for W the grams that do.  So a pair is
counted from its window alone: the lengths of the equal head and tail
are found by binary search, and only the grams overlapping what lies
between them are counted.  Two unrelated texts have the whole text as
their window.  A text under three characters is one gram of fewer than
three characters, which no other text holds, so it scores 0.0 against
any text it does not equal.  These are the integers the multiset
arithmetic gives, over the same total, so the float is the same.

Both trigram searches of a merge, the entity graph matcher (graph_diff)
and the anchor search (matching), score through one Scorer, which
``build_fourway`` keeps on the merge's FourWayGraph.  A score reads only
its two texts, so nothing is kept per text or per pair.  The Scorer
prints each declaration through the merge's PrintMemo (see
``printer``), which renders each parsed member and statement once.  A
match asks for the context of an entity only when the other graph lacks
its id, so the Scorer is given the ids all four graphs of the merge
hold, and builds a graph's context strings for its other ids, the ones
some graph of the merge lacks, with one relation scan on the first
request in that graph.  No context string needs a deferred body's
relation (see peg's "Deferred bodies"): those join entities every graph
holds, which each match pairs by id.  The memos live as long as the
merge and no longer; the module holds none.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from typing import AbstractSet

from .peg import Entity, EntityGraph
from .printer import PrintMemo


def trigrams(text: str) -> list[str]:
    """text's character 3-grams, or text itself when it is shorter."""
    return [text[i:i + 3] for i in range(len(text) - 2)] \
        if len(text) >= 3 else [text]


class Scorer:
    """One merge's trigram scores and the texts they compare.

    ``scored`` counts the scores of unequal texts, a pair asked again
    counting again.  ``shared`` holds the ids every graph of the merge
    holds, whose contexts are never asked for; a Scorer given none scans
    a whole graph for its contexts.
    """

    def __init__(self, shared: AbstractSet[str] = frozenset()) -> None:
        # keyed by the entity, which holds its declaration, so no id() in
        # a key can be reused; a package is its own graph's entity.  One
        # string per body, so the keys and the pairs that read a body join
        # its printed text once
        self._bodies: dict[Entity, str] = {}
        self.print_memo = PrintMemo()
        self._contexts: dict[EntityGraph, dict[str, str]] = {}
        self._shared = shared
        self.scored = 0

    def similarity(self, a: str, b: str) -> float:
        if a == b:
            return 1.0
        self.scored += 1
        la, lb = len(a), len(b)
        if la < 3 or lb < 3:
            return 0.0
        most = min(la, lb)
        head = bisect_left(range(1, most + 1), True,
                           key=lambda n: a[:n] != b[:n])
        tail = bisect_left(range(1, most - head + 1), True,
                           key=lambda n: a[la - n:] != b[lb - n:])
        lo, hi = max(head - 2, 0), max(tail, 2)
        wa, wb = range(lo, la - hi), range(lo, lb - hi)
        shared = la - 2 - len(wa)
        # an empty window, as where a context gains a neighbour, shares none
        if wa and wb:
            shared += (Counter([a[i:i + 3] for i in wa])
                       & Counter([b[i:i + 3] for i in wb])).total()
        return 2.0 * shared / (la + lb - 4)

    def body_text(self, graph: EntityGraph, entity: Entity) -> str:
        """``graph.body_text(entity)``, printed through the print memo."""
        text = self._bodies.get(entity)
        if text is None:
            text = self._bodies[entity] = graph.body_text(entity,
                                                          self.print_memo)
        return text

    def context(self, graph: EntityGraph, entity: Entity) -> str:
        """``entity``'s context string, for an id outside ``shared``.  The
        first request in a graph scans its relations once for all of
        them."""
        table = self._contexts.get(graph)
        if table is None:
            table = self._contexts[graph] = graph.context_strings(
                graph.entities.keys() - self._shared)
        return table[entity.id]
