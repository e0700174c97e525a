"""Character trigram similarity, scored once per merge.

Dice coefficient over the multisets of character 3-grams of two texts.
Strings shorter than three characters contribute themselves as a single
gram so the metric stays defined (and equal strings always score 1.0).

A text's multiset is read as a set of occurrence-tagged grams: the k-th
repeat (k >= 1) of a gram is the gram followed by ``str(k)``.  A plain
gram has three characters, a tagged one at least four and a short text's
gram at most two, and a tagged gram splits back into its gram and its k,
so no two occurrences collide.  Two texts then share min(m, n) tags of a
gram they hold m and n times, so the size of the intersection of their
tag sets is the size of the multiset intersection.

The kernel is bit-parallel.  Each Scorer interns every tag it meets to a
dense bit index, its vocabulary, and keeps a profiled text as ``(mask,
size)``: an ``int`` with the bits of the text's tags set, and the count
of its grams.  A pair of texts scores ``2.0 * (ma & mb).bit_count() /
(na + nb)``.  Within one vocabulary a bit stands for exactly one tag, so
the popcount is the same integer as the multiset intersection, over the
same total, and the float is the same as the Counter arithmetic gives.
Which bit a tag gets depends on the order the texts arrive in; no
popcount does.  A mask is built by setting the bits of a bytearray, one
per tag, and reading it as an ``int`` once, so it costs O(grams + V/8)
for a vocabulary of V tags rather than one V-bit OR per gram; an AND
reads at most V/30 of CPython's 30-bit digits.

Both trigram searches of a merge, the entity graph matcher (graph_diff)
and the anchor search (matching), score through one Scorer, which
``build_fourway`` keeps on the merge's FourWayGraph.  It profiles each
text once; a pair costs one AND and one popcount, about what a lookup in
a memo of pair scores would, so none is kept.  It prints each
declaration through the merge's PrintMemo (see ``printer``), which
renders each parsed member and statement once, and builds each graph's
context strings with one relation scan, made on the first request and
covering only the entities a match of the merge leaves unmatched by id.
No context string needs a deferred body's relation (see peg's "Deferred
bodies"): those join entities every graph holds, which each match pairs
by id.  The vocabulary, the masks and the memos live as long as the
merge and no longer; the module holds none, and masks of two Scorers are
never compared.
"""

from __future__ import annotations

from collections import Counter

from .peg import Entity, EntityGraph
from .printer import PrintMemo


def trigrams(text: str) -> list[str]:
    """text's character 3-grams, or text itself when it is shorter."""
    return [text[i:i + 3] for i in range(len(text) - 2)] \
        if len(text) >= 3 else [text]


class Scorer:
    """One merge's trigram scores and the texts they compare.

    ``profiled`` counts the texts profiled and ``scored`` the scores of
    unequal texts computed, a pair asked again counting again; ``grams``
    is the size of the vocabulary.
    """

    def __init__(self) -> None:
        # the vocabulary: each occurrence-tagged gram's bit
        self._vocab: dict[str, int] = {}
        # each profiled text's (mask, size)
        self._masks: dict[str, tuple[int, int]] = {}
        # keyed by the entity, which holds its declaration, so no id() in
        # a key can be reused; a package is its own graph's entity.  One
        # string per body, whose hash a mask lookup computes once
        self._bodies: dict[Entity, str] = {}
        self.print_memo = PrintMemo()
        self._contexts: dict[EntityGraph, dict[str, str]] = {}
        self._unmatched: dict[EntityGraph, set[str]] = {}
        self.profiled = 0
        self.scored = 0

    @property
    def grams(self) -> int:
        """The tags the vocabulary holds: the width of a mask in bits."""
        return len(self._vocab)

    def similarity(self, a: str, b: str) -> float:
        if a == b:
            return 1.0
        self.scored += 1
        masks = self._masks
        ma, na = masks.get(a) or self._profile(a)
        mb, nb = masks.get(b) or self._profile(b)
        return 2.0 * (ma & mb).bit_count() / (na + nb)

    def _profile(self, text: str) -> tuple[int, int]:
        """text's (mask, size), kept for the merge."""
        self.profiled += 1
        grams = trigrams(text)
        counts = Counter(grams)
        vocab = self._vocab
        intern = vocab.setdefault
        # each gram adds at most one tag to the vocabulary
        buf = bytearray((len(vocab) + len(grams) + 7) >> 3)
        for gram in counts:
            bit = intern(gram, len(vocab))
            buf[bit >> 3] |= 1 << (bit & 7)
        if len(counts) < len(grams):
            for gram, n in counts.items():
                if n > 1:
                    for k in range(1, n):
                        bit = intern(gram + str(k), len(vocab))
                        buf[bit >> 3] |= 1 << (bit & 7)
        got = self._masks[text] = (int.from_bytes(buf, "little"), len(grams))
        return got

    def body_text(self, graph: EntityGraph, entity: Entity) -> str:
        """``graph.body_text(entity)``, printed through the print memo."""
        text = self._bodies.get(entity)
        if text is None:
            text = self._bodies[entity] = graph.body_text(entity,
                                                          self.print_memo)
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
        table = self._contexts.get(graph)
        if table is None:
            table = self._contexts[graph] = {}
        text = table.get(entity.id)
        if text is None:
            wanted = self._unmatched.get(graph, set()) - table.keys()
            wanted.add(entity.id)
            table.update(graph.context_strings(wanted))
            text = table[entity.id]
        return text
