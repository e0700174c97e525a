"""Entity graph matching and deltas.

Matching runs in two phases: exact (kind, fqn) identity, then a similarity
sweep that only pairs entities whose parents are already matched, so a member
moved across types shows up as delete plus add rather than a match.  The
similarity score averages trigram similarity of the printed declaration and
of the sorted neighbor fqns; pairs below 0.618 stay unmatched.  Each round
of the sweep buckets the other graph's unmatched entities by kind and
parent id, in that graph's order, so an entity is scored only against the
candidates of its bucket.  First, as GumTree takes unique subtrees and
IntelliMerge unchanged signatures, a round takes the pairs of two kinds
that clear the bar: composed ones (``via``: through the other branch's
match, back to base by its delta's ``inverse`` and on by this delta;
``build_fourway`` matches directly the branch lacking fewer merged ids),
then those of a key held once on each side, a unit's or type's simple
name or a member's signature and name-masked declaration.  They join
the round's ranking, so where the greedy takes the same pairs the match
is the same dict in the same order.  All score through the merge's
Scorer (``similarity``), each pair from the window where its two texts
differ.

A delta lists entity edits (add, delete, update with a rename,
signature-change or body-change detail) and relation edits computed modulo
the entity match.  The entities of a unit both graphs share (see ``peg``)
and the relations both graphs hold cannot make an edit, so a delta looks
only at the rest.  ``build_fourway`` defers the bodies of the files at
``MergeScenario.deferred`` (see peg's "Deferred bodies"), which would add
the same relations to both graphs of a delta, so the delta of the
incomplete graphs is that of the full ones.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

from .merge3 import MergeScenario
from . import peg, syntax
from .peg import MEMBER_ENTITY_KINDS, Entity, EntityGraph, Relation
from .similarity import Scorer
from .syntax import SyntaxNode

MATCH_THRESHOLD = 0.618


@dataclass
class EntityEdit:
    op: str                     # add | delete | update
    branch: str                 # l | r
    kind: str                   # entity kind
    old_fqn: Optional[str]
    new_fqn: Optional[str]
    detail: Optional[str] = None  # rename | signature-change | body-change
    old: Optional[Entity] = None
    new: Optional[Entity] = None

    @property
    def subject(self) -> str:
        return self.new_fqn if self.old_fqn is None else self.old_fqn

    def __repr__(self) -> str:  # pragma: no cover
        tail = f" {self.detail}" if self.detail else ""
        if self.op == "update" and self.old_fqn != self.new_fqn:
            return f"<{self.op}{tail} {self.kind} {self.old_fqn} -> {self.new_fqn}>"
        return f"<{self.op}{tail} {self.kind} {self.subject}>"


@dataclass
class RelationEdit:
    op: str                     # add | delete
    branch: str
    kind: str                   # relation kind
    src_fqn: str
    dst_fqn: str
    src: Optional[Entity] = None
    dst: Optional[Entity] = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{self.op} {self.kind} {self.src_fqn} -> {self.dst_fqn}>"


@dataclass
class GraphDelta:
    branch: str
    base: EntityGraph
    target: EntityGraph
    matches: dict[str, str]             # base entity id -> target entity id
    inverse: dict[str, str]             # target entity id -> base entity id
    entity_edits: list[EntityEdit] = field(default_factory=list)
    relation_edits: list[RelationEdit] = field(default_factory=list)


_PHASE2_ORDER = {
    "project": 0, "package": 1, "compilation-unit": 2,
    "class": 3, "interface": 3, "enum": 3,
    "field": 4, "method": 4, "constructor": 4, "enum-constant": 4,
}


def match_graphs(ga: EntityGraph, gb: EntityGraph, scorer: Scorer,
                 via: Optional[Callable] = None) -> dict[str, str]:
    """Correspondence between two graphs as a dict of entity ids."""
    matches: dict[str, str] = {}
    taken: set[str] = set()
    for eid in ga.entities:
        if eid in gb.entities:
            matches[eid] = eid
            taken.add(eid)
    open_a = [ent for eid, ent in ga.entities.items() if eid not in matches]
    open_b = [((other.kind, gb.parent_id(other)), other)
              for oid, other in gb.entities.items() if oid not in taken]

    # similarity phase, repeated until stable so a matched parent can unlock
    # the pairing of its renamed children
    while True:
        # gb's untaken entities by (kind, parent id), in gb's order
        buckets: dict[tuple[str, Optional[str]], list[Entity]] = {}
        for key, other in open_b:
            if other.id not in taken:
                buckets.setdefault(key, []).append(other)
        asking: dict[tuple[str, Optional[str]], list[Entity]] = {}
        for ent in open_a:
            pid = ga.parent_id(ent)
            if ent.id not in matches and (pid is None or pid in matches):
                asking.setdefault((ent.kind, matches.get(pid)), []).append(ent)
        candidates: list[tuple[float, Entity, Entity]] = []
        for key, ents in asking.items():
            if key in buckets:
                _score_bucket(ga, gb, ents, buckets[key], scorer, via,
                              candidates)
        if not candidates:
            return matches
        candidates.sort(key=lambda c: (-c[0], _PHASE2_ORDER[c[1].kind],
                                       c[1].fqn, c[2].fqn))
        progressed = False
        for _sim, ent, other in candidates:
            if ent.id in matches or other.id in taken:
                continue
            matches[ent.id] = other.id
            taken.add(other.id)
            progressed = True
        if not progressed:
            return matches


def _score_bucket(ga: EntityGraph, gb: EntityGraph, ents: list, bucket: list,
                  scorer: Scorer, via, candidates: list) -> None:
    """Adds to ``candidates`` the pairs of one bucket that clear the bar:
    composed and unique-key pairs first, then the rest all against all."""
    keys_a = {ent: _key(ga, ent, scorer) for ent in ents}
    keys_b = {other: _key(gb, other, scorer) for other in bucket}

    def clears(ent: Entity, other: Entity) -> bool:
        sim = 0.5 * scorer.similarity(scorer.body_text(ga, ent),
                                      scorer.body_text(gb, other)) \
            + 0.5 * scorer.similarity(scorer.context(ga, ent),
                                      scorer.context(gb, other))
        if sim >= MATCH_THRESHOLD:
            candidates.append((sim, ent, other))
        return sim >= MATCH_THRESHOLD

    by_id = {other.id: other for other in bucket} if via else {}
    pairs = [(e, o) for e in ents if via and (o := by_id.get(via(e.id)))]
    proposed = {x for pair in pairs for x in pair}
    unique_b = _unique(keys_b, proposed)
    pairs += [(e, o) for k, e in _unique(keys_a, proposed).items()
              if (o := unique_b.get(k))]
    paired = {x for pair in pairs if clears(*pair) for x in pair}
    for ent in ents:
        if ent not in paired:
            for other in bucket:
                if other not in paired:
                    clears(ent, other)


def _key(graph: EntityGraph, ent: Entity, scorer: Scorer):
    if ent.kind not in MEMBER_ENTITY_KINDS:
        return None if ent.kind in ("project", "package") else ent.simple_name
    sig, name = ent.param_sig, ent.simple_name
    return sig, scorer.body_text(graph, ent).replace(
        name if sig is None else name + "(", "\0", 1)


def _unique(keys: dict, skip: set) -> dict:
    """The entities of ``keys`` not in ``skip``, by the keys one holds."""
    held = Counter(key for ent, key in keys.items() if ent not in skip)
    return {key: ent for ent, key in keys.items()
            if held[key] == 1 and key is not None and ent not in skip}


def _update_detail(old: Entity, new: Entity, base: EntityGraph,
                   target: EntityGraph, scorer: Scorer) -> Optional[str]:
    if old.fqn != new.fqn:
        if old.simple_name != new.simple_name:
            return "rename"
        if old.param_sig != new.param_sig:
            return "signature-change"
        return "rename"
    if scorer.body_text(base, old) != scorer.body_text(target, new):
        return "body-change"
    return None


def _relation_order(rel: Relation) -> tuple[str, str, str]:
    return rel.src, rel.kind, rel.dst


def diff_graphs(base: EntityGraph, target: EntityGraph, branch: str,
                scorer: Scorer) -> GraphDelta:
    matches = match_graphs(base, target, scorer)
    delta = GraphDelta(branch, base, target, matches, _inverse(matches))
    inverse = delta.inverse

    # a unit both graphs share holds the same entities in each, matched to
    # themselves with one shared declaration, so it makes no entity edit
    shared = set(base.units).intersection(target.units)
    for ent in sorted(base.entities_outside(shared), key=lambda e: e.fqn):
        eid = ent.id
        if eid not in matches:
            delta.entity_edits.append(EntityEdit(
                "delete", branch, ent.kind, ent.fqn, None, old=ent))
            continue
        other = target.entities[matches[eid]]
        detail = _update_detail(ent, other, base, target, scorer)
        if detail is not None:
            delta.entity_edits.append(EntityEdit(
                "update", branch, ent.kind, ent.fqn, other.fqn,
                detail=detail, old=ent, new=other))
    for other in sorted(target.entities_outside(shared), key=lambda e: e.fqn):
        if other.id not in inverse:
            delta.entity_edits.append(EntityEdit(
                "add", branch, other.kind, None, other.fqn, new=other))

    # a relation both graphs hold joins ids the exact phase matched to
    # themselves, so only the two set differences can hold edits
    for rel in sorted(base.relations - target.relations, key=_relation_order):
        if rel.src not in matches:
            continue
        src, dst = base.by_id(rel.src), base.by_id(rel.dst)
        if rel.dst in matches:
            mapped = Relation(matches[rel.src], matches[rel.dst], rel.kind)
            if mapped in target.relations:
                continue
        delta.relation_edits.append(RelationEdit(
            "delete", branch, rel.kind, src.fqn, dst.fqn, src=src, dst=dst))
    for rel in sorted(target.relations - base.relations, key=_relation_order):
        src, dst = target.by_id(rel.src), target.by_id(rel.dst)
        if rel.src in inverse and rel.dst in inverse:
            mapped = Relation(inverse[rel.src], inverse[rel.dst], rel.kind)
            if mapped in base.relations:
                continue
        delta.relation_edits.append(RelationEdit(
            "add", branch, rel.kind, src.fqn, dst.fqn, src=src, dst=dst))
    return delta


@dataclass
class FourWayGraph:
    base: EntityGraph
    left: EntityGraph
    right: EntityGraph
    merged: EntityGraph
    delta_left: GraphDelta
    delta_right: GraphDelta
    cap_left: dict[str, str]    # merged entity id -> left entity id
    cap_right: dict[str, str]
    # the trigram scores of both searches of this merge; see the
    # similarity module docstring
    scorer: Scorer = field(compare=False, repr=False)
    # cap_left and cap_right inverted: branch entity id -> merged entity id
    uncap_left: dict[str, str] = field(compare=False, repr=False)
    uncap_right: dict[str, str] = field(compare=False, repr=False)
    # mining.mine_examples' memo: (branch, base host id, branch host id)
    # -> the host's EditExample, or None when its script is empty; see the
    # mining module docstring
    mined: dict = field(default_factory=dict, compare=False, repr=False)
    # matching.resolve_by_example's memo: merged entity id -> the member's
    # tree, statements and header texts (MergedMember); see the matching
    # module docstring
    members: dict = field(default_factory=dict, compare=False, repr=False)
    # name_index's memo: declaration node -> its syntax.name_index, which
    # detection reads and each mined host keeps.  Keyed by node, so
    # versions that share a parse share its index; sound, as members is,
    # because nothing writes a parsed tree (a resolution writes a
    # copy-on-write clone, and mining diffs read-only views)
    named: dict = field(default_factory=dict, compare=False, repr=False)

    def name_index(self, decl: SyntaxNode) -> dict[str, list[SyntaxNode]]:
        """``syntax.name_index(decl)``, built once per merge."""
        index = self.named.get(decl)
        if index is None:
            index = self.named[decl] = syntax.name_index(decl)
        return index


def build_fourway(scenario: MergeScenario) -> FourWayGraph:
    # unit facts shared by the four builds, begun by parse_versions
    memo = dict(scenario.unit_facts)
    record, graphs, lacks, deltas = scenario.record, {}, {}, {}
    for label, files in (("b", scenario.base), ("l", scenario.left),
                         ("r", scenario.right), ("am", scenario.am)):
        graphs[label] = peg.build_peg(files, label, memo, scenario.deferred)
        record.lap(f"graph.{peg.VERSION_NAMES[label]}")
    gb, gam, scorer = graphs.pop("b"), graphs.pop("am"), Scorer()
    for x, g in graphs.items():
        scorer.expect_match(gb, g)
        lacks[x] = scorer.expect_match(gam, g)
    for x, g in graphs.items():
        deltas[x] = diff_graphs(gb, g, x, scorer)
        record.lap(f"delta.{peg.VERSION_NAMES[x]}")
    one, two = sorted(graphs, key=lacks.get)
    caps = {one: match_graphs(gam, graphs[one], scorer)}
    record.lap(f"cap.{peg.VERSION_NAMES[one]}")
    cap, back, ahead = caps[one], deltas[one].inverse, deltas[two].matches
    caps[two] = match_graphs(gam, graphs[two], scorer,
                             lambda i: ahead.get(back.get(cap.get(i))))
    record.lap(f"cap.{peg.VERSION_NAMES[two]}")
    return FourWayGraph(
        base=gb, left=graphs["l"], right=graphs["r"], merged=gam,
        delta_left=deltas["l"], delta_right=deltas["r"],
        cap_left=caps["l"], cap_right=caps["r"], scorer=scorer,
        uncap_left=_inverse(caps["l"]), uncap_right=_inverse(caps["r"]),
    )


def _inverse(cap: dict[str, str]) -> dict[str, str]:
    """A cap map from its values back to its keys.  A match is one to
    one, so each value has one key; were it not, the first would win, as
    a scan of the map in order would find it."""
    return {branch_id: am_id for am_id, branch_id in reversed(cap.items())}


def merged_entity_for(fw: FourWayGraph, branch: str,
                      branch_entity: Entity) -> Optional[Entity]:
    """The merged-graph entity matched with an l or r entity, if any."""
    uncap = fw.uncap_left if branch == "l" else fw.uncap_right
    am_id = uncap.get(branch_entity.id)
    return None if am_id is None else fw.merged.by_id(am_id)
