"""Entity graph matching and deltas.

Matching runs in two phases: exact (kind, fqn) identity, then a similarity
sweep that only pairs entities whose parents are already matched, so a member
moved across types shows up as delete plus add rather than a match.  The
similarity score averages trigram similarity of the printed declaration and
of the sorted neighbor fqns; pairs below 0.618 stay unmatched.  Each round
of the sweep buckets the other graph's unmatched entities by kind and
parent id, in that graph's order, so an entity is scored only against the
candidates of its bucket.  The four matches of a merge score through the
merge's one Scorer (see ``similarity``): a text scored in one match, or
in an earlier round, is not scored again, and a delta's body-change check
reads the bodies the matcher printed.

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

from dataclasses import dataclass, field
from typing import Optional

from .merge3 import MergeScenario
from . import peg, syntax
from .peg import Entity, EntityGraph, Relation
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
    entity_edits: list[EntityEdit] = field(default_factory=list)
    relation_edits: list[RelationEdit] = field(default_factory=list)


_PHASE2_ORDER = {
    "project": 0, "package": 1, "compilation-unit": 2,
    "class": 3, "interface": 3, "enum": 3,
    "field": 4, "method": 4, "constructor": 4, "enum-constant": 4,
}


def match_graphs(ga: EntityGraph, gb: EntityGraph,
                 scorer: Scorer) -> dict[str, str]:
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
    similarity, body_text, context = \
        scorer.similarity, scorer.body_text, scorer.context

    # similarity phase, repeated until stable so a matched parent can unlock
    # the pairing of its renamed children
    while True:
        # gb's untaken entities by (kind, parent id), in gb's order
        buckets: dict[tuple[str, Optional[str]], list[Entity]] = {}
        for key, other in open_b:
            if other.id not in taken:
                buckets.setdefault(key, []).append(other)
        candidates = []
        for ent in open_a:
            if ent.id in matches:
                continue
            pid = ga.parent_id(ent)
            if pid is not None and pid not in matches:
                continue
            bucket = buckets.get((ent.kind, matches.get(pid)))
            if not bucket:
                continue
            body_a, context_a = body_text(ga, ent), context(ga, ent)
            for other in bucket:
                sim = 0.5 * similarity(body_a, body_text(gb, other)) \
                    + 0.5 * similarity(context_a, context(gb, other))
                if sim >= MATCH_THRESHOLD:
                    candidates.append((sim, ent, other))
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
    inverse = {v: k for k, v in matches.items()}
    delta = GraphDelta(branch=branch, base=base, target=target, matches=matches)

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
    deferred = scenario.deferred
    gb = peg.build_peg(scenario.base, "b", memo, deferred)
    gl = peg.build_peg(scenario.left, "l", memo, deferred)
    gr = peg.build_peg(scenario.right, "r", memo, deferred)
    gam = peg.build_peg(scenario.am, "am", memo, deferred)
    scorer = Scorer()
    for ga, gx in ((gb, gl), (gb, gr), (gam, gl), (gam, gr)):
        scorer.expect_match(ga, gx)
    delta_left = diff_graphs(gb, gl, "l", scorer)
    delta_right = diff_graphs(gb, gr, "r", scorer)
    cap_left = match_graphs(gam, gl, scorer)
    cap_right = match_graphs(gam, gr, scorer)
    return FourWayGraph(
        base=gb, left=gl, right=gr, merged=gam,
        delta_left=delta_left, delta_right=delta_right,
        cap_left=cap_left, cap_right=cap_right, scorer=scorer,
        uncap_left=_inverse(cap_left), uncap_right=_inverse(cap_right),
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
