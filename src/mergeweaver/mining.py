"""Mining edit examples from the definition-side branch.

When one branch changes a definition, the same branch usually adapts the
existing call sites in the same commit.  Each adapted member body is an
example: its base version, its branch version, and the edit script between
them show how a use of the changed definition gets fixed up.

Many conflicts share a definition-side branch and so the same adapted
hosts.  Each (branch, base host, branch host) is therefore diffed once,
into one EditExample kept in ``FourWayGraph.mined`` for as long as that
graph lives: the before and after trees, the script between them, and
what refinement reads of the before tree and the script whatever the
conflict (the script's ScriptEdits and the tree's name index).  A host
whose script is empty is kept as None.  Every conflict that mines the
host gets that same record, and no record holds a conflict or a pattern.

The before and after trees are views of the two host declarations, as a
``matching.MergedMember`` is of a merged one: the parsed nodes under the
ids their parse gave them, not copies.  A parse numbers a file in
pre-order, so the ids of one declaration still increase in pre-order,
which is all refinement asks of them (see ``inference.refine_edits``).
The record's index is the merge's own ``FourWayGraph.name_index`` of the
base declaration, the one detection reads, and which hosts mention a
type subject is asked of the same indexes: a name is mentioned when it
is a key.

Sharing is sound because everything in the record is a function of the
host alone, and nothing downstream edits it: ``refine_context`` clones the
part of the before tree it keeps, ``diff_trees`` replays the script on a
copy-on-write clone of the before tree, and ``apply_pattern`` edits the
merged file, not the example.  What depends on the conflict (its use
nodes, the closure, the pattern) is computed per refinement and never
stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .conflicts import Conflict
from .graph_diff import EntityEdit, FourWayGraph, RelationEdit
from .inference import ScriptEdits, script_edits
from .peg import (RELATION_KINDS, TYPE_ENTITY_KINDS, Entity, Relation,
                  lookup_uses)
from .syntax import SyntaxNode, SyntaxTree
from .tree_diff import EditScript, diff_trees

_HOST_KINDS = ("method", "constructor", "field")


@dataclass
class EditExample:
    """One adapted host, diffed once per merge and shared by every
    conflict that mines it."""

    host: str                   # base fqn of the adapted member
    host_kind: str
    branch: str
    before: SyntaxTree          # view of the base declaration
    after: SyntaxTree           # view of the branch declaration
    script: EditScript
    edits: ScriptEdits          # what the closure reads of the script
    named: dict[str, list[SyntaxNode]]  # the merge's index of before

    def __repr__(self) -> str:  # pragma: no cover
        return f"<example {self.host} ({len(self.script)} ops)>"


def _subject_entities(d) -> tuple[Optional[Entity], Optional[Entity]]:
    """(base entity, branch successor) of the definition-side edit."""
    if isinstance(d, RelationEdit):
        if d.op == "delete" and d.kind == "imports":
            return d.dst, None      # removed import: base-side type only
        return None, None
    assert isinstance(d, EntityEdit)
    if d.op == "update":
        return d.old, d.new
    if d.op == "delete":
        return d.old, None
    return None, None               # pure additions have no base usage


def _references(graph, src: Entity, dst: Entity) -> bool:
    return any(Relation(src.id, dst.id, kind) in graph.relations
               for kind in RELATION_KINDS)


def mine_examples(fw: FourWayGraph, conflict: Conflict) -> list[EditExample]:
    branch = conflict.branch_of_def
    delta = fw.delta_left if branch == "l" else fw.delta_right
    subject_base, subject_branch = _subject_entities(conflict.def_change)
    if subject_base is None:
        return []

    hosts: dict[str, Entity] = {}
    for src, _rel in lookup_uses(fw.base, subject_base):
        if src.kind in _HOST_KINDS:
            hosts[src.id] = src
    if subject_base.kind in TYPE_ENTITY_KINDS:
        # declared-only uses (parameter and local types) leave no relation
        simple = subject_base.simple_name
        for ent in fw.base.entities.values():
            if ent.kind in _HOST_KINDS and ent.decl is not None \
                    and simple in fw.name_index(ent.decl):
                hosts.setdefault(ent.id, ent)

    examples: list[EditExample] = []
    for host_base in sorted(hosts.values(), key=lambda e: e.fqn):
        target_id = delta.matches.get(host_base.id)
        if target_id is None:
            continue
        host_branch = delta.target.by_id(target_id)
        if host_base.decl is None or host_branch.decl is None:
            continue
        if subject_branch is not None:
            adapted = _references(delta.target, host_branch, subject_branch)
            if not adapted and subject_branch.kind in TYPE_ENTITY_KINDS:
                adapted = subject_branch.simple_name \
                    in fw.name_index(host_branch.decl)
            if not adapted:
                continue
        key = (branch, host_base.id, target_id)
        if key not in fw.mined:
            before = SyntaxTree(host_base.decl)
            after = SyntaxTree(host_branch.decl)
            script = diff_trees(before, after)
            fw.mined[key] = EditExample(
                host_base.fqn, host_base.kind, branch, before, after, script,
                script_edits(before, script), fw.name_index(host_base.decl)
            ) if script else None
        if fw.mined[key] is not None:
            examples.append(fw.mined[key])
    return examples
