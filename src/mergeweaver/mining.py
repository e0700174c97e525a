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
base declaration, the one detection reads.

The hosts are the base members that use the conflict's ``old`` entity:
by a relation, or for a type subject by its simple name being a key of
the same index (a parameter or local type leaves no relation).  Those
name users are read from the def branch's updates only: a member that
branch did not update has an empty script, as it sits in a unit both
graphs share, whose two declarations are one node, or its printed text
and so its parse are unchanged.  A host is mined when its branch version
uses the conflict's ``new`` entity in the same way.

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

from .conflicts import Conflict
from .graph_diff import FourWayGraph
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


def _uses(fw: FourWayGraph, graph, host: Entity, subject: Entity) -> bool:
    """Whether host uses subject in graph: by a relation, or for a type
    subject by its simple name in the host's name index."""
    return any(Relation(host.id, subject.id, kind) in graph.relations
               for kind in RELATION_KINDS) \
        or (subject.kind in TYPE_ENTITY_KINDS and host.decl is not None
            and subject.simple_name in fw.name_index(host.decl))


def mine_examples(fw: FourWayGraph, conflict: Conflict) -> list[EditExample]:
    branch = conflict.branch_of_def
    delta = fw.delta_left if branch == "l" else fw.delta_right
    old, new = conflict.old, conflict.new
    if old is None:
        return []               # pure additions have no base usage

    hosts = {src.id: src for src, _rel in lookup_uses(fw.base, old)
             if src.kind in _HOST_KINDS}
    if old.kind in TYPE_ENTITY_KINDS:
        # a host the def branch did not update has an empty script
        for e in delta.entity_edits:
            if e.op == "update" and e.kind in _HOST_KINDS \
                    and _uses(fw, fw.base, e.old, old):
                hosts.setdefault(e.old.id, e.old)

    examples: list[EditExample] = []
    for host_base in sorted(hosts.values(), key=lambda e: e.fqn):
        target_id = delta.matches.get(host_base.id)
        if target_id is None:
            continue
        host_branch = delta.target.by_id(target_id)
        if host_base.decl is None or host_branch.decl is None:
            continue
        if new is not None and not _uses(fw, delta.target, host_branch, new):
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
