"""Mining edit examples from the definition-side branch.

When one branch changes a definition, the same branch usually adapts the
existing call sites in the same commit.  Each adapted member body is an
example: its base version, its branch version, and the edit script between
them show how a use of the changed definition gets fixed up.

Many conflicts share a definition-side branch and so the same adapted
hosts.  Each (branch, base host, branch host) is therefore diffed once and
kept in ``FourWayGraph.mined`` for as long as that graph lives, as a
MinedHost: the before and after trees, the script between them, and the
ScriptFacts that refinement reads of the before tree and the script (op
targets, governing and edited statements, each edited statement's used
and defined names and control owner, and a by-name index of the before
tree), which fill themselves on the first refinement against the host.
Each conflict still gets its own EditExample and its own adaptation
check, and no record holds a conflict or a pattern.

Sharing is sound because everything in the record is a function of the
before tree and the script alone, and nothing downstream edits either:
``refine_context`` clones the part of the before tree it keeps and
``apply_pattern`` rewrites a clone of the merged file.  What depends on
the conflict (its use nodes, the closure, the pattern) is computed per
refinement and never stored in the record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .conflicts import Conflict, mentions_name
from .graph_diff import EntityEdit, FourWayGraph, RelationEdit
from .inference import ScriptFacts
from .peg import RELATION_KINDS, Entity, Relation, lookup_uses
from .syntax import SyntaxTree, clone_node
from .tree_diff import EditScript, diff_trees

_HOST_KINDS = ("method", "constructor", "field")


class MinedHost:
    """One adapted host's diff, kept in ``FourWayGraph.mined``: the base
    and branch bodies with fresh pre-order ids, the script between them,
    and what refinement reads of the base body and the script."""

    __slots__ = ("before", "after", "script", "facts")

    def __init__(self, before: SyntaxTree, after: SyntaxTree,
                 script: EditScript):
        self.before = before
        self.after = after
        self.script = script
        self.facts = ScriptFacts(before, script)


@dataclass
class EditExample:
    subject: str                # base fqn of the changed definition
    host: str                   # base fqn of the adapted member
    host_kind: str
    branch: str
    before: SyntaxTree          # base body, fresh pre-order ids
    after: SyntaxTree           # branch body, fresh pre-order ids
    script: EditScript
    # the mined host's facts, or facts of this example's own
    facts: Optional[ScriptFacts] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.facts is None:
            self.facts = ScriptFacts(self.before, self.script)

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
    if subject_base.kind in ("class", "interface", "enum"):
        # declared-only uses (parameter and local types) leave no relation
        simple = subject_base.simple_name
        for ent in fw.base.entities.values():
            if ent.kind in _HOST_KINDS and ent.decl is not None \
                    and mentions_name(ent.decl, simple):
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
            if not adapted and subject_branch.kind in ("class", "interface",
                                                       "enum"):
                adapted = mentions_name(host_branch.decl,
                                         subject_branch.simple_name)
            if not adapted:
                continue
        key = (branch, host_base.id, target_id)
        mined = fw.mined.get(key)
        if mined is None:
            before = SyntaxTree(clone_node(host_base.decl), assign_ids=True)
            after = SyntaxTree(clone_node(host_branch.decl), assign_ids=True)
            mined = fw.mined[key] = MinedHost(before, after,
                                              diff_trees(before, after))
        if not mined.script:
            continue
        examples.append(EditExample(
            subject=subject_base.fqn,
            host=host_base.fqn,
            host_kind=host_base.kind,
            branch=branch,
            before=mined.before,
            after=mined.after,
            script=mined.script,
            facts=mined.facts,
        ))
    return examples
