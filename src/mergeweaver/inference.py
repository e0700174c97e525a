"""Refining a mined example into a transformation pattern.

An example's edit script usually mixes the adaptation of interest with
unrelated edits made in the same commit.  Refinement keeps the ops that
touch a use of the changed definition, widens over ops sharing a statement
with those, then closes over control and data dependences between edited
statements.  The pattern is the pruned before-side context around the kept
ops plus the ops themselves, with the use sites marked critical.

The context is built in one pass: the kept nodes and their ancestors are
marked once, then only the marked nodes and what may not be dropped are
cloned.  Every statement and the else branch of an IfStmt without a marked
node are left out; the mined before tree itself is never edited.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .conflicts import (Conflict, call_nodes, creation_nodes,
                        field_use_nodes)
from .graph_diff import EntityEdit, RelationEdit
from .peg import arity_of, type_base_name
from .syntax import STATEMENT_KINDS, SyntaxNode, SyntaxTree, declared_type
from .tree_diff import EditOp

_LOOP_OR_BRANCH = ("IfStmt", "ForStmt", "ForEachStmt", "WhileStmt")


class NoRelevantEdit(Exception):
    """No op in the example touches a use of the changed definition."""


@dataclass
class TransformationPattern:
    context: SyntaxTree         # pruned before-side subtree, original ids
    ops: list[EditOp]           # refined ops, targets valid in context
    critical_ids: set[int]      # use-of-definition nodes inside context
    example: "EditExample"      # noqa: F821  (mining imports this module's user)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<pattern {self.example.host} ops={len(self.ops)}"
                f" critical={sorted(self.critical_ids)}>")


# ---------------------------------------------------------------------------
# identifying uses of the changed definition in the before tree


def _subject_facts(conflict: Conflict) -> Optional[tuple[str, str, Optional[int]]]:
    """(kind, simple name, arity) of the definition whose uses matter."""
    d = conflict.def_change
    if isinstance(d, RelationEdit):
        if d.kind == "imports" and d.dst is not None:
            return "class", d.dst.simple_name, None
        return None
    assert isinstance(d, EntityEdit)
    ent = d.old if d.old is not None else d.new
    if ent is None:
        return None
    if d.kind in ("class", "interface", "enum"):
        return "class", ent.simple_name, None
    if d.kind in ("method", "constructor", "field"):
        arity = arity_of(ent) if d.kind != "field" else None
        return d.kind, ent.simple_name, arity
    return None


def use_node_ids(before: SyntaxTree, conflict: Conflict) -> set[int]:
    """Ids of nodes in the before tree that use the changed definition."""
    facts = _subject_facts(conflict)
    if facts is None:
        return set()
    kind, name, arity = facts
    ids: set[int] = set()

    if kind == "field":
        return {n.id for n in field_use_nodes(before.root, name)}

    if kind == "method":
        for n in call_nodes(before.root, name, arity):
            ids.add(n.id)
            ids.update(c.id for c in n.children if c.kind == "ArgumentList")
        return ids

    if kind == "constructor":
        for n in creation_nodes(before.root, name, arity):
            ids.add(n.id)
            ids.update(c.id for c in n.children
                       if c.kind in ("TypeRef", "ArgumentList"))
        return ids

    # class subject: type references, plus every mention of a variable
    # declared with that type
    typed_vars: set[str] = set()
    for n in before.nodes():
        if n.kind in ("LocalVarDecl", "Parameter"):
            tref = declared_type(n)
            if tref is not None and type_base_name(tref.value) == name:
                typed_vars.add(n.value)
                ids.add(n.id)
    for n in before.nodes():
        if n.kind == "TypeRef" and type_base_name(n.value) == name:
            ids.add(n.id)
        elif n.kind == "Name" and (n.value == name or n.value in typed_vars):
            ids.add(n.id)
        elif n.kind == "FieldAccess" and n.value in typed_vars:
            ids.add(n.id)
    return ids


# ---------------------------------------------------------------------------
# op targets and governing statements


def op_target_id(op: EditOp, adds_by_id: dict[int, EditOp]) -> Optional[int]:
    """Before-tree anchor of an op, lifting adds through pending adds."""
    if op.op != "add":
        return op.node_id
    pid = op.parent_id
    while pid is not None and pid in adds_by_id:
        pid = adds_by_id[pid].parent_id
    return pid


def _governing_stmt(before: SyntaxTree, target_id: Optional[int]
                    ) -> Optional[SyntaxNode]:
    if target_id is None or not before.has_node(target_id):
        return None
    return before.enclosing_statement(before.node(target_id))


# ---------------------------------------------------------------------------
# dependence closure


def _defined_vars(stmt: SyntaxNode) -> set[str]:
    out: set[str] = set()
    for n in stmt.walk():
        if n.kind == "LocalVarDecl":
            out.add(n.value)
        elif n.kind == "Assignment" and n.children \
                and n.children[0].kind == "Name":
            out.add(n.children[0].value)
    return out


def _used_vars(stmt: SyntaxNode) -> set[str]:
    out: set[str] = set()
    for n in stmt.walk():
        if n.kind == "Name":
            out.add(n.value)
        elif n.kind == "FieldAccess":
            out.add(n.value)
    return out


def _control_owner(before: SyntaxTree,
                   stmt: SyntaxNode) -> Optional[SyntaxNode]:
    for anc in before.ancestors(stmt):
        if anc.kind in _LOOP_OR_BRANCH:
            return anc
    return None


def refine_edits(example: "EditExample", conflict: Conflict
                 ) -> tuple[list[EditOp], set[int], set[int]]:
    """(kept ops, closure statement ids, critical node ids).

    A mined before tree carries fresh pre-order ids (see EditExample), so
    comparing two ids compares the positions of their nodes: a definition
    in statement oid reaches a use in statement sid only if oid < sid.

    Raises NoRelevantEdit when no op touches a use of the definition.
    """
    before = example.before
    script = example.script
    adds_by_id = {op.node_id: op for op in script if op.op == "add"}
    use_ids = use_node_ids(before, conflict)

    targets = {id(op): op_target_id(op, adds_by_id) for op in script}
    core = [op for op in script
            if targets[id(op)] is not None and targets[id(op)] in use_ids]
    if not core:
        raise NoRelevantEdit(example.host)
    critical = {targets[id(op)] for op in core}

    stmt_of: dict[int, Optional[SyntaxNode]] = {
        id(op): _governing_stmt(before, targets[id(op)]) for op in script}
    edited: dict[int, SyntaxNode] = {}
    for op in script:
        stmt = stmt_of[id(op)]
        if stmt is not None:
            edited[stmt.id] = stmt

    closure: set[int] = {stmt_of[id(op)].id for op in core
                         if stmt_of[id(op)] is not None}
    # variables of each edited statement, computed on first need; every
    # closure statement is an edited one
    used: dict[int, set[str]] = {}
    defined: dict[int, set[str]] = {}
    changed = True
    while changed:
        changed = False
        for sid in sorted(closure):
            stmt = edited[sid]
            owner = _control_owner(before, stmt)
            if owner is not None and owner.id in edited \
                    and owner.id not in closure:
                closure.add(owner.id)
                changed = True
            if sid not in used:
                used[sid] = _used_vars(stmt)
            for oid, other in edited.items():
                if oid in closure or oid >= sid:
                    continue
                if oid not in defined:
                    defined[oid] = _defined_vars(other)
                if defined[oid] & used[sid]:
                    closure.add(oid)
                    changed = True

    kept = [op for op in script
            if (stmt_of[id(op)] is not None
                and stmt_of[id(op)].id in closure)
            or (stmt_of[id(op)] is None and op in core)]
    return kept, closure, critical


# ---------------------------------------------------------------------------
# context pruning


def refine_context(example: "EditExample", kept: list[EditOp],
                   closure: set[int], critical: set[int]
                   ) -> TransformationPattern:
    before = example.before
    adds_by_id = {op.node_id: op for op in kept if op.op == "add"}
    keep_ids = set(closure) | set(critical)
    for op in kept:
        tid = op_target_id(op, adds_by_id)
        if tid is not None:
            keep_ids.add(tid)

    anchors = [before.node(i) for i in sorted(keep_ids)
               if before.has_node(i)]
    root = _lca(before, anchors)
    stmt = before.enclosing_statement(root)
    if stmt is not None:
        root = stmt

    live: set[int] = set()      # kept nodes and their ancestors
    for node in anchors:
        cur: Optional[SyntaxNode] = node
        while cur is not None and cur.id not in live:
            live.add(cur.id)
            cur = before.parent(cur)
    context = SyntaxTree(_clone_live(root, live))

    ops = [op for op in kept
           if op.op == "add" or context.has_node(op.node_id)]
    return TransformationPattern(
        context=context,
        ops=ops,
        critical_ids={i for i in critical if context.has_node(i)},
        example=example,
    )


def _lca(tree: SyntaxTree, nodes: list[SyntaxNode]) -> SyntaxNode:
    if not nodes:
        return tree.root
    paths = []
    for n in nodes:
        path = [n] + list(tree.ancestors(n))
        path.reverse()
        paths.append(path)
    shortest = min(len(p) for p in paths)
    lca = paths[0][0]
    for depth in range(shortest):
        first = paths[0][depth]
        if all(p[depth] is first for p in paths):
            lca = first
        else:
            break
    return lca


def _clone_live(node: SyntaxNode, live: set[int]) -> SyntaxNode:
    """Clone node, leaving out each statement and else branch below it
    that holds no live node."""
    children = []
    for i, child in enumerate(node.children):
        droppable = child.kind in STATEMENT_KINDS \
            or (node.kind == "IfStmt" and i == 2)
        if child.id in live or not droppable:
            children.append(_clone_live(child, live))
    return SyntaxNode(kind=node.kind, value=node.value, children=children,
                      span=node.span, id=node.id)


def infer_pattern(example: "EditExample",
                  conflict: Conflict) -> TransformationPattern:
    kept, closure, critical = refine_edits(example, conflict)
    return refine_context(example, kept, closure, critical)
