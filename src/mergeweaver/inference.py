"""Refining a mined example into a transformation pattern.

An example's edit script usually mixes the adaptation of interest with
unrelated edits made in the same commit.  Refinement keeps the ops that
touch a use of the changed definition, widens over ops sharing a statement
with those, then closes over control and data dependences between edited
statements.  The pattern is the pruned before-side context around the kept
ops plus the ops themselves, with the use sites marked critical.

The data dependence is edit-scoped.  A statement defines the variables it
declares or assigns anywhere in it, but it uses only what its own ops
touch: the Name and FieldAccess values in the before-side subtree of each
op target it governs, plus the name each of its add and update ops
writes.  An edited statement joins the closure when it comes earlier and
defines a name that a closure statement uses, and the nearest loop or
branch around a closure statement joins when it is edited too.  So
renaming the call in ``s = s + h.m(k);`` reads ``h`` and ``k`` but not
``s``, and a pattern does not pull in every other edited statement that
assigns ``s``; a rewritten argument ``h.m2(t)`` does read ``t`` and pulls
in the edited statement that defines it.

What refinement reads of a mined host whatever the conflict (each op's
target and governing statement, the ops by target and by statement, the
edited statements with their used names and control owners, the edited
statements defining each variable, in pre-order, and the merge's
``syntax.name_index`` of the before declaration, which use_node_ids
filters with ``conflicts.uses`` as the site finders do) is made once,
when the host is mined, and kept on its EditExample (see mining), which
every conflict refined against the host shares; a pattern keeps each
op's statement.  A refinement reads only through those indexes, never
the whole script, so it costs O(conflict): the uses of the subject, the
ops and statements it keeps, the definers it checks and the context.

The context is built in one pass: the kept nodes and their ancestors are
marked once, finding their common ancestor on the way, then only the
marked nodes and what may not be dropped are cloned.  Every statement and
the else branch of an IfStmt without a marked node are left out; when
none is, the context is a view of the before subtree itself.  Nothing
writes a context, and the mined before tree itself is never edited.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .conflicts import CALLS, CREATIONS, NAME_USES, Conflict, uses
from .peg import TYPE_ENTITY_KINDS, arity_of
from .syntax import HEADED_KINDS, STATEMENT_KINDS, SyntaxNode, SyntaxTree
from .tree_diff import EditOp


class NoRelevantEdit(Exception):
    """No op in the example touches a use of the changed definition."""


@dataclass
class TransformationPattern:
    context: SyntaxTree         # pruned before-side subtree, original ids
    ops: list[EditOp]           # refined ops, targets valid in context
    stmt_ids: list[Optional[int]]   # each op's governing statement
    critical_ids: set[int]      # use-of-definition nodes inside context
    example: "EditExample"      # noqa: F821  (mining imports this module's user)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<pattern {self.example.host} ops={len(self.ops)}"
                f" critical={sorted(self.critical_ids)}>")


# ---------------------------------------------------------------------------
# identifying uses of the changed definition in the before tree


def _subject_facts(conflict: Conflict) -> Optional[tuple[str, str, Optional[int]]]:
    """(kind, simple name, arity) of the definition whose uses matter."""
    ent = conflict.old
    if ent is None:
        return None
    if ent.kind in TYPE_ENTITY_KINDS:
        return "class", ent.simple_name, None
    if ent.kind in ("method", "constructor", "field"):
        arity = arity_of(ent) if ent.kind != "field" else None
        return ent.kind, ent.simple_name, arity
    return None


def use_node_ids(named: dict[str, list[SyntaxNode]],
                 conflict: Conflict) -> set[int]:
    """Ids of the before-tree nodes that use the changed definition,
    answered from the tree's ``syntax.name_index``: only the lists of the
    subject's name and of the variables declared with its type."""
    subject = _subject_facts(conflict)
    if subject is None:
        return set()
    kind, name, arity = subject

    if kind == "field":
        return {n.id for n in uses(named, name, NAME_USES)}

    ids: set[int] = set()
    if kind == "method":
        for n in uses(named, name, CALLS, arity):
            ids.add(n.id)
            ids.update(c.id for c in n.children if c.kind == "ArgumentList")
        return ids

    if kind == "constructor":
        for n in uses(named, name, CREATIONS, arity):
            ids.add(n.id)
            ids.update(c.id for c in n.children
                       if c.kind in ("TypeRef", "ArgumentList"))
        return ids

    # class subject: type references, plus every mention of a variable
    # declared with that type
    typed_vars: set[str] = set()
    for n in named.get(name, ()):
        if n.kind in ("LocalVarDecl", "Parameter"):
            typed_vars.add(n.value)
            ids.add(n.id)
        elif n.kind in ("TypeRef", "Name"):
            ids.add(n.id)
    for var in typed_vars:
        ids.update(n.id for n in uses(named, var, NAME_USES))
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


def _op_names(before: SyntaxTree, op: EditOp, target_id: int) -> set[str]:
    """Names an op reads or writes: the Name and FieldAccess values in
    its target's before-side subtree, plus the name an add or update
    writes."""
    target = before.node(target_id)
    out = {n.value for n in target.walk() if n.kind in NAME_USES}
    if (op.op == "add" and op.node_kind in NAME_USES) \
            or (op.op == "update" and target.kind in NAME_USES):
        out.add(op.value or "")
    return out


class ScriptEdits(NamedTuple):
    """What the closure reads of a mined script, whatever the conflict."""
    targets: list[Optional[int]]            # each op's before-tree target
    stmt_ids: list[Optional[int]]           # the statement governing it
    edited: dict[int, SyntaxNode]           # by id, in script order
    used: dict[int, set[str]]               # names its own ops read or write
    owner: dict[int, Optional[int]]         # id of its nearest loop or branch
    by_target: dict[int, list[int]]         # op indexes by target
    by_stmt: dict[int, list[int]]           # op indexes by statement
    definers: dict[str, list[int]]          # ascending ids of the edited
                                            # statements defining a variable


def script_edits(before: SyntaxTree, script: list[EditOp]) -> ScriptEdits:
    adds_by_id = {op.node_id: op for op in script if op.op == "add"}
    targets = [op_target_id(op, adds_by_id) for op in script]
    stmts = [None if t is None or not before.has_node(t)
             else before.enclosing_statement(before.node(t)) for t in targets]
    edited: dict[int, SyntaxNode] = {}
    used: dict[int, set[str]] = {}
    by_target: dict[int, list[int]] = {}
    by_stmt: dict[int, list[int]] = {}
    for i, (op, target, stmt) in enumerate(zip(script, targets, stmts)):
        if target is not None:
            by_target.setdefault(target, []).append(i)
        if stmt is not None:
            edited[stmt.id] = stmt
            used.setdefault(stmt.id, set()).update(
                _op_names(before, op, target))
            by_stmt.setdefault(stmt.id, []).append(i)
    definers: dict[str, list[int]] = {}
    for sid in sorted(edited):
        for name in _defined_vars(edited[sid]):
            definers.setdefault(name, []).append(sid)
    owner = {sid: next((anc.id for anc in before.ancestors(stmt)
                        if anc.kind in HEADED_KINDS), None)
             for sid, stmt in edited.items()}
    stmt_ids = [None if stmt is None else stmt.id for stmt in stmts]
    return ScriptEdits(targets, stmt_ids, edited, used, owner, by_target,
                       by_stmt, definers)


def refine_edits(example: "EditExample", conflict: Conflict
                 ) -> tuple[list[int], set[int], set[int]]:
    """(kept ops' script indexes, closure statement ids, critical ids).

    A mined before tree is a view of a parsed declaration (see mining),
    and a parse numbers its nodes in pre-order, so comparing two ids
    compares the positions of their nodes: a definition in statement oid
    reaches a use in statement sid only if oid < sid.  Every step reads
    the script's indexes, never the whole script: the core ops by their
    targets, each closure statement's definers by its used names up to
    its own id, and the kept ops by their statements.

    Raises NoRelevantEdit when no op touches a use of the definition.
    """
    use_ids = use_node_ids(example.named, conflict)
    edits = example.edits
    core = {i for target in use_ids for i in edits.by_target.get(target, ())}
    if not core:
        raise NoRelevantEdit(example.host)
    critical = {edits.targets[i] for i in core}

    closure = {edits.stmt_ids[i] for i in core} - {None}
    todo = list(closure)
    while todo:
        sid = todo.pop()
        reached = [edits.owner[sid]]
        for name in edits.used[sid]:
            for oid in edits.definers.get(name, ()):
                if oid >= sid:
                    break
                reached.append(oid)
        for oid in reached:
            if oid in edits.edited and oid not in closure:
                closure.add(oid)
                todo.append(oid)

    # a core op with a statement has it in the closure
    kept = sorted(core.union(*(edits.by_stmt[sid] for sid in closure)))
    return kept, closure, critical


# ---------------------------------------------------------------------------
# context pruning


def refine_context(example: "EditExample", kept: list[int],
                   closure: set[int], critical: set[int]
                   ) -> TransformationPattern:
    """The pattern of the script ops at ``kept``.  A kept op's pending
    adds are kept with it, and its target sits in the context with its
    ancestors, so its host target and statement hold in the pattern."""
    before, script, edits = example.before, example.script, example.edits
    keep_ids = set(closure) | set(critical)
    keep_ids.update(edits.targets[i] for i in kept)   # each is an id

    anchors = [before.node(i) for i in sorted(keep_ids)
               if before.has_node(i)]
    # the kept nodes and their ancestors, by id, each node of the first
    # anchor's path with its height on it; another anchor's path first
    # meets that path, or one that met it, at an ancestor of both, so the
    # highest meeting point is the lowest common ancestor of them all
    path = [anchors[0], *before.ancestors(anchors[0])] if anchors \
        else [before.root]
    live = {node.id: k for k, node in enumerate(path)}
    top = 0
    for node in anchors[1:]:
        while node.id not in live:
            live[node.id] = 0
            node = before.parent(node)
        top = max(top, live[node.id])
    root = path[top]
    stmt = before.enclosing_statement(root)
    if stmt is not None:
        root = stmt
    context = SyntaxTree(_clone_live(root, live))

    kept = [i for i in kept
            if script[i].op == "add" or context.has_node(script[i].node_id)]
    return TransformationPattern(
        context=context,
        ops=[script[i] for i in kept],
        stmt_ids=[edits.stmt_ids[i] for i in kept],
        critical_ids={i for i in critical if context.has_node(i)},
        example=example,
    )


def _clone_live(node: SyntaxNode, live: dict[int, int]) -> SyntaxNode:
    """Clone node, leaving out each statement and else branch below it
    that holds no live node; an explicit stack, so no frame per level.
    When none is left out, node itself: nothing writes a context."""
    def dropped(src: SyntaxNode, i: int, child: SyntaxNode) -> bool:
        return child.id not in live and (child.kind in STATEMENT_KINDS or (
            src.kind == "IfStmt" and i == 2))
    if not any(dropped(src, i, child) for src in node.walk()
               for i, child in enumerate(src.children)):
        return node
    root = node.copy([])
    stack = [(node, root)]
    while stack:
        src, dst = stack.pop()
        for i, child in enumerate(src.children):
            if not dropped(src, i, child):
                copy = child.copy([])
                dst.children.append(copy)
                stack.append((child, copy))
    return root


def infer_pattern(example: "EditExample",
                  conflict: Conflict) -> TransformationPattern:
    kept, closure, critical = refine_edits(example, conflict)
    return refine_context(example, kept, closure, critical)
