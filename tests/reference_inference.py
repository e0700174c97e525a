"""Reference use lookup and refinement for test_shared_trees.py and
test_inference.py.

A test-only verbatim copy of ``use_node_ids`` as mergeweaver had it before
each mined before tree got a name index: it walks the whole before tree on
every call, through verbatim copies of the use finders it called then,
which took a declaration instead of its nodes.  And a copy of
``refine_edits`` as mergeweaver had it before the script's ops were
indexed by target and statement: it filters every op and, in each round
of the closure, tests every edited statement; the names each statement
defines, which ScriptEdits no longer keeps, it takes from
``_defined_vars``.  Keep them as they are; they are the oracles, not
second implementations to maintain.
"""

from __future__ import annotations

from typing import Optional

from mergeweaver.conflicts import Conflict, arg_count
from mergeweaver.inference import (NoRelevantEdit, _defined_vars,
                                   _subject_facts)
from mergeweaver.inference import use_node_ids as indexed_use_node_ids
from mergeweaver.syntax import (SyntaxNode, SyntaxTree, declared_type,
                                type_base_name)


def field_use_nodes(decl: SyntaxNode, name: str) -> list[SyntaxNode]:
    """Names and field accesses of ``name`` under decl."""
    return [n for n in decl.walk()
            if n.kind in ("Name", "FieldAccess") and n.value == name]


def call_nodes(decl: SyntaxNode, name: str,
               arity: Optional[int]) -> list[SyntaxNode]:
    """Invocations of ``name`` under decl, with ``arity`` arguments if set."""
    return [n for n in decl.walk()
            if n.kind == "MethodInvocation" and n.value == name
            and (arity is None or arg_count(n) == arity)]


def creation_nodes(decl: SyntaxNode, simple: str,
                   arity: Optional[int]) -> list[SyntaxNode]:
    """``new simple(...)`` under decl, with ``arity`` arguments if set."""
    out = []
    for n in decl.walk():
        if n.kind != "ObjectCreation":
            continue
        tref = next((c for c in n.children if c.kind == "TypeRef"), None)
        if tref is None or type_base_name(tref.value) != simple:
            continue
        if arity is None or arg_count(n) == arity:
            out.append(n)
    return out


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


def refine_edits(example, conflict: Conflict
                 ) -> tuple[list[int], set[int], set[int]]:
    """(kept ops' script indexes, closure statement ids, critical ids)."""
    use_ids = indexed_use_node_ids(example.named, conflict)
    edits = example.edits
    targets, stmt_ids = edits.targets, edits.stmt_ids
    defined = {sid: _defined_vars(stmt) for sid, stmt in edits.edited.items()}
    core = {i for i, target in enumerate(targets)
            if target is not None and target in use_ids}
    if not core:
        raise NoRelevantEdit(example.host)
    critical = {targets[i] for i in core}

    closure: set[int] = {stmt_ids[i] for i in core if stmt_ids[i] is not None}
    changed = True
    while changed:
        changed = False
        for sid in sorted(closure):
            owner = edits.owner[sid]
            if owner is not None and owner in edits.edited \
                    and owner not in closure:
                closure.add(owner)
                changed = True
            used = edits.used[sid]
            for oid in edits.edited:
                if oid in closure or oid >= sid:
                    continue
                if defined[oid] & used:
                    closure.add(oid)
                    changed = True

    # a core op with a statement has it in the closure
    kept = [i for i, sid in enumerate(stmt_ids) if sid in closure or i in core]
    return kept, closure, critical
