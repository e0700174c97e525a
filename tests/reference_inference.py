"""Reference use lookup for the facts test in test_shared_trees.py.

A test-only verbatim copy of ``use_node_ids`` as mergeweaver had it before
each mined before tree got a name index: it walks the whole before tree on
every call, through verbatim copies of the use finders it called then,
which took a declaration instead of its nodes.  Keep it as it is; it is
the oracle, not a second implementation to maintain.
"""

from __future__ import annotations

from typing import Optional

from mergeweaver.conflicts import Conflict, arg_count
from mergeweaver.inference import _subject_facts
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
