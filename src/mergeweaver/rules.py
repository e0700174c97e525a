"""Fixed resolution transforms, one per covered conflict type.

Each handler rewrites a copy-on-write clone of the merged file, addressing
the conflict's recorded site nodes by id and writing only through the
clone's insert, remove and set_value, so the copy shares every member the
transform leaves alone.  Types C17 through C23 have no safe
fixed transform and are not covered; the example-based strategy is the
only automated option for those.
"""

from __future__ import annotations

from typing import Callable, Optional

from .conflicts import (Conflict, _apply_renames, declared_type_text,
                        interface_return_for)
from .graph_diff import EntityEdit, FourWayGraph, RelationEdit
from .matching import Outcome, Resolution
from .merge3 import MergeScenario
from .syntax import (SourceFile, SyntaxNode, SyntaxTree, body_of, clone_node,
                     declared_type, parameters)


class TargetMissing(Exception):
    """A site or declaration the transform needs is not in the tree."""


def _site_nodes(work: SyntaxTree,
                conflict: Conflict) -> list[tuple]:
    out = []
    for site in conflict.sites:
        if not work.has_node(site.node_id):
            raise TargetMissing(f"site node {site.node_id} is gone")
        out.append((site, work.node(site.node_id)))
    return out


def _remove_node(work: SyntaxTree, node: SyntaxNode) -> None:
    if work.parent(node) is None:
        raise TargetMissing("cannot remove the file root")
    work.remove(node)


def _fresh_clone(work: SyntaxTree, node: SyntaxNode) -> SyntaxNode:
    copy = clone_node(node)
    for n in copy.walk():
        n.id = work.fresh_id()
        n.span = None
    return copy


# ---------------------------------------------------------------------------
# handlers


def _update_added_type_use(work: SyntaxTree, conflict: Conflict,
                           fw: FourWayGraph) -> None:
    old, new = conflict.old, conflict.new
    old_s, new_s = old.simple_name, new.simple_name
    for _site, node in _site_nodes(work, conflict):
        if node.kind == "TypeRef":
            work.set_value(node, _apply_renames(node.value, {old_s: new_s}))
        elif node.kind == "Name":
            if node.value == old_s:
                work.set_value(node, new_s)
        elif node.kind == "ImportDecl":
            if node.value == old.fqn:
                work.set_value(node, new.fqn)
            elif node.value.endswith("." + old_s):
                work.set_value(node, node.value[:-len(old_s)] + new_s)
        else:
            raise TargetMissing(f"unexpected site kind {node.kind}")


def _update_added_package_use(work: SyntaxTree, conflict: Conflict,
                              fw: FourWayGraph) -> None:
    old_pkg, new_pkg = conflict.old.fqn, conflict.new.fqn
    for _site, node in _site_nodes(work, conflict):
        if node.kind != "ImportDecl":
            raise TargetMissing(f"unexpected site kind {node.kind}")
        if node.value.startswith(old_pkg + "."):
            work.set_value(node, new_pkg + node.value[len(old_pkg):])


def _rename_sites(*kinds: str) -> _Handler:
    """A handler writing the new simple name into each site, which must
    be of one of kinds."""
    def handler(work: SyntaxTree, conflict: Conflict,
                fw: FourWayGraph) -> None:
        for _site, node in _site_nodes(work, conflict):
            if node.kind not in kinds:
                raise TargetMissing(f"unexpected site kind {node.kind}")
            work.set_value(node, conflict.new.simple_name)
    return handler


def _match_super_return(work: SyntaxTree, conflict: Conflict,
                        fw: FourWayGraph) -> None:
    want = declared_type_text(conflict.new.decl)
    if not want:
        raise TargetMissing("superclass method has no return type")
    for _site, node in _site_nodes(work, conflict):
        ret = declared_type(node)
        if ret is None:
            raise TargetMissing("site method has no return type")
        work.set_value(ret, want)


def _match_super_params(work: SyntaxTree, conflict: Conflict,
                        fw: FourWayGraph) -> None:
    new_params = parameters(conflict.new.decl)
    for _site, node in _site_nodes(work, conflict):
        if node.kind not in ("MethodDecl", "ConstructorDecl"):
            raise TargetMissing(f"unexpected site kind {node.kind}")
        old_params = parameters(node)
        if old_params:
            insert_at = node.children.index(old_params[0])
        else:
            ret = declared_type(node)
            insert_at = node.children.index(ret) + 1 if ret is not None \
                else len(node.children)
        for param in old_params:
            work.remove(param)
        for off, param in enumerate(new_params):
            work.insert(node, insert_at + off, _fresh_clone(work, param))


def _readd_import(work: SyntaxTree, conflict: Conflict,
                  fw: FourWayGraph) -> None:
    root = work.root
    if root.kind != "CompilationUnit":
        raise TargetMissing("file root is not a compilation unit")
    insert_at = 0
    for i, child in enumerate(root.children):
        if child.kind in ("PackageDecl", "ImportDecl"):
            insert_at = i + 1
    imp = SyntaxNode(kind="ImportDecl", value=conflict.old.fqn, children=[],
                     span=None, id=work.fresh_id())
    work.insert(root, insert_at, imp)


_STUB_RETURNS = {
    "boolean": "false",
    "byte": "0", "short": "0", "int": "0", "long": "0", "char": "0",
    "float": "0", "double": "0",
}


def _override_new_super_method(work: SyntaxTree, conflict: Conflict,
                               fw: FourWayGraph) -> None:
    for _site, node in _site_nodes(work, conflict):
        if node.kind not in ("ClassDecl", "EnumDecl"):
            raise TargetMissing(f"unexpected site kind {node.kind}")
        method = _fresh_clone(work, conflict.new.decl)
        if not any(c.kind == "Modifier" and c.value == "public"
                   for c in method.children):
            method.children.insert(0, SyntaxNode(
                kind="Modifier", value="public", children=[], span=None,
                id=work.fresh_id()))
        if body_of(method) is None:
            body = SyntaxNode(kind="Block", value="", children=[],
                              span=None, id=work.fresh_id())
            ret = declared_type_text(method)
            if ret != "void":
                lit = SyntaxNode(kind="Literal",
                                 value=_STUB_RETURNS.get(ret, "null"),
                                 children=[], span=None,
                                 id=work.fresh_id())
                stmt = SyntaxNode(kind="ReturnStmt", value="",
                                  children=[lit], span=None,
                                  id=work.fresh_id())
                body.children.append(stmt)
            method.children.append(body)
        # by id: an earlier site may have replaced node with a copy
        work.insert(node, len(work.node(node.id).children), method)


def _remove_clashing_method(work: SyntaxTree, conflict: Conflict,
                            fw: FourWayGraph) -> None:
    for _site, node in _site_nodes(work, conflict):
        if node.kind not in ("MethodDecl", "ConstructorDecl"):
            raise TargetMissing(f"unexpected site kind {node.kind}")
        _remove_node(work, node)


def _match_interface_return(work: SyntaxTree, conflict: Conflict,
                            fw: FourWayGraph) -> None:
    d = conflict.def_change
    u = conflict.use_intro
    assert isinstance(d, RelationEdit)
    want = interface_return_for(
        d.dst, u.new if isinstance(u, EntityEdit) else None)
    if not want:
        raise TargetMissing("interface method return type unknown")
    for _site, node in _site_nodes(work, conflict):
        if node.kind == "TypeRef":
            work.set_value(node, want)
        else:
            ret = declared_type(node)
            if ret is None:
                raise TargetMissing("site method has no return type")
            work.set_value(ret, want)


def _remove_redundant_def(work: SyntaxTree, conflict: Conflict,
                          fw: FourWayGraph) -> None:
    d = conflict.def_change
    pairs = _site_nodes(work, conflict)
    if len(pairs) < 2:
        raise TargetMissing("no duplicate definition found")
    right_only = []
    for site, node in pairs:
        ent = fw.merged.find(d.kind, site.entity)
        if ent is not None and ent.id in fw.cap_right \
                and ent.id not in fw.cap_left:
            right_only.append((site, node))
    # keep exactly one copy: prefer dropping the one only the right branch
    # contributed, otherwise the later of the duplicates
    pool = right_only if right_only else pairs
    victim = max(pool, key=lambda p: p[0].span)[1]
    _remove_node(work, victim)


_Handler = Callable[[SyntaxTree, Conflict, FourWayGraph], None]

RULES: dict[str, tuple[str, _Handler]] = {
    "C1": ("update the added use", _update_added_type_use),
    "C2": ("update the method definition in the subclass to match the "
           "superclass", _match_super_return),
    "C3": ("update the parameter list in the subclass to match the "
           "superclass", _match_super_params),
    "C4": ("update the return type in the subclass to match the "
           "superclass", _match_super_return),
    "C5": ("re-add the removed import", _readd_import),
    "C6": ("update the added use", _update_added_package_use),
    "C7": ("update the added use", _update_added_type_use),
    "C8": ("add a method definition overriding the new interface method",
           _override_new_super_method),
    "C9": ("update the parameter list to match the interface",
           _match_super_params),
    "C10": ("remove the method definition to match the interface",
            _remove_clashing_method),
    "C11": ("rename the method definition to match the interface",
            _rename_sites("MethodDecl")),
    "C12": ("update the return type to match the interface",
            _match_interface_return),
    "C13": ("update the added use", _rename_sites("Name", "FieldAccess")),
    "C14": ("remove the redundant field definition", _remove_redundant_def),
    "C15": ("update the added use", _rename_sites("MethodInvocation")),
    "C16": ("remove the redundant method definition",
            _remove_redundant_def),
}


def resolve_by_rule(fw: FourWayGraph, conflict: Conflict,
                    scenario: MergeScenario) -> Outcome:
    entry = RULES.get(conflict.type)
    if entry is None:
        return Outcome("rule", conflict, "not-covered")
    action, handler = entry
    path = conflict.sites[0].file
    am_file: Optional[SourceFile] = scenario.am.get(path)
    if am_file is None:
        return Outcome("rule", conflict, "target-missing")
    work = am_file.tree.clone()
    try:
        handler(work, conflict, fw)
    except TargetMissing:
        return Outcome("rule", conflict, "target-missing")
    return Outcome("rule", conflict, "resolved", Resolution(
        strategy="rule", conflict=conflict, path=path, rule=action,
        text=fw.scorer.print_memo.print(work.root, am_file.tree.owns)))
