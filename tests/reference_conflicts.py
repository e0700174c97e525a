"""The conflict classifier and site finder as they were before the taxonomy
table: one ``_classify_*`` branch per def-edit shape and one ``_sites_for``
chain.  ``tests/test_taxonomy.py`` requires the table-driven
``mergeweaver.conflicts`` to classify every edit pair and report every
conflict exactly as this module does.  Only the ``fw=None`` fallback of
``_added_type_with_parent``, which no caller used, is left out.

The declaration helpers it reads declarations through are verbatim copies
of the ones ``mergeweaver.conflicts`` had before the ``syntax`` readers
replaced them, so the oracle never reads through the code it checks.  So
are ``mentions_name``, ``arg_count``, ``type_base_name`` and the use
finders that walk a whole declaration, from before ``syntax.name_index``
and ``conflicts.uses`` replaced them; ``tests/test_conflicts.py`` checks
the index against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from mergeweaver.conflicts import (IDENT_RE, Conflict, ConflictSite,
                                   owner_fqn, simple_of)
from mergeweaver.graph_diff import (EntityEdit, FourWayGraph, RelationEdit,
                                    merged_entity_for)
from mergeweaver.peg import MEMBER_ENTITY_KINDS, Entity, Relation, arity_of
from mergeweaver.syntax import SyntaxNode

Edit = Union[EntityEdit, RelationEdit]

# ---------------------------------------------------------------------------
# declaration helpers


def type_base_name(type_text: str) -> str:
    """Strip generics and qualifiers from a TypeRef value: a.b.Foo<T> -> Foo."""
    base = type_text.split("<", 1)[0]
    return base.rsplit(".", 1)[-1]


def mentions_name(decl: SyntaxNode, name: str) -> bool:
    for n in decl.walk():
        if n.kind in ("Name", "FieldAccess", "MethodInvocation") \
                and n.value == name:
            return True
        if n.kind == "TypeRef" and type_base_name(n.value) == name:
            return True
    return False


def arg_count(call: SyntaxNode) -> int:
    """Number of arguments of an invocation or object creation."""
    for child in call.children:
        if child.kind == "ArgumentList":
            return len(child.children)
    return 0


def declared_type_node(decl: SyntaxNode) -> Optional[SyntaxNode]:
    """Return-type TypeRef of a method, or the type of a field."""
    if decl.kind not in ("MethodDecl", "FieldDecl"):
        return None
    for child in decl.children:
        if child.kind == "TypeRef":
            return child
        if child.kind == "Parameter":
            break
    return None


def declared_type_text(decl: Optional[SyntaxNode]) -> Optional[str]:
    if decl is None:
        return None
    node = declared_type_node(decl)
    return node.value if node is not None else None


def param_sig_of_decl(decl: SyntaxNode) -> str:
    texts = [t.value
             for p in decl.children if p.kind == "Parameter"
             for t in p.children if t.kind == "TypeRef"]
    return "(" + ",".join(texts) + ")"


def find_decl_method(type_decl: SyntaxNode, name: str,
                     sig: Optional[str] = None) -> Optional[SyntaxNode]:
    for child in type_decl.children:
        if child.kind in ("MethodDecl", "ConstructorDecl") \
                and child.value == name \
                and (sig is None or param_sig_of_decl(child) == sig):
            return child
    return None


# ---------------------------------------------------------------------------
# classification


def _is_added_rel(u: Edit, kinds: tuple[str, ...]) -> bool:
    return isinstance(u, RelationEdit) and u.op == "add" and u.kind in kinds


def _is_added_rel_to(u: Edit, fqn: str) -> bool:
    # any use edge aimed at the type itself: construction, import, heritage
    return isinstance(u, RelationEdit) and u.op == "add" \
        and u.kind in ("initializes", "imports", "extends", "implements") \
        and u.dst_fqn == fqn


def _added_type_with_parent(u: Edit, d: Edit, fw: FourWayGraph,
                            relation: str) -> Optional[SyntaxNode]:
    """Decl of a class added by u whose heritage points at d's owner."""
    if not isinstance(u, EntityEdit) or u.op != "add" or u.kind != "class":
        return None
    if u.new is None or u.new.decl is None:
        return None
    owner = owner_fqn(d.subject)
    if not owner:
        return None
    graph = fw.left if u.branch == "l" else fw.right
    wanted = "class" if relation == "extends" else "interface"
    target = graph.find(wanted, owner)
    if target is None:
        return None
    if Relation(u.new.id, target.id, relation) not in graph.relations:
        return None
    return u.new.decl


def _interface_return_for(iface: Optional[Entity],
                          method: Optional[Entity]) -> Optional[str]:
    if iface is None or iface.decl is None or method is None:
        return None
    m = find_decl_method(iface.decl, method.simple_name, method.param_sig)
    return declared_type_text(m) if m is not None else None


def _classify_rel_def(d: RelationEdit, u: Edit,
                      fw: FourWayGraph) -> Optional[str]:
    if d.op == "delete" and d.kind == "imports":
        # removed import vs new code in the same file needing the name
        if d.dst is None or d.src is None:
            return None
        if _is_added_rel(u, ("imports", "initializes", "extends",
                             "implements", "calls", "reads", "writes")) \
                and u.dst_fqn == d.dst_fqn:
            return "C5"
        if not isinstance(u, EntityEdit) or u.new is None \
                or u.new.decl is None or u.new.path != d.src.path \
                or u.new.kind not in ("field", "method", "constructor"):
            return None
        name = d.dst.simple_name
        if u.op == "add" and mentions_name(u.new.decl, name):
            return "C5"
        if u.op == "update" and u.detail == "body-change" \
                and mentions_name(u.new.decl, name) \
                and not (u.old is not None and u.old.decl is not None
                         and mentions_name(u.old.decl, name)):
            return "C5"
        return None
    if d.op == "add" and d.kind == "implements":
        # class begins implementing an interface while the other branch
        # changes a return type in that class away from the contract
        if not isinstance(u, EntityEdit) or u.op != "update" \
                or u.detail != "body-change" or u.kind != "method":
            return None
        if u.old is None or u.new is None \
                or owner_fqn(u.new.fqn) != d.src_fqn:
            return None
        old_ret = declared_type_text(u.old.decl)
        new_ret = declared_type_text(u.new.decl)
        if not old_ret or not new_ret or old_ret == new_ret:
            return None
        iface_ret = _interface_return_for(d.dst, u.new)
        if iface_ret is None or new_ret == iface_ret:
            return None
        return "C12"
    return None


def _classify_update(d: EntityEdit, u: Edit,
                     fw: FourWayGraph) -> Optional[str]:
    if d.detail == "rename":
        if d.kind == "package":
            if _is_added_rel(u, ("imports",)) and d.old_fqn is not None \
                    and (u.dst_fqn == d.old_fqn
                         or u.dst_fqn.startswith(d.old_fqn + ".")):
                return "C6"
            return None
        if d.kind == "constructor" or d.old is None or d.new is None:
            return None
        if d.old.simple_name == d.new.simple_name:
            return None         # path changed by an enclosing rename
        if d.kind == "class":
            return "C1" if _is_added_rel_to(u, d.old.fqn) else None
        if d.kind == "interface":
            return "C7" if _is_added_rel_to(u, d.old.fqn) else None
        if d.kind == "field":
            if _is_added_rel(u, ("reads", "writes")) \
                    and u.dst_fqn == d.old.fqn:
                return "C13"
            return None
        if d.kind == "method":
            if _is_added_rel(u, ("calls",)) and u.dst_fqn == d.old.fqn:
                return "C15"
            sub = _added_type_with_parent(u, d, fw, "implements")
            if sub is not None and find_decl_method(
                    sub, d.old.simple_name, d.old.param_sig) is not None:
                return "C11"
            return None
        return None
    if d.detail == "signature-change":
        if d.old is None or d.new is None:
            return None
        if d.kind == "constructor":
            if _is_added_rel(u, ("calls",)) and u.dst_fqn == d.old.fqn:
                return "C18"
            return None
        if d.kind == "method":
            if _is_added_rel(u, ("calls",)) and u.dst_fqn == d.old.fqn:
                return "C21"
            sub = _added_type_with_parent(u, d, fw, "extends")
            if sub is not None and find_decl_method(
                    sub, d.old.simple_name, d.old.param_sig) is not None:
                return "C3"
            sub = _added_type_with_parent(u, d, fw, "implements")
            if sub is not None and find_decl_method(
                    sub, d.old.simple_name, d.old.param_sig) is not None:
                return "C9"
            return None
        return None
    if d.detail == "body-change":
        if d.old is None or d.new is None \
                or d.old.decl is None or d.new.decl is None:
            return None
        old_t = declared_type_text(d.old.decl)
        new_t = declared_type_text(d.new.decl)
        if not old_t or not new_t or old_t == new_t:
            return None
        if d.kind == "method":
            if _is_added_rel(u, ("calls",)) and u.dst_fqn == d.old.fqn:
                return "C22"
            sub = _added_type_with_parent(u, d, fw, "extends")
            if sub is not None:
                m = find_decl_method(sub, d.old.simple_name, d.old.param_sig)
                if m is not None and declared_type_text(m) != new_t:
                    return "C4"
            return None
        if d.kind == "field":
            if _is_added_rel(u, ("reads", "writes")) \
                    and u.dst_fqn == d.old.fqn:
                return "C19"
            return None
        return None
    return None


def _classify_delete(d: EntityEdit, u: Edit,
                     fw: FourWayGraph) -> Optional[str]:
    if d.old_fqn is None:
        return None
    if d.kind in ("class", "enum"):
        if isinstance(u, RelationEdit) and u.op == "add" \
                and (u.dst_fqn == d.old_fqn
                     or u.dst_fqn.startswith(d.old_fqn + ".")):
            return "C17"
        return None
    if d.kind == "method":
        if _is_added_rel(u, ("calls",)) and u.dst_fqn == d.old_fqn:
            return "C23"
        if d.old is not None:
            sub = _added_type_with_parent(u, d, fw, "implements")
            if sub is not None and find_decl_method(
                    sub, d.old.simple_name, d.old.param_sig) is not None:
                return "C10"
        return None
    if d.kind == "field":
        if _is_added_rel(u, ("reads", "writes")) and u.dst_fqn == d.old_fqn:
            return "C20"
        return None
    return None


def _classify_add(d: EntityEdit, u: Edit,
                  fw: FourWayGraph) -> Optional[str]:
    if isinstance(u, EntityEdit) and u.op == "add" and u.kind == d.kind \
            and u.new_fqn == d.new_fqn and d.new_fqn is not None:
        if d.kind == "field":
            return "C14"
        if d.kind in ("method", "constructor"):
            return "C16"
        return None
    if d.kind != "method" or d.new is None or d.new.decl is None:
        return None
    sub = _added_type_with_parent(u, d, fw, "extends")
    if sub is not None:
        m = find_decl_method(sub, d.new.simple_name, d.new.param_sig)
        if m is not None:
            mine = declared_type_text(d.new.decl)
            theirs = declared_type_text(m)
            if mine and theirs and mine != theirs:
                return "C2"
        return None
    sub = _added_type_with_parent(u, d, fw, "implements")
    if sub is not None and find_decl_method(
            sub, d.new.simple_name, d.new.param_sig) is None:
        return "C8"
    return None


def classify(def_change: Edit, use_intro: Edit,
             fw: FourWayGraph) -> Optional[str]:
    """Taxonomy code for a def-side/use-side edit pair, or None."""
    d, u = def_change, use_intro
    if d.branch == u.branch:
        return None
    if isinstance(d, RelationEdit):
        return _classify_rel_def(d, u, fw)
    if d.op == "update":
        return _classify_update(d, u, fw)
    if d.op == "delete":
        return _classify_delete(d, u, fw)
    if d.op == "add":
        return _classify_add(d, u, fw)
    return None


# ---------------------------------------------------------------------------
# def-side candidate filtering


def _apply_renames(text: str, renames: dict[str, str]) -> str:
    return IDENT_RE.sub(lambda m: renames.get(m.group(0), m.group(0)), text)


def _def_candidates(delta) -> list[Edit]:
    deleted_types = {e.old_fqn for e in delta.entity_edits
                     if e.op == "delete"
                     and e.kind in ("class", "interface", "enum")}
    renames: dict[str, str] = {}
    for e in delta.entity_edits:
        if e.op == "update" and e.detail == "rename" \
                and e.kind in ("class", "interface", "enum") \
                and e.old is not None and e.new is not None \
                and e.old.simple_name != e.new.simple_name:
            renames[e.old.simple_name] = e.new.simple_name

    out: list[Edit] = []
    for e in delta.entity_edits:
        if e.op == "delete" and e.kind in MEMBER_ENTITY_KINDS \
                and owner_fqn(e.old_fqn or "") in deleted_types:
            continue            # the type-level delete carries the conflict
        if e.op == "update" and e.detail == "rename" \
                and e.kind == "constructor":
            continue            # companion of the class rename
        if e.op == "update" and e.old is not None and e.new is not None:
            if e.detail == "signature-change" and renames \
                    and _apply_renames(e.old.param_sig or "", renames) \
                    == (e.new.param_sig or ""):
                continue        # signature only respells a renamed type
            if e.detail == "body-change" and renames:
                old_t = declared_type_text(e.old.decl) if e.old.decl else None
                new_t = declared_type_text(e.new.decl) if e.new.decl else None
                if old_t and new_t and old_t != new_t \
                        and _apply_renames(old_t, renames) == new_t:
                    continue    # declared type only respells a renamed type
        out.append(e)
    for r in delta.relation_edits:
        if (r.op == "delete" and r.kind == "imports") \
                or (r.op == "add" and r.kind == "implements"):
            out.append(r)
    return out


def _edit_key(e: Edit) -> tuple:
    if isinstance(e, RelationEdit):
        return ("rel", e.op, e.kind, e.src_fqn, e.dst_fqn)
    return ("ent", e.op, e.kind, e.old_fqn or "", e.new_fqn or "",
            e.detail or "")


def _use_entity(u: Edit) -> tuple[str, Optional[Entity]]:
    if isinstance(u, RelationEdit):
        return u.src_fqn, u.src
    ent = u.new if u.new is not None else u.old
    return u.subject, ent


# ---------------------------------------------------------------------------
# manifestation: locating sites in the merged tree


def _mk_sites(nodes: list[SyntaxNode], entity: str,
              path: Optional[str]) -> list[ConflictSite]:
    return [ConflictSite(entity, path or "", n.span or (0, 0, 0, 0), n.id)
            for n in nodes]


def _type_use_nodes(decl: SyntaxNode, simple: str) -> list[SyntaxNode]:
    out = []
    for n in decl.walk():
        if n.kind == "TypeRef" and type_base_name(n.value) == simple:
            out.append(n)
        elif n.kind == "Name" and n.value == simple:
            out.append(n)
    return out


def _field_use_nodes(decl: SyntaxNode, name: str) -> list[SyntaxNode]:
    return [n for n in decl.walk()
            if n.kind in ("Name", "FieldAccess") and n.value == name]


def _call_nodes(decl: SyntaxNode, name: str,
                arity: Optional[int]) -> list[SyntaxNode]:
    return [n for n in decl.walk()
            if n.kind == "MethodInvocation" and n.value == name
            and (arity is None or arg_count(n) == arity)]


def _creation_nodes(decl: SyntaxNode, simple: str,
                    arity: Optional[int]) -> list[SyntaxNode]:
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


def _merged_cu_for_path(fw: FourWayGraph,
                        path: Optional[str]) -> Optional[Entity]:
    if path is None:
        return None
    for ent in fw.merged.entities.values():
        if ent.kind == "compilation-unit" and ent.path == path:
            return ent
    return None


def _merged_member_fqn(fw: FourWayGraph, cls: Entity,
                       decl: SyntaxNode) -> str:
    sig = param_sig_of_decl(decl)
    fqn = f"{cls.fqn}.{decl.value}{sig}"
    for suffix in ("", "#2", "#3"):
        found = fw.merged.find("method", fqn + suffix) \
            or fw.merged.find("constructor", fqn + suffix)
        if found is not None:
            return found.fqn
    return fqn


def _hierarchy_site(fw: FourWayGraph, am_user: Entity, decl: SyntaxNode,
                    node: SyntaxNode) -> list[ConflictSite]:
    if node.kind in ("MethodDecl", "ConstructorDecl"):
        label = _merged_member_fqn(fw, am_user, node)
    else:
        label = am_user.fqn
    return _mk_sites([node], label, am_user.path)


def _sites_for(code: str, d: Edit, u: Edit, am_user: Optional[Entity],
               fw: FourWayGraph) -> list[ConflictSite]:
    if code in ("C14", "C16"):
        subject = d.new_fqn or ""
        dups = sorted((e for e in fw.merged.entities.values()
                       if e.kind == d.kind and e.decl is not None
                       and (e.fqn == subject
                            or e.fqn.startswith(subject + "#"))),
                      key=lambda e: e.decl.span or (0, 0, 0, 0))
        if len(dups) < 2:
            return []
        sites: list[ConflictSite] = []
        for ent in dups:
            sites.extend(_mk_sites([ent.decl], ent.fqn, ent.path))
        return sites

    if am_user is None or am_user.decl is None:
        return []
    decl = am_user.decl

    if code in ("C1", "C7", "C17"):
        simple = simple_of(d.subject)
        if am_user.kind == "compilation-unit":
            nodes = [n for n in decl.walk() if n.kind == "ImportDecl"
                     and (n.value == d.subject
                          or n.value.endswith("." + simple))]
        else:
            # creations are covered too: the type child of `new X()` is a
            # TypeRef like any declared type
            nodes = _type_use_nodes(decl, simple)
        return _mk_sites(nodes, am_user.fqn, am_user.path)

    if code == "C6":
        old_pkg = d.old_fqn or ""
        nodes = [n for n in decl.walk() if n.kind == "ImportDecl"
                 and (n.value == old_pkg + ".*"
                      or n.value.startswith(old_pkg + "."))]
        return _mk_sites(nodes, am_user.fqn, am_user.path)

    if code == "C5":
        assert isinstance(d, RelationEdit)
        cu = _merged_cu_for_path(fw, am_user.path)
        if cu is not None and cu.decl is not None:
            pkg = d.dst_fqn.rsplit(".", 1)[0] if "." in d.dst_fqn else ""
            for n in cu.decl.children:
                if n.kind == "ImportDecl" and (
                        n.value == d.dst_fqn
                        or (pkg and n.value == pkg + ".*")):
                    return []   # the import is present, nothing dangles
        simple = simple_of(d.dst_fqn)
        nodes = _type_use_nodes(decl, simple)
        return _mk_sites(nodes, am_user.fqn, am_user.path)

    if code in ("C13", "C19", "C20"):
        name = simple_of(d.subject)
        nodes = _field_use_nodes(decl, name)
        return _mk_sites(nodes, am_user.fqn, am_user.path)

    if code in ("C15", "C21", "C22", "C23"):
        assert isinstance(d, EntityEdit) and d.old is not None
        nodes = _call_nodes(decl, d.old.simple_name, arity_of(d.old))
        return _mk_sites(nodes, am_user.fqn, am_user.path)

    if code == "C18":
        assert isinstance(d, EntityEdit) and d.old is not None
        simple = d.old.simple_name
        old_ar = arity_of(d.old)
        nodes = _creation_nodes(decl, simple, old_ar)
        nodes += _call_nodes(decl, "this", old_ar)
        return _mk_sites(nodes, am_user.fqn, am_user.path)

    if code in ("C2", "C4"):
        assert isinstance(d, EntityEdit) and d.new is not None
        m = find_decl_method(decl, d.new.simple_name, d.new.param_sig)
        if m is None:
            return []
        if declared_type_text(m) == declared_type_text(d.new.decl):
            return []
        return _hierarchy_site(fw, am_user, decl, m)

    if code in ("C3", "C9", "C10", "C11"):
        # the clash clears once no method with the old name and old
        # signature is left in the merged class
        assert isinstance(d, EntityEdit) and d.old is not None
        m = find_decl_method(decl, d.old.simple_name, d.old.param_sig)
        if m is None:
            return []
        return _hierarchy_site(fw, am_user, decl, m)

    if code == "C8":
        assert isinstance(d, EntityEdit) and d.new is not None
        m = find_decl_method(decl, d.new.simple_name, d.new.param_sig)
        if m is not None:
            return []           # the override exists, contract satisfied
        return _mk_sites([decl], am_user.fqn, am_user.path)

    if code == "C12":
        assert isinstance(d, RelationEdit)
        am_ret = declared_type_text(decl)
        iface_ret = _interface_return_for(
            d.dst, u.new if isinstance(u, EntityEdit) else None)
        if not am_ret or not iface_ret or am_ret == iface_ret:
            return []
        node = declared_type_node(decl) or decl
        return _mk_sites([node], am_user.fqn, am_user.path)

    return []


# ---------------------------------------------------------------------------
# detection


@dataclass
class _Candidate:
    code: str
    d: Edit
    u: Edit
    using_fqn: str
    using_entity: Optional[Entity]


def _subject_of(code: str, d: Edit) -> tuple[str, str]:
    if isinstance(d, RelationEdit):
        if code == "C5":
            kind = d.dst.kind if d.dst is not None else "class"
            return d.dst_fqn, kind
        return d.src_fqn, "class"       # C12
    return d.subject, d.kind


def detect_conflicts(fw: FourWayGraph) -> list[Conflict]:
    found: dict[tuple, _Candidate] = {}
    for dx, dy in ((fw.delta_left, fw.delta_right),
                   (fw.delta_right, fw.delta_left)):
        defs = _def_candidates(dx)
        uses: list[Edit] = list(dy.entity_edits) + list(dy.relation_edits)
        for d in defs:
            for u in uses:
                code = classify(d, u, fw)
                if code is None:
                    continue
                if code in ("C14", "C16") and d.branch != "l":
                    continue    # symmetric pair, keep one orientation
                using_fqn, using_entity = _use_entity(u)
                key = (code, _edit_key(d), using_fqn)
                prev = found.get(key)
                if prev is None or _edit_key(u) < _edit_key(prev.u):
                    found[key] = _Candidate(code, d, u, using_fqn,
                                            using_entity)

    conflicts: list[Conflict] = []
    for cand in found.values():
        am_user = None
        if cand.using_entity is not None:
            am_user = merged_entity_for(fw, cand.u.branch, cand.using_entity)
        sites = _sites_for(cand.code, cand.d, cand.u, am_user, fw)
        if not sites:
            continue            # the clash does not survive in the merge
        sites.sort(key=lambda s: (s.file, s.span, s.entity))
        subject, subject_kind = _subject_of(cand.code, cand.d)
        conflicts.append(Conflict(
            type=cand.code,
            branch_of_def=cand.d.branch,
            subject=subject,
            subject_kind=subject_kind,
            def_change=cand.d,
            use_intro=cand.u,
            using_fqn=cand.using_fqn,
            using_am=am_user,
            sites=sites,
        ))
    conflicts.sort(key=lambda c: (c.type_num, c.subject,
                                  c.sites[0].file, c.sites[0].span,
                                  c.using_fqn))
    return conflicts
