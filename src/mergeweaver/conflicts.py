"""Build-conflict detection over a four-way graph.

A conflict pairs a definition-side edit from one branch with a
use-introducing edit from the other branch and localizes the clash in the
merged sources.  Detection is manifestation-based: a candidate pair only
becomes a conflict while the merged tree still exhibits the problem, so
running detection again after a resolution shows whether the fix took.

The taxonomy is one table, ``TAXONOMY``, with one row per code C1-C23 (the
paper's evaluation uses 21 of them).  A row names the def edit it starts
from (op, update detail, entity or relation kinds), a gate on that edit
alone, a predicate on the other branch's edit and a finder for the sites in
the merged tree.  Most use predicates come from two combinators: an added
relation of some kinds aimed at the old fqn, and an added class extending
or implementing the owner of the changed member, tested on its method of
the member's name and parameter types.

``classify`` answers with the first of the def edit's rows whose gate and
use predicate hold, yet row order carries no meaning: within one (op,
detail, kind) the use predicates are disjoint.  They test different edits
(an added relation, class or member), or an added class's link to one
owner fqn that Java cannot make both ways: extends needs a class there,
implements an interface.

C3 (a superclass method's signature changes under an added subclass that
overrides it) and C10 (an interface method is deleted under an added
class that implements it) break the build only when the stranded method
carries ``@Override``: without the annotation it is just a new method and
javac accepts the merge, as it does for the corpus scenarios rule-c03,
tax-c03, rule-c10 and tax-c10.  The rows report the clash either way.

A site finder returns (entity fqn, file, node) triples that
``detect_conflicts`` turns into sorted ``ConflictSite``s; finding none
means the clash does not survive in the merge, and the pair is dropped.
No finder walks a declaration.  A use of a name is read from the user's
``syntax.name_index``, which ``FourWayGraph.name_index`` builds once per
declaration and merge, filtered by ``uses`` to the kinds of use (and the
arity) the row asks for; C5's same-file mention test is index membership
too.  So a user with many conflicts is indexed once, not walked once per
conflict.  The parser puts every import among the children of a unit's
root, so the import scans read only those.

graph_diff sets ``old`` on every delete and update, ``new`` on every add
and update, and both ends of every relation edit; the rows rely on that.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

from .graph_diff import (EntityEdit, FourWayGraph, RelationEdit,
                         merged_entity_for)
from .peg import (MEMBER_ENTITY_KINDS, TYPE_ENTITY_KINDS, Entity, Relation,
                  arity_of, simple_of)
from .syntax import Span, SyntaxNode, declared_type, param_types

Edit = Union[EntityEdit, RelationEdit]

IDENT_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")


@dataclass
class ConflictSite:
    entity: str                 # fqn of the entity the site sits in
    file: str
    span: Span
    node_id: int


@dataclass
class Conflict:
    type: str
    branch_of_def: str
    subject: str
    subject_kind: str
    def_change: Edit
    use_intro: Edit
    using_fqn: str
    using_am: Optional[Entity]
    sites: list[ConflictSite]

    @property
    def type_num(self) -> int:
        return int(self.type[1:])

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{self.type} {self.subject} vs {self.using_fqn}>"


# ---------------------------------------------------------------------------
# declaration helpers shared with the resolvers


def owner_fqn(fqn: str) -> str:
    head = fqn.split("(", 1)[0]
    return head.rsplit(".", 1)[0] if "." in head else ""


def declared_type_text(decl: Optional[SyntaxNode]) -> Optional[str]:
    node = declared_type(decl) if decl is not None else None
    return node.value if node is not None else None


def find_decl_method(type_decl: SyntaxNode, name: str,
                     sig: str) -> Optional[SyntaxNode]:
    for child in type_decl.children:
        if child.kind in ("MethodDecl", "ConstructorDecl") \
                and child.value == name \
                and f"({param_types(child)})" == sig:
            return child
    return None


def arg_count(call: SyntaxNode) -> int:
    """Number of arguments of an invocation or object creation."""
    for child in call.children:
        if child.kind == "ArgumentList":
            return len(child.children)
    return 0


def interface_return_for(iface: Optional[Entity],
                         method: Optional[Entity]) -> Optional[str]:
    """Return type the interface declares for a method of that signature."""
    if iface is None or iface.decl is None or method is None:
        return None
    m = find_decl_method(iface.decl, method.simple_name, method.param_sig)
    return declared_type_text(m) if m is not None else None


# the node kinds of each kind of use, for ``uses``: a type reference (the
# type child of `new X()` is a TypeRef too), a field or variable, a call,
# a creation
TYPE_USES = ("TypeRef", "Name")
NAME_USES = ("Name", "FieldAccess")
CALLS = ("MethodInvocation",)
CREATIONS = ("ObjectCreation",)


def uses(named: dict[str, list[SyntaxNode]], name: str,
         kinds: tuple[str, ...], arity: Optional[int] = None
         ) -> list[SyntaxNode]:
    """The nodes of ``kinds`` that a name index holds under ``name``, in
    pre-order; with ``arity`` set, only calls and creations of that many
    arguments."""
    return [n for n in named.get(name, ()) if n.kind in kinds
            and (arity is None or arg_count(n) == arity)]


# ---------------------------------------------------------------------------
# def-side gates


def _renamed(d: EntityEdit) -> bool:
    # an unchanged simple name means an enclosing rename moved the path
    return d.old.simple_name != d.new.simple_name


def _type_change(d: EntityEdit) -> Optional[tuple[str, str]]:
    """(old, new) declared type of an updated member whose type changed."""
    old_t = declared_type_text(d.old.decl)
    new_t = declared_type_text(d.new.decl)
    return (old_t, new_t) if old_t and new_t and old_t != new_t else None


# ---------------------------------------------------------------------------
# use predicates: does the other branch's edit u clash with def edit d?

_Use = Callable[[Edit, Edit, FourWayGraph], bool]


def _added_rel(kinds: Optional[tuple[str, ...]] = None,
               within: bool = False) -> _Use:
    """u adds a relation of one of ``kinds`` (any kind if None) aimed at
    the fqn d takes away, or with ``within`` also at anything inside it."""
    def use(d: Edit, u: Edit, fw: FourWayGraph) -> bool:
        if not isinstance(u, RelationEdit) or u.op != "add" \
                or (kinds is not None and u.kind not in kinds):
            return False
        old = d.dst_fqn if isinstance(d, RelationEdit) else d.old_fqn
        return u.dst_fqn == old \
            or (within and u.dst_fqn.startswith(old + "."))
    return use


def _added_subclass(relation: str,
                    test: Callable[[Edit, Optional[SyntaxNode]], bool]
                    ) -> _Use:
    """u adds a class that ``relation`` (extends or implements) links to the
    owner of d's member; ``test`` gets d and the class's method with that
    member's name and parameter types, or None."""
    owner_kind = "class" if relation == "extends" else "interface"

    def use(d: Edit, u: Edit, fw: FourWayGraph) -> bool:
        if not isinstance(u, EntityEdit) or u.op != "add" \
                or u.kind != "class" or u.new.decl is None:
            return False
        graph = fw.left if u.branch == "l" else fw.right
        owner = graph.find(owner_kind, owner_fqn(d.subject))
        if owner is None or Relation(u.new.id, owner.id, relation) \
                not in graph.relations:
            return False
        member = d.old or d.new
        return test(d, find_decl_method(u.new.decl, member.simple_name,
                                        member.param_sig))
    return use


def _has(d: Edit, m: Optional[SyntaxNode]) -> bool:
    return m is not None


def _lacks(d: Edit, m: Optional[SyntaxNode]) -> bool:
    return m is None


def _returns_other(d: Edit, m: Optional[SyntaxNode]) -> bool:
    return m is not None \
        and declared_type_text(m) != declared_type_text(d.new.decl)


def _declares_other(d: Edit, m: Optional[SyntaxNode]) -> bool:
    # unlike _returns_other, a method without a declared type never clashes
    mine, theirs = declared_type_text(d.new.decl), declared_type_text(m)
    return bool(mine and theirs) and mine != theirs


_TYPE_USE = ("initializes", "imports", "extends", "implements")
_FIELD_USE = ("reads", "writes")
_uses_type = _added_rel(_TYPE_USE + ("calls",) + _FIELD_USE)


def _needs_dropped_import(d: RelationEdit, u: Edit, fw: FourWayGraph) -> bool:
    """u uses the type whose import d removed: by a relation to it, or by
    new code in the same file that mentions its simple name."""
    if _uses_type(d, u, fw):
        return True
    if not isinstance(u, EntityEdit) or u.new is None \
            or u.new.decl is None or u.new.path != d.src.path \
            or u.new.kind not in ("field", "method", "constructor"):
        return False
    name = d.dst.simple_name
    if u.op == "add":
        return name in fw.name_index(u.new.decl)
    return u.op == "update" and u.detail == "body-change" \
        and name in fw.name_index(u.new.decl) \
        and not (u.old.decl is not None
                 and name in fw.name_index(u.old.decl))


def _breaks_contract(d: RelationEdit, u: Edit, fw: FourWayGraph) -> bool:
    """u changes a return type in the class that d makes implement an
    interface, to one other than the interface declares."""
    if not isinstance(u, EntityEdit) or u.op != "update" \
            or u.detail != "body-change" or u.kind != "method" \
            or owner_fqn(u.new.fqn) != d.src_fqn:
        return False
    change = _type_change(u)
    return change is not None \
        and interface_return_for(d.dst, u.new) not in (None, change[1])


def _same_add(d: Edit, u: Edit, fw: FourWayGraph) -> bool:
    return isinstance(u, EntityEdit) and u.op == "add" \
        and u.kind == d.kind and u.new_fqn == d.new_fqn


# ---------------------------------------------------------------------------
# site finders: where the clash shows in the merged tree

# (fqn of the entity the site sits in, file, node)
_Found = list[tuple[str, Optional[str], SyntaxNode]]
_Finder = Callable[[Edit, Edit, Optional[Entity], FourWayGraph], _Found]


def _merged_member_fqn(fw: FourWayGraph, cls: Entity,
                       decl: SyntaxNode) -> str:
    fqn = f"{cls.fqn}.{decl.value}({param_types(decl)})"
    for suffix in ("", "#2", "#3"):
        found = fw.merged.find("method", fqn + suffix) \
            or fw.merged.find("constructor", fqn + suffix)
        if found is not None:
            return found.fqn
    return fqn


def _in_user(find: Callable[[Edit, Edit, Entity, FourWayGraph],
                            list[SyntaxNode]]) -> _Finder:
    """Finder over the declaration of the merged entity holding the use.

    A method or constructor declaration among the nodes (the clashing
    member of an added subclass) is labelled with its own merged fqn, any
    other node with the user's.
    """
    def sites(d: Edit, u: Edit, user: Optional[Entity],
              fw: FourWayGraph) -> _Found:
        if user is None or user.decl is None:
            return []
        return [(_merged_member_fqn(fw, user, n)
                 if n.kind in ("MethodDecl", "ConstructorDecl") else user.fqn,
                 user.path, n) for n in find(d, u, user, fw)]
    return sites


@_in_user
def _type_uses(d: Edit, u: Edit, user: Entity,
               fw: FourWayGraph) -> list[SyntaxNode]:
    simple = simple_of(d.subject)
    if user.kind == "compilation-unit":
        return [n for n in user.decl.children if n.kind == "ImportDecl"
                and (n.value == d.subject or n.value.endswith("." + simple))]
    return uses(fw.name_index(user.decl), simple, TYPE_USES)


@_in_user
def _package_imports(d: Edit, u: Edit, user: Entity,
                     fw: FourWayGraph) -> list[SyntaxNode]:
    return [n for n in user.decl.children if n.kind == "ImportDecl"
            and n.value.startswith(d.old_fqn + ".")]


@_in_user
def _dangling_type_uses(d: Edit, u: Edit, user: Entity,
                        fw: FourWayGraph) -> list[SyntaxNode]:
    cu: Optional[Entity] = user
    while cu is not None and cu.kind != "compilation-unit":
        pid = fw.merged.parent_id(cu)
        cu = None if pid is None else fw.merged.by_id(pid)
    if cu is not None and cu.decl is not None:
        pkg = owner_fqn(d.dst_fqn)
        if any(n.kind == "ImportDecl" and (
                n.value == d.dst_fqn or (pkg and n.value == pkg + ".*"))
               for n in cu.decl.children):
            return []           # the import is present, nothing dangles
    return uses(fw.name_index(user.decl), simple_of(d.dst_fqn), TYPE_USES)


@_in_user
def _field_uses(d: Edit, u: Edit, user: Entity,
                fw: FourWayGraph) -> list[SyntaxNode]:
    return uses(fw.name_index(user.decl), simple_of(d.subject), NAME_USES)


@_in_user
def _calls(d: Edit, u: Edit, user: Entity,
           fw: FourWayGraph) -> list[SyntaxNode]:
    return uses(fw.name_index(user.decl), d.old.simple_name, CALLS,
                arity_of(d.old))


@_in_user
def _creations(d: Edit, u: Edit, user: Entity,
               fw: FourWayGraph) -> list[SyntaxNode]:
    named, arity = fw.name_index(user.decl), arity_of(d.old)
    return uses(named, d.old.simple_name, CREATIONS, arity) \
        + uses(named, "this", CALLS, arity)


@_in_user
def _retyped_override(d: Edit, u: Edit, user: Entity,
                      fw: FourWayGraph) -> list[SyntaxNode]:
    m = find_decl_method(user.decl, d.new.simple_name, d.new.param_sig)
    if m is None or declared_type_text(m) == declared_type_text(d.new.decl):
        return []
    return [m]


@_in_user
def _old_method(d: Edit, u: Edit, user: Entity,
                fw: FourWayGraph) -> list[SyntaxNode]:
    # the clash clears once no method with the old name and old signature
    # is left in the merged class
    m = find_decl_method(user.decl, d.old.simple_name, d.old.param_sig)
    return [m] if m is not None else []


@_in_user
def _missing_override(d: Edit, u: Edit, user: Entity,
                      fw: FourWayGraph) -> list[SyntaxNode]:
    if find_decl_method(user.decl, d.new.simple_name,
                        d.new.param_sig) is not None:
        return []               # the override exists, contract satisfied
    return [user.decl]


@_in_user
def _contract_return(d: Edit, u: Edit, user: Entity,
                     fw: FourWayGraph) -> list[SyntaxNode]:
    am_ret = declared_type_text(user.decl)
    iface_ret = interface_return_for(d.dst, u.new)
    if not am_ret or not iface_ret or am_ret == iface_ret:
        return []
    return [declared_type(user.decl)]


def _duplicates(d: Edit, u: Edit, user: Optional[Entity],
                fw: FourWayGraph) -> _Found:
    dups = [e for e in fw.merged.entities.values()
            if e.kind == d.kind and e.decl is not None
            and (e.fqn == d.new_fqn or e.fqn.startswith(d.new_fqn + "#"))]
    return [(e.fqn, e.path, e.decl) for e in dups] if len(dups) > 1 else []


# ---------------------------------------------------------------------------
# the taxonomy


class Row(NamedTuple):
    code: str
    op: str                     # of the def edit: add | delete | update
    detail: Optional[str]       # of an updated entity; else None
    kinds: tuple[str, ...]      # entity kinds, or the relation kind
    gate: Optional[Callable[[Edit], object]]    # holds if truthy
    use: _Use
    sites: _Finder


TAXONOMY: tuple[Row, ...] = (
    Row("C1", "update", "rename", ("class",), _renamed,
        _added_rel(_TYPE_USE), _type_uses),
    Row("C2", "add", None, ("method",), None,
        _added_subclass("extends", _declares_other), _retyped_override),
    Row("C3", "update", "signature-change", ("method",), None,
        _added_subclass("extends", _has), _old_method),
    Row("C4", "update", "body-change", ("method",), _type_change,
        _added_subclass("extends", _returns_other), _retyped_override),
    Row("C5", "delete", None, ("imports",), None,
        _needs_dropped_import, _dangling_type_uses),
    Row("C6", "update", "rename", ("package",), None,
        _added_rel(("imports",), within=True), _package_imports),
    Row("C7", "update", "rename", ("interface",), _renamed,
        _added_rel(_TYPE_USE), _type_uses),
    Row("C8", "add", None, ("method",), None,
        _added_subclass("implements", _lacks), _missing_override),
    Row("C9", "update", "signature-change", ("method",), None,
        _added_subclass("implements", _has), _old_method),
    Row("C10", "delete", None, ("method",), None,
        _added_subclass("implements", _has), _old_method),
    Row("C11", "update", "rename", ("method",), _renamed,
        _added_subclass("implements", _has), _old_method),
    Row("C12", "add", None, ("implements",), None,
        _breaks_contract, _contract_return),
    Row("C13", "update", "rename", ("field",), _renamed,
        _added_rel(_FIELD_USE), _field_uses),
    Row("C14", "add", None, ("field",), None, _same_add, _duplicates),
    Row("C15", "update", "rename", ("method",), _renamed,
        _added_rel(("calls",)), _calls),
    Row("C16", "add", None, ("method", "constructor"), None,
        _same_add, _duplicates),
    Row("C17", "delete", None, ("class", "enum"), None,
        _added_rel(within=True), _type_uses),
    Row("C18", "update", "signature-change", ("constructor",), None,
        _added_rel(("calls",)), _creations),
    Row("C19", "update", "body-change", ("field",), _type_change,
        _added_rel(_FIELD_USE), _field_uses),
    Row("C20", "delete", None, ("field",), None,
        _added_rel(_FIELD_USE), _field_uses),
    Row("C21", "update", "signature-change", ("method",), None,
        _added_rel(("calls",)), _calls),
    Row("C22", "update", "body-change", ("method",), _type_change,
        _added_rel(("calls",)), _calls),
    Row("C23", "delete", None, ("method",), None,
        _added_rel(("calls",)), _calls),
)

_ROWS: dict[tuple[str, Optional[str], str], list[Row]] = {}
for _row in TAXONOMY:
    for _kind in _row.kinds:
        _ROWS.setdefault((_row.op, _row.detail, _kind), []).append(_row)


def _rows_of(d: Edit) -> list[Row]:
    """The rows whose def edit d is: same op, detail and kind, gate holds."""
    detail = d.detail if isinstance(d, EntityEdit) else None
    return [r for r in _ROWS.get((d.op, detail, d.kind), ())
            if r.gate is None or r.gate(d)]


def _first_row(rows: list[Row], d: Edit, u: Edit,
               fw: FourWayGraph) -> Optional[Row]:
    for row in rows:
        if row.use(d, u, fw):
            return row
    return None


def classify(def_change: Edit, use_intro: Edit,
             fw: FourWayGraph) -> Optional[str]:
    """Taxonomy code for a def-side/use-side edit pair, or None."""
    if def_change.branch == use_intro.branch:
        return None
    row = _first_row(_rows_of(def_change), def_change, use_intro, fw)
    return row.code if row is not None else None


# ---------------------------------------------------------------------------
# def-side candidate filtering


def _apply_renames(text: str, renames: dict[str, str]) -> str:
    return IDENT_RE.sub(lambda m: renames.get(m.group(0), m.group(0)), text)


def _def_candidates(delta) -> list[Edit]:
    """Def edits of one branch, less those another def edit of it explains."""
    deleted_types = {e.old_fqn for e in delta.entity_edits
                     if e.op == "delete"
                     and e.kind in TYPE_ENTITY_KINDS}
    renames = {e.old.simple_name: e.new.simple_name
               for e in delta.entity_edits
               if e.op == "update" and e.detail == "rename"
               and e.kind in TYPE_ENTITY_KINDS and _renamed(e)}

    out: list[Edit] = []
    for e in delta.entity_edits:
        if e.op == "delete" and e.kind in MEMBER_ENTITY_KINDS \
                and owner_fqn(e.old_fqn) in deleted_types:
            continue            # the type-level delete carries the conflict
        if renames and e.detail == "signature-change" \
                and _apply_renames(e.old.param_sig or "", renames) \
                == (e.new.param_sig or ""):
            continue            # signature only respells a renamed type
        change = _type_change(e) if renames and e.detail == "body-change" \
            else None
        if change is not None and _apply_renames(change[0], renames) \
                == change[1]:
            continue            # declared type only respells a renamed type
        out.append(e)
    return out + delta.relation_edits


# ---------------------------------------------------------------------------
# detection


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


@dataclass
class _Candidate:
    row: Row
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
        uses: list[Edit] = list(dy.entity_edits) + list(dy.relation_edits)
        for d in _def_candidates(dx):
            rows = _rows_of(d)
            for u in uses if rows else ():
                row = _first_row(rows, d, u, fw)
                if row is None:
                    continue
                using_fqn, using_entity = _use_entity(u)
                # both orientations of a duplicate add (C14, C16) share this
                # key, so the left branch's def, found first, is kept
                key = (row.code, _edit_key(d), using_fqn)
                prev = found.get(key)
                if prev is None or _edit_key(u) < _edit_key(prev.u):
                    found[key] = _Candidate(row, d, u, using_fqn,
                                            using_entity)

    conflicts: list[Conflict] = []
    for cand in found.values():
        am_user = None
        if cand.using_entity is not None:
            am_user = merged_entity_for(fw, cand.u.branch, cand.using_entity)
        sites = sorted(
            (ConflictSite(fqn, path or "", n.span or (0, 0, 0, 0), n.id)
             for fqn, path, n in cand.row.sites(cand.d, cand.u, am_user, fw)),
            key=lambda s: (s.file, s.span, s.entity))
        if not sites:
            continue            # the clash does not survive in the merge
        code = cand.row.code
        subject, subject_kind = _subject_of(code, cand.d)
        conflicts.append(Conflict(
            type=code,
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
