"""Program entity graph construction.

The graph abstracts a parsed source tree into entities (project, package,
compilation-unit, type, member) and nine relation kinds: contains, imports,
declares, extends, implements, reads, writes, calls, initializes.

Name resolution is purely syntactic and scope-based: local scope first, then
fields of the enclosing type chain (following extends edges), then types
visible through the compilation unit (same file, same package, imports).
Unresolved names produce no edge.  Imports of names never declared in the
scenario produce a stub class entity so import deletions stay visible in
graph deltas.

Edges are attributed to the innermost declared member: field initializers
count as the field, anonymous-body code counts as the member that creates
the instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .printer import pretty_print
from .syntax import SourceFile, SyntaxNode, TYPE_DECL_KINDS

ENTITY_KINDS = frozenset({
    "project", "package", "compilation-unit",
    "class", "interface", "enum",
    "field", "method", "constructor", "enum-constant",
})

RELATION_KINDS = frozenset({
    "contains", "imports", "declares", "extends", "implements",
    "reads", "writes", "calls", "initializes",
})

_TYPE_ENTITY_KINDS = frozenset({"class", "interface", "enum"})
MEMBER_ENTITY_KINDS = frozenset({"field", "method", "constructor", "enum-constant"})

# legal (src kind, relation, dst kind) families
_CALL_SRC = MEMBER_ENTITY_KINDS - {"enum-constant"}


_VERSION_NAMES = {"b": "base", "l": "left", "r": "right", "am": "merged"}


class DuplicateEntity(Exception):
    def __init__(self, fqn: str, version: Optional[str] = None):
        where = f" in the {_VERSION_NAMES.get(version, version)} version" \
            if version else ""
        super().__init__(f"duplicate entity {fqn}{where}")
        self.fqn = fqn
        self.version = version


class UnknownEntity(KeyError):
    pass


@dataclass(eq=False)
class Entity:
    kind: str
    fqn: str
    decl: Optional[SyntaxNode] = None
    path: Optional[str] = None
    stub: bool = False

    @property
    def id(self) -> str:
        return f"{self.kind}:{self.fqn}"

    @property
    def simple_name(self) -> str:
        head = self.fqn.split("(", 1)[0]
        name = head.rsplit(".", 1)[-1]
        return name.split("#", 1)[0]

    @property
    def param_sig(self) -> Optional[str]:
        if "(" in self.fqn:
            return self.fqn[self.fqn.index("("):]
        return None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{self.id}>"


@dataclass(frozen=True)
class Relation:
    src: str  # entity id
    dst: str
    kind: str


class EntityGraph:
    def __init__(self, version: str):
        self.version = version
        self.entities: dict[str, Entity] = {}
        self.relations: set[Relation] = set()
        self._children: dict[str, list[str]] = {}
        self._parent: dict[str, str] = {}
        self.diagnostics: list[str] = []

    # -- construction --------------------------------------------------------

    def add_entity(self, entity: Entity, parent: Optional[Entity] = None,
                   link: Optional[str] = None) -> Entity:
        if entity.id in self.entities:
            raise DuplicateEntity(entity.fqn, self.version)
        self.entities[entity.id] = entity
        if parent is not None:
            self.add_relation(parent, entity, link or "contains")
            self._parent[entity.id] = parent.id
            self._children.setdefault(parent.id, []).append(entity.id)
        return entity

    def add_relation(self, src: Entity, dst: Entity, kind: str) -> None:
        if kind not in RELATION_KINDS:
            raise ValueError(f"unknown relation kind {kind}")
        _check_endpoints(src, dst, kind)
        self.relations.add(Relation(src.id, dst.id, kind))

    # -- lookup ----------------------------------------------------------------

    def by_id(self, entity_id: str) -> Entity:
        try:
            return self.entities[entity_id]
        except KeyError:
            raise UnknownEntity(entity_id) from None

    def find(self, kind: str, fqn: str) -> Optional[Entity]:
        return self.entities.get(f"{kind}:{fqn}")

    def find_type(self, fqn: str) -> Optional[Entity]:
        for kind in ("class", "interface", "enum"):
            ent = self.find(kind, fqn)
            if ent is not None:
                return ent
        return None

    def parent_of(self, entity: Entity) -> Optional[Entity]:
        pid = self._parent.get(entity.id)
        return self.entities[pid] if pid else None

    def members_of(self, entity: Entity) -> list[Entity]:
        return [self.entities[cid] for cid in self._children.get(entity.id, [])]

    def methods_named(self, type_entity: Entity, name: str,
                      arity: Optional[int] = None) -> list[Entity]:
        out = []
        for member in self.members_of(type_entity):
            if member.kind not in ("method", "constructor"):
                continue
            if member.simple_name != name:
                continue
            if arity is not None and arity_of(member) != arity:
                continue
            out.append(member)
        return out

    def field_named(self, type_entity: Entity, name: str) -> Optional[Entity]:
        for member in self.members_of(type_entity):
            if member.kind in ("field", "enum-constant") and member.simple_name == name:
                return member
        return None

    def superclass_of(self, type_entity: Entity) -> Optional[Entity]:
        for rel in self.relations:
            if rel.kind == "extends" and rel.src == type_entity.id:
                return self.entities.get(rel.dst)
        return None

    def supertype_chain(self, type_entity: Entity) -> Iterable[Entity]:
        seen = {type_entity.id}
        cur = type_entity
        while True:
            cur = self.superclass_of(cur)  # type: ignore[assignment]
            if cur is None or cur.id in seen:
                return
            seen.add(cur.id)
            yield cur

    def body_text(self, entity: Entity) -> str:
        if entity.kind == "package":
            names = sorted(self.entities[c].simple_name
                           for c in self._children.get(entity.id, []))
            return " ".join(names)
        if entity.decl is None:
            return ""
        return pretty_print(entity.decl)

    def context_string(self, entity: Entity) -> str:
        fqns = set()
        for rel in self.relations:
            if rel.src == entity.id:
                fqns.add(self.entities[rel.dst].fqn)
            elif rel.dst == entity.id:
                fqns.add(self.entities[rel.src].fqn)
        return " ".join(sorted(fqns))

    def validate(self) -> None:
        """Raises if a structural invariant is broken; used by tests."""
        for rel in self.relations:
            src = self.by_id(rel.src)
            dst = self.by_id(rel.dst)
            _check_endpoints(src, dst, rel.kind)
            if rel.kind in ("contains", "declares") and rel.src == rel.dst:
                raise ValueError(f"self-loop {rel}")
        for eid, ent in self.entities.items():
            if ent.kind not in ENTITY_KINDS:
                raise ValueError(f"bad entity kind {ent.kind}")
            if eid != ent.id:
                raise ValueError("entity index out of sync")


def lookup_uses(graph: EntityGraph, target: Entity) -> list[tuple[Entity, Relation]]:
    """All (source entity, relation) pairs pointing at target, by source fqn."""
    hits = [(graph.by_id(rel.src), rel)
            for rel in graph.relations if rel.dst == target.id]
    hits.sort(key=lambda pair: (pair[0].fqn, pair[1].kind))
    return hits


def _check_endpoints(src: Entity, dst: Entity, kind: str) -> None:
    ok = True
    if kind == "contains":
        ok = (src.kind, dst.kind) in (("project", "package"),
                                      ("package", "compilation-unit"))
    elif kind == "declares":
        ok = (src.kind == "compilation-unit" and dst.kind in _TYPE_ENTITY_KINDS) \
            or (src.kind in _TYPE_ENTITY_KINDS
                and dst.kind in MEMBER_ENTITY_KINDS | _TYPE_ENTITY_KINDS)
    elif kind == "imports":
        ok = src.kind == "compilation-unit" and \
            dst.kind in _TYPE_ENTITY_KINDS | {"package"}
    elif kind == "extends":
        ok = (src.kind, dst.kind) in (("class", "class"),
                                      ("interface", "interface"))
    elif kind == "implements":
        ok = src.kind == "class" and dst.kind == "interface"
    elif kind in ("reads", "writes"):
        ok = src.kind in _CALL_SRC and dst.kind in ("field", "enum-constant")
    elif kind == "calls":
        ok = src.kind in _CALL_SRC and dst.kind in ("method", "constructor")
    elif kind == "initializes":
        ok = src.kind in _CALL_SRC and dst.kind == "class"
    if not ok:
        raise ValueError(f"illegal {kind} edge {src.kind}->{dst.kind}")


def arity_of(entity: Entity) -> int:
    sig = entity.param_sig
    if not sig or sig == "()":
        return 0
    # commas inside generic arguments do not separate parameters
    depth = 0
    count = 1
    for ch in sig[1:-1]:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif ch == "," and depth == 0:
            count += 1
    return count


def type_base_name(type_text: str) -> str:
    """Strip generics and qualifiers from a TypeRef value: a.b.Foo<T> -> Foo."""
    base = type_text.split("<", 1)[0]
    return base.rsplit(".", 1)[-1]


# ---------------------------------------------------------------------------
# builder


def build_peg(files: dict[str, SourceFile], version: str) -> EntityGraph:
    graph = EntityGraph(version)
    project = graph.add_entity(Entity("project", "<project>"))

    packages: dict[str, Entity] = {}
    cu_infos: list[_CuInfo] = []

    for path in sorted(files):
        src = files[path]
        root = src.tree.root
        pkg_name = "(default)"
        for child in root.children:
            if child.kind == "PackageDecl":
                pkg_name = child.value
        pkg = packages.get(pkg_name)
        if pkg is None:
            pkg = graph.add_entity(Entity("package", pkg_name), project)
            packages[pkg_name] = pkg
        stem = path.rsplit("/", 1)[-1].removesuffix(".java")
        prefix = "" if pkg_name == "(default)" else pkg_name + "."
        cu = graph.add_entity(
            Entity("compilation-unit", prefix + stem, decl=root, path=path), pkg)
        info = _CuInfo(path=path, cu=cu, package=pkg_name, prefix=prefix, root=root)
        cu_infos.append(info)
        for child in root.children:
            if child.kind in TYPE_DECL_KINDS:
                _declare_type(graph, info, cu, prefix, child)

    _link_imports(graph, cu_infos, packages)
    _link_heritage(graph, cu_infos)
    for info in cu_infos:
        _Resolver(graph, info).run()
    return graph


@dataclass
class _CuInfo:
    path: str
    cu: Entity
    package: str
    prefix: str
    root: SyntaxNode
    types: list[tuple[Entity, SyntaxNode]] = field(default_factory=list)
    imports: list[str] = field(default_factory=list)


_KIND_FOR_DECL = {"ClassDecl": "class", "InterfaceDecl": "interface",
                  "EnumDecl": "enum"}


def _declare_type(graph: EntityGraph, info: _CuInfo, parent: Entity,
                  prefix: str, node: SyntaxNode) -> None:
    fqn = prefix + node.value
    ent = graph.add_entity(
        Entity(_KIND_FOR_DECL[node.kind], fqn, decl=node, path=info.path),
        parent, link="declares")
    info.types.append((ent, node))
    occupied: dict[str, int] = {}

    def member_fqn(base: str) -> str:
        n = occupied.get(base, 0)
        occupied[base] = n + 1
        if n == 0:
            return base
        graph.diagnostics.append(f"duplicate member {base}")
        return f"{base}#{n + 1}"

    for child in node.children:
        if child.kind in TYPE_DECL_KINDS:
            _declare_type(graph, info, ent, fqn + ".", child)
        elif child.kind == "FieldDecl":
            graph.add_entity(
                Entity("field", member_fqn(f"{fqn}.{child.value}"),
                       decl=child, path=info.path), ent, link="declares")
        elif child.kind == "EnumConstant":
            graph.add_entity(
                Entity("enum-constant", member_fqn(f"{fqn}.{child.value}"),
                       decl=child, path=info.path), ent, link="declares")
        elif child.kind in ("MethodDecl", "ConstructorDecl"):
            kind = "method" if child.kind == "MethodDecl" else "constructor"
            sig = ",".join(p_type.value
                           for param in child.children if param.kind == "Parameter"
                           for p_type in param.children if p_type.kind == "TypeRef")
            graph.add_entity(
                Entity(kind, member_fqn(f"{fqn}.{child.value}({sig})"),
                       decl=child, path=info.path), ent, link="declares")


def _link_imports(graph: EntityGraph, cu_infos: list[_CuInfo],
                  packages: dict[str, Entity]) -> None:
    for info in cu_infos:
        for child in info.root.children:
            if child.kind != "ImportDecl":
                continue
            name = child.value
            info.imports.append(name)
            if name.endswith(".*"):
                pkg = packages.get(name[:-2])
                if pkg is not None:
                    graph.add_relation(info.cu, pkg, "imports")
                continue
            target = graph.find_type(name)
            if target is None:
                target = graph.entities.get(f"class:{name}")
                if target is None:
                    target = graph.add_entity(Entity("class", name, stub=True))
            graph.add_relation(info.cu, target, "imports")


def heritage(node: SyntaxNode) -> tuple[list[str], list[str]]:
    """(extends type texts, implements type texts) of a type declaration."""
    extends: list[str] = []
    implements: list[str] = []
    mode = ""
    for child in node.children:
        if child.kind == "Name" and child.value in ("extends", "implements"):
            mode = child.value
        elif child.kind == "TypeRef" and mode:
            (extends if mode == "extends" else implements).append(child.value)
        elif child.kind not in ("Modifier", "Annotation", "TypeRef"):
            mode = ""
    return extends, implements


def _link_heritage(graph: EntityGraph, cu_infos: list[_CuInfo]) -> None:
    for info in cu_infos:
        scope = _TypeScope(graph, info)
        for ent, node in info.types:
            extends, implements = heritage(node)
            for text in extends:
                target = scope.resolve_type(text)
                if target is not None and \
                        (ent.kind, target.kind) in (("class", "class"),
                                                    ("interface", "interface")):
                    graph.add_relation(ent, target, "extends")
            for text in implements:
                target = scope.resolve_type(text)
                if target is not None and ent.kind == "class" \
                        and target.kind == "interface":
                    graph.add_relation(ent, target, "implements")


class _TypeScope:
    """Simple-name type resolution for one compilation unit."""

    def __init__(self, graph: EntityGraph, info: _CuInfo):
        self.graph = graph
        self.info = info
        self._local: dict[str, Entity] = {}
        for ent, _node in info.types:
            self._local.setdefault(ent.simple_name, ent)
        self._imported: dict[str, Entity] = {}
        self._wildcards: list[str] = []
        for name in info.imports:
            if name.endswith(".*"):
                self._wildcards.append(name[:-2])
                continue
            target = graph.find_type(name) or graph.entities.get(f"class:{name}")
            if target is not None:
                self._imported[name.rsplit(".", 1)[-1]] = target

    def resolve_type(self, type_text: str) -> Optional[Entity]:
        base = type_text.split("<", 1)[0]
        if "." in base:
            return self.graph.find_type(base)
        if base in self._local:
            return self._local[base]
        if base in self._imported:
            return self._imported[base]
        same_pkg = self.graph.find_type(self.info.prefix + base)
        if same_pkg is not None:
            return same_pkg
        for pkg in self._wildcards:
            hit = self.graph.find_type(f"{pkg}.{base}")
            if hit is not None:
                return hit
        return None


class _Resolver:
    """Walks member bodies of one unit emitting reads/writes/calls/initializes."""

    def __init__(self, graph: EntityGraph, info: _CuInfo):
        self.graph = graph
        self.info = info
        self.scope = _TypeScope(graph, info)

    def run(self) -> None:
        for type_ent, node in self.info.types:
            for member in self.graph.members_of(type_ent):
                if member.decl is None:
                    continue
                if member.kind == "field":
                    init = [c for c in member.decl.children
                            if c.kind not in ("Modifier", "Annotation", "TypeRef")]
                    if init:
                        self._walk_expr(init[0], member, type_ent, [{}])
                elif member.kind in ("method", "constructor"):
                    self._member_body(member, type_ent)

    def _member_body(self, member: Entity, type_ent: Entity) -> None:
        decl = member.decl
        assert decl is not None
        locals_: dict[str, Optional[Entity]] = {}
        for child in decl.children:
            if child.kind == "Parameter":
                locals_[child.value] = self._param_type(child)
        body = next((c for c in decl.children if c.kind == "Block"), None)
        if body is not None:
            self._walk_block(body, member, type_ent, [locals_])

    def _param_type(self, param: SyntaxNode) -> Optional[Entity]:
        tref = next((c for c in param.children if c.kind == "TypeRef"), None)
        return self.scope.resolve_type(tref.value) if tref is not None else None

    # scope shape: list of dicts, innermost last; value is the declared type
    # entity when resolvable (None otherwise, the name still shadows fields)

    def _walk_block(self, block: SyntaxNode, member: Entity,
                    type_ent: Entity, scopes: list[dict]) -> None:
        scopes.append({})
        for stmt in block.children:
            self._walk_stmt(stmt, member, type_ent, scopes)
        scopes.pop()

    def _walk_stmt(self, stmt: SyntaxNode, member: Entity,
                   type_ent: Entity, scopes: list[dict]) -> None:
        k = stmt.kind
        if k == "LocalVarDecl":
            tref = next((c for c in stmt.children if c.kind == "TypeRef"), None)
            init = [c for c in stmt.children
                    if c.kind not in ("Modifier", "TypeRef")]
            for expr in init:
                self._walk_expr(expr, member, type_ent, scopes)
            scopes[-1][stmt.value] = \
                self.scope.resolve_type(tref.value) if tref is not None else None
        elif k == "ExprStmt" or k == "ReturnStmt" or k == "ThrowStmt":
            for expr in stmt.children:
                self._walk_expr(expr, member, type_ent, scopes)
        elif k == "IfStmt":
            self._walk_expr(stmt.children[0], member, type_ent, scopes)
            self._walk_block(stmt.children[1], member, type_ent, scopes)
            if len(stmt.children) > 2:
                tail = stmt.children[2]
                if tail.kind == "Block":
                    self._walk_block(tail, member, type_ent, scopes)
                else:
                    self._walk_stmt(tail, member, type_ent, scopes)
        elif k == "WhileStmt":
            self._walk_expr(stmt.children[0], member, type_ent, scopes)
            self._walk_block(stmt.children[1], member, type_ent, scopes)
        elif k == "ForStmt":
            init, cond, update, body = stmt.children
            scopes.append({})
            self._walk_stmt(init, member, type_ent, scopes)
            self._walk_expr(cond, member, type_ent, scopes)
            self._walk_expr(update, member, type_ent, scopes)
            for inner in body.children:
                self._walk_stmt(inner, member, type_ent, scopes)
            scopes.pop()
        elif k == "ForEachStmt":
            param, iterable, body = stmt.children
            self._walk_expr(iterable, member, type_ent, scopes)
            scopes.append({param.value: self._param_type(param)})
            for inner in body.children:
                self._walk_stmt(inner, member, type_ent, scopes)
            scopes.pop()
        elif k == "Block":
            self._walk_block(stmt, member, type_ent, scopes)

    # -- expressions --------------------------------------------------------

    def _lookup_local(self, name: str, scopes: list[dict]):
        for frame in reversed(scopes):
            if name in frame:
                return True, frame[name]
        return False, None

    def _field_in_chain(self, type_ent: Entity, name: str) -> Optional[Entity]:
        hit = self.graph.field_named(type_ent, name)
        if hit is not None:
            return hit
        for sup in self.graph.supertype_chain(type_ent):
            hit = self.graph.field_named(sup, name)
            if hit is not None:
                return hit
        return None

    def _enclosing_field(self, name: str, type_ent: Entity) -> Optional[Entity]:
        cur: Optional[Entity] = type_ent
        while cur is not None:
            hit = self._field_in_chain(cur, name)
            if hit is not None:
                return hit
            parent = self.graph.parent_of(cur)
            cur = parent if parent is not None and \
                parent.kind in _TYPE_ENTITY_KINDS else None
        return None

    def _methods_in_chain(self, type_ent: Entity, name: str,
                          arity: int) -> list[Entity]:
        hits = self.graph.methods_named(type_ent, name, arity)
        if hits:
            return hits
        for sup in self.graph.supertype_chain(type_ent):
            hits = self.graph.methods_named(sup, name, arity)
            if hits:
                return hits
        return []

    def _enclosing_methods(self, name: str, type_ent: Entity,
                           arity: int) -> list[Entity]:
        cur: Optional[Entity] = type_ent
        while cur is not None:
            hits = self._methods_in_chain(cur, name, arity)
            if hits:
                return hits
            parent = self.graph.parent_of(cur)
            cur = parent if parent is not None and \
                parent.kind in _TYPE_ENTITY_KINDS else None
        return []

    def _receiver_type(self, receiver: SyntaxNode, type_ent: Entity,
                       scopes: list[dict]) -> tuple[Optional[Entity], bool]:
        """Returns (type entity, is_static_access)."""
        if receiver.kind == "Name":
            if receiver.value == "this":
                return type_ent, False
            is_local, declared = self._lookup_local(receiver.value, scopes)
            if is_local:
                return declared, False
            fld = self._enclosing_field(receiver.value, type_ent)
            if fld is not None and fld.decl is not None:
                tref = next((c for c in fld.decl.children
                             if c.kind == "TypeRef"), None)
                if tref is not None:
                    return self.scope.resolve_type(tref.value), False
                return None, False
            as_type = self.scope.resolve_type(receiver.value)
            if as_type is not None:
                return as_type, True
            return None, False
        if receiver.kind == "ObjectCreation":
            return self.scope.resolve_type(receiver.children[0].value), False
        return None, False

    def _emit_read_or_write(self, target: Entity, member: Entity,
                            write: bool) -> None:
        self.graph.add_relation(member, target, "writes" if write else "reads")

    def _walk_expr(self, expr: SyntaxNode, member: Entity, type_ent: Entity,
                   scopes: list[dict], as_target: bool = False) -> None:
        k = expr.kind
        if k == "Name":
            if expr.value == "this":
                return
            is_local, _ = self._lookup_local(expr.value, scopes)
            if is_local:
                return
            fld = self._enclosing_field(expr.value, type_ent)
            if fld is not None:
                self._emit_read_or_write(fld, member, as_target)
            return
        if k == "Literal" or k == "TypeRef":
            return
        if k == "FieldAccess":
            receiver = expr.children[0]
            recv_type, _static = self._receiver_type(receiver, type_ent, scopes)
            if recv_type is not None:
                fld = self._field_in_chain(recv_type, expr.value)
                if fld is not None:
                    self._emit_read_or_write(fld, member, as_target)
            self._walk_expr(receiver, member, type_ent, scopes)
            return
        if k == "MethodInvocation":
            args = expr.children[-1]
            receiver = expr.children[0] if len(expr.children) == 2 else None
            arity = len(args.children)
            targets: list[Entity] = []
            if receiver is None:
                if expr.value == "this":
                    owner = self._owner_class(member)
                    if owner is not None:
                        targets = self.graph.methods_named(owner, owner.simple_name,
                                                           arity)
                else:
                    targets = self._enclosing_methods(expr.value, type_ent, arity)
            else:
                recv_type, _static = self._receiver_type(receiver, type_ent, scopes)
                if recv_type is not None:
                    targets = self._methods_in_chain(recv_type, expr.value, arity)
                self._walk_expr(receiver, member, type_ent, scopes)
            for target in targets:
                self.graph.add_relation(member, target, "calls")
            for arg in args.children:
                self._walk_expr(arg, member, type_ent, scopes)
            return
        if k == "ObjectCreation":
            tref, args = expr.children[0], expr.children[1]
            created = self.scope.resolve_type(tref.value)
            if created is not None and created.kind == "class":
                self.graph.add_relation(member, created, "initializes")
                for ctor in self.graph.methods_named(created, created.simple_name,
                                                     len(args.children)):
                    if ctor.kind == "constructor":
                        self.graph.add_relation(member, ctor, "calls")
            for arg in args.children:
                self._walk_expr(arg, member, type_ent, scopes)
            if len(expr.children) > 2 and expr.children[2].kind == "AnonymousBody":
                self._anonymous_body(expr.children[2], member, type_ent, scopes)
            return
        if k == "Assignment":
            target, value = expr.children
            self._walk_expr(target, member, type_ent, scopes, as_target=True)
            self._walk_expr(value, member, type_ent, scopes)
            return
        if k == "BinaryExpr":
            self._walk_expr(expr.children[0], member, type_ent, scopes)
            self._walk_expr(expr.children[1], member, type_ent, scopes)
            return
        if k == "CastExpr":
            self._walk_expr(expr.children[1], member, type_ent, scopes)
            return
        if k == "ArgumentList":
            for arg in expr.children:
                self._walk_expr(arg, member, type_ent, scopes)
            return

    def _owner_class(self, member: Entity) -> Optional[Entity]:
        parent = self.graph.parent_of(member)
        return parent if parent is not None and parent.kind == "class" else None

    def _anonymous_body(self, body: SyntaxNode, member: Entity,
                        type_ent: Entity, scopes: list[dict]) -> None:
        # anonymous members have no entities of their own; their code is
        # attributed to the enclosing declared member
        for m in body.children:
            if m.kind in ("MethodDecl", "ConstructorDecl"):
                frame: dict[str, Optional[Entity]] = {}
                for child in m.children:
                    if child.kind == "Parameter":
                        frame[child.value] = self._param_type(child)
                block = next((c for c in m.children if c.kind == "Block"), None)
                if block is not None:
                    self._walk_block(block, member, type_ent, scopes + [frame])
            elif m.kind == "FieldDecl":
                init = [c for c in m.children
                        if c.kind not in ("Modifier", "Annotation", "TypeRef")]
                if init:
                    self._walk_expr(init[0], member, type_ent, scopes)
