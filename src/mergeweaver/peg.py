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

Unit facts.  The four versions of a merge mostly hold the same files, and
``merge3`` shares one SourceFile per (path, text) among them, so
``build_fourway`` passes one memo to its four ``build_peg`` calls.  Per
SourceFile the memo keeps a ``_Unit``: the entities the file declares
(immutable, so the graphs share them), its contains and declares relations
and its diagnostics, all of which depend on the text alone.  A unit is
resolved in two steps, its head (imports, extends, implements) and then its
bodies (reads, writes, calls, initializes), because bodies follow the
superclasses that every unit's head links.  A resolution reads the version
only through a ``_Reads``, the one reader of a version's symbol table,
which records each read with its answer, in ids and texts: a type fqn
looked up (hit or miss, stubs included), a package looked up, a type's
member list, a type's superclass, a field's declared type.  Its member and
supertype queries are made of those reads.  A later version reuses a
resolution only if it holds the same SourceFile and every recorded read
gives the same answer there; otherwise the unit is resolved afresh and the
new resolution kept beside the old ones.

The reuse is exact: a resolution sees the version only through those reads,
and the relations it emits hold ids, so equal answers give equal relations.
This is the verifying-trace rule of Mokhov, Mitchell and Peyton Jones,
"Build Systems a la Carte" (ICFP 2018).  Packages, the project and stubs are
assembled per version, entities keep the insertion order of a build from
scratch, and an empty memo is that build.

Deferred bodies.  A file every version shares (the same text in base,
left and right, and so in the merge) is one SourceFile in all four, and
its bodies can only make an edit if a name they use means something else
in another version.  Which of these files no build reads the bodies of is
decided once per merge, in ``merge3.parse_versions``: it parses the other
files first, asks ``deferred_by_text`` and keeps the answer as
``MergeScenario.deferred``, a set of paths.  The parser recognizes those
files' bodies without building them, and ``build_fourway`` passes the set
to each ``build_peg``, which skips the same bodies, keeping each unit with
its head in ``EntityGraph.deferred``; declarations and heads stay eager.
``EntityGraph.resolve_deferred`` completes a graph (``--dump-peg`` and the
unit-facts oracle call it), and a build given no deferred paths is the
full build.  The unit facts the test builds start ``build_fourway``'s
memo, so each file gives one unit per merge.

The test compares one symbol frame per version, built from the files the
versions do not all share.  A frame holds their facts that are not keyed
by a member name (the type ids, each with its extends clause and its
file's package, imports and types; the packages; the stubs those files'
imports make) and, by (type id, simple name), the ids of a type's members
of that name, in order, with a field's declared type.  A shared file is
deferred when the frames agree on the first part and no identifier of its
text ends in a dirty name: one whose members, for some type, differ
between frames.  The frames leave out the shared files' own facts, which
are the same in every version: versions whose other files agree without
them agree with them too, so leaving them out can only defer less.  It
does where a file that declares no type, so that no type's head records
its imports, imports on one branch a class a shared file declares: that
version's frame stubs the import and the others hold no such stub, so
nothing is deferred and the bodies are resolved as in a full build.  When
the importing file declares a type, the frames differ in its head either
way.

When the test says yes, each read a body makes answers the same in every
version:

* a type fqn and a package: the type ids, stubs and packages are equal
  (a stub is an import that no type of the version declares, and the
  shared files add the same imports and types to every version);
* a type's superclass: each extends clause resolves in an equal scope
  against equal types;
* a type's member list: the resolver reads it only through
  ``methods_named`` and ``field_named``, with a name from the text (a
  created type's name, or its own class's for ``this(...)``), and a name
  that is not dirty has the same members in every type;
* a field's declared type: asked only of a field found that way.

So a deferred body's relations are equal in all four graphs: they cancel
in a delta, they join entities every graph holds by id, and the hosts they
would add to mining are the same in every version and mine an empty
script.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain
from typing import (Callable, Iterable, Iterator, NamedTuple, Optional,
                    Sequence)

from .printer import PrintMemo, pretty_print
from .syntax import (TYPE_DECL_KINDS, TYPE_KEYWORDS, SourceFile, SyntaxNode,
                     body_of, clauses, declared_type, initializer, param_types,
                     parameters)

# the type entity kinds, in the order find_type tries them: the keywords
# of the type declarations
TYPE_ENTITY_KINDS = tuple(TYPE_KEYWORDS.values())
MEMBER_ENTITY_KINDS = frozenset({"field", "method", "constructor", "enum-constant"})
ENTITY_KINDS = frozenset({"project", "package", "compilation-unit",
                          *TYPE_ENTITY_KINDS, *MEMBER_ENTITY_KINDS})

RELATION_KINDS = frozenset({
    "contains", "imports", "declares", "extends", "implements",
    "reads", "writes", "calls", "initializes",
})

# the legal (src kind, relation, dst kind) triples
_CALL_SRC = MEMBER_ENTITY_KINDS - {"enum-constant"}
_EDGES = frozenset({
    ("project", "contains", "package"),
    ("package", "contains", "compilation-unit"),
    ("class", "extends", "class"), ("interface", "extends", "interface"),
    ("class", "implements", "interface"),
    *(("compilation-unit", kind, t) for t in TYPE_ENTITY_KINDS
      for kind in ("declares", "imports")),
    ("compilation-unit", "imports", "package"),
    *((t, "declares", d) for t in TYPE_ENTITY_KINDS
      for d in (*TYPE_ENTITY_KINDS, *MEMBER_ENTITY_KINDS)),
    *((s, kind, d) for s in _CALL_SRC for kind in ("reads", "writes")
      for d in ("field", "enum-constant")),
    *((s, "calls", d) for s in _CALL_SRC for d in ("method", "constructor")),
    *((s, "initializes", "class") for s in _CALL_SRC),
})


VERSION_NAMES = {"b": "base", "l": "left", "r": "right", "am": "merged"}


class DuplicateEntity(Exception):
    def __init__(self, fqn: str, version: Optional[str] = None):
        where = f" in the {VERSION_NAMES.get(version, version)} version" \
            if version else ""
        super().__init__(f"duplicate entity {fqn}{where}")
        self.fqn = fqn
        self.version = version


def simple_of(fqn: str) -> str:
    """The simple name of an entity's fqn: no owner, parameters or
    ``#`` suffix."""
    head = fqn.split("(", 1)[0]
    return head.rsplit(".", 1)[-1].split("#", 1)[0]


@dataclass(eq=False, frozen=True)
class Entity:
    kind: str
    fqn: str
    decl: Optional[SyntaxNode] = None
    path: Optional[str] = None
    stub: bool = False

    # computed once per entity; frozen fields keep them right
    id: str = field(init=False, repr=False)
    simple_name: str = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in ENTITY_KINDS:
            raise ValueError(f"unknown entity kind: {self.kind!r}")
        object.__setattr__(self, "id", f"{self.kind}:{self.fqn}")
        object.__setattr__(self, "simple_name", simple_of(self.fqn))

    @property
    def param_sig(self) -> Optional[str]:
        if "(" in self.fqn:
            return self.fqn[self.fqn.index("("):]
        return None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{self.id}>"


class Relation(NamedTuple):
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
        self._super: dict[str, str] = {}    # type id -> superclass id
        self.diagnostics: list[str] = []
        # the units whose facts this graph holds, in path order
        self.units: list[_Unit] = []
        # the units whose bodies build_peg skipped, each with its head
        self.deferred: list[tuple[_Unit, _Resolution]] = []

    # -- construction --------------------------------------------------------

    def add_entity(self, entity: Entity,
                   parent: Optional[Entity] = None) -> Entity:
        """Adds ``entity`` under ``parent``, which contains it when a
        project or package and declares it otherwise."""
        if entity.id in self.entities:
            raise DuplicateEntity(entity.fqn, self.version)
        self.entities[entity.id] = entity
        if parent is not None:
            link = "contains" if parent.kind in ("project", "package") \
                else "declares"
            self.relations.add(_relation(parent, entity, link))
            self._parent[entity.id] = parent.id
            # a new list: a unit's child lists are shared with other graphs
            self._children[parent.id] = \
                self._children.get(parent.id, []) + [entity.id]
        return entity

    def _add_unit(self, unit: _Unit, package: Entity) -> None:
        """Adds a unit's declarations under its package; the first entity
        whose id is taken, in declaration order, raises DuplicateEntity."""
        entities = self.entities
        if len(unit.by_id) < len(unit.entities) \
                or not entities.keys().isdisjoint(unit.by_id):
            seen: set[str] = set()
            for ent in unit.entities:
                if ent.id in entities or ent.id in seen:
                    raise DuplicateEntity(ent.fqn, self.version)
                seen.add(ent.id)
        entities.update(unit.by_id)
        self.relations.update(unit.relations)
        self._parent.update(unit.parent)
        self._children.update(unit.children)
        self._children.setdefault(package.id, []).append(unit.cu.id)
        self.diagnostics.extend(unit.diagnostics)
        self.units.append(unit)

    def resolve_deferred(self) -> None:
        """Resolves the bodies ``build_peg`` deferred, which makes this
        graph the full build."""
        for unit, head in self.deferred:
            self.relations.update(unit.body(head, self).relations)
        self.deferred = []

    # -- lookup ----------------------------------------------------------------

    def entities_outside(self, units: set[_Unit]) -> list[Entity]:
        """The entities in insertion order, less those ``units`` declare."""
        skip = set().union(*(unit.by_id for unit in units))
        return [ent for eid, ent in self.entities.items() if eid not in skip]

    def by_id(self, entity_id: str) -> Entity:
        return self.entities[entity_id]

    def find(self, kind: str, fqn: str) -> Optional[Entity]:
        return self.entities.get(f"{kind}:{fqn}")

    def find_type(self, fqn: str) -> Optional[Entity]:
        for kind in TYPE_ENTITY_KINDS:
            ent = self.find(kind, fqn)
            if ent is not None:
                return ent
        return None

    def parent_id(self, entity: Entity) -> Optional[str]:
        return self._parent.get(entity.id)

    def body_text(self, entity: Entity,
                  memo: Optional[PrintMemo] = None) -> str:
        if entity.kind == "package":
            names = sorted(self.entities[c].simple_name
                           for c in self._children.get(entity.id, []))
            return " ".join(names)
        if entity.decl is None:
            return ""
        return pretty_print(entity.decl) if memo is None \
            else memo.print(entity.decl)

    def context_strings(self, ids: set[str]) -> dict[str, str]:
        """The context string of each entity in ``ids``: the sorted fqns
        of the entities it shares a relation with, its own fqn when it
        relates to itself.  One scan of the relations serves them all."""
        fqns: dict[str, set[str]] = {eid: set() for eid in ids}
        entities = self.entities
        for src, dst, _kind in self.relations:
            if src in fqns:
                fqns[src].add(entities[dst].fqn)
            if dst in fqns:
                fqns[dst].add(entities[src].fqn)
        return {eid: " ".join(sorted(names)) for eid, names in fqns.items()}


def lookup_uses(graph: EntityGraph, target: Entity) -> list[tuple[Entity, Relation]]:
    """All (source entity, relation) pairs pointing at target, by source fqn."""
    hits = [(graph.by_id(rel.src), rel)
            for rel in graph.relations if rel.dst == target.id]
    hits.sort(key=lambda pair: (pair[0].fqn, pair[1].kind))
    return hits


def arity_of(entity: Entity) -> int:
    """The parameter count of a member's declaration: 0 for a field."""
    return len(parameters(entity.decl))


def _relation(src: Entity, dst: Entity, kind: str) -> Relation:
    if (src.kind, kind, dst.kind) not in _EDGES:
        raise ValueError(f"illegal {kind} edge {src.kind}->{dst.kind}")
    return Relation(src.id, dst.id, kind)


# ---------------------------------------------------------------------------
# builder


def build_peg(files: dict[str, SourceFile], version: str,
              memo: Optional[dict] = None,
              deferred: frozenset[str] = frozenset()) -> EntityGraph:
    """The entity graph of one version.

    ``memo`` maps (path, id of the SourceFile) to that file's unit facts;
    the builds of one merge may share it (see the module docstring).  The
    bodies of the units at the ``deferred`` paths are left for
    ``EntityGraph.resolve_deferred``: ``build_fourway`` passes the files
    ``merge3.parse_versions`` picked ("Deferred bodies" in the module
    docstring).  With no deferred paths the build is full.
    """
    memo = {} if memo is None else memo
    graph = EntityGraph(version)
    project = graph.add_entity(Entity("project", "<project>"))

    units: list[_Unit] = []
    for path in sorted(files):
        unit = _unit_of(memo, path, files[path])
        pkg = graph.find("package", unit.package) or \
            graph.add_entity(Entity("package", unit.package), project)
        graph._add_unit(unit, pkg)
        units.append(unit)

    for unit in units:
        for name in _stubbed(unit.imports, graph.find_type):
            graph.add_entity(Entity("class", name, stub=True))

    heads = [unit.head(graph) for unit in units]
    for head in heads:
        graph.relations.update(head.relations)
        graph._super.update(head.extends)
    for unit, head in zip(units, heads):
        if unit.path in deferred:
            graph.deferred.append((unit, head))
        else:
            graph.relations.update(unit.body(head, graph).relations)
    return graph


def _stubbed(imports: Iterable[str],
             declares: Callable[[str], object]) -> Iterator[str]:
    """The imports a version stubs: each single-type import of a name that
    ``declares`` finds no type for, asked as the import is reached."""
    for name in imports:
        if not name.endswith(".*") and not declares(name):
            yield name


def _unit_of(memo: dict, path: str, src: SourceFile) -> _Unit:
    unit = memo.get((path, id(src)))
    if unit is None:    # the unit keeps src alive, so its id stays unique
        unit = memo[path, id(src)] = _Unit(path, src)
    return unit


def deferred_by_text(others: Sequence[dict[str, SourceFile]],
                     memo: dict) -> Callable[[str], bool]:
    """A test on the text of a file that every version shares, given
    ``others``, the files of each version that they do not all share: true
    when no build of ``build_fourway`` reads the file's bodies (see
    "Deferred bodies" in the module docstring).  The unit facts of
    ``others`` are kept in ``memo``."""
    frames = [_symbol_frame([_unit_of(memo, path, src)
                             for path, src in files.items()])
              for files in others]
    if any(frame[0] != frames[0][0] for frame in frames[1:]):
        return lambda text: False
    dirty: set[str] = set()
    for frame in frames[1:]:
        dirty.update(name for (_tid, name), _ids in
                     frame[1].items() ^ frames[0][1].items())
    if not dirty:
        return lambda text: True
    # an identifier token ends where a run of [\w$] does; one that only
    # ends in a dirty name counts as a mention too, which defers less
    mention = re.compile(r"(?:%s)(?![\w$])"
                         % "|".join(map(re.escape, sorted(dirty))))
    return lambda text: mention.search(text) is None


def _symbol_frame(units: list[_Unit]) -> tuple[tuple, dict]:
    """A version's symbol frame, given the ``units`` of its files that the
    versions do not all share: (the heads of their types, their packages,
    the stubs their imports make against their types), and the members of
    their types by name."""
    heads: dict[str, tuple] = {}
    named: dict[tuple[str, str], tuple] = {}
    imports: set[str] = set()
    packages: set[str] = set()
    for unit in units:
        unit_heads, unit_named = _symbol_facts(unit)
        heads.update(unit_heads)
        named.update(unit_named)
        imports.update(unit.imports)
        packages.add(unit.package)
    declared = {tid.split(":", 1)[1] for tid in heads}
    stubs = set(_stubbed(imports, declared.__contains__))
    return (heads, packages, stubs), named


def _symbol_facts(unit: _Unit) -> tuple[dict, dict]:
    """What ``unit`` puts in a version's symbol table beyond its ids: type
    id -> the inputs of its superclass lookup, and (type id, simple name)
    -> the ids of the type's members of that name, in order, each with a
    field's declared type."""
    scope = (unit.package, tuple(unit.imports),
             tuple(ent.id for ent, _node in unit.types))
    heads = {ent.id: (scope, tuple(t.value for t in clauses(node)["extends"]))
             for ent, node in unit.types}
    named: dict[tuple[str, str], list] = {}
    for ent, _node in unit.types:
        for member in unit.members_of(ent):
            tref = declared_type(member.decl) \
                if member.kind in ("field", "enum-constant") else None
            named.setdefault((ent.id, member.simple_name), []).append(
                (member.id, None if tref is None else tref.value))
    return heads, {key: tuple(ids) for key, ids in named.items()}


@dataclass(eq=False)
class _Resolution:
    """A unit's head or bodies as resolved in some version: the reads made,
    each with its answer, and the relations emitted."""
    reads: dict
    relations: set[Relation]
    extends: dict[str, str] = field(default_factory=dict)   # head only
    bodies: list[_Resolution] = field(default_factory=list)  # head only


class _Unit:
    """What one parsed file contributes to a graph.

    The declarations depend on the file alone; ``heads`` keeps every
    resolution of the head made so far, each with its body resolutions.
    """

    def __init__(self, path: str, source: SourceFile):
        self.source = source
        self.path = path
        root = source.tree.root
        self.package = "(default)"
        self.imports: list[str] = []
        for child in root.children:
            if child.kind == "PackageDecl":
                self.package = child.value
            elif child.kind == "ImportDecl":
                self.imports.append(child.value)
        self.prefix = "" if self.package == "(default)" else self.package + "."
        self.entities: list[Entity] = []    # declaration order
        self.by_id: dict[str, Entity] = {}
        self.parent: dict[str, str] = {}
        self.children: dict[str, list[str]] = {}
        self.relations: list[Relation] = []  # contains and declares
        self.diagnostics: list[str] = []
        self.types: list[tuple[Entity, SyntaxNode]] = []
        self.heads: list[_Resolution] = []

        stem = path.rsplit("/", 1)[-1].removesuffix(".java")
        self.cu = Entity("compilation-unit", self.prefix + stem, decl=root,
                         path=path)
        package_id = f"package:{self.package}"
        self.entities.append(self.cu)
        self.by_id[self.cu.id] = self.cu
        self.parent[self.cu.id] = package_id
        self.relations.append(Relation(package_id, self.cu.id, "contains"))
        for child in root.children:
            if child.kind in TYPE_DECL_KINDS:
                self._declare_type(self.cu, self.prefix, child)

    def _add(self, entity: Entity, parent: Entity) -> None:
        self.entities.append(entity)
        self.by_id.setdefault(entity.id, entity)
        self.relations.append(_relation(parent, entity, "declares"))
        self.parent[entity.id] = parent.id
        self.children.setdefault(parent.id, []).append(entity.id)

    def _declare_type(self, parent: Entity, prefix: str,
                      node: SyntaxNode) -> None:
        fqn = prefix + node.value
        ent = Entity(TYPE_KEYWORDS[node.kind], fqn, decl=node, path=self.path)
        self._add(ent, parent)
        self.types.append((ent, node))
        occupied: dict[str, int] = {}

        def member_fqn(base: str) -> str:
            n = occupied.get(base, 0)
            occupied[base] = n + 1
            if n == 0:
                return base
            self.diagnostics.append(f"duplicate member {base}")
            return f"{base}#{n + 1}"

        for child in node.children:
            if child.kind in TYPE_DECL_KINDS:
                self._declare_type(ent, fqn + ".", child)
            elif child.kind == "FieldDecl":
                self._add(Entity("field", member_fqn(f"{fqn}.{child.value}"),
                                 decl=child, path=self.path), ent)
            elif child.kind == "EnumConstant":
                self._add(Entity("enum-constant",
                                 member_fqn(f"{fqn}.{child.value}"),
                                 decl=child, path=self.path), ent)
            elif child.kind in ("MethodDecl", "ConstructorDecl"):
                kind = "method" if child.kind == "MethodDecl" else "constructor"
                sig = param_types(child)
                self._add(Entity(kind, member_fqn(f"{fqn}.{child.value}({sig})"),
                                 decl=child, path=self.path), ent)

    def members_of(self, entity: Entity) -> list[Entity]:
        return [self.by_id[cid] for cid in self.children.get(entity.id, [])]

    def parent_of(self, entity: Entity) -> Optional[Entity]:
        """The parent within this unit; None for the compilation unit."""
        pid = self.parent.get(entity.id)
        return self.by_id.get(pid) if pid else None

    # -- resolution ----------------------------------------------------------

    def head(self, graph: EntityGraph) -> _Resolution:
        """Imports and heritage; needs the version's types and stubs."""
        return _reuse_or_resolve(self.heads, graph, self._resolve_head)

    def body(self, head: _Resolution, graph: EntityGraph) -> _Resolution:
        """Member bodies; needs every unit's head in the version."""
        return _reuse_or_resolve(
            head.bodies, graph,
            lambda reads: _Resolution(reads.log, _Resolver(self, reads).run()))

    def _resolve_head(self, reads: _Reads) -> _Resolution:
        relations: set[Relation] = set()
        extends: dict[str, str] = {}
        for name in self.imports:
            if name.endswith(".*"):
                if reads.has_package(name[:-2]):
                    relations.add(Relation(self.cu.id, f"package:{name[:-2]}",
                                           "imports"))
                continue
            target = reads.find_type(name)   # a stub when nothing declares it
            assert target is not None
            relations.add(_relation(self.cu, target, "imports"))
        scope = _TypeScope(reads, self)
        for ent, node in self.types:
            heritage = clauses(node)
            for tref in heritage["extends"]:
                target = scope.resolve_type(tref.value)
                if target is not None and \
                        (ent.kind, target.kind) in (("class", "class"),
                                                    ("interface", "interface")):
                    relations.add(_relation(ent, target, "extends"))
                    extends[ent.id] = target.id
            for tref in heritage["implements"]:
                target = scope.resolve_type(tref.value)
                if target is not None and ent.kind == "class" \
                        and target.kind == "interface":
                    relations.add(_relation(ent, target, "implements"))
        return _Resolution(reads.log, relations, extends)


def _answer(graph: EntityGraph, kind: str, arg: str):
    """The answer of one symbol-table read, in ids and texts."""
    if kind == "type":
        hit = graph.find_type(arg)
        return None if hit is None else hit.id
    if kind == "members":
        return graph._children.get(arg)
    if kind == "super":
        return graph._super.get(arg)
    if kind == "package":
        return f"package:{arg}" in graph.entities
    # "field-type": the declared type of a field, None once it is gone
    fld = graph.entities.get(arg)
    tref = None if fld is None or fld.decl is None else declared_type(fld.decl)
    return None if tref is None else tref.value


def _reuse_or_resolve(resolutions: list[_Resolution], graph: EntityGraph,
                      resolve: Callable[[_Reads], _Resolution]) -> _Resolution:
    """The first of ``resolutions`` whose every read answers the same in
    graph; else ``resolve``'s resolution through a fresh ``_Reads``, kept
    with them."""
    for res in resolutions:
        if all(_answer(graph, kind, arg) == got
               for (kind, arg), got in res.reads.items()):
            return res
    found = resolve(_Reads(graph))
    resolutions.append(found)
    return found


class _Reads:
    """A version's symbol table as one resolution reads it: the one reader
    of the table.  Every answer given is logged as (read kind, argument)
    -> answer; the member and supertype queries are made of those reads."""

    def __init__(self, graph: EntityGraph):
        self.graph = graph
        self.log: dict[tuple[str, str], object] = {}

    def _ask(self, kind: str, arg: str):
        got = self.log[kind, arg] = _answer(self.graph, kind, arg)
        return got

    def find_type(self, fqn: str) -> Optional[Entity]:
        tid = self._ask("type", fqn)
        return None if tid is None else self.graph.entities[tid]

    def has_package(self, name: str) -> bool:
        return self._ask("package", name)

    def members_of(self, entity: Entity) -> list[Entity]:
        entities = self.graph.entities
        return [entities[cid] for cid in self._ask("members", entity.id) or ()]

    def superclass_of(self, type_entity: Entity) -> Optional[Entity]:
        sid = self._ask("super", type_entity.id)
        return None if sid is None else self.graph.entities.get(sid)

    def field_type(self, fld: Entity) -> Optional[str]:
        return self._ask("field-type", fld.id)

    def methods_named(self, type_entity: Entity, name: str,
                      arity: int) -> list[Entity]:
        out = []
        for member in self.members_of(type_entity):
            if member.kind not in ("method", "constructor"):
                continue
            if member.simple_name != name:
                continue
            if arity_of(member) != arity:
                continue
            out.append(member)
        return out

    def field_named(self, type_entity: Entity, name: str) -> Optional[Entity]:
        for member in self.members_of(type_entity):
            if member.kind in ("field", "enum-constant") and member.simple_name == name:
                return member
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


class _TypeScope:
    """Simple-name type resolution for one compilation unit."""

    def __init__(self, reads: _Reads, unit: _Unit):
        self.reads = reads
        self.prefix = unit.prefix
        self._local: dict[str, Entity] = {}
        for ent, _node in unit.types:
            self._local.setdefault(ent.simple_name, ent)
        self._imported: dict[str, Entity] = {}
        self._wildcards: list[str] = []
        for name in unit.imports:
            if name.endswith(".*"):
                self._wildcards.append(name[:-2])
                continue
            target = reads.find_type(name)
            if target is not None:
                self._imported[name.rsplit(".", 1)[-1]] = target

    def resolve_type(self, type_text: str) -> Optional[Entity]:
        base = type_text.split("<", 1)[0]
        if "." in base:
            return self.reads.find_type(base)
        if base in self._local:
            return self._local[base]
        if base in self._imported:
            return self._imported[base]
        same_pkg = self.reads.find_type(self.prefix + base)
        if same_pkg is not None:
            return same_pkg
        for pkg in self._wildcards:
            hit = self.reads.find_type(f"{pkg}.{base}")
            if hit is not None:
                return hit
        return None


class _Resolver:
    """Walks member bodies of one unit emitting reads/writes/calls/initializes."""

    def __init__(self, unit: _Unit, reads: _Reads):
        self.unit = unit
        self.reads = reads
        self.scope = _TypeScope(reads, unit)
        self.relations: set[Relation] = set()

    def run(self) -> set[Relation]:
        for type_ent, _node in self.unit.types:
            for member in self.unit.members_of(type_ent):
                if member.decl is not None:
                    self._walk_member(member.decl, member, type_ent, [])
        return self.relations

    def _walk_member(self, decl: SyntaxNode, member: Entity,
                     type_ent: Entity, scopes: list[dict]) -> None:
        """A field's initializer, or a method's or constructor's body with
        its parameters in scope; the code counts as ``member``."""
        if decl.kind == "FieldDecl":
            init = initializer(decl)
            if init is not None:
                self._walk_expr(init, member, type_ent, scopes)
        elif decl.kind in ("MethodDecl", "ConstructorDecl"):
            frame = {p.value: self._type_of(p) for p in parameters(decl)}
            body = body_of(decl)
            if body is not None:
                self._walk_block(body, member, type_ent, scopes + [frame])

    def _type_of(self, decl: SyntaxNode) -> Optional[Entity]:
        """The type a parameter or local variable declares, if resolvable."""
        tref = declared_type(decl)
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
            init = initializer(stmt)
            if init is not None:
                self._walk_expr(init, member, type_ent, scopes)
            scopes[-1][stmt.value] = self._type_of(stmt)
        elif k == "ExprStmt" or k == "ReturnStmt" or k == "ThrowStmt":
            for expr in stmt.children:
                self._walk_expr(expr, member, type_ent, scopes)
        elif k == "IfStmt":
            # an else-if chain in a loop, however long
            while True:
                self._walk_expr(stmt.children[0], member, type_ent, scopes)
                self._walk_block(stmt.children[1], member, type_ent, scopes)
                if len(stmt.children) < 3:
                    break
                stmt = stmt.children[2]
                if stmt.kind != "IfStmt":
                    self._walk_stmt(stmt, member, type_ent, scopes)
                    break
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
            scopes.append({param.value: self._type_of(param)})
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

    # ``find`` is a member query on one type: a field or a list of methods,
    # falsy when there is none

    def _in_chain(self, type_ent: Entity, find: Callable):
        """The first hit of ``find`` on type_ent, then its supertypes."""
        for cur in chain((type_ent,), self.reads.supertype_chain(type_ent)):
            hit = find(cur)
            if hit:
                return hit
        return None

    def _enclosing(self, type_ent: Entity, find: Callable):
        """The first hit of ``find`` in the supertype chain of type_ent,
        then of each lexically enclosing type."""
        cur: Optional[Entity] = type_ent
        while cur is not None:
            hit = self._in_chain(cur, find)
            if hit:
                return hit
            parent = self.unit.parent_of(cur)
            cur = parent if parent is not None and \
                parent.kind in TYPE_ENTITY_KINDS else None
        return None

    def _fields(self, name: str) -> Callable:
        return lambda t: self.reads.field_named(t, name)

    def _methods(self, name: str, arity: int) -> Callable:
        return lambda t: self.reads.methods_named(t, name, arity)

    def _receiver_type(self, receiver: SyntaxNode, type_ent: Entity,
                       scopes: list[dict]) -> tuple[Optional[Entity], bool]:
        """Returns (type entity, is_static_access)."""
        if receiver.kind == "Name":
            if receiver.value == "this":
                return type_ent, False
            is_local, declared = self._lookup_local(receiver.value, scopes)
            if is_local:
                return declared, False
            fld = self._enclosing(type_ent, self._fields(receiver.value))
            if fld is not None:
                text = self.reads.field_type(fld)
                if text is not None:
                    return self.scope.resolve_type(text), False
                return None, False
            as_type = self.scope.resolve_type(receiver.value)
            if as_type is not None:
                return as_type, True
            return None, False
        if receiver.kind == "ObjectCreation":
            return self.scope.resolve_type(receiver.children[0].value), False
        return None, False

    def _emit(self, src: Entity, dst: Entity, kind: str) -> None:
        self.relations.add(_relation(src, dst, kind))

    def _walk_expr(self, expr: SyntaxNode, member: Entity, type_ent: Entity,
                   scopes: list[dict], as_target: bool = False) -> None:
        k = expr.kind
        if k == "Name":
            if expr.value == "this":
                return
            is_local, _ = self._lookup_local(expr.value, scopes)
            if is_local:
                return
            fld = self._enclosing(type_ent, self._fields(expr.value))
            if fld is not None:
                self._emit(member, fld, "writes" if as_target else "reads")
            return
        if k == "Literal" or k == "TypeRef":
            return
        if k == "FieldAccess":
            receiver = expr.children[0]
            recv_type, _static = self._receiver_type(receiver, type_ent, scopes)
            if recv_type is not None:
                fld = self._in_chain(recv_type, self._fields(expr.value))
                if fld is not None:
                    self._emit(member, fld, "writes" if as_target else "reads")
            self._walk_expr(receiver, member, type_ent, scopes)
            return
        if k == "MethodInvocation":
            args = expr.children[-1]
            receiver = expr.children[0] if len(expr.children) == 2 else None
            arity = len(args.children)
            targets: Optional[list[Entity]] = None
            if receiver is None:
                if expr.value == "this":
                    owner = self._owner_class(member)
                    if owner is not None:
                        targets = self.reads.methods_named(owner, owner.simple_name,
                                                           arity)
                else:
                    targets = self._enclosing(
                        type_ent, self._methods(expr.value, arity))
            else:
                recv_type, _static = self._receiver_type(receiver, type_ent, scopes)
                if recv_type is not None:
                    targets = self._in_chain(
                        recv_type, self._methods(expr.value, arity))
                self._walk_expr(receiver, member, type_ent, scopes)
            for target in targets or ():
                self._emit(member, target, "calls")
            for arg in args.children:
                self._walk_expr(arg, member, type_ent, scopes)
            return
        if k == "ObjectCreation":
            tref, args = expr.children[0], expr.children[1]
            created = self.scope.resolve_type(tref.value)
            if created is not None and created.kind == "class":
                self._emit(member, created, "initializes")
                for ctor in self.reads.methods_named(created, created.simple_name,
                                                     len(args.children)):
                    if ctor.kind == "constructor":
                        self._emit(member, ctor, "calls")
            for arg in args.children:
                self._walk_expr(arg, member, type_ent, scopes)
            if len(expr.children) > 2 and expr.children[2].kind == "AnonymousBody":
                # anonymous members have no entities of their own; their
                # code counts as the enclosing declared member
                for m in expr.children[2].children:
                    self._walk_member(m, member, type_ent, scopes)
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

    def _owner_class(self, member: Entity) -> Optional[Entity]:
        parent = self.unit.parent_of(member)
        return parent if parent is not None and parent.kind == "class" else None
