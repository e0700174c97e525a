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
and, built on first use, its ``named`` table of each type's members by
simple name, all of which depend on the text alone.  A unit is resolved in
two steps, its head (imports, extends, implements) and then its bodies
(reads, writes, calls, initializes), because bodies follow the superclasses
that every unit's head links.  A resolution reads the version only through
a ``_Reads``, the one reader of a version's symbol table, which records
each read with its answer, in ids and texts: a type fqn looked up (hit or
miss, stubs included), a package looked up, a type's superclass, a type's
members of one simple name (its ``named`` entry).  Its member and supertype
queries are made of those reads.  Each head and each body resolution is
kept on its unit, a body apart from the head it followed: it logs every
read it makes, the imports its type scope looks up and the superclasses it
walks included, so its own log verifies it.  A later version reuses a
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
to each ``build_peg``, which skips the same bodies, keeping those units
in ``EntityGraph.deferred``; declarations and heads stay eager.
``EntityGraph.resolve_deferred`` completes a graph (``--dump-peg`` and the
unit-facts oracle call it), and a build given no deferred paths is the
full build.  The unit facts the test builds start ``build_fourway``'s
memo, so each file gives one unit per merge.

The test compares one symbol frame per version, built from the files the
versions do not all share.  A frame holds their facts that are not keyed by
a member name (the type ids, each with its extends clause and its file's
package, imports and types; the stubs those files' imports make) and
their units' ``named`` entries: by (type id, simple name), the ids of a
type's members of that name, in order, each with a field's declared
type.  A shared file is deferred when the frames agree on the first part
and no identifier of its text ends in a dirty name: one whose members,
for some type, differ between frames.  The frames leave out the
shared files' own facts, which are the same in every version: versions
whose other files agree without them agree with them too, so leaving them
out can only defer less.  It does where a file that declares no type, so
that no type's head records its imports, imports on one branch a class a
shared file declares: that version's frame stubs the import and the others
hold no such stub, so nothing is deferred and the bodies are resolved as in
a full build.  When the importing file declares a type, the frames differ
in its head either way.

When the test says yes, each read a body makes answers the same in every
version:

* a type fqn: the type ids and stubs are equal (a stub is an import
  that no type of the version declares, and the shared files add the
  same imports and types to every version).  A package is looked up
  only by a head, for a wildcard import, and heads are never deferred,
  so a file that declares no type in a package of its own, as a
  ``package-info.java`` does, leaves the frames equal;
* a type's superclass: each extends clause resolves in an equal scope
  against equal types;
* a type's members of a name: the resolver asks for them only through
  ``methods_named`` and ``field_named``, with a name from the text (a
  created type's name, or its own class's for ``this(...)``), and the
  frames compare the very entries these reads return, so a name that is
  not dirty has the same entry in every version.

So a deferred body's relations are equal in all four graphs: they cancel
in a delta, they join entities every graph holds by id, and the hosts they
would add to mining are the same in every version and mine an empty
script.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
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
        self._parent: dict[str, str] = {}
        self._super: dict[str, str] = {}    # type id -> superclass id
        self._unit_of: dict[str, _Unit] = {}    # type id -> its unit
        # the units whose facts this graph holds, in path order
        self.units: list[_Unit] = []
        # the units whose bodies build_peg skipped
        self.deferred: list[_Unit] = []

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
        return entity

    def _add_unit(self, unit: _Unit) -> None:
        """Adds a unit's declarations under its package, which the graph
        holds already; the first entity whose id is taken, in declaration
        order, raises DuplicateEntity."""
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
        self._unit_of.update(unit.unit_of)
        self.units.append(unit)

    def resolve_deferred(self) -> None:
        """Resolves the bodies ``build_peg`` deferred, which makes this
        graph the full build."""
        for unit in self.deferred:
            self.relations.update(unit.body(self).relations)
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
            return " ".join(sorted(unit.cu.simple_name for unit in self.units
                                   if unit.package == entity.fqn))
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
        if graph.find("package", unit.package) is None:
            graph.add_entity(Entity("package", unit.package), project)
        graph._add_unit(unit)
        units.append(unit)

    for unit in units:
        for name in _stubbed(unit.imports, graph.find_type):
            graph.add_entity(Entity("class", name, stub=True))

    for head in [unit.head(graph) for unit in units]:
        graph.relations.update(head.relations)
        graph._super.update(head.extends)
    for unit in units:
        if unit.path in deferred:
            graph.deferred.append(unit)
        else:
            graph.relations.update(unit.body(graph).relations)
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
    versions do not all share: (type id -> the inputs of its superclass
    lookup, the stubs their imports make against their types), and their
    ``named`` tables."""
    heads: dict[str, tuple] = {}
    named: dict[tuple[str, str], tuple] = {}
    imports: set[str] = set()
    for unit in units:
        scope = (unit.package, tuple(unit.imports),
                 tuple(ent.id for ent, _node in unit.types))
        heads.update((ent.id, (scope, tuple(t.value for t in
                                            clauses(node)["extends"])))
                     for ent, node in unit.types)
        named.update(unit.named)
        imports.update(unit.imports)
    declared = {tid.split(":", 1)[1] for tid in heads}
    stubs = set(_stubbed(imports, declared.__contains__))
    return (heads, stubs), named


@dataclass(eq=False)
class _Resolution:
    """A unit's head or bodies as resolved in some version: the reads made,
    each with its answer, and the relations emitted."""
    reads: dict
    relations: set[Relation]
    extends: dict[str, str] = field(default_factory=dict)   # head only


class _Unit:
    """What one parsed file contributes to a graph.

    The declarations depend on the file alone, and so does ``named``,
    built on first use; ``heads`` and ``bodies`` keep every resolution of
    the head and of the bodies made so far.
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
        self.types: list[tuple[Entity, SyntaxNode]] = []
        self.heads: list[_Resolution] = []
        self.bodies: list[_Resolution] = []

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
        self.unit_of = {ent.id: self for ent, _node in self.types}

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
            return base if n == 0 else f"{base}#{n + 1}"

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

    @cached_property
    def named(self) -> dict[tuple[str, str], tuple]:
        """(type id, simple name) -> the ids of the type's members of that
        name, in declaration order, each with a field's declared type."""
        named: dict[tuple[str, str], list] = {}
        for ent, _node in self.types:
            for member in self.members_of(ent):
                tref = declared_type(member.decl) \
                    if member.kind in ("field", "enum-constant") else None
                named.setdefault((ent.id, member.simple_name), []).append(
                    (member.id, None if tref is None else tref.value))
        return {key: tuple(ids) for key, ids in named.items()}

    def parent_of(self, entity: Entity) -> Optional[Entity]:
        """The parent within this unit; None for the compilation unit."""
        pid = self.parent.get(entity.id)
        return self.by_id.get(pid) if pid else None

    # -- resolution ----------------------------------------------------------

    def head(self, graph: EntityGraph) -> _Resolution:
        """Imports and heritage; needs the version's types and stubs."""
        return _reuse_or_resolve(self.heads, graph, self._resolve_head)

    def body(self, graph: EntityGraph) -> _Resolution:
        """Member bodies; needs every unit's head in the version."""
        return _reuse_or_resolve(
            self.bodies, graph,
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


def _answer(graph: EntityGraph, kind: str, arg):
    """The answer of one symbol-table read, in ids and texts."""
    if kind == "type":
        hit = graph.find_type(arg)
        return None if hit is None else hit.id
    if kind == "super":
        return graph._super.get(arg)
    if kind == "package":
        return f"package:{arg}" in graph.entities
    # "named": arg is (type id, simple name); None for a type no unit declares
    unit = graph._unit_of.get(arg[0])
    return None if unit is None else unit.named.get(arg)


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
    -> answer; the member and supertype queries are made of those reads:
    one ``named`` read per (type, simple name) asked."""

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

    def superclass_of(self, type_entity: Entity) -> Optional[Entity]:
        sid = self._ask("super", type_entity.id)
        return None if sid is None else self.graph.entities.get(sid)

    def _named(self, type_entity: Entity, name: str) -> Iterator[tuple]:
        """The type's members named ``name``, each with a field's declared
        type."""
        entities = self.graph.entities
        for mid, ftype in self._ask("named", (type_entity.id, name)) or ():
            yield entities[mid], ftype

    def methods_named(self, type_entity: Entity, name: str,
                      arity: int) -> list[Entity]:
        return [member for member, _ftype in self._named(type_entity, name)
                if member.kind in ("method", "constructor")
                and arity_of(member) == arity]

    def field_named(self, type_entity: Entity,
                    name: str) -> Optional[tuple[Entity, Optional[str]]]:
        """The type's first field or enum constant named ``name``, with its
        declared type."""
        for member, ftype in self._named(type_entity, name):
            if member.kind in ("field", "enum-constant"):
                return member, ftype
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
    """Walks member bodies of one unit emitting reads/writes/calls/initializes,
    seeing the version only through ``reads``, whose log the resolution keeps.

    The walk state is the same for a whole member's walk, anonymous-body
    code included: ``member``, the declared member the code counts as;
    ``type_ent``, the type that declares it; and ``scopes``, the local
    frames, innermost last, each mapping a name to its declared type entity
    when resolvable (None otherwise; the name still shadows fields)."""

    def __init__(self, unit: _Unit, reads: _Reads):
        self.unit = unit
        self.reads = reads
        self.scope = _TypeScope(reads, unit)
        self.relations: set[Relation] = set()
        self.scopes: list[dict] = []

    def run(self) -> set[Relation]:
        for self.type_ent, _node in self.unit.types:
            for self.member in self.unit.members_of(self.type_ent):
                self._walk_member(self.member.decl)
        return self.relations

    def _walk_member(self, decl: SyntaxNode) -> None:
        """A field's initializer, or a method's or constructor's body with
        its parameters in scope."""
        if decl.kind == "FieldDecl":
            init = initializer(decl)
            if init is not None:
                self._walk_expr(init)
        elif decl.kind in ("MethodDecl", "ConstructorDecl"):
            frame = {p.value: self._type_of(p) for p in parameters(decl)}
            body = body_of(decl)
            if body is not None:
                self._walk_block(body, frame)

    def _type_of(self, decl: SyntaxNode) -> Optional[Entity]:
        """The type a parameter or local variable declares, if resolvable."""
        tref = declared_type(decl)
        return self.scope.resolve_type(tref.value) if tref is not None else None

    def _walk_block(self, block: SyntaxNode,
                    frame: Optional[dict] = None) -> None:
        """The block's statements in a new frame, ``frame`` when given."""
        self.scopes.append({} if frame is None else frame)
        for stmt in block.children:
            self._walk_stmt(stmt)
        self.scopes.pop()

    def _walk_stmt(self, stmt: SyntaxNode) -> None:
        k = stmt.kind
        if k == "LocalVarDecl":
            init = initializer(stmt)
            if init is not None:
                self._walk_expr(init)
            self.scopes[-1][stmt.value] = self._type_of(stmt)
        elif k == "ExprStmt" or k == "ReturnStmt" or k == "ThrowStmt":
            for expr in stmt.children:
                self._walk_expr(expr)
        elif k == "IfStmt":
            # an else-if chain in a loop, however long
            while True:
                self._walk_expr(stmt.children[0])
                self._walk_block(stmt.children[1])
                if len(stmt.children) < 3:
                    break
                stmt = stmt.children[2]
                if stmt.kind != "IfStmt":
                    self._walk_stmt(stmt)
                    break
        elif k == "WhileStmt":
            self._walk_expr(stmt.children[0])
            self._walk_block(stmt.children[1])
        elif k == "ForStmt":
            init, cond, update, body = stmt.children
            self.scopes.append({})
            self._walk_stmt(init)
            self._walk_expr(cond)
            self._walk_expr(update)
            # the body's statements share the header's frame
            self._walk_block(body, self.scopes.pop())
        elif k == "ForEachStmt":
            param, iterable, body = stmt.children
            self._walk_expr(iterable)
            self._walk_block(body, {param.value: self._type_of(param)})
        elif k == "Block":
            self._walk_block(stmt)

    # -- expressions --------------------------------------------------------

    def _lookup_local(self, name: str):
        for frame in reversed(self.scopes):
            if name in frame:
                return True, frame[name]
        return False, None

    # ``find`` is a member query on one type: a field with its declared
    # type or a list of methods, falsy when there is none

    def _in_chain(self, start: Entity, find: Callable):
        """The first hit of ``find`` on ``start``, then its supertypes."""
        for cur in chain((start,), self.reads.supertype_chain(start)):
            hit = find(cur)
            if hit:
                return hit
        return None

    def _enclosing(self, find: Callable):
        """The first hit of ``find`` in the supertype chain of the member's
        type, then of each lexically enclosing type."""
        cur: Optional[Entity] = self.type_ent
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

    def _receiver_type(self, receiver: SyntaxNode) -> Optional[Entity]:
        if receiver.kind == "Name":
            if receiver.value == "this":
                return self.type_ent
            is_local, declared = self._lookup_local(receiver.value)
            if is_local:
                return declared
            found = self._enclosing(self._fields(receiver.value))
            if found is not None:
                text = found[1]
                return None if text is None else self.scope.resolve_type(text)
            return self.scope.resolve_type(receiver.value)
        if receiver.kind == "ObjectCreation":
            return self.scope.resolve_type(receiver.children[0].value)
        return None

    def _emit(self, dst: Entity, kind: str) -> None:
        self.relations.add(_relation(self.member, dst, kind))

    def _walk_expr(self, expr: SyntaxNode, as_target: bool = False) -> None:
        k = expr.kind
        if k == "Name":
            if expr.value != "this" and not self._lookup_local(expr.value)[0]:
                found = self._enclosing(self._fields(expr.value))
                if found is not None:
                    self._emit(found[0], "writes" if as_target else "reads")
        elif k == "FieldAccess":
            receiver = expr.children[0]
            recv_type = self._receiver_type(receiver)
            if recv_type is not None:
                found = self._in_chain(recv_type, self._fields(expr.value))
                if found is not None:
                    self._emit(found[0], "writes" if as_target else "reads")
            self._walk_expr(receiver)
        elif k == "MethodInvocation":
            args = expr.children[-1]
            receiver = expr.children[0] if len(expr.children) == 2 else None
            arity = len(args.children)
            targets: Optional[list[Entity]] = None
            if receiver is None:
                if expr.value == "this":
                    owner = self.unit.parent_of(self.member)
                    if owner is not None and owner.kind == "class":
                        targets = self.reads.methods_named(owner, owner.simple_name,
                                                           arity)
                else:
                    targets = self._enclosing(self._methods(expr.value, arity))
            else:
                recv_type = self._receiver_type(receiver)
                if recv_type is not None:
                    targets = self._in_chain(
                        recv_type, self._methods(expr.value, arity))
                self._walk_expr(receiver)
            for target in targets or ():
                self._emit(target, "calls")
            for arg in args.children:
                self._walk_expr(arg)
        elif k == "ObjectCreation":
            tref, args = expr.children[0], expr.children[1]
            created = self.scope.resolve_type(tref.value)
            if created is not None and created.kind == "class":
                self._emit(created, "initializes")
                for ctor in self.reads.methods_named(created, created.simple_name,
                                                     len(args.children)):
                    if ctor.kind == "constructor":
                        self._emit(ctor, "calls")
            for arg in args.children:
                self._walk_expr(arg)
            if len(expr.children) > 2 and expr.children[2].kind == "AnonymousBody":
                # anonymous members have no entities of their own; their
                # code counts as the enclosing declared member
                for m in expr.children[2].children:
                    self._walk_member(m)
        elif k == "Assignment":
            target, value = expr.children
            self._walk_expr(target, as_target=True)
            self._walk_expr(value)
        elif k == "BinaryExpr":
            self._walk_expr(expr.children[0])
            self._walk_expr(expr.children[1])
        elif k == "CastExpr":
            self._walk_expr(expr.children[1])
