"""Unit facts: the graphs of one merge, built with a shared memo, against
builds from scratch.

``build_fourway`` reuses a file's entities and resolved relations in a later
version when the file is the same SourceFile there and every symbol-table
read its resolution made answers the same (see the peg module docstring).
The oracle is ``build_peg`` with no memo.  On every corpus scenario and
control, both registered workloads and seeded mutations of a small
project, each of the four graphs must equal its cold build: entity ids in
insertion order, kinds, fqns, paths, stub flags, relations, diagnostics,
parent and child maps.  Both deltas must equal the deltas of the cold
graphs, which share no unit and so take the full path through
``diff_graphs``.  A version that declares an entity twice must fail with
the same message either way.

``build_fourway`` defers the bodies of the files at ``scenario.deferred``,
which ``parse_versions`` picks once per merge from files every version
shares (see "Deferred bodies" in the peg module docstring), and its deltas
come from those incomplete graphs.  So every graph must defer exactly
those files, the parser must have recognized bodies in no other file, and
before the oracle completes a graph with ``resolve_deferred``, the graph's
relations must be the cold relations less exactly the body relations of
its deferred units; after, the graph must equal its cold build.
"""

import copy
import random
import re
from dataclasses import dataclass, field
from typing import Optional

import pytest

from conftest import FANOUT, bench_gen, merge_inputs
from mergeweaver import peg
from mergeweaver.graph_diff import build_fourway, diff_graphs
from mergeweaver.merge3 import (TextualConflict, merge_scenario, merge_texts,
                                parse_versions)
from mergeweaver.peg import DuplicateEntity, Entity, build_peg
from mergeweaver.similarity import Scorer
from mergeweaver.syntax import recognized_blocks

VERSIONS = (("base", "b"), ("left", "l"), ("right", "r"), ("am", "am"))
BODY_KINDS = frozenset({"reads", "writes", "calls", "initializes"})


def graph_facts(graph) -> dict:
    return {
        "version": graph.version,
        "entities": [(eid, e.kind, e.fqn, e.path, e.stub)
                     for eid, e in graph.entities.items()],
        "relations": graph.relations,
        "diagnostics": graph.diagnostics,
        "parent": graph._parent,
        "children": graph._children,
        "super": graph._super,
    }


def delta_facts(delta) -> tuple:
    return (delta.matches,
            [(e.op, e.branch, e.kind, e.old_fqn, e.new_fqn, e.detail)
             for e in delta.entity_edits],
            [(e.op, e.branch, e.kind, e.src_fqn, e.dst_fqn)
             for e in delta.relation_edits])


def check_against_cold(scenario):
    """Asserts the memo build equals the cold one; returns the
    FourWayGraph, completed, and the paths of the files whose bodies it
    deferred, or (None, None) when a version declares an entity twice."""
    deferred = scenario.deferred
    for bucket, _version in VERSIONS:
        for path, sf in getattr(scenario, bucket).items():
            assert path in deferred or not recognized_blocks(sf.tree.root)
    try:
        fw = build_fourway(scenario)
        warm_error = None
    except DuplicateEntity as exc:
        fw, warm_error = None, str(exc)
    cold = {}
    for bucket, version in VERSIONS:
        try:
            cold[version] = build_peg(getattr(scenario, bucket), version)
        except DuplicateEntity as exc:
            assert str(exc) == warm_error
            return None, None
    assert warm_error is None
    graphs = (fw.base, fw.left, fw.right, fw.merged)
    skipped = set().union(*(unit.by_id for unit, _head in fw.base.deferred))
    for (_bucket, version), graph in zip(VERSIONS, graphs):
        assert {unit.path for unit, _head in graph.deferred} == deferred
        assert graph.relations == {
            rel for rel in cold[version].relations
            if rel.src not in skipped or rel.kind not in BODY_KINDS}, version
        graph.resolve_deferred()
        assert graph_facts(graph) == graph_facts(cold[version]), version
    # a file that is one SourceFile in several versions is one unit there
    unit_of = {}
    for (bucket, _version), graph in zip(VERSIONS, graphs):
        files = getattr(scenario, bucket)
        for unit in graph.units:
            assert unit_of.setdefault(id(files[unit.path]), unit) is unit
    for delta, branch in ((fw.delta_left, "l"), (fw.delta_right, "r")):
        assert delta_facts(delta) == delta_facts(
            diff_graphs(cold["b"], cold[branch], branch, Scorer())), branch
    return fw, deferred


@pytest.mark.parametrize("scenario_dir", merge_inputs(),
                         ids=lambda d: d.name)
def test_corpus_graphs_equal_cold_builds(scenario_dir):
    d = scenario_dir
    check_against_cold(merge_scenario(d / "base", d / "left", d / "right"))


@pytest.mark.parametrize("workload, deferred",
                         [pytest.param("method-rename", 117, id="method-rename"),
                          pytest.param("rename-fanout", 0, id="rename-fanout")])
@pytest.mark.parametrize("seed", [1, 4242])
def test_workload_graphs_equal_cold_builds(workload, deferred, seed):
    wl = bench_gen.generate(workload, seed)
    scenario = parse_versions(wl.base, wl.left, wl.right,
                              merge_texts(wl.base, wl.left, wl.right))
    fw, paths = check_against_cold(scenario)
    assert (len(paths), len(fw.base.units)) == (deferred, len(wl.base))
    # the matches scored, printed and took context from changed units only
    scorer = fw.scorer
    for graph in (fw.base, fw.left, fw.right, fw.merged):
        for unit in graph.units:
            if unit.path in paths:
                assert not any(ent in scorer._bodies for ent in unit.entities)
                assert unit.by_id.keys().isdisjoint(
                    scorer._contexts.get(graph, {}))


def test_adding_to_one_graph_leaves_the_others_alone():
    fw = build_fourway(merge_scenario(FANOUT / "base", FANOUT / "left",
                                      FANOUT / "right"))
    shared = next(iter(set(fw.base.units) & set(fw.right.units)))
    owner = shared.types[0][0]
    before = [m.id for m in peg._Reads(fw.right).members_of(owner)]
    fw.base.add_entity(Entity("field", owner.fqn + ".extra"), owner)
    assert len(peg._Reads(fw.base).members_of(owner)) == len(before) + 1
    assert [m.id for m in peg._Reads(fw.right).members_of(owner)] == before


# Each case changes one file in the left branch so that an unchanged file,
# Use.java, resolves differently through exactly one kind of read.
_USE = ("package p;\n\nimport q.*;\n\n"
        "public class Use extends Mid {\n"
        "    public int go(int x) {\n"
        "        Beta b = new Beta();\n"
        "        x = b.run(x);\n"
        "        x = step(x);\n"
        "        return helper.work(x);\n"
        "    }\n}\n")
_BASE = {
    "p/Use.java": _USE,
    "p/Beta.java": "package p;\n\npublic class Beta {\n"
                   "    public int run(int x) {\n        return x;\n    }\n}\n",
    "p/Mid.java": "package p;\n\npublic class Mid extends Base {\n}\n",
    "p/Base.java": "package p;\n\npublic class Base {\n    Helper helper;\n"
                   "    public int step(int x) {\n        return x;\n    }\n}\n",
    "p/Other.java": "package p;\n\npublic class Other {\n"
                    "    public int step(int x) {\n        return x;\n    }\n}\n",
    "p/Helper.java": "package p;\n\npublic class Helper {\n"
                     "    public int work(int x) {\n        return x;\n    }\n}\n",
    "p/Tool.java": "package p;\n\npublic class Tool {\n"
                   "    public int work(int x) {\n        return x;\n    }\n}\n",
}
_LEFT_EDITS = {
    "type": ("p/Mid.java", "class Mid extends Base", "interface Mid"),
    "package": ("p/Tool.java", "package p;", "package q;"),
    "members": ("p/Beta.java", "run(", "walk("),
    "super": ("p/Mid.java", "extends Base", "extends Other"),
    "field-type": ("p/Base.java", "Helper helper", "Tool helper"),
}


@pytest.mark.parametrize("read", sorted(_LEFT_EDITS))
def test_each_read_kind_invalidates_an_unchanged_file(read):
    path, old, new = _LEFT_EDITS[read]
    left = dict(_BASE)
    left[path] = left[path].replace(old, new)
    fw, deferred = check_against_cold(parse_versions(_BASE, left, _BASE, left))
    assert "p/Use.java" not in deferred
    use = next(u for u in fw.base.units if u.path == "p/Use.java")
    assert any(kind == read for kind, _arg in use.heads[0].reads) \
        or any(kind == read for kind, _arg in use.heads[0].bodies[0].reads)
    relations = [{r for r in g.relations if r.src.endswith("Use.go(int)")
                  or r.src == "compilation-unit:p.Use"}
                 for g in (fw.base, fw.left)]
    assert relations[0] != relations[1]


def test_an_edit_of_a_name_use_never_mentions_defers_it():
    left = dict(_BASE)
    left["p/Tool.java"] = left["p/Tool.java"].replace(
        "public class Tool {\n", "public class Tool {\n    int spare;\n")
    _fw, deferred = check_against_cold(parse_versions(_BASE, left, _BASE,
                                                      left))
    assert deferred == set(_BASE) - {"p/Tool.java"}


def test_the_graphs_defer_exactly_the_paths_the_scenario_names():
    scenario = parse_versions(_BASE, _BASE, _BASE, _BASE)
    assert scenario.deferred == set(_BASE)
    fw = build_fourway(scenario)
    for graph in (fw.base, fw.left, fw.right, fw.merged):
        assert {unit.path for unit, _head in graph.deferred} == set(_BASE)
    # build_peg defers the paths it is given, and with none it is the
    # full build
    picked = build_peg(scenario.base, "b", deferred=frozenset({"p/Use.java"}))
    assert [unit.path for unit, _head in picked.deferred] == ["p/Use.java"]
    assert not build_peg(scenario.base, "b").deferred
    # a file is shared only if the merge holds it too, so a caller's merge
    # that renames Beta.run leaves Beta unshared and Use, which calls it,
    # resolved
    merged = dict(_BASE)
    merged["p/Beta.java"] = merged["p/Beta.java"].replace("run(", "walk(")
    _fw, deferred = check_against_cold(parse_versions(_BASE, _BASE, _BASE,
                                                      merged))
    assert deferred == set(_BASE) - {"p/Beta.java", "p/Use.java"}


def test_a_typeless_file_importing_a_shared_class_defers_nothing():
    # no type's head records the imports of a file that declares none, so
    # the frames, which leave out the shared files, see the left import of
    # p.S as a stub of the left version only
    base = {"q/A.java": "package q;\n",
            "p/S.java": "package p;\n\npublic class S {\n    int total;\n"
                        "    public int run(int x) {\n"
                        "        return total + x;\n    }\n}\n"}
    left = dict(base, **{"q/A.java": "package q;\n\nimport p.S;\n"})
    scenario = parse_versions(base, left, base, merge_texts(base, left, base))
    assert scenario.deferred == set()
    fw, _deferred = check_against_cold(scenario)
    assert ("method:p.S.run(int)", "field:p.S.total", "reads") \
        in fw.merged.relations


def test_each_file_gives_one_unit_and_each_version_one_frame(monkeypatch):
    made, frames = [], []
    unit_class, frame = peg._Unit, peg._symbol_frame
    monkeypatch.setattr(peg, "_Unit", lambda path, src: (
        made.append((path, id(src))) or unit_class(path, src)))
    monkeypatch.setattr(peg, "_symbol_frame", lambda units: (
        frames.append(len(units)) or frame(units)))
    wl = bench_gen.generate("method-rename", 1)
    scenario = parse_versions(wl.base, wl.left, wl.right,
                              merge_texts(wl.base, wl.left, wl.right))
    build_fourway(scenario)
    files = {(path, id(sf))
             for bucket, _version in VERSIONS
             for path, sf in getattr(scenario, bucket).items()}
    assert sorted(made) == sorted(files)
    assert len(frames) == 4


# ---------------------------------------------------------------------------
# Seeded mutations of a small project.  Each type is a declaration model
# rendered to Java; a mutation edits one model of one branch, so the other
# files keep their SourceFile while what they resolve against changes.

PACKAGES = ("p.a", "p.b", "ext.lib")
CLASSES = ("Alpha", "Beta", "Gamma", "Delta", "Kappa", "Extra")
INTERFACES = ("Shape", "Sink")
INT_FIELDS = ("total", "count")
REF_FIELDS = ("helper", "peer")
VERBS = ("run", "load", "emit")
UNDECLARED = ("ext.lib.Thing", "ext.lib.*", "ext.gone.*", "p.a.Extra")


@dataclass
class Decl:
    file: str                   # file stem; a renamed type keeps its file
    package: str
    name: str
    kind: str = "class"
    extends: Optional[str] = None
    implements: list = field(default_factory=list)
    fields: list = field(default_factory=list)      # [type, name]
    methods: list = field(default_factory=list)     # [name, statements]
    imports: list = field(default_factory=list)

    @property
    def path(self) -> str:
        return f"{self.package.replace('.', '/')}/{self.file}.java"

    def render(self) -> str:
        head = f"public {self.kind} {self.name}"
        if self.extends:
            head += f" extends {self.extends}"
        if self.implements and self.kind == "class":
            head += " implements " + ", ".join(self.implements)
        lines = [f"package {self.package};", ""]
        lines += [f"import {name};" for name in self.imports]
        lines += ["", head + " {"]
        lines += [f"    {ftype} {fname};" for ftype, fname in self.fields]
        for mname, body in self.methods:
            if self.kind == "interface":
                lines.append(f"    int {mname}(int x);")
                continue
            lines.append(f"    public int {mname}(int x) {{")
            lines += [f"        {stmt}" for stmt in body]
            lines += ["        return x;", "    }"]
        lines.append("}")
        return "\n".join(lines) + "\n"


def _statements(rng: random.Random, n: int) -> list[str]:
    out = []
    for k in range(n):
        roll = rng.randrange(7)
        verb, cls = rng.choice(VERBS), rng.choice(CLASSES)
        ref, num = rng.choice(REF_FIELDS), rng.choice(INT_FIELDS)
        if roll == 0:
            out.append(f"{num} = {num} + x;")
        elif roll == 1:
            out.append(f"x = {ref}.{verb}(x);")       # a field's type
        elif roll == 2:
            out += [f"{cls} v{k} = new {cls}();", f"x = v{k}.{verb}(x);"]
        elif roll == 3:
            out.append(f"x = {verb}(x);")             # inherited methods
        elif roll == 4:
            out.append(f"x = {cls}.{verb}(x);")       # static access
        elif roll == 5:
            out.append(f"x = this.{num};")
        else:
            out.append(f"{ref}.{num} = x;")
    return out


def _fields(rng: random.Random) -> list:
    out = [["int", rng.choice(INT_FIELDS)]]
    for _ in range(rng.randrange(3)):
        out.append([rng.choice(CLASSES), rng.choice(REF_FIELDS)])
    return out


def _methods(rng: random.Random) -> list:
    return [[rng.choice(VERBS), _statements(rng, rng.randint(1, 3))]
            for _ in range(rng.randint(1, 2))]


def _imports(rng: random.Random, decl: Decl, decls: list) -> list:
    text = decl.render()
    out = []
    for other in decls:
        if other.package != decl.package \
                and re.search(rf"\b{other.name}\b", text):
            name = other.package + (f".{other.name}" if rng.random() < 0.5
                                    else ".*")
            if name not in out:
                out.append(name)
    if rng.random() < 0.3:
        out.append(rng.choice(UNDECLARED))
    return out


def base_project(rng: random.Random) -> list:
    decls = [Decl(name, rng.choice(PACKAGES[:2]), name, kind="interface",
                  methods=[[rng.choice(VERBS), []]]) for name in INTERFACES]
    for i, name in enumerate(CLASSES[:-1]):
        decl = Decl(name, PACKAGES[i % 2], name, fields=_fields(rng),
                    methods=_methods(rng))
        if i and rng.random() < 0.6:
            decl.extends = rng.choice(CLASSES[:i])
        if rng.random() < 0.4:
            decl.implements = [rng.choice(INTERFACES)]
        decls.append(decl)
    for decl in decls:
        decl.imports = _imports(rng, decl, decls)
    return decls


def _some(rng, decls, kind="class"):
    picks = [d for d in decls if d.kind == kind]
    return rng.choice(picks) if picks else None


def _add_type(rng, decls):
    decls.append(Decl(f"New{len(decls)}", rng.choice(PACKAGES),
                      rng.choice(CLASSES[-2:] + ("Thing",)),
                      extends=rng.choice(CLASSES + (None,)),
                      fields=_fields(rng), methods=_methods(rng)))


def _delete_type(rng, decls):
    decls.remove(rng.choice(decls))


def _rename_type(rng, decls):
    rng.choice(decls).name = rng.choice(CLASSES + INTERFACES + ("Thing",))


def _duplicate_type(rng, decls):
    twin = copy.deepcopy(rng.choice(decls))
    twin.file += "Copy"
    decls.append(twin)


def _move_type(rng, decls):
    rng.choice(decls).package = rng.choice(PACKAGES)


def _add_member(rng, decls):
    decl = _some(rng, decls)
    if rng.random() < 0.5:
        decl.fields.append(_fields(rng)[-1])
    else:
        decl.methods.append(_methods(rng)[0])


def _delete_member(rng, decls):
    decl = _some(rng, decls)
    members = decl.fields if decl.fields and rng.random() < 0.5 \
        else decl.methods
    if members:
        members.pop(rng.randrange(len(members)))


def _rename_member(rng, decls):
    decl = rng.choice(decls)
    if decl.fields and rng.random() < 0.5:
        rng.choice(decl.fields)[1] = rng.choice(INT_FIELDS + REF_FIELDS)
    elif decl.methods:
        rng.choice(decl.methods)[0] = rng.choice(VERBS + ("stop",))


def _retype_field(rng, decls):
    decl = _some(rng, decls)
    if decl.fields:
        rng.choice(decl.fields)[0] = rng.choice(CLASSES + ("int",))


def _retarget_extends(rng, decls):
    if rng.random() < 0.7:
        _some(rng, decls).extends = rng.choice(CLASSES + (None,))
    else:
        _some(rng, decls, "interface").extends = \
            rng.choice(INTERFACES + (None,))


def _retarget_implements(rng, decls):
    _some(rng, decls).implements = rng.sample(INTERFACES, rng.randrange(3))


def _edit_imports(rng, decls):
    decl = rng.choice(decls)
    if decl.imports and rng.random() < 0.4:
        decl.imports.pop(rng.randrange(len(decl.imports)))
    else:
        decl.imports.append(rng.choice(UNDECLARED + ("p.a.*", "p.b.*")))


def _edit_body(rng, decls):
    decl = _some(rng, decls)
    if decl.methods:
        rng.choice(decl.methods)[1] = _statements(rng, rng.randint(1, 3))


MUTATIONS = (_add_type, _delete_type, _rename_type, _duplicate_type,
             _move_type, _add_member, _delete_member, _rename_member,
             _retype_field, _retarget_extends, _retarget_implements,
             _edit_imports, _edit_body)


def _mutant(rng, decls, used):
    decls = copy.deepcopy(decls)
    for _ in range(rng.randint(1, 2)):
        op = rng.choice(MUTATIONS)
        op(rng, decls)
        used.add(op.__name__)
    return decls


def _texts(decls) -> dict:
    return {d.path: d.render() for d in decls}


def test_seeded_mutations_equal_cold_builds():
    used: set = set()
    duplicates = re_resolved = deferring = 0
    for seed in range(240):
        rng = random.Random(seed)
        base = base_project(rng)
        left = _mutant(rng, base, used)
        right = _mutant(rng, base, used) if rng.random() < 0.6 else base
        b, l, r = _texts(base), _texts(left), _texts(right)
        try:
            am = merge_texts(b, l, r)
        except TextualConflict:
            am = l
        fw, deferred = check_against_cold(parse_versions(b, l, r, am))
        if fw is None:
            duplicates += 1
            continue
        deferring += bool(deferred)
        # a unit shared by two versions whose reads answered differently
        units = set(fw.base.units + fw.left.units + fw.right.units
                    + fw.merged.units)
        if any(len(u.heads) > 1 or any(len(h.bodies) > 1 for h in u.heads)
               for u in units):
            re_resolved += 1
    assert used == {op.__name__ for op in MUTATIONS}
    assert duplicates >= 10
    assert re_resolved >= 40
    assert deferring >= 30      # merges that defer some unit's bodies
