"""Program entity graph extraction on hand-built source trees."""

import pytest

from conftest import merge_inputs
from mergeweaver.graph_diff import build_fourway
from mergeweaver.merge3 import merge_scenario
from mergeweaver.parser import parse_unit
from mergeweaver.peg import (_EDGES, ENTITY_KINDS, DuplicateEntity, Entity,
                             _Reads, arity_of, build_peg, lookup_uses)


def graph_of(**files: str):
    parsed = {path: parse_unit(path, text) for path, text in files.items()}
    return build_peg(parsed, "test")


def assert_well_formed(g) -> None:
    """Every edge joins entity kinds its relation kind allows, no contains
    or declares edge is a self-loop, and every entity has a known kind and
    sits in the index under its own id."""
    for rel in g.relations:
        assert (g.by_id(rel.src).kind, rel.kind, g.by_id(rel.dst).kind) \
            in _EDGES, rel
        assert not (rel.kind in ("contains", "declares")
                    and rel.src == rel.dst), rel
    for eid, ent in g.entities.items():
        assert ent.kind in ENTITY_KINDS, ent
        assert eid == ent.id, ent


FIXTURE = {
    "Color.java": """\
package paint;

public class Color {
    public int red;

    public Color(String name) {
    }

    public int brightness() {
        return red * 2;
    }
}
""",
    "Canvas.java": """\
package paint;

import java.util.List;

public class Canvas extends Surface implements Drawable {
    private Color current;

    public void fill(int shade) {
        Color c = new Color("deep");
        current = c;
        int b = c.brightness();
        this.red2 = shade;
    }
}
""",
    "Surface.java": "package paint;\n\npublic class Surface {\n}\n",
    "Drawable.java": ("package paint;\n\npublic interface Drawable {\n"
                      "    void fill(int shade);\n}\n"),
}


def test_entities_and_fqns():
    g = graph_of(**FIXTURE)
    ids = set(g.entities)
    assert "package:paint" in ids
    assert "class:paint.Color" in ids
    assert "interface:paint.Drawable" in ids
    assert "field:paint.Color.red" in ids
    assert "method:paint.Color.brightness()" in ids
    assert "constructor:paint.Color.Color(String)" in ids
    assert "method:paint.Canvas.fill(int)" in ids
    # compilation units hang off the package
    cu = next(e for e in g.entities.values()
              if e.kind == "compilation-unit" and "Color" in e.fqn)
    assert g.entities[g.parent_id(cu)].kind == "package"


def test_heritage_relations():
    g = graph_of(**FIXTURE)
    rels = {(r.src, r.kind, r.dst) for r in g.relations}
    assert ("class:paint.Canvas", "extends", "class:paint.Surface") in rels
    assert ("class:paint.Canvas", "implements",
            "interface:paint.Drawable") in rels
    canvas = g.find("class", "paint.Canvas")
    chain = [e.fqn for e in _Reads(g).supertype_chain(canvas)]
    assert "paint.Surface" in chain


def test_body_relations():
    g = graph_of(**FIXTURE)
    rels = {(r.src, r.kind, r.dst) for r in g.relations}
    fill = "method:paint.Canvas.fill(int)"
    assert (fill, "initializes", "class:paint.Color") in rels
    assert (fill, "calls", "constructor:paint.Color.Color(String)") in rels
    assert (fill, "calls", "method:paint.Color.brightness()") in rels
    assert (fill, "writes", "field:paint.Canvas.current") in rels
    assert (fill, "reads", "field:paint.Canvas.current") not in rels


def test_import_creates_stub_for_unknown_type():
    g = graph_of(**FIXTURE)
    stub = g.find("class", "java.util.List")
    assert stub is not None and stub.stub
    cu = next(e for e in g.entities.values()
              if e.kind == "compilation-unit" and "Canvas" in e.fqn)
    rels = {(r.src, r.kind, r.dst) for r in g.relations}
    assert (cu.id, "imports", stub.id) in rels


def test_unresolved_names_produce_no_edges():
    g = graph_of(**FIXTURE)
    # this.red2 does not resolve to any field: no writes edge for it
    writes = [r for r in g.relations
              if r.kind == "writes" and r.dst.endswith("red2")]
    assert writes == []


def test_local_shadows_field():
    g = graph_of(A=FIXTURE["Color.java"], B="""\
package paint;

public class Board {
    private int red;

    public void step() {
        int red = 1;
        red = red + 1;
    }
}
""")
    step = "method:paint.Board.step()"
    touched = [r for r in g.relations
               if r.src == step and r.dst == "field:paint.Board.red"]
    assert touched == []


def test_loops_this_calls_and_qualified_types_resolve():
    g = graph_of(A="""\
package p;

public class A {
    int n;
    int k;

    A() {
        this(1);
    }

    A(int v) {
    }

    void g(int x) {
    }

    void loop() {
        for (int n = 0; n < k; n = n + 1) {
            g(n);
        }
    }

    void drain() {
        while (k > 0) {
            k = k - 1;
        }
    }

    void make() {
        q.B b = new q.B();
    }
}
""", B="package q;\n\npublic class B {\n}\n")
    body = {(r.src, r.kind, r.dst) for r in g.relations
            if r.kind not in ("contains", "declares")}
    # the for-init's n shadows the field, so the loop reads only k
    assert body == {
        ("method:p.A.loop()", "reads", "field:p.A.k"),
        ("method:p.A.loop()", "calls", "method:p.A.g(int)"),
        ("method:p.A.drain()", "reads", "field:p.A.k"),
        ("method:p.A.drain()", "writes", "field:p.A.k"),
        ("constructor:p.A.A()", "calls", "constructor:p.A.A(int)"),
        ("method:p.A.make()", "initializes", "class:q.B"),
    }
    assert_well_formed(g)


def test_lookup_uses_and_arity():
    g = graph_of(**FIXTURE)
    color = g.find("class", "paint.Color")
    users = {u.fqn for u, _ in lookup_uses(g, color)}
    assert "paint.Canvas.fill(int)" in users
    bright = g.find("method", "paint.Color.brightness()")
    assert arity_of(bright) == 0
    ctor = g.find("constructor", "paint.Color.Color(String)")
    assert arity_of(ctor) == 1
    field = g.find("field", "paint.Color.red")
    assert arity_of(field) == 0


def test_arity_of_a_duplicate_member_is_its_declared_parameter_count():
    # the second m() is declared as m()#2; its fqn's "#2" is no parameter
    g = graph_of(**{"A.java": "class A { void m() {} void m() {} "
                              "void a(int x) { m(x); } void b() { m(); } }"})
    assert arity_of(g.find("method", "A.m()#2")) == 0
    calls = {(r.src, r.dst) for r in g.relations if r.kind == "calls"}
    assert not any(src == "method:A.a(int)" for src, _dst in calls)
    assert {dst for src, dst in calls if src == "method:A.b()"} \
        == {"method:A.m()", "method:A.m()#2"}


def test_methods_named_filters_by_arity():
    g = graph_of(**FIXTURE)
    canvas = g.find("class", "paint.Canvas")
    reads = _Reads(g)
    assert [m.fqn for m in reads.methods_named(canvas, "fill", 1)] \
        == ["paint.Canvas.fill(int)"]
    assert reads.methods_named(canvas, "fill", 3) == []


def test_package_body_text_is_member_listing():
    g = graph_of(**FIXTURE)
    pkg = g.find("package", "paint")
    text = g.body_text(pkg)
    for name in ("Color", "Canvas", "Surface", "Drawable"):
        assert name in text
    # stable across member declaration order
    g2 = graph_of(**dict(reversed(list(FIXTURE.items()))))
    assert g2.body_text(g2.find("package", "paint")) == text


def test_context_string_mentions_related_entities():
    g = graph_of(**FIXTURE)
    color = g.find("class", "paint.Color")
    ctx = g.context_strings({color.id})[color.id]
    assert "paint" in ctx


def test_var_typed_receiver_resolves_calls():
    g = graph_of(**FIXTURE)
    # `c.brightness()` resolves through the declared type of local c
    rels = {(r.src, r.kind, r.dst) for r in g.relations}
    assert ("method:paint.Canvas.fill(int)", "calls",
            "method:paint.Color.brightness()") in rels


def test_graph_validates_cleanly():
    assert_well_formed(graph_of(**FIXTURE))


def test_entity_of_an_unknown_kind_is_refused():
    with pytest.raises(ValueError, match="unknown entity kind"):
        Entity("module", "x")
    assert all(Entity(kind, "x").kind == kind for kind in ENTITY_KINDS)


@pytest.mark.parametrize("text,fqn", [
    ("package p;\n\nclass A {\n}\n\nclass A {\n}\n", "p.A"),
    ("package p;\n\nclass A {\n    class B {\n    }\n\n    class B {\n    }\n}\n",
     "p.A.B"),
])
def test_type_declared_twice_in_one_file_raises(text, fqn):
    with pytest.raises(DuplicateEntity) as exc:
        graph_of(**{"A.java": text})
    assert exc.value.fqn == fqn


def test_superclass_index_matches_relation_scan():
    def scanned(graph, type_entity):
        for rel in graph.relations:
            if rel.kind == "extends" and rel.src == type_entity.id:
                return graph.entities.get(rel.dst)
        return None

    checked = with_super = 0
    for d in merge_inputs():
        fw = build_fourway(merge_scenario(d / "base", d / "left", d / "right"))
        for graph in (fw.base, fw.left, fw.right, fw.merged):
            assert_well_formed(graph)
            for ent in graph.entities.values():
                if ent.kind in ("class", "interface", "enum"):
                    sup = _Reads(graph).superclass_of(ent)
                    assert sup is scanned(graph, ent)
                    checked += 1
                    with_super += sup is not None
    assert checked > 300 and with_super > 10
