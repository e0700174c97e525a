"""Graph matching and deltas: identity, renames, signatures, caps."""

from conftest import CORPUS, merge_inputs
from mergeweaver.graph_diff import (MATCH_THRESHOLD, build_fourway,
                                    diff_graphs, match_graphs,
                                    merged_entity_for)
from mergeweaver.merge3 import merge_scenario
from mergeweaver.parser import parse_unit
from mergeweaver.peg import build_peg
from mergeweaver.similarity import Scorer


def graph_of(version: str, **files: str):
    parsed = {p: parse_unit(p, t) for p, t in files.items()}
    return build_peg(parsed, version)


BIG_CLASS = """\
package m;

public class {name} {{
    private int total;
    private String label;

    public void accumulate(int amount) {{
        total = total + amount;
        label = "sum";
    }}

    public int report() {{
        return total;
    }}
}}
"""


def test_identical_graphs_have_no_edits():
    files = {"T.java": BIG_CLASS.format(name="Tally")}
    base = graph_of("base", **files)
    target = graph_of("l", **files)
    delta = diff_graphs(base, target, "l", Scorer())
    assert delta.entity_edits == [] and delta.relation_edits == []
    assert set(delta.matches) == set(base.entities)
    assert all(a == b for a, b in delta.matches.items())


def test_rename_pairs_when_body_mass_dominates():
    base = graph_of("base", **{"T.java": BIG_CLASS.format(name="Tally")})
    target = graph_of("l", **{"T.java": BIG_CLASS.format(name="Scorer")})
    delta = diff_graphs(base, target, "l", Scorer())
    renames = [e for e in delta.entity_edits
               if e.op == "update" and e.detail == "rename"
               and e.kind == "class"]
    assert [e.subject for e in renames] == ["m.Tally"]
    assert renames[0].new_fqn == "m.Scorer"
    # members follow the renamed parent: their fqn changes but the
    # simple name does not
    member_renames = [e for e in delta.entity_edits
                      if e.kind == "method" and e.detail == "rename"]
    assert {e.subject for e in member_renames} \
        == {"m.Tally.accumulate(int)", "m.Tally.report()"}
    for e in member_renames:
        old_simple = e.subject.split("(")[0].rsplit(".", 1)[-1]
        new_simple = e.new_fqn.split("(")[0].rsplit(".", 1)[-1]
        assert old_simple == new_simple


def test_distant_rename_of_empty_class_is_delete_plus_add():
    # no body to anchor on and a dissimilar name: similarity stays under
    # the threshold, so the two declarations never pair
    base = graph_of("base",
                    **{"Ax.java": "package m;\n\npublic class Ax {\n}\n"})
    target = graph_of(
        "l", **{"Zyxwvut.java": "package m;\n\npublic class Zyxwvut {\n}\n"})
    delta = diff_graphs(base, target, "l", Scorer())
    ops = sorted((e.op, e.kind) for e in delta.entity_edits
                 if e.kind == "class")
    assert ops == [("add", "class"), ("delete", "class")]
    assert 0.0 < MATCH_THRESHOLD < 1.0


def test_signature_change_detail():
    base = graph_of("base", **{"T.java": """\
package m;

public class Conv {
    public int scale(int factor) {
        int out = factor * 3;
        return out;
    }
}
"""})
    target = graph_of("l", **{"T.java": """\
package m;

public class Conv {
    public int scale(int factor, int bias) {
        int out = factor * 3;
        return out;
    }
}
"""})
    delta = diff_graphs(base, target, "l", Scorer())
    sigs = [e for e in delta.entity_edits if e.detail == "signature-change"]
    assert [e.subject for e in sigs] == ["m.Conv.scale(int)"]
    assert sigs[0].new_fqn == "m.Conv.scale(int,int)"


def test_body_change_detail():
    base = graph_of("base", **{"T.java": """\
package m;

public class Conv {
    public int scale(int factor) {
        return factor * 3;
    }
}
"""})
    target = graph_of("l", **{"T.java": """\
package m;

public class Conv {
    public int scale(int factor) {
        return factor * 4;
    }
}
"""})
    delta = diff_graphs(base, target, "l", Scorer())
    bodies = [e for e in delta.entity_edits if e.detail == "body-change"]
    methods = [e for e in bodies if e.kind == "method"]
    assert [e.subject for e in methods] == ["m.Conv.scale(int)"]
    assert methods[0].op == "update"
    # the change bubbles to the enclosing class as a body change too
    assert any(e.kind == "class" and e.subject == "m.Conv" for e in bodies)


def test_relation_edits_for_added_call():
    base = graph_of("base", A="""\
package m;

public class A {
    public void go() {
    }

    public void helper() {
        int x = 1;
    }
}
""")
    target = graph_of("l", A="""\
package m;

public class A {
    public void go() {
        helper();
    }

    public void helper() {
        int x = 1;
    }
}
""")
    delta = diff_graphs(base, target, "l", Scorer())
    added = [(e.op, e.kind, e.src_fqn, e.dst_fqn)
             for e in delta.relation_edits]
    assert ("add", "calls", "m.A.go()", "m.A.helper()") in added


def test_match_graphs_is_id_based_first():
    files = {"T.java": BIG_CLASS.format(name="Tally")}
    a = graph_of("x", **files)
    b = graph_of("y", **files)
    m = match_graphs(a, b, Scorer())
    assert m["class:m.Tally"] == "class:m.Tally"
    assert len(m) == len(a.entities)


def test_fourway_caps_cover_merged_entities():
    d = CORPUS / "serializer-rename"
    fw = build_fourway(merge_scenario(d / "base", d / "left", d / "right"))
    # the renamed config class in Am maps back to left's version
    am_cls = fw.merged.find("class", "com.hazelcast.config.SerializerConfig")
    assert am_cls is not None
    assert fw.cap_left[am_cls.id] == am_cls.id
    # right-only builder class maps through cap_right
    am_builder = fw.merged.find(
        "class", "com.hazelcast.config.XmlClientConfigBuilder")
    assert fw.cap_right[am_builder.id] == am_builder.id
    assert am_builder.id not in fw.cap_left

    left_ent = merged_entity_for(fw, "l", fw.left.by_id(am_cls.id))
    assert left_ent is not None and left_ent.id == am_cls.id


def test_merged_entity_for_answers_as_a_scan_of_the_cap():
    # the inverted caps give the first merged entity a scan of the cap
    # map finds, for every entity of either branch, on every merge input
    for d in merge_inputs():
        fw = build_fourway(merge_scenario(d / "base", d / "left",
                                          d / "right"))
        for branch, graph, cap in (("l", fw.left, fw.cap_left),
                                   ("r", fw.right, fw.cap_right)):
            assert len(set(cap.values())) == len(cap), d
            for ent in graph.entities.values():
                scan = next((am for am, b in cap.items() if b == ent.id),
                            None)
                found = merged_entity_for(fw, branch, ent)
                assert (found and found.id) == scan, (d, ent.id)
