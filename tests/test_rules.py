"""Fixed per-code transforms and their coverage boundary."""

import dataclasses

import pytest

from conftest import CORPUS, run_corpus, write_versions
from mergeweaver.parser import token_texts as token_stream
from mergeweaver.pipeline import run_scenario
from mergeweaver.rules import RULES, resolve_by_rule


def rule_output(name: str):
    run = run_corpus(name)
    (conflict,) = run.report.conflicts
    return run, conflict, resolve_by_rule(run.fourway, conflict,
                                          run.scenario).resolution


def expected_text(name: str, path: str) -> str:
    return (CORPUS / name / "expected" / path).read_text()


def test_rules_table_covers_exactly_c1_to_c16():
    assert sorted(RULES, key=lambda c: int(c[1:])) \
        == [f"C{i}" for i in range(1, 17)]


@pytest.mark.parametrize("name,code", [
    ("rule-c01", "C1"),      # retarget uses of a renamed class
    ("rule-c05", "C5"),      # re-add a removed import
    ("rule-c08", "C8"),      # stub the unimplemented interface method
    ("rule-c12", "C12"),     # align an override's return type
    ("rule-c14", "C14"),     # drop the redundant duplicate definition
])
def test_rule_output_token_equals_golden(name, code):
    run, conflict, res = rule_output(name)
    assert conflict.type == code
    assert res.strategy == "rule"
    assert token_stream(res.text) \
        == token_stream(expected_text(name, res.path))


def test_rule_resolution_names_its_transform():
    _, _, res = rule_output("rule-c05")
    assert res.rule == "re-add the removed import"
    _, _, res = rule_output("rule-c15")
    assert res.rule == "update the added use"


def test_stubbed_override_is_public_and_appended():
    _, _, res = rule_output("rule-c08")
    toks = token_stream(res.text)
    i = toks.index("reset")
    assert toks[i - 2:i] == ["public", "void"]
    # appended at the end of the class body
    assert res.text.rstrip().endswith("}")


def test_duplicate_removal_keeps_first_copy():
    _, conflict, res = rule_output("rule-c14")
    assert conflict.type == "C14"
    assert res.text.count("dark") == 1


def test_codes_beyond_c16_are_not_covered():
    run = run_corpus("tax-c17")
    (conflict,) = run.report.conflicts
    assert conflict.type == "C17"
    assert resolve_by_rule(run.fourway, conflict,
                           run.scenario).reason == "not-covered"


def test_stale_site_raises_target_missing():
    run = run_corpus("rule-c01")
    (conflict,) = run.report.conflicts
    bogus_sites = [dataclasses.replace(s, node_id=10_000_000)
                   for s in conflict.sites]
    doctored = dataclasses.replace(conflict, sites=bogus_sites)
    assert resolve_by_rule(run.fourway, doctored,
                           run.scenario).reason == "target-missing"


def test_rule_is_deterministic():
    _, _, first = rule_output("rule-c03")
    _, _, second = rule_output("rule-c03")
    assert first.text == second.text and first.path == second.path


# left renames class p.A to AA; right adds a use of A to each test's user
_TYPE = ("package p;\n\npublic class %s {\n    public static int make() {\n"
         "        return 1;\n    }\n}\n")
_IMPORTER = ("package q;\n\n%spublic class B {\n    public int f() {\n"
             "        return 1;\n    }\n}\n")
_STATIC_USER = """\
package p;

public class U {
    public int run() {
        %s a = new %s();
        return %s.make();
    }
}
"""


def _class_rename(tmp_path, right: dict[str, str]):
    """The run of the class rename against right's new or changed files,
    and its one C1 with each site's (file, line, column, node kind,
    value)."""
    write_versions(tmp_path, {
        "base": {"p/A.java": _TYPE % "A", "q/B.java": _IMPORTER % ""},
        "left": {"p/AA.java": _TYPE % "AA", "q/B.java": _IMPORTER % ""},
        "right": {"p/A.java": _TYPE % "A", "q/B.java": _IMPORTER % "",
                  **right},
    })
    run = run_scenario(tmp_path / "base", tmp_path / "left",
                       tmp_path / "right")
    (conflict,) = run.report.conflicts
    assert (conflict.type, conflict.subject) == ("C1", "p.A")
    sites = []
    for site in conflict.sites:
        node = run.scenario.am[site.file].tree.node(site.node_id)
        sites.append((site.file, *site.span[:2], node.kind, node.value))
    return run, conflict, sites


def test_c1_in_an_added_import_renames_the_import(tmp_path):
    run, conflict, sites = _class_rename(
        tmp_path, {"q/B.java": _IMPORTER % "import p.A;\n\n"})
    assert conflict.using_fqn == "q.B"          # the compilation unit
    assert sites == [("q/B.java", 3, 1, "ImportDecl", "p.A")]
    res = resolve_by_rule(run.fourway, conflict, run.scenario).resolution
    assert res.path == "q/B.java"
    assert token_stream(res.text) \
        == token_stream(_IMPORTER % "import p.AA;\n\n")


def test_c1_in_a_static_call_receiver_renames_the_receiver(tmp_path):
    run, conflict, sites = _class_rename(
        tmp_path, {"p/U.java": _STATIC_USER % ("A", "A", "A")})
    assert conflict.using_fqn == "p.U.run()"
    assert sites == [("p/U.java", 5, 9, "TypeRef", "A"),
                     ("p/U.java", 5, 19, "TypeRef", "A"),
                     ("p/U.java", 6, 16, "Name", "A")]
    res = resolve_by_rule(run.fourway, conflict, run.scenario).resolution
    assert res.path == "p/U.java"
    assert token_stream(res.text) \
        == token_stream(_STATIC_USER % ("AA", "AA", "AA"))


def test_parameters_are_inserted_into_an_empty_parameter_list(tmp_path):
    # C3 on a superclass method without parameters: the new parameters go
    # right after the overriding method's return type
    sup = "package p;\n\npublic class S {\n    public int m(%s) {\n" \
        "        return 0;\n    }\n}\n"
    sub = "package p;\n\npublic class T extends S {\n" \
        "    public int m(%s) {\n        return 1;\n    }\n}\n"
    write_versions(tmp_path, {
        "base": {"p/S.java": sup % ""},
        "left": {"p/S.java": sup % "int k"},
        "right": {"p/S.java": sup % "", "p/T.java": sub % ""},
    })
    run = run_scenario(tmp_path / "base", tmp_path / "left",
                       tmp_path / "right")
    (conflict,) = run.report.conflicts
    assert (conflict.type, conflict.subject) == ("C3", "p.S.m()")
    res = resolve_by_rule(run.fourway, conflict, run.scenario).resolution
    assert token_stream(res.text) == token_stream(sub % "int k")
    # the printer lists parameters wherever they sit, so read the tree
    work = run.scenario.am["p/T.java"].tree.clone()
    RULES["C3"][1](work, conflict, run.fourway)
    method = work.node(conflict.sites[0].node_id)
    assert [(c.kind, c.value) for c in method.children][:3] \
        == [("Modifier", "public"), ("TypeRef", "int"), ("Parameter", "k")]
