"""Fixed per-code transforms and their coverage boundary."""

import dataclasses

import pytest

from conftest import CORPUS, run_corpus
from mergeweaver.parser import token_texts as token_stream
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
