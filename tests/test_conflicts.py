"""Conflict detection: classification, subjects, sites, clearing."""

import json

import pytest

import reference_conflicts as ref
from conftest import CORPUS, FANOUT, merge_inputs, run_corpus
from mergeweaver import syntax
from mergeweaver.conflicts import (CALLS, CREATIONS, NAME_USES, TYPE_USES,
                                   classify, detect_conflicts, uses)
from mergeweaver.graph_diff import build_fourway
from mergeweaver.merge3 import merge_scenario
from mergeweaver.parser import parse_unit
from mergeweaver.pipeline import run_scenario
from mergeweaver.rules import resolve_by_rule

GOLDEN = json.loads((CORPUS / "golden_key.json").read_text())

TAXONOMY = sorted(name for name in GOLDEN if name.startswith("tax-"))
RULE_FIXTURES = sorted(name for name in GOLDEN if name.startswith("rule-"))


@pytest.mark.parametrize("name", TAXONOMY)
def test_taxonomy_scenario_detects_exact_code(name):
    run = run_corpus(name)
    got = [(c.type, c.subject) for c in run.report.conflicts]
    want = [(c["type"], c["subject"]) for c in GOLDEN[name]["conflicts"]]
    assert sorted(got) == sorted(want)


@pytest.mark.parametrize("name", RULE_FIXTURES)
def test_rule_fixture_detects_exact_code(name):
    run = run_corpus(name)
    got = [(c.type, c.subject) for c in run.report.conflicts]
    want = [(c["type"], c["subject"]) for c in GOLDEN[name]["conflicts"]]
    assert sorted(got) == sorted(want)


@pytest.mark.parametrize("name", TAXONOMY)
def test_taxonomy_sites_match_golden(name):
    run = run_corpus(name)
    pins = {(s["entity"], s["file"]) for s in GOLDEN[name]["sites"]}
    got = {(s.entity, s.file)
           for c in run.report.conflicts for s in c.sites}
    assert pins <= got


def test_c7_and_c13_are_recognized():
    # interface renames and field renames get their own codes, distinct
    # from the class (C1) and method (C11/C15) rename codes
    c7 = run_corpus("rule-c07").report.conflicts
    assert [c.type for c in c7] == ["C7"]
    assert c7[0].subject_kind == "interface"
    c13 = run_corpus("rule-c13").report.conflicts
    assert [c.type for c in c13] == ["C13"]
    assert c13[0].subject_kind == "field"


def test_conflict_fields_are_populated():
    run = run_corpus("serializer-rename")
    (c,) = run.report.conflicts
    assert c.type == "C1" and c.type_num == 1
    assert c.subject == "com.hazelcast.config.TypeSerializerConfig"
    assert c.subject_kind == "class"
    assert c.branch_of_def == "l"
    assert c.using_fqn.endswith("handleSerializers(Node)")
    assert c.sites, "a manifested conflict carries at least one site"
    for site in c.sites:
        assert site.file == "XmlClientConfigBuilder.java"
        assert len(site.span) == 4 and site.span[0] >= 1
        assert site.node_id >= 0


def test_detection_is_deterministic_and_sorted():
    a = run_scenario(CORPUS / "tax-c14" / "base", CORPUS / "tax-c14" / "left",
                     CORPUS / "tax-c14" / "right")
    b = run_scenario(CORPUS / "tax-c14" / "base", CORPUS / "tax-c14" / "left",
                     CORPUS / "tax-c14" / "right")
    sig = lambda run: [(c.type, c.subject, c.using_fqn,
                        [(s.entity, s.file, s.span) for s in c.sites])
                       for c in run.report.conflicts]
    assert sig(a) == sig(b)
    nums = [c.type_num for c in a.report.conflicts]
    assert nums == sorted(nums)


def test_classify_direct_rename_pair():
    run = run_corpus("serializer-rename")
    fw = run.fourway
    renames = [e for e in fw.delta_left.entity_edits
               if e.detail == "rename" and e.kind == "class"]
    uses = [e for e in fw.delta_right.relation_edits
            if e.op == "add"
            and e.dst_fqn == "com.hazelcast.config.TypeSerializerConfig"]
    assert renames and uses
    assert classify(renames[0], uses[0], fw) == "C1"
    # same-branch pairs are never a conflict
    left_uses = [e for e in fw.delta_left.relation_edits if e.op == "add"]
    for u in left_uses:
        assert classify(renames[0], u, fw) is None


def test_conflicts_without_manifestation_are_dropped():
    # resolve, reparse the resolved text as the merged tree, re-detect:
    # the conflict no longer manifests anywhere
    d = CORPUS / "rule-c05"
    run = run_scenario(d / "base", d / "left", d / "right")
    (conflict,) = run.report.conflicts
    res = resolve_by_rule(run.fourway, conflict, run.scenario).resolution
    run.scenario.am[res.path] = parse_unit(res.path, res.text)
    fw2 = build_fourway(run.scenario)
    assert detect_conflicts(fw2) == []


def test_controls_smoke_no_spurious():
    for name in ("ctl-01", "ctl-04"):
        d = CORPUS / "controls" / name
        run = run_scenario(d / "base", d / "left", d / "right")
        assert run.report.conflicts == []


def test_duplicate_definition_sites_distinguish_copies():
    run = run_corpus("tax-c14")
    (c,) = run.report.conflicts
    assert c.type == "C14"
    entities = sorted(s.entity for s in c.sites)
    assert len(entities) == 2
    assert entities[1].endswith("#2")


@pytest.mark.parametrize("path", merge_inputs(), ids=lambda p: p.name)
def test_swapping_branches_keeps_the_conflict_set(path):
    def conflict_set(left, right):
        scenario = merge_scenario(path / "base", path / left, path / right)
        return sorted((c.type, c.subject)
                      for c in detect_conflicts(build_fourway(scenario)))
    assert conflict_set("left", "right") == conflict_set("right", "left")


# ---------------------------------------------------------------------------
# the name index against the walks it replaced


def _declarations(path):
    """Every distinct entity declaration of the four graphs of a merge."""
    fw = build_fourway(merge_scenario(path / "base", path / "left",
                                      path / "right"))
    decls = {id(e.decl): e.decl
             for g in (fw.base, fw.left, fw.right, fw.merged)
             for e in g.entities.values() if e.decl is not None}
    return list(decls.values())


def _arities(nodes):
    counts = {ref.arg_count(n) for n in nodes}
    return [None, *sorted(counts), max(counts, default=0) + 1]


@pytest.mark.parametrize("path", merge_inputs(), ids=lambda p: p.name)
def test_name_index_answers_as_the_walks(path):
    """Index membership is ``mentions_name``, and ``uses`` returns the
    nodes, in order, that each walk-based finder returns, for every word
    of every declaration, each kind of use and each arity."""
    checked = 0
    for decl in _declarations(path):
        named = syntax.name_index(decl)
        words = {n.value for n in decl.walk()}
        words |= {ref.type_base_name(w) for w in words} | {"\0absent"}
        assert set(named) <= words
        for word in sorted(words):
            assert (word in named) == ref.mentions_name(decl, word), word
            assert uses(named, word, TYPE_USES) \
                == ref._type_use_nodes(decl, word)
            assert uses(named, word, NAME_USES) \
                == ref._field_use_nodes(decl, word)
            listed = named.get(word, [])
            for arity in _arities(uses(named, word, CALLS)):
                assert uses(named, word, CALLS, arity) \
                    == ref._call_nodes(decl, word, arity)
            for arity in _arities(uses(named, word, CREATIONS)):
                assert uses(named, word, CREATIONS, arity) \
                    == ref._creation_nodes(decl, word, arity)
            checked += bool(listed)
    assert checked > 0


def test_detect_builds_one_name_index_per_using_declaration(monkeypatch):
    """On the fanout fixture every conflict reads the index of its merged
    user: detection builds one per distinct user and, run again on the
    same merge, none."""
    fw = build_fourway(merge_scenario(FANOUT / "base", FANOUT / "left",
                                      FANOUT / "right"))
    built = []
    real = syntax.name_index

    def counting(root):
        built.append(root)
        return real(root)

    monkeypatch.setattr(syntax, "name_index", counting)
    conflicts = detect_conflicts(fw)
    users = {id(c.using_am.decl) for c in conflicts}
    assert len(conflicts) > len(users) >= 1
    assert sorted(map(id, built)) == sorted(users)
    built.clear()
    assert [(c.type, c.subject) for c in detect_conflicts(fw)] \
        == [(c.type, c.subject) for c in conflicts]
    assert built == []
