"""Acceptance suite.

Each test is one shipping criterion; the terminal summary prints one
PASS/FAIL line per criterion.  Numeric expectations are pinned here, not
computed from the engine under test:

  1. motivating scenario end to end, both strategies, under 5 seconds
  2. one detected conflict with the right code and site on each of the
     21 taxonomy fixtures, zero conflicts on the 10 control scenarios
  3. all 16 rule fixtures resolve token-identically to their goldens and
     re-running detection on the resolved merge reports nothing
  4. the five walkthrough scenarios keep their documented behaviors
  5. tree differ replay oracle: 500 random mutation cases, all exact
  6. textual merge laws on 200 random non-overlapping triples
  7. dependence-closure refinement matches an independent recomputation
  8. candidate ranking is invariant under 1,000 input permutations
  9. corpus evaluation: full coverage and the hand-scored verdict sheet
"""

import json
import random
import time

import pytest

from conftest import (CORPUS, brute_force_closure, corpus_java_files,
                      mutate_tree, random_disjoint_triple)
from mergeweaver.conflicts import detect_conflicts
from mergeweaver.evaluate import evaluate_corpus, evaluate_scenario
from mergeweaver.graph_diff import build_fourway
from mergeweaver.inference import (NoRelevantEdit, refine_edits,
                                   use_node_ids)
from mergeweaver.matching import MatchSet, rank_candidates
from mergeweaver.mining import mine_examples
from mergeweaver.parser import parse_unit, token_texts as token_stream
from mergeweaver.merge3 import TextualConflict, merge_file
from mergeweaver.pipeline import run_scenario
from mergeweaver.rules import resolve_by_rule
from mergeweaver.syntax import STATEMENT_KINDS, structurally_equal
from mergeweaver.tree_diff import apply_script, diff_trees

GOLDEN = json.loads((CORPUS / "golden_key.json").read_text())

MOTIVATING_SIGMA = 9.947368421052632
SIGMA_WINDOW = (9.5, 10.0)
MOTIVATING_EXACT = 4
MOTIVATING_BUDGET_S = 5.0
COVERAGE_FLOOR = 0.90


def fresh_run(name: str):
    d = CORPUS / name
    return run_scenario(d / "base", d / "left", d / "right",
                        scenario_id=name)


def expected_text(name: str, path: str) -> str:
    return (CORPUS / name / "expected" / path).read_text()


def test_c01_motivating_scenario_end_to_end():
    t0 = time.perf_counter()
    run = fresh_run("serializer-rename")
    elapsed = time.perf_counter() - t0
    assert elapsed < MOTIVATING_BUDGET_S

    (conflict,) = run.report.conflicts
    assert conflict.type == "C1"
    assert conflict.subject == "com.hazelcast.config.TypeSerializerConfig"

    by_strategy = {r.strategy: r for r in run.report.resolutions}
    assert set(by_strategy) == {"example", "rule"}

    example = by_strategy["example"]
    assert example.path == "XmlClientConfigBuilder.java"
    assert token_stream(example.text) \
        == token_stream(expected_text("serializer-rename", example.path))
    assert example.sigma == pytest.approx(MOTIVATING_SIGMA)
    assert SIGMA_WINDOW[0] <= example.sigma <= SIGMA_WINDOW[1]
    assert example.exact == MOTIVATING_EXACT
    assert example.rank == 1 and example.partial is False

    # the fixed transform only retargets the two type tokens; every
    # other spelling in the method keeps the stale name
    rule = by_strategy["rule"]
    analog = (CORPUS / "serializer-rename" / "right"
              / "XmlClientConfigBuilder.java").read_text().replace(
        "TypeSerializerConfig serializerConfig = new TypeSerializerConfig();",
        "SerializerConfig serializerConfig = new SerializerConfig();")
    assert rule.path == "XmlClientConfigBuilder.java"
    assert token_stream(rule.text) == token_stream(analog)
    toks = token_stream(rule.text)
    assert '"type-serializer"' in toks
    assert "addTypeSerializer" in toks


def test_c02_taxonomy_codes_and_sites():
    tax = sorted(n for n in GOLDEN if n.startswith("tax-"))
    assert len(tax) == 21
    for name in tax:
        run = fresh_run(name)
        got = sorted((c.type, c.subject) for c in run.report.conflicts)
        want = sorted((c["type"], c["subject"])
                      for c in GOLDEN[name]["conflicts"])
        assert got == want, name
        pins = {(s["entity"], s["file"]) for s in GOLDEN[name]["sites"]}
        sites = {(s.entity, s.file)
                 for c in run.report.conflicts for s in c.sites}
        assert pins <= sites, name

    controls = sorted(p for p in (CORPUS / "controls").iterdir()
                      if p.is_dir())
    assert len(controls) == 10
    spurious = 0
    for ctl in controls:
        run = run_scenario(ctl / "base", ctl / "left", ctl / "right",
                           scenario_id=ctl.name)
        spurious += len(run.report.conflicts)
    assert spurious == 0


def test_c03_rule_fixtures_resolve_and_clear():
    fixtures = sorted(n for n in GOLDEN if n.startswith("rule-"))
    assert len(fixtures) == 16
    for name in fixtures:
        run = fresh_run(name)
        (conflict,) = run.report.conflicts
        res = resolve_by_rule(run.fourway, conflict, run.scenario).resolution
        assert token_stream(res.text) \
            == token_stream(expected_text(name, res.path)), name
        # feed the resolved file back in as the merged result: the
        # conflict must no longer manifest anywhere
        run.scenario.am[res.path] = parse_unit(res.path, res.text)
        assert detect_conflicts(build_fourway(run.scenario)) == [], name


def test_c04_walkthrough_scenarios():
    # rename of a method: no adapted caller exists, only the rule acts
    run = fresh_run("callback-ref-rename")
    (c,) = run.report.conflicts
    assert c.type == "C15"
    strategies = {r.strategy: r for r in run.report.resolutions}
    assert set(strategies) == {"rule"}
    assert token_stream(strategies["rule"].text) \
        == token_stream(expected_text("callback-ref-rename",
                                      strategies["rule"].path))

    # removed field: no rule covers C20, the mined example fixes it
    run = fresh_run("cluster-field-removed")
    (c,) = run.report.conflicts
    assert c.type == "C20"
    strategies = {r.strategy: r for r in run.report.resolutions}
    assert set(strategies) == {"example"}
    assert token_stream(strategies["example"].text) \
        == token_stream(expected_text("cluster-field-removed",
                                      strategies["example"].path))
    assert resolve_by_rule(run.fourway, c,
                           run.scenario).reason == "not-covered"

    # moved accessor: the example only proves out on the first call
    run = fresh_run("serialization-service-moved")
    (res,) = [r for r in run.report.resolutions if r.strategy == "example"]
    assert res.partial is True
    assert res.sigma == pytest.approx(2.0) and res.exact == 1
    assert "getContext().getSerializationService().toData(key)" in res.text
    assert "Data valueData = getSerializationService().toData(value);" \
        in res.text
    verdicts = evaluate_scenario(
        CORPUS / "serialization-service-moved",
        GOLDEN["serialization-service-moved"]).verdicts
    assert verdicts["example"] == "incorrect"

    # widened constructor: the example splices in the new argument but
    # the human-made merge chose differently, so evaluation says so
    run = fresh_run("client-ctor-params")
    (res,) = [r for r in run.report.resolutions if r.strategy == "example"]
    assert res.partial is False
    assert "Executors.newFixedThreadPool" in res.text
    verdicts = evaluate_scenario(CORPUS / "client-ctor-params",
                                 GOLDEN["client-ctor-params"]).verdicts
    assert verdicts["example"] == "incorrect"

    # dropped import: the rule re-adds it although the human merge
    # inlined the qualified name instead
    run = fresh_run("introspector-import")
    (res,) = [r for r in run.report.resolutions if r.strategy == "rule"]
    assert "import java.beans.Introspector;" in res.text
    verdicts = evaluate_scenario(CORPUS / "introspector-import",
                                 GOLDEN["introspector-import"]).verdicts
    assert verdicts["rule"] == "incorrect"


def test_c05_tree_differ_replay_oracle():
    files = [p for p in corpus_java_files() if p.parent.name == "base"]
    assert files
    passed = 0
    for case in range(500):
        rng = random.Random(41_000 + case)
        src = files[case % len(files)]
        before = parse_unit(src.name, src.read_text()).tree
        after = mutate_tree(before, rng, rng.randrange(1, 11))
        script = diff_trees(before, after)
        work = before.clone()
        apply_script(work, script)
        assert structurally_equal(work.root, after.root), (case, src.name)
        passed += 1
    assert passed == 500

    for path in corpus_java_files():
        tree = parse_unit(path.name, path.read_text()).tree
        assert list(diff_trees(tree, tree.clone())) == [], path.name


def test_c06_textual_merge_laws():
    for seed in range(200):
        rng = random.Random(52_000 + seed)
        b, l, r = random_disjoint_triple(rng)
        assert merge_file(b, l, b) == l, seed
        assert merge_file(b, b, r) == r, seed
        assert merge_file(b, l, l) == l, seed
        assert merge_file(b, r, r) == r, seed
        merged = merge_file(b, l, r)
        assert merge_file(b, merged, merged) == merged, seed

    with pytest.raises(TextualConflict):
        merge_file("a\nb\nc\n", "a\nB1\nc\n", "a\nB2\nc\n")


def test_c07_refinement_closure_matches_brute_force():
    checked = 0
    for entry in sorted(GOLDEN):
        run = fresh_run(entry)
        for conflict in run.report.conflicts:
            for ex in mine_examples(run.fourway, conflict):
                stmts = sum(1 for n in ex.before.nodes()
                            if n.kind in STATEMENT_KINDS)
                if stmts > 30:
                    continue
                try:
                    _, closure, _ = refine_edits(ex, conflict)
                except NoRelevantEdit:
                    continue
                uses = use_node_ids(ex.named, conflict)
                assert closure == brute_force_closure(
                    ex.before, list(ex.script), uses), (entry, ex.host)
                checked += 1
    assert checked >= 10


def test_c08_ranking_argmax_invariance():
    run = fresh_run("serializer-rename")
    (conflict,) = run.report.conflicts
    examples = mine_examples(run.fourway, conflict)
    base_ex = examples[0]

    import dataclasses
    from mergeweaver.inference import infer_pattern
    pattern = infer_pattern(
        next(e for e in examples
             if e.host.endswith("handleSerializers(Node)")), conflict)

    rows = [(6.0, 3, "d.D.m()"), (5.5, 4, "a.A.m()"), (6.0, 2, "e.E.m()"),
            (4.0, 9, "b.B.m()"), (6.0, 3, "c.C.m()"), (1.0, 0, "f.F.m()")]
    cands = []
    for sigma, exact, host in rows:
        example = dataclasses.replace(base_ex, host=host)
        cands.append((dataclasses.replace(pattern, example=example),
                      MatchSet(pairs=[], sigma=sigma, exact=exact)))

    expected = rank_candidates(list(cands))[0]
    assert expected[0].example.host == "c.C.m()"
    rng = random.Random(63_000)
    for _ in range(1000):
        shuffled = list(cands)
        rng.shuffle(shuffled)
        top = rank_candidates(shuffled)[0]
        assert top[1].sigma == expected[1].sigma
        assert top[1].exact == expected[1].exact
        assert top[0].example.host == expected[0].example.host


def test_c09_corpus_evaluation_matches_hand_scoring():
    summary = evaluate_corpus(CORPUS)
    assert summary.coverage >= COVERAGE_FLOOR
    assert summary.coverage == 1.0

    # the verdict sheet: produced/correct per strategy, hand-counted
    assert summary.per_strategy["example"] == {"produced": 11, "correct": 9}
    assert summary.per_strategy["rule"] == {"produced": 33, "correct": 31}
    assert summary.accuracy == pytest.approx(40 / 44)

    # the sheet is itself derived from the golden key: stay in sync
    for strategy in ("example", "rule"):
        produced = sum(1 for g in GOLDEN.values()
                       if g[strategy] is not None)
        correct = sum(1 for g in GOLDEN.values()
                      if g[strategy] == "correct")
        assert summary.per_strategy[strategy] \
            == {"produced": produced, "correct": correct}

    # per-scenario verdicts agree with the key, scenario by scenario
    for result in summary.scenarios:
        golden = GOLDEN[result.scenario]
        assert result.verdicts["example"] == golden["example"], \
            result.scenario
        assert result.verdicts["rule"] == golden["rule"], result.scenario
        assert result.covered == len(golden["conflicts"]), result.scenario
