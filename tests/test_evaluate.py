"""Corpus evaluation: coverage, verdicts, golden key handling."""

import json
import shutil

import pytest

from conftest import CORPUS, write_versions
from mergeweaver.evaluate import (STRATEGIES, MissingGolden,
                                  evaluate_corpus, evaluate_scenario,
                                  scenario_dirs, summary_to_dict)

GOLDEN = json.loads((CORPUS / "golden_key.json").read_text())


def test_strategies_constant():
    assert STRATEGIES == ("example", "rule")


def test_scenario_dirs_skip_controls_and_files():
    dirs = scenario_dirs(CORPUS)
    names = [d.name for d in dirs]
    assert "controls" not in names
    assert "serializer-rename" in names
    assert len(names) == len(GOLDEN) == 43
    assert names == sorted(names)


def test_verdicts_on_motivating_scenario():
    result = evaluate_scenario(CORPUS / "serializer-rename",
                               GOLDEN["serializer-rename"])
    assert result.covered == 1
    assert result.expected == result.detected
    assert result.verdicts["example"] == "correct"
    assert result.verdicts["rule"] == "incorrect"


def test_verdict_none_when_nothing_produced():
    result = evaluate_scenario(CORPUS / "tax-c18", GOLDEN["tax-c18"])
    assert result.verdicts == {"example": None, "rule": None}


def test_verdict_correct_for_rule_fixture():
    result = evaluate_scenario(CORPUS / "rule-c09", GOLDEN["rule-c09"])
    assert result.verdicts["rule"] == "correct"
    assert result.verdicts["example"] is None


def test_verdict_incorrect_without_an_expected_file(tmp_path):
    shutil.copytree(CORPUS / "rule-c09", tmp_path / "rule-c09")
    (tmp_path / "rule-c09" / "expected" / "Rot13.java").unlink()
    result = evaluate_scenario(tmp_path / "rule-c09", GOLDEN["rule-c09"])
    assert result.verdicts["rule"] == "incorrect"


def test_verdict_incorrect_with_a_conflict_left_unresolved(tmp_path):
    # left renames class A and deletes K.k(); right's run() uses both.  The
    # rule resolves the C1 as expected/ holds it, and leaves the C23
    a = "package p;\n\npublic class %s {\n}\n"
    k = "package p;\n\npublic class K {\n%s}\n"
    k_method = "    public int k() {\n        return 1;\n    }\n"
    u = ("package p;\n\npublic class U {\n    public int run() {\n"
         "        %s a = new %s();\n        K c = new K();\n"
         "        return c.k();\n    }\n}\n")
    write_versions(tmp_path / "s", {
        "base": {"p/A.java": a % "A", "p/K.java": k % k_method},
        "left": {"p/AA.java": a % "AA", "p/K.java": k % ""},
        "right": {"p/A.java": a % "A", "p/K.java": k % k_method,
                  "p/U.java": u % ("A", "A")},
        "expected": {"p/U.java": u % ("AA", "AA")},
    })
    golden = {"conflicts": [{"type": "C1", "subject": "p.A"},
                            {"type": "C23", "subject": "p.K.k()"}]}
    result = evaluate_scenario(tmp_path / "s", golden)
    assert result.covered == 2
    assert result.verdicts == {"example": None, "rule": "incorrect"}


def test_missing_key_raises(tmp_path):
    with pytest.raises(MissingGolden):
        evaluate_corpus(tmp_path)


def test_missing_scenario_entry_raises(tmp_path):
    src = CORPUS / "tax-c18"
    shutil.copytree(src, tmp_path / "tax-c18")
    (tmp_path / "golden_key.json").write_text("{}")
    with pytest.raises(MissingGolden):
        evaluate_corpus(tmp_path)


def test_mini_corpus_summary(tmp_path):
    for name in ("serializer-rename", "tax-c18"):
        shutil.copytree(CORPUS / name, tmp_path / name)
    key = {name: GOLDEN[name] for name in ("serializer-rename", "tax-c18")}
    (tmp_path / "golden_key.json").write_text(json.dumps(key))
    summary = evaluate_corpus(tmp_path)
    assert summary.coverage == 1.0
    # one correct example, one incorrect rule, nothing for tax-c18
    assert summary.per_strategy["example"] == {"produced": 1, "correct": 1}
    assert summary.per_strategy["rule"] == {"produced": 1, "correct": 0}
    assert summary.accuracy == pytest.approx(0.5)
    doc = summary_to_dict(summary)
    json.dumps(doc)
    assert doc["coverage"] == 1.0
    assert {s["scenario"] for s in doc["scenarios"]} \
        == {"serializer-rename", "tax-c18"}
    assert set(doc["perType"]) == {"C1", "C18"}
