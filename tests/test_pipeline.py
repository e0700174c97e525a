"""End-to-end driver shapes and report serialization."""

import json
import shutil

import pytest

from conftest import CORPUS, merge_inputs
from mergeweaver.pipeline import report_to_dict, run_scenario


def test_run_scenario_motivating_shape():
    d = CORPUS / "serializer-rename"
    run = run_scenario(d / "base", d / "left", d / "right")
    assert run.report.scenario == "serializer-rename"
    assert [c.type for c in run.report.conflicts] == ["C1"]
    assert sorted(r.strategy for r in run.report.resolutions) \
        == ["example", "rule"]
    assert set(run.report.timings_ms) \
        == {"merge", "graphs", "detect", "resolve", "total"}
    assert all(v >= 0.0 for v in run.report.timings_ms.values())
    total = run.report.timings_ms["total"]
    assert total <= 5000.0


def test_scenario_id_overrides_directory_name():
    d = CORPUS / "serializer-rename"
    run = run_scenario(d / "base", d / "left", d / "right",
                       scenario_id="motivating")
    assert run.report.scenario == "motivating"


def test_report_to_dict_is_json_ready():
    d = CORPUS / "serializer-rename"
    run = run_scenario(d / "base", d / "left", d / "right")
    doc = report_to_dict(run.report)
    text = json.dumps(doc)          # must not raise
    back = json.loads(text)
    (conflict,) = back["conflicts"]
    assert conflict["type"] == "C1"
    assert conflict["subject"] == "com.hazelcast.config.TypeSerializerConfig"
    assert conflict["branchOfDef"] == "l"
    assert conflict["sites"], "sites serialize"
    for site in conflict["sites"]:
        assert set(site) == {"entity", "file", "span"}
    for res in back["resolutions"]:
        assert res["conflict"] == 0
        assert res["strategy"] in ("example", "rule")
    assert "timingMs" in back


def test_report_to_dict_can_drop_timing():
    d = CORPUS / "tax-c18"
    run = run_scenario(d / "base", d / "left", d / "right")
    doc = report_to_dict(run.report, include_timing=False)
    assert "timingMs" not in doc


def test_undetected_strategies_produce_no_resolutions():
    d = CORPUS / "tax-c18"        # neither strategy covers C18 here
    run = run_scenario(d / "base", d / "left", d / "right")
    assert [c.type for c in run.report.conflicts] == ["C18"]
    assert run.report.resolutions == []


_UNTOUCHED = """\
package untouched.extra;

public class UntouchedLedger {
    private int count;

    public int record(int step) {
        int next = count + step;
        count = next;
        return helper(next);
    }
}
"""


@pytest.mark.parametrize("path", merge_inputs(), ids=lambda p: p.name)
def test_adding_an_untouched_file_changes_nothing(path, tmp_path):
    # a metamorphic relation: a file that is the same in base, left and
    # right adds no conflict and changes no resolution
    def outcome(root):
        run = run_scenario(root / "base", root / "left", root / "right")
        return (sorted((c.type, c.subject) for c in run.report.conflicts),
                [(r.strategy, r.path, r.text)
                 for r in run.report.resolutions])

    copy = tmp_path / path.name
    for version in ("base", "left", "right"):
        shutil.copytree(path / version, copy / version)
        extra = copy / version / "untouched" / "extra"
        extra.mkdir(parents=True)
        (extra / "UntouchedLedger.java").write_text(_UNTOUCHED)
    assert outcome(copy) == outcome(path)
