"""Byte-stability guard: reports match the committed snapshots.

tests/data/corpus_reports.json was generated by tools/snapshot_reports.py
before the front end was optimised, tests/data/synthetic_reports.json
when the dependence closure became edit-scoped (a deliberate change of
the fanout example resolutions, argued in CHANGES.md).  Its method-rename
and package-rename entries, small fixtures bench/gen.py wrote once at
seed 1 (6 and 4 files), were added later by the same tool without
changing the fanout entry; the first defers the bodies of the files the
three versions share, the second shares no file.  A mismatch means a
change altered observable output; it is fixed in the program, never by
regenerating the files (see the tool's docstring for deliberate behaviour
changes).

tests/data/cli_digests.json holds the exit code and the sha256 of stdout
and stderr of ``resolve`` with every dump on, for each scenario, control
and fixture; it was generated by the same tool from the code before the
command line's tree check and the clone chains were removed.  It is
checked in fresh interpreters under two hash seeds, since output must not
depend on PYTHONHASHSEED.
"""

import importlib.util
import json
import os
import subprocess
import sys

from conftest import ROOT

_spec = importlib.util.spec_from_file_location(
    "snapshot_reports", ROOT / "tools" / "snapshot_reports.py")
snapshot_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(snapshot_reports)

SNAPSHOT = ROOT / "tests" / "data" / "corpus_reports.json"
SYNTHETIC_SNAPSHOT = ROOT / "tests" / "data" / "synthetic_reports.json"
DIGESTS = ROOT / "tests" / "data" / "cli_digests.json"

_PRINT_DIGESTS = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("snapshot_reports", sys.argv[1])
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)
sys.stdout.write(tool.dumps(tool.collect_digests()))
"""


# these two tests also pin the calls bench/worker.py makes:
# run_scenario(..., scenario_id=), report_to_dict(include_timing=False),
# the resolution texts, and evaluate_corpus (through scenario_dirs) with
# summary_to_dict
def test_corpus_reports_match_snapshot():
    want = json.loads(SNAPSHOT.read_text())
    got = json.loads(snapshot_reports.dumps(snapshot_reports.collect()))
    assert set(got["scenarios"]) == set(want["scenarios"])
    assert set(got["controls"]) == set(want["controls"])
    for group in ("scenarios", "controls"):
        for name in want[group]:
            assert got[group][name] == want[group][name], name
    assert got["eval"] == want["eval"]


def test_synthetic_reports_match_snapshot():
    want = json.loads(SYNTHETIC_SNAPSHOT.read_text())
    got = json.loads(snapshot_reports.dumps(
        snapshot_reports.collect_synthetic()))
    assert set(got) == set(want) == {"method-rename", "package-rename",
                                     "rename-fanout"}
    for name in want:
        assert got[name] == want[name], name
    assert len(want["rename-fanout"]["texts"]) == 32   # 16 per strategy
    assert len(want["method-rename"]["texts"]) == 2    # one C15, both
    assert len(want["package-rename"]["texts"]) == 1   # one C6, the rule


def test_cli_output_matches_digests_under_two_hash_seeds():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    procs = [subprocess.Popen(
        [sys.executable, "-c", _PRINT_DIGESTS,
         str(ROOT / "tools" / "snapshot_reports.py")],
        env=dict(env, PYTHONHASHSEED=seed), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True) for seed in ("0", "1")]
    want = json.loads(DIGESTS.read_text())
    assert {group: len(runs) for group, runs in want.items()} \
        == {"scenarios": 43, "controls": 10, "synthetic": 3}
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        assert json.loads(out) == want


def test_snapshot_file_is_canonical():
    for path in (SNAPSHOT, SYNTHETIC_SNAPSHOT, DIGESTS):
        text = path.read_text()
        assert snapshot_reports.dumps(json.loads(text)) == text, path.name
