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
"""

import importlib.util
import json

from conftest import ROOT

_spec = importlib.util.spec_from_file_location(
    "snapshot_reports", ROOT / "tools" / "snapshot_reports.py")
snapshot_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(snapshot_reports)

SNAPSHOT = ROOT / "tests" / "data" / "corpus_reports.json"
SYNTHETIC_SNAPSHOT = ROOT / "tests" / "data" / "synthetic_reports.json"


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


def test_snapshot_file_is_canonical():
    for path in (SNAPSHOT, SYNTHETIC_SNAPSHOT):
        text = path.read_text()
        assert snapshot_reports.dumps(json.loads(text)) == text, path.name
