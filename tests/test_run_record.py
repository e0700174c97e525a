"""A run's ``Record``: every CPU millisecond of the run lands in one layer,
the stages of ``Report.timings_ms`` are sums of those layers, and the
counters copied in at the end do not depend on the hash seed."""

import json
import os
import subprocess
import sys

import pytest

from conftest import CORPUS, FANOUT, ROOT, merge_inputs
from mergeweaver.pipeline import STAGES, run_scenario

SYNTHETIC = ROOT / "tests" / "data" / "synthetic"
INPUTS = [d for d in merge_inputs() if d != FANOUT] \
    + sorted(SYNTHETIC.iterdir())
COUNTERS = ("pairs", "printed", "reused", "named", "deferred")


def _run(scenario):
    # a fresh run: a strategy called again on a finished run, as other
    # tests call them on conftest's cached runs, laps its record again
    return run_scenario(scenario / "base", scenario / "left",
                        scenario / "right")


@pytest.mark.parametrize("scenario", INPUTS, ids=lambda d: d.name)
def test_the_layers_sum_to_the_total(scenario):
    run = _run(scenario)
    ms, timings = run.record.ms, run.report.timings_ms
    layers = [layer for stage in STAGES.values() for layer in stage]
    assert set(ms) <= set(layers)
    assert all(value >= 0.0 for value in ms.values())
    assert abs(sum(ms.values()) - timings["total"]) < 0.001
    for stage, of in STAGES.items():
        assert abs(sum(ms.get(layer, 0.0) for layer in of)
                   - timings[stage]) < 0.001
    assert run.scenario.record is run.record


def test_the_fanout_run_times_every_layer():
    run = _run(FANOUT)
    assert list(run.record.ms) \
        == [layer for stage in STAGES.values() for layer in stage]


def test_a_run_without_conflicts_times_no_resolution():
    run = _run(CORPUS / "controls" / "ctl-01")
    assert not run.report.conflicts
    assert "detect" in run.record.ms
    assert not {"mine", "infer", "anchor", "apply", "rules"} \
        & set(run.record.ms)


_COUNT_ALL = """
import json, sys
from pathlib import Path
from mergeweaver.pipeline import run_scenario
out = {}
for d in map(Path, sys.argv[1:]):
    run = run_scenario(d / "base", d / "left", d / "right")
    out[d.name] = [run.record.counts[key] for key in %r]
print(json.dumps(out))
""" % (COUNTERS,)


def test_the_counters_do_not_depend_on_the_hash_seed():
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _COUNT_ALL, *map(str, INPUTS)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    assert runs[0] == runs[1]
    assert len(runs[0]) == len(INPUTS)
    assert runs[0]["method-rename"] == [3, 102, 41, 2, 3]
    assert runs[0]["package-rename"] == [46, 93, 32, 0, 0]
    assert runs[0]["rename-fanout"] == [48, 456, 667, 5, 0]
