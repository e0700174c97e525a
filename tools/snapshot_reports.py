"""Snapshot the timing-free output of the corpus and the synthetic fixtures.

For each scenario under corpus/ and each control under corpus/controls/,
the corpus snapshot holds ``report_to_dict(report, include_timing=False)``
and the text of every resolution, plus the ``eval`` summary of the corpus.
The synthetic snapshot holds the same per-scenario record for each
generated workload under tests/data/synthetic/ (three source trees each,
written once by ``bench/gen.py``); they exercise the many-conflicts,
many-examples path that the corpus hardly reaches.
The digest file holds, for every scenario, control and fixture, the exit
code and the sha256 of stdout and of stderr of the command line's
``resolve`` with ``DIGEST_FLAGS``, which print the report and dump the
entity graphs, the graph deltas and the edit scripts.
``tests/test_snapshot.py`` compares a fresh run with the committed files,
so a change that alters any report or dump byte fails there.

The committed files are the reference: regenerate them only for a
deliberate behaviour change, and argue that change in CHANGES.md.

    PYTHONPATH=src python3 tools/snapshot_reports.py \
        [CORPUS.json [SYNTH.json [DIGESTS.json]]]
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from mergeweaver.cli import main as cli_main
from mergeweaver.evaluate import evaluate_corpus, summary_to_dict
from mergeweaver.pipeline import report_to_dict, run_scenario

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
SYNTHETIC = ROOT / "tests" / "data" / "synthetic"
DEFAULT_OUT = ROOT / "tests" / "data" / "corpus_reports.json"
DEFAULT_SYNTHETIC_OUT = ROOT / "tests" / "data" / "synthetic_reports.json"
DEFAULT_DIGESTS_OUT = ROOT / "tests" / "data" / "cli_digests.json"
DIGEST_FLAGS = ("--no-timing", "--dump-peg", "--dump-delta", "--dump-script")


def scenario_snapshot(scenario_dir: Path, name: str) -> dict:
    run = run_scenario(scenario_dir / "base", scenario_dir / "left",
                       scenario_dir / "right", scenario_id=name)
    return {
        "report": report_to_dict(run.report, include_timing=False),
        "texts": [res.text for res in run.report.resolutions],
    }


def collect(corpus_dir: Path = CORPUS) -> dict:
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    scenarios = {name: scenario_snapshot(corpus_dir / name, name)
                 for name in manifest["scenarios"]}
    controls = {name: scenario_snapshot(corpus_dir / "controls" / name, name)
                for name in manifest["controls"]}
    return {
        "eval": summary_to_dict(evaluate_corpus(corpus_dir)),
        "scenarios": scenarios,
        "controls": controls,
    }


def collect_synthetic(synthetic_dir: Path = SYNTHETIC) -> dict:
    return {d.name: scenario_snapshot(d, d.name)
            for d in sorted(synthetic_dir.iterdir()) if d.is_dir()}


def cli_digest(scenario_dir: Path) -> dict:
    """The exit code and the sha256 of stdout and stderr of one
    ``resolve`` with ``DIGEST_FLAGS``, run in this process."""
    argv = ["resolve", *DIGEST_FLAGS]
    for leg in ("base", "left", "right"):
        argv += [f"--{leg}", str(scenario_dir / leg)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    return {"exit": code,
            "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest()}


def collect_digests(corpus_dir: Path = CORPUS,
                    synthetic_dir: Path = SYNTHETIC) -> dict:
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    return {
        "scenarios": {name: cli_digest(corpus_dir / name)
                      for name in manifest["scenarios"]},
        "controls": {name: cli_digest(corpus_dir / "controls" / name)
                     for name in manifest["controls"]},
        "synthetic": {d.name: cli_digest(d)
                      for d in sorted(synthetic_dir.iterdir()) if d.is_dir()},
    }


def dumps(snapshot: dict) -> str:
    return json.dumps(snapshot, indent=1, sort_keys=True) + "\n"


def main(argv: list[str]) -> int:
    out = Path(argv[1]) if len(argv) > 1 else DEFAULT_OUT
    synthetic_out = Path(argv[2]) if len(argv) > 2 else DEFAULT_SYNTHETIC_OUT
    digests_out = Path(argv[3]) if len(argv) > 3 else DEFAULT_DIGESTS_OUT
    for path, snapshot in ((out, collect()),
                           (synthetic_out, collect_synthetic()),
                           (digests_out, collect_digests())):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(dumps(snapshot))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
