"""Per-layer CPU time and counters of the synthetic workloads as they grow.

    python3 tools/scaling.py [--repeat N] [--seed S] [--workload NAME]

Each workload is generated by bench/gen.py (imported, not modified) at
four sizes, written to a temporary directory and run through
``run_scenario`` N times.  The Markdown table holds, for each size, the
best of the N runs of every layer of the run's record and of its total
(CPU milliseconds; see ``merge3.Record``), the record's counters, with
``reused/res`` the print-memo reads per resolution made while
resolving, the lazy parse state the run left (``lazy_columns``), and
``ref_ms``, the best time of bench/calib.py's reference job, each timed
right before one of the runs.  The host's speed drifts, so compare a
cell divided by its row's ``ref_ms``, as bench/run.py's ``run_rel``
does.  The largest sizes take tens of seconds each; ``--workload`` runs
one.

``class-rename`` is derived here from method-rename's workload: the left
branch also renames the service class, the owner of the C15 subject, so
the table shows how the ``mine`` layer and ``named`` of a type-subject
conflict (C1) grow.
"""

from __future__ import annotations

import argparse
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import calib  # noqa: E402
import gen  # noqa: E402
from mergeweaver.pipeline import (  # noqa: E402
    STAGES, ScenarioRun, run_scenario)
from mergeweaver.syntax import recognized_blocks  # noqa: E402

SIZES = (
    ("method-rename", "files", (120, 240, 480, 960)),
    ("class-rename", "files", (120, 240, 480, 960)),
    ("package-rename", "files", (24, 48, 96, 192)),
    ("rename-fanout", "methods", (16, 32, 64, 128)),
)
LAYERS = tuple(layer for layers in STAGES.values() for layer in layers)
COLUMNS = LAYERS + ("total", "pairs", "printed", "reused", "reused/res",
                    "named", "deferred", "indexed", "positioned",
                    "recognized", "built", "ref_ms")


def class_rename(seed: int, files: int) -> gen.Workload:
    """method-rename's workload whose left branch also renames the
    service class and every mention of it.  It carries no reference:
    the tool reads none."""
    wl = gen.generate("method-rename", seed, files=files)
    subject = next(c["subject"] for c in wl.conflicts if c["type"] == "C15")
    old = subject.split("(", 1)[0].rsplit(".", 2)[1]
    new, word = old + "Impl", re.compile(rf"\b{old}\b")
    wl.left = {path.replace(f"/{old}.java", f"/{new}.java"):
               word.sub(new, text) for path, text in wl.left.items()}
    wl.name, wl.conflicts = "class-rename", []
    return wl


def generate(workload: str, seed: int, **sizes) -> gen.Workload:
    if workload == "class-rename":
        return class_rename(seed, **sizes)
    return gen.generate(workload, seed, **sizes)


def record_columns(run: ScenarioRun) -> dict[str, float]:
    """The run's layer times, total and counters, as columns."""
    record = run.scenario.record
    ms, counts = record.ms, record.counts
    resolving = counts["reused"] - counts["reused.pre_resolve"]
    return {**counts, **{layer: ms.get(layer, 0.0) for layer in LAYERS},
            "total": run.report.timings_ms["total"],
            "reused/res": resolving / max(counts["resolutions"], 1)}


def lazy_columns(run: ScenarioRun) -> dict[str, float]:
    """How many distinct parsed files of the merge built their tree's maps
    and their position table, and how many member bodies the parse
    recognized and how many of those were built."""
    scenario = run.scenario
    files = {id(sf): sf for version in (scenario.base, scenario.left,
                                        scenario.right, scenario.am)
             for sf in version.values()}.values()
    blocks = [block for sf in files
              for block in recognized_blocks(sf.tree.root)]
    return {"indexed": sum(sf.tree.indexed for sf in files),
            "positioned": sum(sf.positioned for sf in files),
            "recognized": len(blocks),
            "built": sum(block.built for block in blocks)}


# columns of a few milliseconds, or a ratio, printed to a tenth
FINE = LAYERS + ("reused/res",)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeat", type=int, default=2,
                        help="runs per size; the best is reported")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=[w for w, _p, _s in SIZES],
                        help="run only this workload")
    args = parser.parse_args(argv)

    print("| workload | size | " + " | ".join(COLUMNS) + " |")
    print("| --- | --- |" + " --- |" * len(COLUMNS))
    calib.warm_up()
    with tempfile.TemporaryDirectory() as tmp:
        for workload, param, sizes in SIZES:
            if args.workload and workload != args.workload:
                continue
            for size in sizes:
                out = Path(tmp) / f"{workload}-{size}"
                wl = generate(workload, args.seed, **{param: size})
                gen.write_workload(wl, out)
                best: dict[str, float] = {}
                refs = []
                for _ in range(args.repeat):
                    run = None
                    refs.append(calib.reference_cpu_s())
                    run = run_scenario(out / "base", out / "left",
                                       out / "right")
                    for col, value in record_columns(run).items():
                        best[col] = min(best.get(col, value), value)
                best.update(lazy_columns(run))
                best["ref_ms"] = min(refs) * 1000
                cells = " | ".join(
                    format(best[col], ".1f" if col in FINE else ".0f")
                    for col in COLUMNS)
                print(f"| {workload} | {size} {param} | {cells} |",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
