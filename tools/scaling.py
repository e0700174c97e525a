"""Per-stage wall time of the synthetic workloads as they grow.

    python3 tools/scaling.py [--repeat N] [--seed S] [--workload NAME]

Each workload is generated by bench/gen.py (imported, not modified) at a
range of sizes, written to a temporary directory and run through
``run_scenario`` N times.  The output is a Markdown table with the best of
the N runs of every stage in ``Report.timings_ms``, in milliseconds; the
pairs of texts the merge's similarity scorer scored (``pairs``, a count
that host noise cannot move); the best of N times to diff the mined hosts
of the merge again (``diff``) and the nodes of those hosts' before trees
(``host_nodes``); then the best of N times to call
``parse_unit`` on each distinct (path, text) pair of the three input
versions, with the tokens and nodes of those parses:

* method-rename at 120, 240, 480 and 960 files;
* package-rename at 24, 48, 96 and 192 files;
* rename-fanout at 16, 32, 64 and 128 hub methods.

The largest sizes take tens of seconds each; ``--workload`` runs one.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import gen  # noqa: E402
from mergeweaver.parser import parse_unit, tokenize  # noqa: E402
from mergeweaver.pipeline import ScenarioRun, run_scenario  # noqa: E402
from mergeweaver.tree_diff import diff_trees  # noqa: E402

SIZES = (
    ("method-rename", "files", (120, 240, 480, 960)),
    ("package-rename", "files", (24, 48, 96, 192)),
    ("rename-fanout", "methods", (16, 32, 64, 128)),
)
STAGES = ("merge", "graphs", "detect", "resolve", "total")
COLUMNS = STAGES + ("pairs", "diff", "host_nodes", "parse", "tokens",
                    "nodes")


def diff_columns(run: ScenarioRun, repeat: int) -> dict[str, float]:
    """Best-of-``repeat`` ms to diff every host the merge mined, and the
    nodes of those hosts' before trees."""
    hosts = [(ex.before, ex.after) for ex in run.fourway.mined.values()
             if ex is not None]
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        for before, after in hosts:
            diff_trees(before, after)
        best = min(best, time.perf_counter() - start)
    return {"diff": best * 1000,
            "host_nodes": sum(sum(1 for _ in b.nodes()) for b, _a in hosts)}


def parse_columns(wl: "gen.Workload", repeat: int) -> dict[str, float]:
    """Best-of-``repeat`` ms to parse every distinct (path, text) pair of
    ``wl``'s three versions, and the tokens and nodes of those parses."""
    pairs = sorted({pair for version in (wl.base, wl.left, wl.right)
                    for pair in version.items()})
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        files = [parse_unit(path, text) for path, text in pairs]
        best = min(best, time.perf_counter() - start)
    return {"parse": best * 1000,
            "tokens": sum(len(tokenize(p, t)) - 1 for p, t in pairs),
            "nodes": sum(f.tree.max_id + 1 for f in files)}


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
    with tempfile.TemporaryDirectory() as tmp:
        for workload, param, sizes in SIZES:
            if args.workload and workload != args.workload:
                continue
            for size in sizes:
                out = Path(tmp) / f"{workload}-{size}"
                wl = gen.generate(workload, args.seed, **{param: size})
                gen.write_workload(wl, out)
                best: dict[str, float] = {}
                for _ in range(args.repeat):
                    run = run_scenario(out / "base", out / "left",
                                       out / "right")
                    timings = run.report.timings_ms
                    for stage in STAGES:
                        best[stage] = min(best.get(stage, timings[stage]),
                                          timings[stage])
                best["pairs"] = run.fourway.scorer.scored
                best.update(diff_columns(run, args.repeat))
                best.update(parse_columns(wl, args.repeat))
                cells = " | ".join(format(best[col], ".1f" if col == "diff"
                                          else ".0f") for col in COLUMNS)
                print(f"| {workload} | {size} {param} | {cells} |",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
