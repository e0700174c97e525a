"""Per-stage CPU time of the synthetic workloads as they grow.

    python3 tools/scaling.py [--repeat N] [--seed S] [--workload NAME]

Each workload is generated by bench/gen.py (imported, not modified) at a
range of sizes, written to a temporary directory and run through
``run_scenario`` N times.  The output is a Markdown table with the best
of the N runs of every stage in ``Report.timings_ms``; the scores of
unequal text pairs the merge's similarity scorer computed (``pairs``, a
count that host noise cannot move; the scorer keeps no scores, so a pair
scored again, in a later round of a graph match or by another anchor
search, counts again); the member- and statement-level subtrees the
merge's print memo rendered (``printed``) and those it read from the
memo instead (``reused``; see ``printer.PrintMemo``), both counts, and
of those the reads per resolution made while resolving (``reused/res``,
counted around ``pipeline.resolve_conflicts`` in one more run; a
resolution re-joins its whole file, so this grows with the file's
members); the declarations whose name index the merge built (``named``,
see ``FourWayGraph.name_index``, also a count, which takes in the base
declaration of every mined host: 5 on rename-fanout and 2 on
method-rename at seed 1); the files whose bodies the merge never
resolved (``deferred``, see peg's "Deferred bodies", also a count); of
the distinct parsed files of the four versions, those whose tree built
its id and parent maps (``indexed``) and those whose token position
table was built (``positioned``; see ``syntax.SyntaxTree`` and
``syntax.SyntaxNode``), both counts; the member bodies the merge's parse
recognized without building them (``recognized``, see the ``parser``
docstring) and those of them built by the end of the run (``built``),
both counts; the best of N times to diff the mined hosts of the merge
again (``diff``) and the nodes of those hosts' before trees
(``host_nodes``); the best of N times to read the three input trees
(``read``), and to ``scan`` and to ``parse_unit`` each distinct (path,
text) pair of the three versions, with the tokens and nodes of those
parses; and last ``ref_ms``, the best of N times of the reference job of
bench/calib.py (imported, not modified), each timed right before one of
the N runs, so that the host's drift within a row reaches both, and with
no earlier run's merge held, so that the job's own garbage collections
scan none of its trees:

* method-rename at 120, 240, 480 and 960 files;
* package-rename at 24, 48, 96 and 192 files;
* rename-fanout at 16, 32, 64 and 128 hub methods.

Every time is CPU time of this process (``time.process_time``, the
clock ``run_scenario`` times its stages with) in milliseconds.  The
host's speed drifts, and the reference job drifts with it, so compare a
cell divided by its row's ``ref_ms``, as bench/run.py's ``run_rel``
does, not the cell across runs.  The largest sizes take tens
of seconds each; ``--workload`` runs one.
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

import calib  # noqa: E402
import gen  # noqa: E402
from mergeweaver import pipeline  # noqa: E402
from mergeweaver.merge3 import _read_tree  # noqa: E402
from mergeweaver.parser import parse_unit, scan, token_texts  # noqa: E402
from mergeweaver.pipeline import ScenarioRun, run_scenario  # noqa: E402
from mergeweaver.syntax import recognized_blocks  # noqa: E402
from mergeweaver.tree_diff import diff_trees  # noqa: E402

SIZES = (
    ("method-rename", "files", (120, 240, 480, 960)),
    ("package-rename", "files", (24, 48, 96, 192)),
    ("rename-fanout", "methods", (16, 32, 64, 128)),
)
STAGES = ("merge", "graphs", "detect", "resolve", "total")
COLUMNS = STAGES + ("pairs", "printed", "reused", "reused/res", "named",
                    "deferred", "indexed", "positioned", "recognized",
                    "built", "diff", "host_nodes", "read", "scan",
                    "parse", "tokens", "nodes", "ref_ms")


def best_ms(repeat: int, job) -> float:
    """The least CPU milliseconds of ``repeat`` calls of ``job``."""
    best = float("inf")
    for _ in range(repeat):
        start = time.process_time()
        job()
        best = min(best, time.process_time() - start)
    return best * 1000


def run_columns(run: ScenarioRun) -> dict[str, float]:
    """The counts the merge's scorer, print memo and graphs kept."""
    fw = run.fourway
    return {"pairs": fw.scorer.scored,
            "printed": fw.scorer.print_memo.printed,
            "reused": fw.scorer.print_memo.reused,
            "named": len(fw.named),
            # every version holds the units whose bodies it deferred
            "deferred": len(fw.base.deferred)}


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


def resolve_reads(out: Path) -> float:
    """The print-memo reads per resolution of ``pipeline.resolve_conflicts``
    on the trees under ``out``, after the stages before it."""
    scenario = pipeline.merge_scenario(out / "base", out / "left",
                                       out / "right")
    fw = pipeline.build_fourway(scenario)
    conflicts = pipeline.detect_conflicts(fw)
    before = fw.scorer.print_memo.reused
    resolutions = pipeline.resolve_conflicts(fw, conflicts, scenario)
    return (fw.scorer.print_memo.reused - before) / max(len(resolutions), 1)


def diff_columns(run: ScenarioRun, repeat: int) -> dict[str, float]:
    """Best-of-``repeat`` ms to diff every host the merge mined, and the
    nodes of those hosts' before trees."""
    hosts = [(ex.before, ex.after) for ex in run.fourway.mined.values()
             if ex is not None]

    def diff_all():
        for before, after in hosts:
            diff_trees(before, after)
    return {"diff": best_ms(repeat, diff_all),
            "host_nodes": sum(sum(1 for _ in b.nodes()) for b, _a in hosts)}


def front_end_columns(out: Path, repeat: int) -> dict[str, float]:
    """Best-of-``repeat`` ms to read the three trees under ``out``, and to
    scan and to parse every distinct (path, text) pair of them, with the
    tokens and nodes of those parses."""
    dirs = [out / version for version in ("base", "left", "right")]
    pairs = sorted({pair for d in dirs for pair in _read_tree(d).items()})
    files = [parse_unit(path, text) for path, text in pairs]
    return {
        "read": best_ms(repeat, lambda: [_read_tree(d) for d in dirs]),
        "scan": best_ms(repeat, lambda: [scan(*pair) for pair in pairs]),
        "parse": best_ms(repeat,
                         lambda: [parse_unit(*pair) for pair in pairs]),
        "tokens": sum(len(token_texts(text)) for _path, text in pairs),
        "nodes": sum(f.tree.max_id + 1 for f in files)}


# columns of a few milliseconds, or a ratio, printed to a tenth
FINE = ("diff", "read", "scan", "reused/res")


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
                wl = gen.generate(workload, args.seed, **{param: size})
                gen.write_workload(wl, out)
                best: dict[str, float] = {}
                refs = []
                for _ in range(args.repeat):
                    run = None
                    refs.append(calib.reference_cpu_s())
                    run = run_scenario(out / "base", out / "left",
                                       out / "right")
                    timings = run.report.timings_ms
                    for stage in STAGES:
                        best[stage] = min(best.get(stage, timings[stage]),
                                          timings[stage])
                best.update(run_columns(run))
                best["reused/res"] = resolve_reads(out)
                best.update(lazy_columns(run))
                best.update(diff_columns(run, args.repeat))
                best.update(front_end_columns(out, args.repeat))
                best["ref_ms"] = min(refs) * 1000
                cells = " | ".join(
                    format(best[col], ".1f" if col in FINE else ".0f")
                    for col in COLUMNS)
                print(f"| {workload} | {size} {param} | {cells} |",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
