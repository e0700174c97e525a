"""mergeweaver benchmark: one workload per invocation, run from the checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads:

* ``corpus``: ``evaluate_corpus`` on corpus/ plus the ten controls;
* ``method-rename``, ``package-rename``, ``rename-fanout``: generated from
  ``--seed`` by bench/gen.py and run through ``run_scenario``.

BENCHMARK.json registers method-rename and rename-fanout (and says why);
the other two run on demand with the same checks and metrics.

The load is a closed loop with one caller: each pass is a fresh
single-threaded interpreter (bench/worker.py) started only after the
previous one ended, as a user calling the CLI would.  A warm-up pass runs
first and is checked but not timed.  Passes repeat for ``--seconds``.

With ``--trace 0`` the result carries the end-to-end metrics: run_rel,
setup_s (median start-to-``import mergeweaver``), peak_rss_mb (median per
pass), conflicts_found and resolutions_correct.  run_rel is the median over
passes of the pass's CPU time divided by that of the fixed reference job of
bench/calib.py, timed in the same process around the pass: the shared host
this runs on drifts in speed by tens of percent, which both share, so the
ratio holds where seconds do not.  With ``--trace 1`` untraced and traced
passes alternate and the result carries per-layer self times and counters,
the untraced pass in wall and CPU seconds (run_s, run_cpu_s) and the
reference job's CPU seconds; every traced report must be byte-identical to
the untraced one.  Spans of the last traced pass are
written to .bench_out/.

Every pass is checked against a reference that does not come from
mergeweaver (bench/check.py).  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.  Exit code 2 when the checkout
has no mergeweaver sources or corpus.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402

WORKLOADS = ("corpus", "method-rename", "package-rename", "rename-fanout")
MIN_PASSES = 3          # per kind of pass, even past --seconds
MIN_SETUPS = 9          # set-up samples; extra import-only starts fill up
DEADLINE_S = 150.0      # no new pass starts later than this into the run
HARD_LIMIT_S = 170.0    # a pass still running then is killed and fails
PASS_TIMEOUT_S = 120.0


@dataclass
class Pass:
    setup_s: Optional[float]
    pass_s: Optional[float] = None
    cpu_s: Optional[float] = None
    ref_s: Optional[float] = None
    rss_mb: Optional[float] = None
    output: Optional[dict] = None
    trace: Optional[dict] = None
    error: Optional[str] = None


def _worker_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"      # steadier timings; output must not care
    return env


def spawn(root: Path, mode: str, args: tuple, timeout: float) -> Pass:
    """Run one worker interpreter to completion and read its result."""
    cmd = [sys.executable, "-s", str(HERE / "worker.py"), str(root), mode,
           *map(str, args)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, env=_worker_env(),
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return Pass(setup_s=None, error=f"pass exceeded {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode != 0 or not lines:
            raise ValueError(f"exit {proc.returncode}")
        result = json.loads(lines[-1])
    except ValueError as exc:
        tail = proc.stderr.strip().splitlines()[-3:]
        return Pass(setup_s=None,
                    error=f"worker {exc}: " + " | ".join(tail))
    return Pass(setup_s=result["imported_at"] - started,
                pass_s=result.get("pass_s"),
                cpu_s=result.get("pass_cpu_s"), ref_s=result.get("ref_cpu_s"),
                rss_mb=result["maxrss_kb"] / 1024.0,
                output=result.get("output"), trace=result.get("trace"))


# -- workloads -----------------------------------------------------------


class Synthetic:
    """A generated workload, scored against the generator's reference."""

    mode = "scenario"

    def __init__(self, root: Path, name: str, seed: int, workdir: Path):
        self.root = root
        self.reference = gen.write_workload(gen.generate(name, seed),
                                            workdir / name)
        self.args: tuple = (workdir / name,)

    def score(self, p: Pass) -> check.Score:
        out = p.output
        if out is not None and "error" in out:
            return check.score_synthetic(self.reference, None, out["error"])
        return check.score_synthetic(self.reference, out, p.error)

    def warm_up(self, timeout: float) -> check.Score:
        return self.score(spawn(self.root, self.mode, self.args, timeout))


class Corpus:
    """corpus/ and its controls, scored against golden_key.json.  The corpus
    is fixed, so the seed does not change it."""

    mode = "corpus"
    args: tuple = ()

    def __init__(self, root: Path):
        self.root = root
        self.corpus = root / "corpus"
        self.golden = check.load_golden(self.corpus)
        self.controls = sorted(
            p.name for p in (self.corpus / "controls").iterdir()
            if (p / "base").is_dir())

    def _crashed(self, p: Pass) -> check.Score:
        return check.score_corpus(self.golden, None,
                                  {name: p.error for name in self.controls},
                                  p.error)

    def score(self, p: Pass) -> check.Score:
        if p.output is None:
            return self._crashed(p)
        out = p.output
        return check.score_corpus(self.golden, out["summary"],
                                  out["controls"], out["error"])

    def warm_up(self, timeout: float) -> check.Score:
        """Re-derive every verdict from the resolution texts rather than
        trusting evaluate_corpus's own token comparison."""
        p = spawn(self.root, "corpus-runs", (), timeout)
        if p.output is None:
            return self._crashed(p)
        score = check.verify_corpus(self.golden, self.corpus,
                                    p.output["runs"])
        controls = {k: v["report"] if isinstance(v, dict) else v
                    for k, v in p.output["controls"].items()}
        score.add(check.score_controls(controls))
        return score


def _digest(output: Optional[dict]) -> Optional[str]:
    if output is None:
        return None
    return hashlib.sha256(
        json.dumps(output, sort_keys=True).encode()).hexdigest()


# -- metrics -------------------------------------------------------------


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


NO_TRACE = {"self_ms": {}, "total_ms": {}, "calls": {}, "counts": {}}


def layer_values(t: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    s, total, calls, n = t["self_ms"], t["total_ms"], t["calls"], t["counts"]

    def share(a: float, b: float) -> float:
        return a / b if b else 0.0

    return {
        "merge3.ms": s.get("merge3", 0.0),
        "merge3.files": n.get("merge3.files", 0),
        "parser.ms": s.get("parser", 0.0),
        "parser.calls": calls.get("parser", 0),
        "parser.nodes": n.get("parser.nodes", 0),
        "parser.repeat_share": share(n.get("parser.repeats", 0),
                                     calls.get("parser", 0)),
        "peg.ms": s.get("peg", 0.0),
        "peg.entities": n.get("peg.entities", 0),
        "peg.relations": n.get("peg.relations", 0),
        "graph_diff.delta.ms": s.get("graph_diff.delta", 0.0),
        "graph_diff.entity_edits": n.get("graph_diff.entity_edits", 0),
        "graph_diff.relation_edits": n.get("graph_diff.relation_edits", 0),
        "graph_diff.cap.ms": s.get("graph_diff.cap", 0.0),
        "graph_diff.unmatched_by_id": n.get("graph_diff.unmatched_by_id", 0),
        "similarity.calls": calls.get("similarity", 0),
        "similarity.ms": s.get("similarity", 0.0),
        "printer.calls": calls.get("printer", 0),
        "printer.ms": s.get("printer", 0.0),
        "conflicts.ms": s.get("conflicts", 0.0),
        "conflicts.edits_in": n.get("conflicts.edits_in", 0),
        "conflicts.found": n.get("conflicts.found", 0),
        "mining.ms": s.get("mining", 0.0),
        "mining.examples": n.get("mining.examples", 0),
        "tree_diff.ms": s.get("tree_diff", 0.0),
        "tree_diff.calls": calls.get("tree_diff", 0),
        "tree_diff.ops": n.get("tree_diff.ops", 0),
        "inference.ms": s.get("inference", 0.0),
        "inference.patterns": n.get("inference.patterns", 0),
        "inference.no_relevant_edit": n.get(
            "inference.raised.NoRelevantEdit", 0),
        "matching.ms": s.get("matching", 0.0),
        "matching.anchor.ms": s.get("matching.anchor", 0.0),
        "matching.apply.ms": s.get("matching.apply", 0.0),
        "matching.anchored_share": share(n.get("matching.anchored", 0),
                                         calls.get("matching.anchor", 0)),
        "matching.resolutions": n.get("matching.resolutions", 0),
        "rules.ms": s.get("rules", 0.0),
        "rules.applied": n.get("rules.applied", 0),
        "rules.not_covered": n.get("rules.raised.NotCovered", 0),
        "pipeline.ms": s.get("pipeline", 0.0) + s.get("evaluate", 0.0),
        # whole stages of run_scenario, children included
        "stage.merge.ms": total.get("merge3", 0.0),
        "stage.graphs.ms": sum(total.get(k, 0.0) for k in
                               ("peg", "graph_diff.delta", "graph_diff.cap")),
        "stage.detect.ms": total.get("conflicts", 0.0),
        "stage.resolve.ms": total.get("matching", 0.0) + total.get("rules",
                                                                   0.0),
    }


END_TO_END_UNITS = {"run_rel": "x", "setup_s": "s", "peak_rss_mb": "MB",
                    "conflicts_found": "share", "resolutions_correct": "share",
                    "run_s": "s", "run_cpu_s": "s", "reference_cpu_s": "s"}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("ms"):
        return "ms"
    return "share" if name.endswith("_share") else "count"


def _line(name: str, value: float, extra: str = "") -> None:
    print(f"{name:<28} {value:>14.6g} {unit_of(name):<6}{extra}")


def _relative(p: Pass) -> Optional[float]:
    if p.cpu_s is None or not p.ref_s:
        return None
    return p.cpu_s / p.ref_s


def end_to_end(timed: list[Pass], setups: list[float],
               scores: list[check.Score]) -> dict[str, float]:
    rel = [r for r in map(_relative, timed) if r is not None]
    q1, q3 = _quartiles(rel)
    total = check.Score()
    for s in scores:
        total.add(s)
    produced = sum(total.produced.values())
    metrics = {
        "run_rel": _median(rel),
        "setup_s": _median(setups),
        "peak_rss_mb": _median([p.rss_mb for p in timed
                                if p.rss_mb is not None]),
        "conflicts_found": (total.found / total.expected
                            if total.expected else 0.0),
        "resolutions_correct": (sum(total.correct.values()) / produced
                                if produced else 0.0),
    }
    sq1, sq3 = _quartiles(setups)
    _line("run_rel", metrics["run_rel"],
          f" q1={q1:.6g} q3={q3:.6g} n={len(rel)}")
    _line("setup_s", metrics["setup_s"],
          f" q1={sq1:.6g} q3={sq3:.6g} n={len(setups)}")
    for name in ("peak_rss_mb", "conflicts_found", "resolutions_correct"):
        _line(name, metrics[name])
    return metrics


def per_layer(plain: list[Pass], traced: list[Pass],
              scores: list[check.Score], attempted: int,
              failed: int) -> dict[str, float]:
    rows = [layer_values(p.trace) for p in traced if p.trace is not None]
    metrics = {k: _median([r[k] for r in rows])
               for k in layer_values(NO_TRACE)}
    plain_ms = _median([p.pass_s * 1000 for p in plain
                        if p.pass_s is not None])
    traced_ms = _median([p.pass_s * 1000 for p in traced
                         if p.pass_s is not None])
    metrics["trace.pass_ms"] = traced_ms
    metrics["trace.overhead_ms"] = traced_ms - plain_ms
    metrics["run_s"] = plain_ms / 1000
    metrics["run_cpu_s"] = _median([p.cpu_s for p in plain
                                    if p.cpu_s is not None])
    metrics["reference_cpu_s"] = _median([p.ref_s for p in plain
                                          if p.ref_s is not None])
    metrics["failed_share"] = failed / attempted if attempted else 0.0
    metrics["spurious_conflicts"] = _median([s.spurious for s in scores])
    for strategy in check.STRATEGIES:
        metrics[f"{strategy}_correct"] = _median(
            [s.correct[strategy] for s in scores])
        metrics[f"{strategy}_produced"] = _median(
            [s.produced[strategy] for s in scores])
    for name, value in metrics.items():
        _line(name, value)
    return metrics


# -- running passes ----------------------------------------------------


class Run:
    """The passes of one invocation and everything checked about them."""

    def __init__(self, root: Path, workload, spans_out: Path):
        self.root, self.workload, self.spans_out = root, workload, spans_out
        self.begin = time.monotonic()
        self.setups: list[float] = []
        self.plain: list[Pass] = []
        self.traced: list[Pass] = []
        self.scores: list[check.Score] = []       # timed passes
        self.problems: list[str] = []
        self.digests: set[Optional[str]] = set()
        self.attempted = self.failed = 0

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.begin)

    def _timeout(self) -> float:
        return max(1.0, min(PASS_TIMEOUT_S, self.remaining()))

    def record(self, score: check.Score, timed: bool = True) -> None:
        self.attempted += score.attempted
        self.failed += score.failed
        self.problems += score.failures
        if timed:
            self.scores.append(score)

    def one(self, traced: bool) -> None:
        args = self.workload.args
        if traced:
            self.spans_out.parent.mkdir(exist_ok=True)
            args = (*args, "--trace", self.spans_out)
        p = spawn(self.root, self.workload.mode, args, self._timeout())
        (self.traced if traced else self.plain).append(p)
        if p.setup_s is not None:
            self.setups.append(p.setup_s)
        self.record(self.workload.score(p))
        self.digests.add(_digest(p.output))

    def measure(self, seconds: int, trace: bool) -> None:
        self.record(self.workload.warm_up(self._timeout()), timed=False)
        start = time.monotonic()
        kinds = (False, True) if trace else (False,)
        while self.remaining() > HARD_LIMIT_S - DEADLINE_S:
            done = min(len(self.plain), len(self.traced)) if trace \
                else len(self.plain)
            if time.monotonic() - start >= seconds and done >= MIN_PASSES:
                break
            for traced in kinds:
                self.one(traced)
        while not trace and len(self.setups) < MIN_SETUPS and \
                self.remaining() > HARD_LIMIT_S - DEADLINE_S:
            p = spawn(self.root, "setup", (), self._timeout())
            if p.setup_s is None:
                self.problems.append(p.error or "set-up failed")
                break
            self.setups.append(p.setup_s)
        if len(self.digests) > 1:
            self.problems.append("reports differ between passes")

    def result(self, trace: bool) -> dict:
        if trace:
            missing = next((p.trace["missing"] for p in self.traced
                            if p.trace), [])
            for target in missing:
                print(f"warning: no {target} to trace", file=sys.stderr)
            metrics = per_layer(self.plain, self.traced, self.scores,
                                self.attempted, self.failed)
        else:
            metrics = end_to_end(self.plain, self.setups, self.scores)
        for msg in self.problems[:20]:
            print(f"check failed: {msg}", file=sys.stderr)
        timed = any(p.pass_s is not None for p in self.plain + self.traced)
        return {
            "correct": not self.problems and timed,
            "attempted": max(self.attempted, 1),
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)}
                        for k, v in metrics.items()},
        }


def run(root: Path, workload: str, seed: int, seconds: int,
        trace: bool) -> dict:
    workdir = root / ".bench_work" / str(os.getpid())
    spans_out = root / ".bench_out" / f"spans-{workload}-seed{seed}.json"
    try:
        wl = Corpus(root) if workload == "corpus" else \
            Synthetic(root, workload, seed, workdir)
        r = Run(root, wl, spans_out)
        r.measure(seconds, trace)
        return r.result(trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()      # only when no other run uses it
        except OSError:
            pass


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    for need in ("src/mergeweaver/__init__.py", "corpus/golden_key.json"):
        if not (root / need).is_file():
            print(f"bench: {need} not found; run from the root of a "
                  "mergeweaver checkout", file=sys.stderr)
            return 2
    result = run(root, args.workload, args.seed, args.seconds,
                 bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
