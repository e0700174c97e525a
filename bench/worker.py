"""One pass of a benchmark workload, in a fresh interpreter.

run.py starts this script once per pass::

    python3 -s bench/worker.py ROOT MODE [WORKDIR] [--trace SPANS_OUT]

ROOT is the checkout; mergeweaver is imported from ROOT/src and nowhere
else.  The first statements do that import and read the clock, so the
parent can take set-up time as "process started" to "import done" on the
same system-wide monotonic clock.  MODE is

* ``setup``: import only;
* ``scenario``: ``run_scenario`` on WORKDIR/{base,left,right};
* ``corpus``: ``evaluate_corpus`` on ROOT/corpus, then every control;
* ``corpus-runs``: ``run_scenario`` on every corpus scenario and control,
  keeping the resolution texts for the independent verdict check.

The pass is timed from trees on disk to the serialized report, in wall
and in CPU seconds, and the fixed reference job of bench/calib.py is timed
right before and right after it.  The last line of standard output is one
JSON object.  An exception in the program is reported in it, never raised.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(sys.argv[1], "src"))
import mergeweaver  # noqa: E402

IMPORTED_AT = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# called through their modules, so the traced pass sees the wrappers
from mergeweaver import evaluate, pipeline  # noqa: E402


def _peak_rss_kb() -> int:
    """High-water resident set of this process image.  On Linux ru_maxrss of
    a spawned child already holds its parent's peak, so read VmHWM."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _error(exc: BaseException) -> str:
    last = traceback.extract_tb(exc.__traceback__)[-1:]
    where = f" at {last[0].filename}:{last[0].lineno}" if last else ""
    return f"{type(exc).__name__}: {exc}{where}"


def _run(scenario_dir: Path, name: str) -> tuple[dict, list[str]]:
    run = pipeline.run_scenario(scenario_dir / "base",
                                scenario_dir / "left",
                                scenario_dir / "right", scenario_id=name)
    report = pipeline.report_to_dict(run.report, include_timing=False)
    json.dumps(report, sort_keys=True)          # the user gets bytes
    return report, [r.text for r in run.report.resolutions]


def _controls(corpus: Path, keep_texts: bool) -> dict:
    out: dict = {}
    for ctl in evaluate.scenario_dirs(corpus / "controls"):
        try:
            report, texts = _run(ctl, ctl.name)
            out[ctl.name] = ({"report": report, "texts": texts}
                             if keep_texts else report)
        except Exception as exc:  # scored as a failed scenario run
            out[ctl.name] = _error(exc)
    return out


def one_pass(root: Path, mode: str, workdir: Path) -> dict:
    corpus = root / "corpus"
    if mode == "scenario":
        try:
            report, texts = _run(workdir, workdir.name)
        except Exception as exc:
            return {"error": _error(exc)}
        return {"report": report, "texts": texts}
    if mode == "corpus":
        out: dict = {"summary": None, "error": None}
        try:
            out["summary"] = evaluate.summary_to_dict(
                evaluate.evaluate_corpus(corpus))
            json.dumps(out["summary"], sort_keys=True)
        except Exception as exc:
            out["error"] = _error(exc)
        out["controls"] = _controls(corpus, keep_texts=False)
        return out
    if mode == "corpus-runs":
        runs: dict = {}
        for sdir in evaluate.scenario_dirs(corpus):
            try:
                report, texts = _run(sdir, sdir.name)
                runs[sdir.name] = {"report": report, "texts": texts}
            except Exception as exc:
                runs[sdir.name] = _error(exc)
        return {"runs": runs, "controls": _controls(corpus, keep_texts=True)}
    raise SystemExit(f"unknown mode {mode}")


def main(argv: list[str]) -> int:
    root = Path(argv[1]).resolve()
    mode = argv[2]
    rest = argv[3:]
    spans_out = None
    if "--trace" in rest:
        i = rest.index("--trace")
        spans_out = rest[i + 1]
        del rest[i:i + 2]
    workdir = Path(rest[0]) if rest else root

    src = (root / "src").resolve()
    if src not in Path(mergeweaver.__file__).resolve().parents:
        print(f"mergeweaver imported from {mergeweaver.__file__}, "
              f"not {src}", file=sys.stderr)
        return 2
    result: dict = {"imported_at": IMPORTED_AT}
    if mode != "setup":
        tr = None
        if spans_out is not None:
            import tracer
            tr = tracer.install()
        import calib
        calib.warm_up()
        ref_before = calib.reference_cpu_s()
        t0, c0 = time.perf_counter(), time.process_time()
        result["output"] = one_pass(root, mode, workdir)
        result["pass_s"] = time.perf_counter() - t0
        result["pass_cpu_s"] = time.process_time() - c0
        result["ref_cpu_s"] = (ref_before + calib.reference_cpu_s()) / 2
        if tr is not None:
            result["trace"] = tr.summary()
            tr.write_spans(spans_out)
    result["maxrss_kb"] = _peak_rss_kb()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
