"""Output checks that do not rely on mergeweaver's own code.

Resolutions are compared token by token with a small Java tokenizer of
the benchmark's own, so a change to mergeweaver's printer or tokenizer
cannot make a wrong resolution look right.  Synthetic workloads are scored
against the generator's reference; the corpus against ``golden_key.json``
and its ``expected/`` trees.

Each scoring function returns a ``Score``: counts for the quality metrics
and, per scenario run, whether it failed the reference check and why.
Resolution quality is a measured figure, not a pass/fail gate, exactly as
the corpus key records incorrect verdicts; a run fails when it raises,
reports other conflicts than the reference lists, leaves a conflict
without a resolution from a strategy the reference requires, or (corpus)
departs from a golden verdict.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

STRATEGIES = ("example", "rule")

_TOKEN = re.compile(r"""
      (?P<skip> \s+ | //[^\n]* | /\*.*?\*/ )
    | (?P<tok>
          "(?:\\.|[^"\\\n])*" | '(?:\\.|[^'\\\n])*'
        | [A-Za-z_$][A-Za-z0-9_$]*
        | \d[A-Za-z0-9_.]*
        | >>>= | <<= | >>= | >>> | \.\.\. | -> | :: | \+\+ | -- | && | \|\|
        | [=!<>+\-*/%&|^]=
        | \S )
""", re.S | re.X)


def tokens(text: str) -> list[str]:
    """Java token texts, with whitespace and comments dropped."""
    return [m.group("tok") for m in _TOKEN.finditer(text)
            if m.lastgroup == "tok"]


@dataclass
class Score:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    expected: int = 0          # conflicts the reference lists
    found: int = 0             # of those, detected
    spurious: int = 0          # detected, listed nowhere
    produced: dict[str, int] = field(
        default_factory=lambda: {s: 0 for s in STRATEGIES})
    correct: dict[str, int] = field(
        default_factory=lambda: {s: 0 for s in STRATEGIES})

    def fail(self, scenario: str, reason: str) -> None:
        self.failures.append(f"{scenario}: {reason}")

    @property
    def failed(self) -> int:
        return len({f.split(":", 1)[0] for f in self.failures})

    def add(self, other: "Score") -> None:
        self.attempted += other.attempted
        self.failures += other.failures
        self.expected += other.expected
        self.found += other.found
        self.spurious += other.spurious
        for s in STRATEGIES:
            self.produced[s] += other.produced[s]
            self.correct[s] += other.correct[s]


def _match_conflicts(expected: list[tuple[str, str]],
                     detected: list[tuple[str, str]]) -> tuple[int, int]:
    """(expected ones detected, detected ones not expected)."""
    remaining = list(detected)
    found = 0
    for want in expected:
        if want in remaining:
            remaining.remove(want)
            found += 1
    return found, len(remaining)


def score_synthetic(reference: dict, output: Optional[dict],
                    error: Optional[str] = None) -> Score:
    """Score one pass of a generated workload.

    ``output`` holds the report (``report_to_dict`` without timings) and
    the text of each resolution in report order.
    """
    name = reference["workload"]
    score = Score(attempted=1)
    want = reference["conflicts"]
    score.expected = len(want)
    if output is None:
        score.fail(name, f"raised {error}")
        return score
    report = output["report"]
    detected = [(c["type"], c["subject"]) for c in report["conflicts"]]
    score.found, score.spurious = _match_conflicts(
        [(c["type"], c["subject"]) for c in want], detected)
    if score.found != len(want) or score.spurious:
        score.fail(name, f"detected {detected}")
    by_subject = {(c["type"], c["subject"]): c for c in want}
    produced_for: set[tuple[int, str]] = set()
    for res, text in zip(report["resolutions"], output["texts"]):
        strategy = res["strategy"]
        conflict = report["conflicts"][res["conflict"]]
        ref = by_subject.get((conflict["type"], conflict["subject"]))
        score.produced[strategy] += 1
        produced_for.add((res["conflict"], strategy))
        if ref is None:
            continue
        if res["path"] != ref["path"]:
            score.fail(name, f"{strategy} resolution rewrote {res['path']}")
        elif tokens(text) == tokens(ref["text"]):
            score.correct[strategy] += 1
    for i, conflict in enumerate(report["conflicts"]):
        ref = by_subject.get((conflict["type"], conflict["subject"]))
        for strategy in (ref or {}).get("strategies", ()):
            if (i, strategy) not in produced_for:
                score.fail(name, f"no {strategy} resolution for "
                                 f"{conflict['subject']}")
    return score


def load_golden(corpus: Path) -> dict:
    return json.loads((Path(corpus) / "golden_key.json").read_text())


def _golden_conflicts(entry: dict) -> list[tuple[str, str]]:
    return [(c["type"], c["subject"]) for c in entry["conflicts"]]


def score_controls(controls: dict) -> Score:
    """``controls`` maps control name to its report or an error string."""
    score = Score()
    for name, report in sorted(controls.items()):
        score.attempted += 1
        if isinstance(report, str):
            score.fail(name, f"raised {report}")
            continue
        if report["conflicts"]:
            score.spurious += len(report["conflicts"])
            score.fail(name, f"{len(report['conflicts'])} conflicts on a "
                             "control")
    return score


def score_corpus(golden: dict, summary: Optional[dict], controls: dict,
                 error: Optional[str] = None) -> Score:
    """Score one timed corpus pass: the ``summary_to_dict`` output of
    ``evaluate_corpus`` must reproduce every golden conflict and verdict,
    and no control may report a conflict."""
    score = Score(attempted=len(golden))
    score.expected = sum(len(g["conflicts"]) for g in golden.values())
    if summary is None:
        for name in golden:
            score.fail(name, f"evaluate_corpus raised {error}")
    else:
        seen = set()
        for row in summary["scenarios"]:
            name = row["scenario"]
            seen.add(name)
            entry = golden.get(name)
            if entry is None:
                score.fail(name, "not in golden key")
                continue
            detected = [tuple(d) for d in row["detected"]]
            found, spurious = _match_conflicts(_golden_conflicts(entry),
                                               detected)
            score.found += found
            score.spurious += spurious
            if found != len(entry["conflicts"]) or spurious:
                score.fail(name, f"detected {detected}")
            for s in STRATEGIES:
                verdict = row["verdicts"].get(s)
                score.produced[s] += verdict is not None
                score.correct[s] += verdict == "correct"
                if verdict != entry[s]:
                    score.fail(name, f"{s} verdict {verdict}, golden "
                                     f"{entry[s]}")
        for name in sorted(set(golden) - seen):
            score.fail(name, "not evaluated")
    score.add(score_controls(controls))
    return score


def verify_corpus(golden: dict, corpus: Path, runs: dict) -> Score:
    """Re-derive every corpus verdict from the resolutions themselves.

    ``runs`` maps scenario name to ``{"report": ..., "texts": [...]}`` from
    ``run_scenario`` (or an error string).  A strategy's verdict is correct
    when each of its resolutions is token-equal to the file under
    expected/ and it resolved every reported conflict, the rule the golden
    key was scored by.
    """
    score = Score()
    for name, entry in sorted(golden.items()):
        score.attempted += 1
        run = runs.get(name)
        if not isinstance(run, dict):
            score.fail(name, f"raised {run}")
            continue
        report = run["report"]
        detected = [(c["type"], c["subject"]) for c in report["conflicts"]]
        found, spurious = _match_conflicts(_golden_conflicts(entry), detected)
        if found != len(entry["conflicts"]) or spurious:
            score.fail(name, f"detected {detected}")
        for s in STRATEGIES:
            produced = [(r, t) for r, t in zip(report["resolutions"],
                                               run["texts"])
                        if r["strategy"] == s]
            if not produced:
                verdict = None
            else:
                verdict = "correct"
                for res, text in produced:
                    want = Path(corpus) / name / "expected" / res["path"]
                    if not want.is_file() or \
                            tokens(text) != tokens(want.read_text()):
                        verdict = "incorrect"
                if len(produced) < len(report["conflicts"]):
                    verdict = "incorrect"
            if verdict != entry[s]:
                score.fail(name, f"{s} resolutions score {verdict}, golden "
                                 f"{entry[s]}")
    return score
