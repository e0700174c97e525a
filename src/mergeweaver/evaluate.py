"""Corpus evaluation: detection coverage and resolution accuracy.

A corpus directory holds one subdirectory per merge scenario, each with
base/, left/, right/ and expected/ source trees, plus a golden_key.json
mapping scenario names to the conflicts a reviewer expects and the
hand-assigned verdict for each strategy ("correct", "incorrect", or null
when the strategy produces nothing).

A produced resolution counts as correct when its rewritten file is
token-identical to the counterpart under expected/.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from .merge3 import UnreadableSource, _read_text
from .parser import ParseError, token_texts
from .pipeline import ScenarioRun, run_scenario

STRATEGIES = ("example", "rule")


_CONFLICT_TYPE = re.compile(r"C[0-9]+")


class MissingGolden(Exception):
    """The corpus has no usable golden entry for a scenario: no key at all,
    a key that is not UTF-8 JSON of the documented shape, or no entry."""


@dataclass
class ScenarioResult:
    scenario: str
    expected: list[tuple[str, str]]          # (type, subject)
    detected: list[tuple[str, str]]
    covered: int                             # expected conflicts found
    verdicts: dict[str, Optional[str]] = field(default_factory=dict)


@dataclass
class EvalSummary:
    coverage: float
    accuracy: float
    per_strategy: dict[str, dict[str, int]]
    per_type: dict[str, dict[str, int]]
    scenarios: list[ScenarioResult] = field(default_factory=list)


def _verdict(run: ScenarioRun, strategy: str,
             expected_dir: Path) -> Optional[str]:
    produced = [r for r in run.report.resolutions if r.strategy == strategy]
    if not produced:
        return None
    for res in produced:
        want = expected_dir / res.path
        if not want.is_file():
            return "incorrect"
        try:    # read and scanned as a source is, named in any error
            expected = token_texts(_read_text(str(want)))
        except ParseError as exc:
            raise ParseError(str(want), exc.line, exc.col,
                             exc.message) from None
        if token_texts(res.text) != expected:
            return "incorrect"
    if len(produced) < len(run.report.conflicts):
        return "incorrect"
    return "correct"


def scenario_dirs(corpus_dir: Union[str, Path]) -> list[Path]:
    root = Path(corpus_dir)
    return sorted(p for p in root.iterdir()
                  if p.is_dir() and (p / "base").is_dir())


def evaluate_scenario(scenario_dir: Path,
                      golden: dict) -> ScenarioResult:
    run = run_scenario(scenario_dir / "base", scenario_dir / "left",
                       scenario_dir / "right",
                       scenario_id=scenario_dir.name)
    expected = [(c["type"], c["subject"]) for c in golden["conflicts"]]
    detected = [(c.type, c.subject) for c in run.report.conflicts]
    remaining = list(detected)
    covered = 0
    for want in expected:
        if want in remaining:
            remaining.remove(want)
            covered += 1
    verdicts = {s: _verdict(run, s, scenario_dir / "expected")
                for s in STRATEGIES}
    return ScenarioResult(scenario=scenario_dir.name, expected=expected,
                          detected=detected, covered=covered,
                          verdicts=verdicts)


def _load_key(key_path: Path) -> dict:
    # read as a source is, so a FIFO or a device is refused at once
    try:
        key = json.loads(_read_text(str(key_path)))
    except UnreadableSource as exc:
        raise MissingGolden(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise MissingGolden(f"{key_path}: not valid JSON ({exc})") from exc
    if not isinstance(key, dict):
        raise MissingGolden(f"{key_path}: expected an object mapping "
                            f"scenario names to entries, found "
                            f"{type(key).__name__}")
    return key


def _is_golden_conflict(item) -> bool:
    return (isinstance(item, dict) and isinstance(item.get("subject"), str)
            and isinstance(item.get("type"), str)
            and _CONFLICT_TYPE.fullmatch(item["type"]) is not None)


def _golden_entry(key: dict, key_path: Path, name: str) -> dict:
    golden = key.get(name)
    if golden is None:
        raise MissingGolden(f"no golden entry for {name}")
    conflicts = golden.get("conflicts") if isinstance(golden, dict) else None
    if not isinstance(conflicts, list) \
            or not all(_is_golden_conflict(c) for c in conflicts):
        raise MissingGolden(
            f"{key_path}: entry {name!r} needs a \"conflicts\" list of "
            f"{{\"type\": \"C<n>\", \"subject\": <string>}} objects")
    return golden


def evaluate_corpus(corpus_dir: Union[str, Path]) -> EvalSummary:
    root = Path(corpus_dir)
    key_path = root / "golden_key.json"
    key = _load_key(key_path)
    # check every entry in use before running any scenario
    entries = [(sdir, _golden_entry(key, key_path, sdir.name))
               for sdir in scenario_dirs(root)]

    results = [evaluate_scenario(sdir, golden) for sdir, golden in entries]

    total_expected = sum(len(r.expected) for r in results)
    total_covered = sum(r.covered for r in results)

    per_strategy = {s: {"produced": 0, "correct": 0} for s in STRATEGIES}
    per_type: dict[str, dict[str, int]] = {}
    for r in results:
        resolved_here = any(v is not None for v in r.verdicts.values())
        correct_here = any(v == "correct" for v in r.verdicts.values())
        for code, _subject in r.expected:
            row = per_type.setdefault(
                code, {"expected": 0, "detected": 0, "resolved": 0,
                       "correct": 0})
            row["expected"] += 1
            row["resolved"] += int(resolved_here)
            row["correct"] += int(correct_here)
        remaining = list(r.expected)
        for det in r.detected:
            if det in remaining:
                remaining.remove(det)
                per_type[det[0]]["detected"] += 1
        for s in STRATEGIES:
            if r.verdicts[s] is not None:
                per_strategy[s]["produced"] += 1
            if r.verdicts[s] == "correct":
                per_strategy[s]["correct"] += 1

    produced = sum(v["produced"] for v in per_strategy.values())
    correct = sum(v["correct"] for v in per_strategy.values())
    return EvalSummary(
        coverage=total_covered / total_expected if total_expected else 1.0,
        accuracy=correct / produced if produced else 0.0,
        per_strategy=per_strategy,
        per_type=per_type,
        scenarios=results,
    )


def summary_to_dict(summary: EvalSummary) -> dict:
    return {
        "coverage": round(summary.coverage, 4),
        "accuracy": round(summary.accuracy, 4),
        "perStrategy": summary.per_strategy,
        "perType": {k: summary.per_type[k]
                    for k in sorted(summary.per_type,
                                    key=lambda c: int(c[1:]))},
        "scenarios": [
            {
                "scenario": r.scenario,
                "expected": [list(t) for t in r.expected],
                "detected": [list(t) for t in r.detected],
                "covered": r.covered,
                "verdicts": r.verdicts,
            }
            for r in summary.scenarios
        ],
    }
