"""End-to-end driver: merge, build graphs, detect, resolve, report."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from .conflicts import Conflict, detect_conflicts
from .graph_diff import FourWayGraph, build_fourway
from .matching import Outcome, Resolution, resolve_by_example
from .merge3 import MergeScenario, merge_scenario
from .rules import resolve_by_rule


@dataclass
class Report:
    scenario: str
    conflicts: list[Conflict] = field(default_factory=list)
    outcomes: list[Outcome] = field(default_factory=list)
    # CPU milliseconds of each stage and of the whole run
    timings_ms: dict[str, float] = field(default_factory=dict)

    @property
    def resolutions(self) -> list[Resolution]:
        """The resolutions of the outcomes, in their order."""
        return [o.resolution for o in self.outcomes if o.resolution]


@dataclass
class ScenarioRun:
    report: Report
    scenario: MergeScenario
    fourway: FourWayGraph


def run_scenario(base_dir: Union[str, Path], left_dir: Union[str, Path],
                 right_dir: Union[str, Path],
                 scenario_id: Optional[str] = None) -> ScenarioRun:
    """Run the full pipeline on three source trees.

    Propagates TextualConflict when diff3 cannot produce a merged body,
    ParseError or UnreadableSource when a source does not parse or cannot
    be read, and DuplicateEntity when a version declares an entity twice.
    """
    name = scenario_id or Path(base_dir).resolve().parent.name
    timings: dict[str, float] = {}

    t0 = time.process_time()
    scenario = merge_scenario(base_dir, left_dir, right_dir)
    t1 = time.process_time()
    timings["merge"] = (t1 - t0) * 1000.0

    fw = build_fourway(scenario)
    t2 = time.process_time()
    timings["graphs"] = (t2 - t1) * 1000.0

    conflicts = detect_conflicts(fw)
    t3 = time.process_time()
    timings["detect"] = (t3 - t2) * 1000.0

    outcomes = resolve_conflicts(fw, conflicts, scenario)
    t4 = time.process_time()
    timings["resolve"] = (t4 - t3) * 1000.0
    timings["total"] = (t4 - t0) * 1000.0

    report = Report(scenario=name, conflicts=conflicts,
                    outcomes=outcomes, timings_ms=timings)
    return ScenarioRun(report=report, scenario=scenario, fourway=fw)


def resolve_conflicts(fw: FourWayGraph, conflicts: list[Conflict],
                      scenario: MergeScenario) -> list[Outcome]:
    """The resolve stage: each conflict's outcome by example, then by
    rule."""
    return [outcome for conflict in conflicts
            for outcome in (resolve_by_example(fw, conflict, scenario),
                            resolve_by_rule(fw, conflict, scenario))]


def report_to_dict(report: Report, include_timing: bool = True) -> dict:
    index = {id(c): i for i, c in enumerate(report.conflicts)}
    out: dict = {
        "scenario": report.scenario,
        "conflicts": [
            {
                "type": c.type,
                "subject": c.subject,
                "branchOfDef": c.branch_of_def,
                "using": c.using_fqn,
                "sites": [
                    {"entity": s.entity, "file": s.file,
                     "span": list(s.span)}
                    for s in c.sites
                ],
            }
            for c in report.conflicts
        ],
        "resolutions": [
            {
                "conflict": index.get(id(r.conflict), -1),
                "strategy": r.strategy,
                "path": r.path,
                "partial": r.partial,
                "rank": r.rank,
                "sourceHost": r.source_host,
                "sigma": r.sigma,
                "exact": r.exact,
                "rule": r.rule,
            }
            for r in report.resolutions
        ],
    }
    if include_timing:
        out["timingMs"] = {k: round(v, 3)
                           for k, v in report.timings_ms.items()}
    return out
