"""End-to-end driver: merge, build graphs, detect, resolve, report."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from .conflicts import Conflict, detect_conflicts
from .graph_diff import FourWayGraph, build_fourway
from .matching import Outcome, Resolution, resolve_by_example
from .merge3 import MergeScenario, merge_scenario
from .rules import resolve_by_rule


# the layers of a run's Record that make each stage of Report.timings_ms
STAGES = {"merge": ("read", "merge", "parse"),
          "graphs": ("graph.base", "graph.left", "graph.right",
                     "graph.merged", "delta.left", "delta.right",
                     "cap.left", "cap.right"),
          "detect": ("detect",),
          "resolve": ("mine", "infer", "anchor", "apply", "rules")}


@dataclass
class Report:
    scenario: str
    conflicts: list[Conflict] = field(default_factory=list)
    outcomes: list[Outcome] = field(default_factory=list)
    # CPU milliseconds of each stage and of the whole run (see STAGES)
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
    scenario = merge_scenario(base_dir, left_dir, right_dir)
    fw = build_fourway(scenario)
    record, memo = scenario.record, fw.scorer.print_memo
    conflicts = detect_conflicts(fw)
    record.lap("detect")
    record.counts["reused.pre_resolve"] = memo.reused
    outcomes = []
    for conflict in conflicts:
        outcomes.append(resolve_by_example(fw, conflict, scenario))
        outcomes.append(resolve_by_rule(fw, conflict, scenario))
        record.lap("rules")
    report = Report(scenario=name, conflicts=conflicts, outcomes=outcomes)
    record.counts.update(
        pairs=fw.scorer.scored, printed=memo.printed, reused=memo.reused,
        resolutions=len(report.resolutions), named=len(fw.named),
        # every version holds the units whose bodies it deferred
        deferred=len(fw.base.deferred))
    report.timings_ms = {stage: sum(record.ms.get(layer, 0.0)
                                    for layer in layers)
                         for stage, layers in STAGES.items()}
    report.timings_ms["total"] = sum(record.ms.values())
    return ScenarioRun(report=report, scenario=scenario, fourway=fw)


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
