"""Build-conflict detection and resolution for three-way source merges."""

from .conflicts import Conflict, ConflictSite, detect_conflicts
from .evaluate import EvalSummary, MissingGolden, evaluate_corpus
from .graph_diff import FourWayGraph, GraphDelta, build_fourway, diff_graphs
from .matching import MatchSet, Outcome, Resolution, resolve_by_example
from .merge3 import (MergeScenario, TextualConflict, UnreadableSource,
                     merge_scenario)
from .mining import EditExample, mine_examples
from .inference import TransformationPattern, infer_pattern
from .parser import ParseError, parse_unit
from .peg import DuplicateEntity, Entity, EntityGraph, Relation, build_peg
from .pipeline import Report, ScenarioRun, run_scenario
from .printer import pretty_print
from .rules import resolve_by_rule
from .tree_diff import EditOp, EditScript, apply_op, apply_script, diff_trees

__version__ = "0.1.0"

__all__ = [
    "Conflict", "ConflictSite", "detect_conflicts",
    "EvalSummary", "MissingGolden", "evaluate_corpus",
    "FourWayGraph", "GraphDelta", "build_fourway", "diff_graphs",
    "MatchSet", "Outcome", "Resolution", "resolve_by_example",
    "MergeScenario", "TextualConflict", "UnreadableSource", "merge_scenario",
    "EditExample", "mine_examples",
    "TransformationPattern", "infer_pattern",
    "ParseError", "parse_unit",
    "DuplicateEntity", "Entity", "EntityGraph", "Relation", "build_peg",
    "Report", "ScenarioRun", "run_scenario",
    "pretty_print",
    "resolve_by_rule",
    "EditOp", "EditScript", "apply_op", "apply_script", "diff_trees",
    "__version__",
]
