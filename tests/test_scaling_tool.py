"""``tools/scaling.py`` reads every column from the run's record: one run
of the committed fanout fixture fills every column of its table but
``ref_ms``, the reference job's time, with the counters the record kept.
The tool imports nothing private from mergeweaver, patches nothing, and
runs no layer of the pipeline but through ``run_scenario``."""

import ast
import importlib.util

from conftest import CORPUS, FANOUT, ROOT
from mergeweaver.pipeline import run_scenario

TOOL = ROOT / "tools" / "scaling.py"

# the layers of the pipeline, which the tool runs only through run_scenario
STAGE_FUNCTIONS = {
    "merge_scenario", "parse_versions", "merge_texts", "merge_file",
    "parse_unit", "scan", "token_texts", "build_peg", "build_fourway",
    "diff_graphs", "match_graphs", "detect_conflicts", "mine_examples",
    "diff_trees", "infer_pattern", "match_context", "apply_pattern",
    "resolve_by_example", "resolve_by_rule"}


def _load_tool():
    spec = importlib.util.spec_from_file_location("scaling", TOOL)
    scaling = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scaling)
    return scaling


def _columns(scaling, scenario):
    run = run_scenario(scenario / "base", scenario / "left",
                       scenario / "right")
    return {**scaling.record_columns(run), **scaling.lazy_columns(run)}


def test_the_column_functions_fill_every_column():
    scaling = _load_tool()
    columns = _columns(scaling, FANOUT)
    assert set(scaling.COLUMNS) - set(columns) == {"ref_ms"}
    assert all(value >= 0 for value in columns.values())
    # the parent's cells at seed 1, where a second run counted them
    assert {col: columns[col] for col in ("pairs", "printed", "reused",
                                          "named", "deferred")} \
        == {"pairs": 48, "printed": 456, "reused": 667, "named": 5,
            "deferred": 0}
    # 607 print-memo reads over the 32 resolutions of 16 conflicts; and
    # over resolutions, not outcomes, where a strategy resolves nothing
    assert columns["reused/res"] == 607 / 32
    assert _columns(scaling, CORPUS / "serialization-service-moved")[
        "reused/res"] == 2 / 1


def test_the_tool_imports_no_mock():
    imported = set()
    for node in ast.walk(ast.parse(TOOL.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not [name for name in imported if "mock" in name]


def test_the_tool_imports_nothing_private_and_runs_no_layer_itself():
    tree = ast.parse(TOOL.read_text())
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").startswith("mergeweaver")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
    called = {node.func.id if isinstance(node.func, ast.Name)
              else getattr(node.func, "attr", None)
              for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert called & STAGE_FUNCTIONS == set()
    assert "run_scenario" in called
