"""Smoke test of ``tools/scaling.py``, which reaches into the merge's
``Scorer``, ``PrintMemo`` and recognized blocks: its column functions run
once on the committed fanout fixture and, with the stage timings of the
run, fill every column of its table but ``ref_ms``, the reference job's
time.  The tool times through the CPU clock ``run_scenario`` already
reads, so it patches nothing."""

import ast
import importlib.util

from conftest import CORPUS, FANOUT, ROOT
from mergeweaver.pipeline import run_scenario

TOOL = ROOT / "tools" / "scaling.py"


def test_the_column_functions_fill_every_column():
    spec = importlib.util.spec_from_file_location("scaling", TOOL)
    scaling = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scaling)
    run = run_scenario(FANOUT / "base", FANOUT / "left", FANOUT / "right")
    columns = {**run.report.timings_ms, **scaling.run_columns(run),
               **scaling.lazy_columns(run), **scaling.diff_columns(run, 1),
               **scaling.front_end_columns(FANOUT, 1),
               "reused/res": scaling.resolve_reads(FANOUT)}
    assert set(scaling.COLUMNS) - set(columns) == {"ref_ms"}
    assert all(value >= 0 for value in columns.values())
    # 607 print-memo reads over the 32 resolutions of 16 conflicts; and
    # over resolutions, not outcomes, where a strategy resolves nothing
    assert columns["reused/res"] == 607 / 32
    assert scaling.resolve_reads(CORPUS / "serialization-service-moved") \
        == 2 / 1


def test_the_tool_imports_no_mock():
    imported = set()
    for node in ast.walk(ast.parse(TOOL.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not [name for name in imported if "mock" in name]
