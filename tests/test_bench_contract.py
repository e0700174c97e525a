"""The benchmark's contract with the program.

``bench/tracer.py`` wraps the functions its ``TARGETS`` name, skipping
any the program no longer has so that its layer reads zero.  A change to
``src/`` that renames or drops one of them breaks the benchmark without
failing a test of the program, so this test checks that every target
resolves.  The tracer is read with ``ast``, never installed: ``install``
patches the imported modules for the rest of the process.  The calls
``bench/worker.py`` makes are pinned by the snapshot tests, which make
the same ones.
"""

import ast
import importlib

from conftest import ROOT

TRACER = ROOT / "bench" / "tracer.py"

# a target that the program lost before this test was written; the
# tracer records it as missing and its similarity layer reads zero
STALE_TARGETS = {("similarity", "trigram_similarity")}


def _tracer_targets() -> list:
    tree = ast.parse(TRACER.read_text())
    value = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets
                      if isinstance(t, ast.Name)] == ["TARGETS"])
    return [(entry.elts[0].value, entry.elts[1].value)
            for entry in value.elts]


def test_every_tracer_target_resolves():
    targets = _tracer_targets()
    assert ("pipeline", "run_scenario") in targets
    missing = {(module, attr) for module, attr in targets
               if not hasattr(importlib.import_module(f"mergeweaver.{module}"),
                              attr)}
    assert missing <= STALE_TARGETS, sorted(missing - STALE_TARGETS)
