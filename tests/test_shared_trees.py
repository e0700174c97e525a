"""Parsed trees shared across versions stay untouched by resolution.

merge_scenario parses a file whose text is the same in several versions
once and hands every version the same SourceFile.  Both resolution
strategies must therefore edit clones only: after running them on every
corpus scenario, every tree of all four versions prints, and is laid out,
exactly as before.
"""

from conftest import CORPUS
from mergeweaver.conflicts import detect_conflicts
from mergeweaver.evaluate import scenario_dirs
from mergeweaver.graph_diff import build_fourway
from mergeweaver.matching import resolve_by_example
from mergeweaver.merge3 import merge_scenario
from mergeweaver.printer import pretty_print
from mergeweaver.rules import NotCovered, TargetMissing, resolve_by_rule

VERSIONS = ("base", "left", "right", "am")


def _fingerprint(scenario) -> dict:
    out = {}
    for version in VERSIONS:
        for path, sf in getattr(scenario, version).items():
            layout = [(n.id, n.kind, n.value, n.span)
                      for n in sf.tree.root.walk()]
            out[version, path] = (pretty_print(sf.tree), layout)
    return out


def _all_scenarios():
    return scenario_dirs(CORPUS) + scenario_dirs(CORPUS / "controls")


def test_resolution_leaves_every_parsed_tree_unchanged():
    resolved = 0
    for sdir in _all_scenarios():
        scenario = merge_scenario(sdir / "base", sdir / "left",
                                  sdir / "right")
        before = _fingerprint(scenario)
        fw = build_fourway(scenario)
        for conflict in detect_conflicts(fw):
            if resolve_by_example(fw, conflict, scenario) is not None:
                resolved += 1
            try:
                resolve_by_rule(fw, conflict, scenario)
                resolved += 1
            except (NotCovered, TargetMissing):
                pass
        assert _fingerprint(scenario) == before, sdir.name
    assert resolved > 40            # the strategies really ran


def test_untouched_file_is_one_shared_object():
    d = CORPUS / "tax-c01"          # neither branch touches Painter.java
    scenario = merge_scenario(d / "base", d / "left", d / "right")
    painter = scenario.base["Painter.java"]
    assert all(getattr(scenario, v)["Painter.java"] is painter
               for v in VERSIONS)
    for path in scenario.am:
        texts = {getattr(scenario, v)[path].text for v in VERSIONS
                 if path in getattr(scenario, v)}
        ids = {id(getattr(scenario, v)[path]) for v in VERSIONS
               if path in getattr(scenario, v)}
        assert len(ids) == len(texts), path    # one object per distinct text
