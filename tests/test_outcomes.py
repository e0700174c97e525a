"""Strategy outcomes: each strategy returns one Outcome per conflict, the
resolution or the code of why there is none.

The corpus histogram is pinned here; the codes the corpus never yields
each get one small input: a three-tree scenario where Lib.g is renamed to
h on the left while the right adds a call to g, or a doctored conflict.
Two codes are pinned with the fixtures that already make them:
``target-missing`` of the rule strategy by ``test_rules``' stale-site
conflict, ``malformed-result`` by ``test_cli``'s partly applied Meter
pattern.
"""

import dataclasses
from collections import Counter

import pytest

from conftest import CORPUS, run_corpus
from mergeweaver.evaluate import scenario_dirs
from mergeweaver.matching import resolve_by_example
from mergeweaver.pipeline import run_scenario
from mergeweaver.rules import resolve_by_rule


def _check(run) -> None:
    report = run.report
    assert len(report.outcomes) == 2 * len(report.conflicts)
    assert [(id(o.conflict), o.strategy) for o in report.outcomes] \
        == [(id(c), strategy) for c in report.conflicts
            for strategy in ("example", "rule")]
    for o in report.outcomes:
        assert (o.reason == "resolved") == (o.resolution is not None)
        assert o.strategy == "example" or o.patterns == []
    assert report.resolutions == [o.resolution for o in report.outcomes
                                  if o.resolution is not None]


def test_corpus_outcomes():
    reasons = Counter()
    for sdir in scenario_dirs(CORPUS):
        run = run_corpus(sdir.name)
        _check(run)
        reasons.update((o.strategy, o.reason) for o in run.report.outcomes)
    assert reasons == {("example", "resolved"): 11,
                       ("example", "no-example"): 32,
                       ("rule", "resolved"): 33,
                       ("rule", "not-covered"): 10}
    for sdir in scenario_dirs(CORPUS / "controls"):
        run = run_scenario(sdir / "base", sdir / "left", sdir / "right")
        assert run.report.outcomes == []


LIB = "public class Lib {\n    public int %s(int x) {\n        return x;\n" \
      "    }\n}\n"


def _run(tmp_path, host_base: str, host_left: str, use_right: str):
    """Lib.g renamed to h on the left, which rewrites Host.a from
    host_base to host_left; the right adds use_right, a member calling g,
    to Use."""
    legs = {"base": ("g", host_base, ""), "left": ("h", host_left, ""),
            "right": ("g", host_base, use_right)}
    for leg, (name, host, use) in legs.items():
        d = tmp_path / leg
        d.mkdir()
        (d / "Lib.java").write_text(LIB % name)
        for cls, body in (("Host", f"    int a() {{\n{host}    }}\n"),
                          ("Use", use)):
            (d / f"{cls}.java").write_text(
                f"public class {cls} extends Lib {{\n{body}}}\n")
    run = run_scenario(tmp_path / "base", tmp_path / "left",
                       tmp_path / "right")
    _check(run)
    return run


CALL = "        registerSerializer(g(1));\n"
ADAPTED = "        registerSerializer(h(1));\n"


@pytest.mark.parametrize("host_base, host_left, use_right, reason", [
    # the host gains a call to h but keeps its call to g: no op of the
    # example touches a use of g
    ("        return g(1);\n",
     "        int k = h(2);\n        return g(1);\n",
     "    int b() {\n        return g(3);\n    }\n", "no-relevant-edit"),
    # the one statement of b has the pattern statement's kind, so it
    # scores the kind point, but too little of its text
    (CALL, ADAPTED,
     "    void b() {\n        System.out.println(g(3));\n    }\n",
     "no-anchor(best=1.000)"),
    # b's statement anchors, but as an assignment: the call the rename
    # rewrites has no partner in it
    (CALL, ADAPTED,
     "    void b() {\n        result = registerSerializer(g(1));\n    }\n",
     "no-op-applied"),
], ids=["no-relevant-edit", "no-anchor", "no-op-applied"])
def test_each_stage_names_why_no_example_resolves(tmp_path, host_base,
                                                  host_left, use_right,
                                                  reason):
    run = _run(tmp_path, host_base, host_left, use_right)
    example, rule = run.report.outcomes
    assert run.report.conflicts[0].type == "C15"
    assert example.reason == reason
    assert [p.example.host for p in example.patterns] \
        == ([] if reason == "no-relevant-edit" else ["Host.a()"])
    assert rule.reason == "resolved"


def test_doctored_conflicts_name_what_is_missing():
    run = run_corpus("serializer-rename")
    (conflict,) = run.report.conflicts
    no_user = dataclasses.replace(conflict, using_am=None)
    assert resolve_by_example(run.fourway, no_user,
                              run.scenario).reason == "no-using-entity"
    elsewhere = dataclasses.replace(conflict, sites=[
        dataclasses.replace(s, file="Nowhere.java") for s in conflict.sites])
    for resolve in (resolve_by_example, resolve_by_rule):
        outcome = resolve(run.fourway, elsewhere, run.scenario)
        assert (outcome.reason, outcome.resolution) == ("target-missing",
                                                        None)
