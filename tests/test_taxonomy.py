"""The taxonomy table against the classifier it replaced.

``reference_conflicts`` keeps the branch-per-shape classifier and the
``_sites_for`` chain.  On every corpus scenario and control, the committed
fanout fixture and three generated workloads at two seeds, the table must
give the same code for every (def, use) edit pair of both orientations and
the same conflicts, down to each site's node id.
"""

import pytest

import reference_conflicts as ref
from conftest import bench_gen, merge_inputs
from mergeweaver.conflicts import TAXONOMY, classify, detect_conflicts
from mergeweaver.graph_diff import build_fourway
from mergeweaver.merge3 import merge_scenario
from mergeweaver.rules import RULES

GENERATED = [(w, s) for w in ("method-rename", "package-rename",
                              "rename-fanout") for s in (1, 4242)]


@pytest.fixture(scope="module")
def fourways(tmp_path_factory):
    dirs = merge_inputs()
    for workload, seed in GENERATED:
        out = tmp_path_factory.mktemp(f"{workload}-{seed}")
        bench_gen.write_workload(bench_gen.generate(workload, seed), out)
        dirs.append(out)
    return [build_fourway(merge_scenario(d / "base", d / "left", d / "right"))
            for d in dirs]


def _edits(delta):
    return list(delta.entity_edits) + list(delta.relation_edits)


def test_classify_matches_reference_on_every_pair(fourways):
    pairs = codes = 0
    for fw in fourways:
        for dx, dy in ((fw.delta_left, fw.delta_right),
                       (fw.delta_right, fw.delta_left)):
            for d in _edits(dx):
                for u in _edits(dy):
                    want = ref.classify(d, u, fw)
                    assert classify(d, u, fw) == want, (d, u)
                    pairs += 1
                    codes += want is not None
    assert len(fourways) == 60
    assert pairs == 14824 and codes > 0


def _signature(conflicts):
    return [(c.type, c.subject, c.subject_kind, c.branch_of_def,
             c.using_fqn, ref._edit_key(c.def_change),
             ref._edit_key(c.use_intro),
             [(s.entity, s.file, s.span, s.node_id) for s in c.sites])
            for c in conflicts]


def test_detect_conflicts_matches_reference(fourways):
    total = 0
    for fw in fourways:
        want = _signature(ref.detect_conflicts(fw))
        assert _signature(detect_conflicts(fw)) == want
        total += len(want)
    assert total == 95


def test_each_code_has_one_row_and_every_rule_a_row():
    codes = [row.code for row in TAXONOMY]
    assert sorted(codes, key=lambda c: int(c[1:])) \
        == [f"C{i}" for i in range(1, 24)]
    assert set(RULES) <= set(codes)
