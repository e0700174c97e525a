"""The counted container pass against the one it replaced.

``reference_tree_diff`` keeps the container pass that listed each
container's descendants and scanned every candidate's.  After the same
isomorphic pass, both must pair the same nodes, and ``diff_trees`` must
emit the same script with either, on every mined host of the corpus, the
controls and the fanout fixture, on the mined hosts of the three
``bench/gen.py`` workloads at two seeds, on seeded ``mutate_tree`` edits
of corpus trees, and on a hand-written tie between two candidates, which
none of those inputs has.
"""

import random

import pytest

import reference_tree_diff as ref
from conftest import (bench_gen, corpus_java_files, merge_inputs, mutate_tree,
                      parse_snippet)
from mergeweaver import tree_diff
from mergeweaver.parser import parse_unit
from mergeweaver.pipeline import run_scenario

GENERATED = [(w, s) for w in ("method-rename", "package-rename",
                              "rename-fanout") for s in (1, 4242)]


def _pairing(before, after, containers) -> dict[int, int]:
    m = tree_diff._Matching(before, after)
    tree_diff._match_isomorphic(m)
    containers(m)
    return {b: a.id for b, a in m.b2a.items()}


def _ops(script) -> list[tuple]:
    return [(op.op, op.node_id, op.parent_id, op.index, op.node_kind,
             op.value) for op in script]


def _check(before, after, monkeypatch) -> None:
    assert _pairing(before, after, tree_diff._match_containers) \
        == _pairing(before, after, ref._match_containers)
    got = _ops(tree_diff.diff_trees(before, after))
    with monkeypatch.context() as patch:
        patch.setattr(tree_diff, "_match_containers", ref._match_containers)
        want = _ops(tree_diff.diff_trees(before, after))
    assert got == want


@pytest.fixture(scope="module")
def mined_hosts(tmp_path_factory):
    dirs = merge_inputs()
    for workload, seed in GENERATED:
        out = tmp_path_factory.mktemp(f"{workload}-{seed}")
        bench_gen.write_workload(bench_gen.generate(workload, seed), out)
        dirs.append(out)
    hosts = []
    for d in dirs:
        fw = run_scenario(d / "base", d / "left", d / "right").fourway
        hosts += [(d.name, ex.before, ex.after)
                  for ex in fw.mined.values() if ex is not None]
    return hosts


def test_container_pass_matches_reference_on_mined_hosts(mined_hosts,
                                                         monkeypatch):
    for _name, before, after in mined_hosts:
        _check(before, after, monkeypatch)
    # 12 corpus hosts, 4 in the fanout fixture, 4 in each generated
    # fanout workload and 1 in each method rename
    assert len(mined_hosts) >= 26


def test_container_pass_matches_reference_on_mutations(monkeypatch):
    files = corpus_java_files()
    rng = random.Random(4711)
    by_containers = 0
    for _ in range(200):
        src = rng.choice(files)
        before = parse_unit(src.name, src.read_text()).tree
        after = mutate_tree(before, rng, rng.randrange(1, 11))
        _check(before, after, monkeypatch)
        by_containers += (
            len(_pairing(before, after, tree_diff._match_containers))
            - len(_pairing(before, after, lambda m: None)))
    assert by_containers > 100      # the pass really pairs containers


def test_container_pass_matches_reference_on_a_tie(monkeypatch):
    # the then-block's two calls end up in two blocks of equal size, so
    # both score the same Dice above the bar and the first reached wins;
    # the padding keeps the method body's own score below them
    pad = " ".join(f"int v{i} = {i};" for i in range(8))
    before = parse_snippet(
        "class A { void m() { %s if (c) { foo(x, y, z); bar(x, y, z); } } }"
        % pad).tree
    after = parse_snippet(
        "class A { void m() { %s if (c) { foo(x, y, z); }"
        " while (d) { bar(x, y, z); } } }" % pad).tree
    then_block = next(n for n in before.nodes()
                      if n.kind == "IfStmt").children[1]
    pairing = _pairing(before, after, tree_diff._match_containers)
    assert after.parent(after.node(pairing[then_block.id])).kind == "IfStmt"
    _check(before, after, monkeypatch)
