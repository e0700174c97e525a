"""The flat tree differ against the one it replaced.

``reference_tree_diff`` keeps the differ that matched node objects through
id-keyed dicts and generated the script recursively, and the container
pass from before that one counted common partners.  After every matching
pass the flat differ must pair the same before and after nodes as the
reference, and ``diff_trees`` must emit the same script, op for op: on
every mined host of the corpus, the controls and the fanout fixture, on
the mined hosts of the three ``bench/gen.py`` workloads at two seeds and
of rename-fanout at 128 hub methods, on seeded ``mutate_tree`` edits of
corpus trees, on a call nested 120 deep against one nested 119 deep,
whose recovery pass pairs one free child against one at every level, and
on hand-written ties, which none of those inputs has: two container
candidates of equal score, two equal after subtrees for one before
subtree, and two equal before subtrees of one height for one after
subtree.
"""

import random

import reference_tree_diff as ref
from conftest import (bench_gen, corpus_java_files, merge_inputs, mutate_tree,
                      parse_snippet)
from mergeweaver import tree_diff
from mergeweaver.parser import parse_unit
from mergeweaver.pipeline import run_scenario

PASSES = [(tree_diff._match_isomorphic, ref._match_isomorphic),
          (tree_diff._match_containers, ref._match_containers),
          (tree_diff._sanitize, ref._sanitize),
          (tree_diff._recover_children, ref._recover_children)]


def _pairings(before, after) -> list[tuple[dict, dict]]:
    """The before id -> after id pairing after each pass, flat and
    reference."""
    flat = tree_diff._Matching(before, after)
    old = ref._Matching(before, after)
    out = []
    for flat_pass, ref_pass in PASSES:
        flat_pass(flat)
        ref_pass(old)
        out.append(({flat.b.nodes[i].id: flat.a.nodes[j].id
                     for i, j in enumerate(flat.b2a) if j >= 0},
                    {b: a.id for b, a in old.b2a.items()}))
    return out


def _listed_pairing(before, after) -> dict[int, int]:
    m = ref._Matching(before, after)
    ref._match_isomorphic(m)
    ref._match_containers_listed(m)
    return {b: a.id for b, a in m.b2a.items()}


def _ops(script) -> list[tuple]:
    return [(op.op, op.node_id, op.parent_id, op.index, op.node_kind,
             op.value) for op in script]


def _check(before, after, listed: bool = True) -> dict[int, int]:
    """Asserts equal pairings and scripts; returns the flat pairing after
    the container pass."""
    pairings = _pairings(before, after)
    for got, want in pairings:
        assert got == want
    if listed:
        assert pairings[1][0] == _listed_pairing(before, after)
    assert _ops(tree_diff.diff_trees(before, after)) \
        == _ops(ref.diff_trees(before, after))
    return pairings[1][0]


def _hosts(dirs) -> list[tuple]:
    hosts = []
    for d in dirs:
        fw = run_scenario(d / "base", d / "left", d / "right").fourway
        hosts += [(d.name, ex.before, ex.after)
                  for ex in fw.mined.values() if ex is not None]
    return hosts


def test_container_pass_matches_reference_on_mined_hosts(generated):
    hosts = _hosts(merge_inputs() + generated)
    for _name, before, after in hosts:
        _check(before, after)
    # 12 corpus hosts, 4 in the fanout fixture, 4 in each generated
    # fanout workload and 1 in each method rename
    assert len(hosts) >= 26


def test_differ_matches_reference_on_128_hub_methods(tmp_path):
    bench_gen.write_workload(
        bench_gen.generate("rename-fanout", 1, methods=128), tmp_path)
    hosts = _hosts([tmp_path])
    assert len(hosts) == 4
    assert max(before.max_id for _n, before, _a in hosts) + 1 >= 1166
    for _name, before, after in hosts:
        _check(before, after, listed=False)


def test_container_pass_matches_reference_on_mutations():
    files = corpus_java_files()
    rng = random.Random(4711)
    by_containers = 0
    for _ in range(300):
        src = rng.choice(files)
        before = parse_unit(src.name, src.read_text()).tree
        after = mutate_tree(before, rng, rng.randrange(1, 11))
        pairings = _pairings(before, after)
        _check(before, after)
        by_containers += len(pairings[1][0]) - len(pairings[0][0])
    assert by_containers > 100      # the pass really pairs containers


def test_recovery_pass_matches_reference_on_nested_calls():
    def nested(depth: int) -> str:
        return ("class A { int m() { return %s1%s; } }"
                % ("g(" * depth, ")" * depth))
    # 120 deep: below the deepest nesting the parser accepts
    # (parser.MAX_NESTING)
    before = parse_snippet(nested(120)).tree
    after = parse_snippet(nested(119)).tree
    pairings = _pairings(before, after)
    _check(before, after)
    # the recovery pass pairs one free child against one, level by level
    assert len(pairings[3][0]) - len(pairings[2][0]) > 200


def test_container_pass_matches_reference_on_a_tie():
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
    pairing = _check(before, after)
    assert after.parent(after.node(pairing[then_block.id])).kind == "IfStmt"


def _statements(tree) -> list:
    return [n for n in tree.nodes() if n.kind == "ExprStmt"]


def test_isomorphic_pass_takes_the_first_equal_after_subtree():
    before = parse_snippet("class A { void m() { foo(x, y); } }").tree
    after = parse_snippet(
        "class A { void m() { foo(x, y); foo(x, y); } }").tree
    pairing = _check(before, after)
    first = _statements(after)[0]
    assert pairing[_statements(before)[0].id] == first.id


def test_isomorphic_pass_takes_equal_before_subtrees_in_pre_order():
    before = parse_snippet(
        "class A { void m() { foo(x, y); foo(x, y); } }").tree
    after = parse_snippet("class A { void m() { foo(x, y); } }").tree
    pairing = _check(before, after)
    first, second = _statements(before)
    assert pairing[first.id] == _statements(after)[0].id
    assert second.id not in pairing

