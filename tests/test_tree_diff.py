"""Tree differ and op interpreter: the apply-equals-target oracle, script
hygiene, the container pass's linear partner lists on an else-if chain,
both apply_op policies and the SyntaxTree index under edits."""

import random

import pytest

from conftest import corpus_java_files, mutate_tree, parse_snippet
from mergeweaver.parser import ParseError, parse_unit
from mergeweaver.printer import pretty_print
from mergeweaver.syntax import (SyntaxNode, SyntaxTree, clone_node,
                                structurally_equal)
from mergeweaver.tree_diff import (DanglingOp, EditOp, _match_containers,
                                   _match_isomorphic, _Matching, apply_op,
                                   apply_script, diff_trees)


def oracle(before, after) -> None:
    script = diff_trees(before, after)
    work = before.clone()
    apply_script(work, script)
    assert structurally_equal(work.root, after.root)


def test_self_diff_is_empty_on_corpus_trees():
    for path in corpus_java_files()[:40]:
        tree = parse_unit(path.name, path.read_text()).tree
        assert list(diff_trees(tree, tree.clone())) == []


def test_random_mutation_oracle():
    files = [p for p in corpus_java_files() if p.parent.name == "base"]
    for case in range(100):
        rng = random.Random(9000 + case)
        src = files[case % len(files)]
        before = parse_unit(src.name, src.read_text()).tree
        after = mutate_tree(before, rng, rng.randrange(1, 11))
        oracle(before, after)


def test_value_update_is_single_op():
    before = parse_snippet("class A { int x = 1; }").tree
    after = parse_snippet("class A { int x = 2; }").tree
    script = diff_trees(before, after)
    assert [op.op for op in script] == ["update"]
    op = next(iter(script))
    assert op.value == "2"
    assert before.node(op.node_id).kind == "Literal"


def test_statement_delete_is_one_op():
    before = parse_snippet("""\
class A {
    void m() {
        int x = 1;
        emit(x);
    }
}
""").tree
    after = parse_snippet("""\
class A {
    void m() {
        int x = 1;
    }
}
""").tree
    script = diff_trees(before, after)
    deletes = [op for op in script if op.op == "delete"]
    assert len(deletes) == 1
    assert before.node(deletes[0].node_id).kind == "ExprStmt"
    assert len(script) == 1


def test_insert_carries_parent_and_index():
    before = parse_snippet("class A { void m() { int x = 1; } }").tree
    after = parse_snippet("class A { void m() { int x = 1; emit(x); } }").tree
    script = diff_trees(before, after)
    adds = [op for op in script if op.op == "add"]
    assert adds, "expected add ops"
    roots = [op for op in adds if op.parent_id is not None
             and before.has_node(op.parent_id)]
    assert roots
    assert before.node(roots[0].parent_id).kind == "Block"
    assert roots[0].index == 1


def test_statement_move_is_detected():
    before = parse_snippet("""\
class A {
    void m() {
        load();
        store();
        refresh();
    }
}
""").tree
    after = parse_snippet("""\
class A {
    void m() {
        store();
        refresh();
        load();
    }
}
""").tree
    script = diff_trees(before, after)
    ops = [op.op for op in script]
    assert "move" in ops or ("delete" in ops and "add" in ops)
    oracle(before, after)


def test_apply_script_rejects_dangling_target():
    before = parse_snippet("class A { void m() { load(); } }").tree
    after = parse_snippet("class A { void m() { } }").tree
    script = diff_trees(before, after)
    stale = parse_snippet("class B { }").tree
    with pytest.raises(DanglingOp):
        apply_script(stale, script)


def test_add_ids_do_not_collide():
    before = parse_snippet("class A { void m() { } }").tree
    after = parse_snippet(
        "class A { void m() { int a = 1; int b = 2; } }").tree
    script = diff_trees(before, after)
    used = {n.id for n in before.nodes()}
    for op in script:
        if op.op == "add":
            assert op.node_id not in used
            used.add(op.node_id)


def test_cross_method_move_oracle():
    before = parse_snippet("""\
class A {
    void m() {
        int shared = combine(1, 2);
        emit(shared);
    }

    void n() {
        load();
    }
}
""").tree
    after = parse_snippet("""\
class A {
    void m() {
        emit(shared);
    }

    void n() {
        load();
        int shared = combine(1, 2);
    }
}
""").tree
    oracle(before, after)


def test_rename_plus_reorder_oracle():
    before = parse_snippet("""\
class A {
    int first;
    int second;

    void m(int p) {
        first = p;
        second = p + 1;
    }
}
""").tree
    after = parse_snippet("""\
class A {
    int second;
    int first;

    void m(int q) {
        second = q + 1;
        first = q;
    }
}
""").tree
    oracle(before, after)


def _nested_calls(depth: int, arg: str) -> str:
    return ("class A { int m() { return %s%s%s; } }"
            % ("g(" * depth, arg, ")" * depth))


def test_deepest_nesting_the_parser_accepts_diffs_and_replays():
    # the parser turns nesting past MAX_NESTING into a ParseError; every
    # tree it returns must diff without a recursion per tree level
    depth = 1
    while True:
        try:
            parse_unit("A.java", _nested_calls(depth + 1, "1"))
        except ParseError:
            break
        depth += 1
    assert depth > 100
    before = parse_unit("A.java", _nested_calls(depth, "1")).tree
    after = parse_unit("A.java", _nested_calls(depth, "2")).tree
    assert [op.op for op in diff_trees(before, after)] == ["update"]
    oracle(before, after)
    # one call fewer: the whole spine differs from the before tree's
    oracle(before, parse_unit("A.java", _nested_calls(depth - 1, "1")).tree)


def _else_if_chain(arms: int, name: str) -> SyntaxTree:
    chain = "".join(" else if (x == %d) { x = %d; }" % (i, i)
                    for i in range(1, arms))
    return parse_unit("Deep.java", "class Deep { int m(int x) { if (x == 0)"
                      " { x = %s(0); }%s else { x = %s(1); } return x; } }"
                      % (name, chain, name)).tree


def test_partners_listed_grow_linearly_with_an_else_if_chain():
    # renaming the calls of the first and last arms leaves every if of
    # the chain an unpaired container holding the rest of it; each lists
    # its own arm's partners and takes its nested if's lists, so the
    # count, not a time, grows with the arms, not with their square
    listed = {}
    for arms in (1000, 3000):
        m = _Matching(_else_if_chain(arms, "g"), _else_if_chain(arms, "h"))
        _match_isomorphic(m)
        _match_containers(m)
        listed[arms] = m.listed
        assert m.listed <= len(m.b2a) + 10, arms
    assert listed[3000] <= 3.01 * listed[1000]


# ---------------------------------------------------------------------------
# apply_op: the two policies and the failures that leave the tree unchanged

TWO_CALLS = "class A { void m() { a(); b(); } }"


def _block(tree: SyntaxTree) -> SyntaxNode:
    return next(n for n in tree.nodes() if n.kind == "Block")


def _identity(tree: SyntaxTree) -> dict[int, SyntaxNode]:
    return {n.id: n for n in tree.nodes()}


def test_mapped_add_takes_a_fresh_id_recorded_under_the_op_id():
    tree = parse_snippet(TWO_CALLS).tree
    block = _block(tree)
    mapping = _identity(tree)
    top = tree.max_id
    op = EditOp("add", 7, parent_id=block.id, index=1,
                node_kind="ExprStmt", value="")
    new = apply_op(tree, op, mapping)
    assert new.id == top + 1 and new.id != op.node_id
    assert mapping[7] is new and tree.node(new.id) is new
    assert tree.parent(new) is block and block.children[1] is new
    # a child added under the op id lands under the mapped node
    apply_op(tree, EditOp("add", 99, parent_id=7, index=0,
                          node_kind="Name", value="x"), mapping)
    assert [c.value for c in new.children] == ["x"]


def test_mapped_index_past_the_end_clamps():
    tree = parse_snippet(TWO_CALLS).tree
    block = _block(tree)
    first = block.children[0]
    mapping = _identity(tree)
    added = apply_op(tree, EditOp("add", 1000, parent_id=block.id, index=50,
                                  node_kind="ExprStmt"), mapping)
    assert block.children[-1] is added
    apply_op(tree, EditOp("move", first.id, parent_id=block.id, index=50),
             mapping)
    assert block.children[-1] is first and tree.parent(first) is block
    # clamping also holds below zero and for a missing index
    low = apply_op(tree, EditOp("add", 1001, parent_id=block.id, index=-1,
                                node_kind="ExprStmt"), mapping)
    assert block.children[0] is low
    apply_op(tree, EditOp("move", 1001, parent_id=block.id), mapping)
    assert block.children[-1] is low


def test_unmapped_index_past_the_end_raises_and_leaves_the_tree():
    tree = parse_snippet(TWO_CALLS).tree
    block = _block(tree)
    before = pretty_print(tree.root)
    n = len(block.children)
    for op in (EditOp("add", tree.max_id + 1, parent_id=block.id,
                      index=n + 1, node_kind="ExprStmt"),
               EditOp("move", block.children[0].id, parent_id=block.id,
                      index=n)):
        with pytest.raises(DanglingOp):
            apply_op(tree, op)
    assert pretty_print(tree.root) == before
    assert not tree.has_node(tree.max_id + 1)
    # the last valid move index counts the moved node out of its parent
    apply_op(tree, EditOp("move", block.children[0].id, parent_id=block.id,
                          index=n - 1))


@pytest.mark.parametrize("mapped", [False, True])
def test_move_into_own_subtree_raises_and_leaves_the_tree(mapped):
    tree = parse_snippet(TWO_CALLS).tree
    method = next(n for n in tree.nodes() if n.kind == "MethodDecl")
    block = _block(tree)
    before = pretty_print(tree.root)
    ids = sorted(n.id for n in tree.nodes())
    mapping = _identity(tree) if mapped else None
    for node, target in ((method, block), (method, method),
                         (tree.root, block)):
        with pytest.raises(DanglingOp):
            apply_op(tree, EditOp("move", node.id, parent_id=target.id,
                                  index=0), mapping)
    assert pretty_print(tree.root) == before
    assert sorted(n.id for n in tree.nodes()) == ids
    assert tree.parent(method) is not None and tree.parent(block) is method


@pytest.mark.parametrize("mapped", [False, True])
def test_unknown_ids_raise(mapped):
    tree = parse_snippet(TWO_CALLS).tree
    block = _block(tree)
    ghost = tree.max_id + 5
    mapping = {block.id: block} if mapped else None
    call = block.children[0].id
    before = pretty_print(tree.root)
    for op in (EditOp("update", ghost, value="z"),
               EditOp("delete", ghost),
               EditOp("add", ghost, parent_id=ghost + 1, index=0,
                      node_kind="Name", value="z"),
               EditOp("move", call if not mapped else ghost,
                      parent_id=ghost, index=0),
               EditOp("frobnicate", block.id)):
        with pytest.raises(DanglingOp):
            apply_op(tree, op, mapping)
    assert pretty_print(tree.root) == before


def test_mapped_node_detached_by_an_earlier_delete_raises():
    tree = parse_snippet(TWO_CALLS).tree
    stmt = _block(tree).children[0]
    inner = stmt.children[0]
    mapping = _identity(tree)
    apply_op(tree, EditOp("delete", stmt.id), mapping)
    with pytest.raises(DanglingOp):
        apply_op(tree, EditOp("update", inner.id, value="z"), mapping)
    assert inner.value != "z"


def test_unmapped_add_keeps_its_id_and_rejects_a_taken_one():
    tree = parse_snippet(TWO_CALLS).tree
    block = _block(tree)
    new_id = tree.max_id + 10
    added = apply_op(tree, EditOp("add", new_id, parent_id=block.id,
                                  index=0, node_kind="ExprStmt"))
    assert added.id == new_id and tree.max_id == new_id
    assert tree.fresh_id() == new_id + 1
    with pytest.raises(DanglingOp):
        apply_op(tree, EditOp("add", block.id, parent_id=block.id, index=0,
                              node_kind="ExprStmt"))


# ---------------------------------------------------------------------------
# the SyntaxTree index stays equal to a fresh index under insert/remove


def _assert_index_matches_fresh(tree: SyntaxTree) -> None:
    fresh = SyntaxTree(clone_node(tree.root))
    ids = [n.id for n in fresh.nodes()]
    assert ids == [n.id for n in tree.nodes()]
    for i in ids:
        assert tree.has_node(i)
        node = tree.node(i)
        assert node.id == i and node.kind == fresh.node(i).kind
        mine, theirs = tree.parent(node), fresh.parent(fresh.node(i))
        assert (mine.id if mine else None) == (theirs.id if theirs else None)
        if mine is not None:
            assert any(c is node for c in mine.children)
    assert [i for i in range(tree.max_id + 1) if tree.has_node(i)] \
        == sorted(ids)


def _random_edits(through_clone: bool) -> None:
    """Random removes, inserts and moves on corpus trees, each followed by
    a comparison with a fresh index; through_clone edits a copy-on-write
    clone, whose source must print and lay out as before every edit."""
    files = [p for p in corpus_java_files() if p.parent.name == "left"]
    removals = 0
    for case in range(30):
        rng = random.Random(7100 + case)
        src = files[case % len(files)]
        tree = base = parse_unit(src.name, src.read_text()).tree
        if through_clone:
            printed, layout = pretty_print(base), _full_layout(base)
            tree = base.clone()
        gone: set[int] = set()
        top = tree.max_id
        for _ in range(rng.randrange(1, 25)):
            nodes = list(tree.nodes())
            roll = rng.random()
            if roll < 0.35 and len(nodes) > 1:
                victim = rng.choice(nodes[1:])
                removed = {n.id for n in victim.walk()}
                tree.remove(victim)
                gone |= removed
                removals += 1
            elif roll < 0.7:
                parent = rng.choice(nodes)
                fresh = SyntaxNode("ExprStmt", "",
                                   [SyntaxNode("Name", f"g{case}")])
                for n in fresh.walk():
                    n.id = tree.fresh_id()
                    assert n.id > top
                    top = n.id
                tree.insert(parent, rng.randrange(len(parent.children) + 1),
                            fresh)
            else:
                node = rng.choice(nodes[1:]) if len(nodes) > 1 else None
                if node is None:
                    continue
                inside = set(map(id, node.walk()))
                homes = [n for n in nodes if id(n) not in inside]
                home = rng.choice(homes)
                tree.remove(node)
                tree.insert(home, rng.randrange(len(home.children) + 1),
                            node)
            _assert_index_matches_fresh(tree)
            assert top <= tree.max_id
            assert not any(tree.has_node(i) for i in gone)
            if through_clone:
                assert pretty_print(base) == printed, (case, src.name)
                assert _full_layout(base) == layout, (case, src.name)
                _assert_index_matches_fresh(base)
    assert removals > 10


def _full_layout(tree: SyntaxTree) -> list[tuple]:
    return [(n.id, n.kind, n.value, n.span, len(n.children))
            for n in tree.nodes()]


def test_index_agrees_with_a_fresh_tree_after_random_edits():
    _random_edits(through_clone=False)


def test_clone_index_agrees_with_a_fresh_tree_after_random_edits():
    _random_edits(through_clone=True)


def test_write_through_a_stale_reference_lands_in_the_copy():
    base = parse_snippet(TWO_CALLS).tree
    printed, layout = pretty_print(base), _full_layout(base)
    work = base.clone()
    block = _block(work)
    first, second = block.children
    call = next(n for n in second.walk() if n.kind == "MethodInvocation")
    # copies the block and every ancestor; block and call are now
    # references taken before an ancestor was copied
    work.remove(first)
    assert work.node(block.id) is not block and block is _block(base)
    renamed = work.set_value(call, "c")
    assert renamed is work.node(call.id) and renamed is not call
    added = SyntaxNode("ReturnStmt", "", [], None, work.fresh_id())
    work.insert(block, 1, added)
    assert work.node(block.id).children[1] is added
    assert pretty_print(work) == "class A {\n    void m() {\n        c();\n" \
        "        return;\n    }\n}\n"
    assert pretty_print(base) == printed and _full_layout(base) == layout
    _assert_index_matches_fresh(work)
    _assert_index_matches_fresh(base)
    with pytest.raises(ValueError):     # the source of a clone is read-only
        base.set_value(call, "d")


def test_remove_of_the_root_is_refused():
    tree = parse_snippet(TWO_CALLS).tree
    with pytest.raises(ValueError):
        tree.remove(tree.root)
    _assert_index_matches_fresh(tree)


def test_a_clone_of_a_clone_is_refused():
    # every clone sits on a tree that is no clone, so a lookup reads one
    # overlay and one base
    tree = parse_snippet("class A { void m() { a(); if (c) { d(); b(); } }"
                         " }").tree
    first = tree.clone()
    named = {n.value: n for n in first.nodes() if n.value}
    first.set_value(named["d"], "e")
    with pytest.raises(ValueError):
        first.clone()
    _assert_index_matches_fresh(first)
    assert "d();" in pretty_print(tree) and "e();" in pretty_print(first)
