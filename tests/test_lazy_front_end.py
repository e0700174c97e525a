"""The front end's deferred work: what a file costs that nobody edits.

A parsed tree builds its id and parent maps on the first lookup, and a
parsed node resolves its span from its file's position table on the first
read.  These tests check that the lazy answers are the eager ones: the
maps on every corpus tree and on edited clones, the spans of copies taken
before any span was read, and the text the byte reader gives against the
text-mode reader it replaced.  And that a merge leaves both undone for
every file all four versions share, and builds none of its recognized
method bodies; and that it recognizes only the bodies no build reads.
"""

import random
import sys
import threading

import pytest

import reference_frontend
from conftest import bench_gen, corpus_java_files
from mergeweaver.graph_diff import build_fourway
from mergeweaver.merge3 import UnreadableSource, _read_tree, merge_scenario
from mergeweaver.parser import parse_unit
from mergeweaver.pipeline import run_scenario
from mergeweaver.syntax import (STATEMENT_KINDS, SyntaxNode, SyntaxTree,
                                body_of, clone_node, recognized_blocks)


def _answers(tree: SyntaxTree, ids) -> list:
    """Every lookup's answer for ``ids``, as (id, kind, value) triples."""
    def key(node):
        return None if node is None else (node.id, node.kind, node.value)
    out = []
    for node_id in ids:
        if not tree.has_node(node_id):
            out.append((node_id, "absent"))
            with pytest.raises(KeyError):
                tree.node(node_id)
            continue
        node = tree.node(node_id)
        out.append((key(node), key(tree.parent(node)),
                    [key(n) for n in tree.ancestors(node)]))
    return out + [("max_id", tree.max_id)]


def _edit(tree: SyntaxTree, rng: random.Random) -> None:
    """Three seeded writes: a value, a removed statement, an inserted
    leaf with a fresh id."""
    nodes = list(tree.nodes())
    leaf = rng.choice([n for n in nodes if not n.children])
    tree.set_value(leaf, leaf.value + "_x")
    stmts = [n for n in tree.nodes() if n.kind in STATEMENT_KINDS]
    if stmts:
        tree.remove(rng.choice(stmts))
    parent = rng.choice([n for n in tree.nodes() if n.children])
    tree.insert(parent, rng.randrange(len(parent.children) + 1),
                SyntaxNode("Name", "fresh", [], None, tree.fresh_id()))


def test_a_lazy_index_answers_as_an_eager_one():
    for k, path in enumerate(corpus_java_files()):
        lazy = parse_unit(path.name, path.read_text()).tree
        assert not lazy.indexed
        # the same nodes, indexed at once under the ids the parse gave
        eager = reference_frontend.EagerIndex(lazy.root)
        ids = range(-1, lazy.max_id + 2)
        assert _answers(lazy, ids) == _answers(eager, ids), path
        assert lazy.indexed
        # a view of each declaration keeps the parse's ids and builds its
        # maps, max_id included, on the first lookup
        for decl in lazy.nodes():
            if decl.kind in ("MethodDecl", "FieldDecl", "ConstructorDecl"):
                view = SyntaxTree(decl)
                assert not view.indexed
                ids = range(decl.id - 1, view.max_id + 2)
                assert view.indexed
                assert _answers(view, ids) == _answers(
                    reference_frontend.EagerIndex(decl), ids), path
        # edited clones of a fresh lazy tree and of a view of a copy
        lazy = parse_unit(path.name, path.read_text()).tree
        view = SyntaxTree(clone_node(lazy.root))
        copies = []
        for tree in (lazy, view):
            rng = random.Random(k)
            copy = tree.clone()
            _edit(copy, rng)
            copies.append(copy)
        ids = range(-1, copies[0].max_id + 2)
        assert _answers(copies[0], ids) == _answers(copies[1], ids), path
        assert copies[0].fresh_id() == copies[1].fresh_id()


def test_untouched_files_build_no_index_and_no_positions(tmp_path):
    wl = bench_gen.generate("method-rename", 1, files=24)
    bench_gen.write_workload(wl, tmp_path)
    run = run_scenario(tmp_path / "base", tmp_path / "left",
                       tmp_path / "right")
    versions = (run.scenario.base, run.scenario.left, run.scenario.right,
                run.scenario.am)
    untouched, touched = [], []
    for path, sf in run.scenario.base.items():
        same = all(path in v and v[path].text == sf.text for v in versions)
        (untouched if same else touched).append(path)
    assert len(untouched) > len(touched) > 0
    for path in untouched:
        sf = run.scenario.base[path]
        assert not sf.tree.indexed, path
        assert not sf.positioned, path
        # every member body was recognized, and none was built
        bodies = [body_of(n) for n in sf.tree.root.children[-1].children
                  if n.kind in ("MethodDecl", "ConstructorDecl")]
        assert bodies and recognized_blocks(sf.tree.root) == bodies, path
        assert not any(body.built for body in bodies), path
    # the conflict's site reads a span of a touched file
    assert any(v[path].positioned for v in versions for path in touched
               if path in v)


@pytest.mark.parametrize("edit", ["none", "unused-member", "used-member",
                                  "new-class"])
def test_shared_files_are_recognized_only_where_no_build_reads_them(
        tmp_path, edit):
    # the left branch adds a method no file calls, a method under a name
    # every class declares a field of, or a class; the last two make every
    # build read the bodies of the shared files, which are then parsed whole
    wl = bench_gen.generate("method-rename", 1, files=24)
    host = sorted(wl.base)[0]
    if edit.endswith("member"):
        name = "unheardOf" if edit == "unused-member" else "total"
        wl.left[host] = wl.left[host].replace(
            "{\n", "{\n    public int %s(int x) { return x; }\n" % name, 1)
    elif edit == "new-class":
        wl.left["core/orders/Extra.java"] = \
            "package core.orders;\n\npublic class Extra {\n}\n"
    bench_gen.write_workload(wl, tmp_path)
    scenario = merge_scenario(tmp_path / "base", tmp_path / "left",
                              tmp_path / "right")
    fourway = build_fourway(scenario)
    recognized = {path for path, sf in scenario.base.items()
                  if recognized_blocks(sf.tree.root)}
    deferred = {unit.path for unit in fourway.base.deferred}
    if edit in ("none", "unused-member"):
        shared = {path for path, text in wl.base.items()
                  if wl.left.get(path) == text == wl.right.get(path)}
        assert len(shared) >= 20 and recognized == deferred == shared
    else:
        assert recognized == deferred == set()
    assert not any(block.built for sf in scenario.base.values()
                   for block in recognized_blocks(sf.tree.root))


def test_a_failed_generic_probe_builds_no_positions():
    # "a < b" is tried as a type with type arguments, which run to the end
    # of the text; the statement is an expression, and no position is read
    sf = parse_unit("A.java",
                    "class A { boolean m() { a < b; return true; } }")
    assert not sf.positioned
    stmt = sf.tree.root.children[0].children[-1].children[-1].children[0]
    assert (stmt.kind, stmt.children[0].kind) == ("ExprStmt", "BinaryExpr")


def test_copies_take_the_token_range_and_resolve_it_later():
    for path in corpus_java_files()[:12]:
        text = path.read_text()
        sf = parse_unit(path.name, text)
        want = [n.span for n in parse_unit(path.name, text).tree.nodes()]
        copy = clone_node(sf.tree.root)
        work = sf.tree.clone()
        deepest = list(work.nodes())[-1]
        written = work.set_value(deepest, deepest.value)
        assert not sf.positioned
        assert [n.span for n in copy.walk()] == want, path
        # the copies share the file's one table, built by that first read
        assert sf.positioned
        assert [n.span for n in work.nodes()] == want, path
        assert written.span == want[-1]


def test_threads_building_the_maps_and_the_table_see_them_whole():
    # the first lookups and span reads of one tree race in four threads,
    # switching every 10 us; each thread must read every answer a fresh
    # eager tree gives
    path = max(corpus_java_files(), key=lambda p: p.stat().st_size)
    text = path.read_text()
    fresh = parse_unit(path.name, text).tree
    eager = reference_frontend.EagerIndex(fresh.root)
    want = [(n.id, n.span, eager.parent(n) and eager.parent(n).id)
            for n in fresh.nodes()]
    for _ in range(5):
        tree = parse_unit(path.name, text).tree
        nodes = list(tree.nodes())
        seen = []
        start = threading.Barrier(4)

        def work(order: list) -> None:
            start.wait(timeout=60)
            got = {}
            for n in order:
                parent = tree.parent(tree.node(n.id))
                got[n.id] = (n.id, n.span, parent and parent.id)
            seen.append([got[n.id] for n in nodes])

        threads = [threading.Thread(target=work, args=(order,))
                   for order in (nodes, nodes[::-1], nodes[1::2] + nodes[::2],
                                 nodes[::-2] + nodes[-2::-2])]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [want] * 4


def test_threads_building_recognized_bodies_see_the_same_nodes():
    # four threads walk one tree of recognized bodies, switching every
    # 10 us, so they race to build each body; every body is built once,
    # and each walk meets the very nodes of the others
    path = max(corpus_java_files(), key=lambda p: p.stat().st_size)
    text = path.read_text()
    want = [(n.kind, n.value, n.span, n.id)
            for n in parse_unit(path.name, text).tree.nodes()]
    for _ in range(5):
        tree = parse_unit(path.name, text, recognize_bodies=True).tree
        assert recognized_blocks(tree.root)
        walks = []
        start = threading.Barrier(4)

        def work() -> None:
            start.wait(timeout=60)
            walks.append(list(tree.nodes()))

        threads = [threading.Thread(target=work) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(walks) == 4
        assert all(list(map(id, walk)) == list(map(id, walks[0]))
                   for walk in walks)
        assert [(n.kind, n.value, n.span, n.id) for n in walks[0]] == want


@pytest.mark.parametrize("body", [
    b"class A {}\r\n", b"class A {\r}\r", b"class A {}\r", b"\r\r\n\n\r",
    b"\xef\xbb\xbfclass A {}\n", b"", b"class \xc3\xa9 {}\r\n",
    # a "\r\n" across each power of two from 4 KiB to 1 MiB
    *[b"a" * (size - 1) + b"\r\nb\r" for size in
      (1 << 12, 1 << 13, 1 << 14, 1 << 16, 1 << 20)],
    b"// " + b"x" * (1 << 20) + b"\r\nclass A {}\r\n",
], ids=lambda body: f"{len(body)}-bytes")
def test_the_byte_reader_gives_the_text_mode_text(tmp_path, body):
    (tmp_path / "A.java").write_bytes(body)
    (tmp_path / "B.java").write_bytes(b"\r" + body)
    got = _read_tree(tmp_path)
    assert got == reference_frontend._read_tree(tmp_path)
    assert "\r" not in "".join(got.values())


def test_invalid_utf8_past_the_first_8_kib_names_its_file_offset(tmp_path):
    offset = 8192 + 1000
    (tmp_path / "A.java").write_bytes(b"a\r\n" * (offset // 3)
                                      + b"a" * (offset % 3) + b"\xff\n")
    messages = []
    for read in (_read_tree, reference_frontend._read_tree):
        with pytest.raises(UnreadableSource) as info:
            read(tmp_path)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].endswith(f"(byte 0xff at offset {offset})")


def test_a_view_refuses_a_duplicate_id_on_its_first_lookup():
    def block():
        return SyntaxNode("Block", "", [SyntaxNode("Name", "a", [], None, 1),
                                        SyntaxNode("Name", "b", [], None, 1)],
                          None, 0)
    for lookup in (lambda t: t.max_id, lambda t: t.has_node(0),
                   lambda t: t.clone()):
        view = SyntaxTree(block())
        with pytest.raises(ValueError, match="duplicate node id 1"):
            lookup(view)
        assert not view.indexed
