"""The per-merge print memo prints what the memo-free printer prints.

A merge prints through one ``printer.PrintMemo``: the depth-0 text of
each member- and statement-level subtree, kept per node and padded to the
depth it is read at.  Every text printed through it must equal
``pretty_print`` of the same node: the entity bodies the graph matcher
prints, the merged members' statement headers and every resolution, on
every corpus scenario and control, the fanout fixture and the three
``bench/gen.py`` workloads at seeds 1 and 4242; and after each run every
parsed file and every entity body of the merge, printed through the run's
memo.  Hand-written members with empty, non-empty and nested anonymous
bodies at depth 2 and more print the same too, as does a clone edited
after its source was printed, whose source's text must not go stale.

The memo stores only nodes of the merge's parsed trees: after a run on
the fanout fixture, no key is a clone's copy, a pattern context's node or
an added node.
"""

import pytest

from conftest import FANOUT, merge_inputs, parse_snippet
from mergeweaver.pipeline import run_scenario
from mergeweaver.printer import PrintMemo, pretty_print
from mergeweaver.syntax import STATEMENT_KINDS

VERSIONS = ("base", "left", "right", "am")


@pytest.fixture
def checked(monkeypatch) -> list:
    """Every PrintMemo.print call checked against pretty_print; the kinds
    of the nodes printed are collected in the list returned."""
    real = PrintMemo.print
    kinds = []

    def print_checked(self, node, keep=None):
        text = real(self, node, keep)
        assert text == pretty_print(node), node
        kinds.append(node.kind)
        return text
    monkeypatch.setattr(PrintMemo, "print", print_checked)
    return kinds


def test_every_memo_print_of_every_merge_equals_pretty_print(checked,
                                                             generated):
    resolutions = 0
    for d in merge_inputs() + generated:
        run = run_scenario(d / "base", d / "left", d / "right")
        resolutions += len(run.report.resolutions)
        fw = run.fourway
        memo = fw.scorer.print_memo
        for version in VERSIONS:
            for sf in getattr(run.scenario, version).values():
                assert memo.print(sf.tree.root) == pretty_print(sf.tree)
        for graph in (fw.base, fw.left, fw.right, fw.merged):
            for ent in graph.entities.values():
                assert graph.body_text(ent, memo) == graph.body_text(ent)
        assert memo.reused > 0
    # the resolutions, the bodies and headers during the runs, the files
    # and bodies after them
    assert resolutions >= 100
    assert {"CompilationUnit", "MethodDecl", "ExprStmt"} <= set(checked)


ANONYMOUS = """\
class A {
    void m() {
        if (c) {
            x = new B() { };
            y = new B() {
                int f() {
                    z = new C() { };
                    return g(new C() {
                        void h() {
                            w = new D() {
                                int k;
                            };
                        }
                    });
                }
            };
            while (c) {
                v = new E() { };
            }
        }
    }
}
"""


def test_anonymous_bodies_at_depth_print_as_pretty_print_does():
    tree = parse_snippet(ANONYMOUS).tree
    want = pretty_print(tree)
    assert "\n\n" in want        # an empty anonymous body
    memo = PrintMemo()
    # statements first, so the file reads each at a depth of 2 or more
    for node in tree.nodes():
        if node.kind in STATEMENT_KINDS:
            assert memo.print(node) == pretty_print(node)
    reused = memo.reused
    assert memo.print(tree.root) == want
    assert memo.reused > reused
    assert memo.print(tree.root) == want


def test_a_clone_edited_after_its_source_was_printed():
    tree = parse_snippet(ANONYMOUS).tree
    memo = PrintMemo()
    before = memo.print(tree.root)
    work = tree.clone()
    cond = next(n for n in work.nodes()
                if n.kind == "Name" and n.value == "c")
    work.set_value(cond, "d")
    edited = memo.print(work.root, tree.owns)
    assert edited == pretty_print(work.root) != before
    assert "if (d)" in edited and "while (c)" in edited
    # the source's text is not stale, and no copy was stored
    assert memo.print(tree.root) == before == pretty_print(tree)
    assert all(tree.owns(node) for node in memo.texts)


def test_the_memo_keeps_only_nodes_of_the_parsed_trees():
    run = run_scenario(FANOUT / "base", FANOUT / "left", FANOUT / "right")
    assert run.report.resolutions
    parsed = {id(node) for version in VERSIONS
              for sf in getattr(run.scenario, version).values()
              for node in sf.tree.nodes()}
    texts = run.fourway.scorer.print_memo.texts
    assert texts and all(id(node) in parsed for node in texts)
