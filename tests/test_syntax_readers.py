"""The declaration readers in ``mergeweaver.syntax`` against the decoders
they replaced.

The oracle is a set of verbatim copies of the deleted decoders: the
printer's ``_partition`` and its header code, the graph builder's
``heritage``, and ``declared_type_node`` and ``param_sig_of_decl`` from the
conflict classifier.  Both sides read every declaration and statement of
the corpus (``expected/`` trees and controls included), the committed
fanout fixture, the ``bench/gen.py`` workloads at two seeds, trees edited
by ``mutate_tree``, and a few hand-written corners.  The one deliberate
difference: the old printer took an initializer that is a bare clause
marker word (``int x = throws;``) for a clause and dropped it.
"""

from __future__ import annotations

import functools
import random

from conftest import FANOUT, bench_gen, corpus_java_files, mutate_tree
from mergeweaver.parser import parse_unit
from mergeweaver.printer import (MalformedTree, _expr, _print_node,
                                 statement_header_text)
from mergeweaver.syntax import (STATEMENT_KINDS, TYPE_DECL_KINDS, SyntaxNode,
                                SyntaxTree, body_of, clauses, declared_type,
                                initializer, param_types, parameters,
                                type_base_name)

DECL_KINDS = TYPE_DECL_KINDS | {"FieldDecl", "MethodDecl", "ConstructorDecl",
                                "EnumConstant", "Parameter", "LocalVarDecl"}

CORNERS = [
    """\
package p;

@Entity
public final class A extends B implements C, D<E> {
    @Inject
    private static final int x = 1;
    @Deprecated
    Runnable r = new Runnable() {
        int k = 2;
        public void run() throws IOException, Error {
            return;
        }
    };
    abstract Map<K, V> m(final int a, String b) throws X;
    A(int a) throws Y {
        for (int i = 0; i < a; i = i + 1) {
            use(i);
        }
        for (x = 0; x < 2; x = x + 1) {
        }
        for (final Node n : nodes(a)) {
            if (n == null) {
                continue;
            } else if (a > 1) {
                break;
            } else {
                a = 2;
            }
        }
        while (a > 0) {
            a = a - 1;
        }
        throw new Error(a);
    }
    interface I extends J {
        void f();
    }
    enum E {
        ONE, TWO;
        int v;
    }
}
""",
    "class A { int x = implements; void m() { int y = extends; } }",
]


# ---------------------------------------------------------------------------
# the oracle: the deleted decoders, verbatim


def _partition(node: SyntaxNode):
    """Split a declaration's children into the clause groups."""
    annotations, modifiers, extends, implements, throws = [], [], [], [], []
    type_refs, params, body, members, constants = [], [], None, [], []
    mode = ""
    for child in node.children:
        if child.kind == "Annotation":
            annotations.append(child)
        elif child.kind == "Modifier":
            modifiers.append(child)
        elif child.kind == "Name" and child.value in ("extends", "implements", "throws"):
            mode = child.value
        elif child.kind == "TypeRef":
            if mode == "extends":
                extends.append(child)
            elif mode == "implements":
                implements.append(child)
            elif mode == "throws":
                throws.append(child)
            else:
                type_refs.append(child)
        elif child.kind == "Parameter":
            params.append(child)
        elif child.kind == "Block":
            body = child
        elif child.kind == "EnumConstant":
            constants.append(child)
        else:
            members.append(child)
    return annotations, modifiers, extends, implements, throws, \
        type_refs, params, body, members, constants


def heritage(node: SyntaxNode) -> tuple[list[str], list[str]]:
    """(extends type texts, implements type texts) of a type declaration."""
    extends: list[str] = []
    implements: list[str] = []
    mode = ""
    for child in node.children:
        if child.kind == "Name" and child.value in ("extends", "implements"):
            mode = child.value
        elif child.kind == "TypeRef" and mode:
            (extends if mode == "extends" else implements).append(child.value)
        elif child.kind not in ("Modifier", "Annotation", "TypeRef"):
            mode = ""
    return extends, implements


def declared_type_node(decl: SyntaxNode) -> SyntaxNode | None:
    """Return-type TypeRef of a method, or the type of a field."""
    if decl.kind not in ("MethodDecl", "FieldDecl"):
        return None
    for child in decl.children:
        if child.kind == "TypeRef":
            return child
        if child.kind == "Parameter":
            break
    return None


def param_sig_of_decl(decl: SyntaxNode) -> str:
    texts = [t.value
             for p in decl.children if p.kind == "Parameter"
             for t in p.children if t.kind == "TypeRef"]
    return "(" + ",".join(texts) + ")"


def _param(node: SyntaxNode) -> str:
    mods = [c.value for c in node.children if c.kind == "Modifier"]
    trefs = [c for c in node.children if c.kind == "TypeRef"]
    if not trefs:
        raise MalformedTree(node, "parameter without a type")
    return "".join(m + " " for m in mods) + f"{trefs[0].value} {node.value}"


def _local_var(node: SyntaxNode, depth: int) -> str:
    mods = [c.value for c in node.children if c.kind == "Modifier"]
    trefs = [c for c in node.children if c.kind == "TypeRef"]
    inits = [c for c in node.children if c.kind not in ("Modifier", "TypeRef")]
    if not trefs:
        raise MalformedTree(node, "local variable without a type")
    text = "".join(m + " " for m in mods) + f"{trefs[0].value} {node.value}"
    if inits:
        text += " = " + _expr(inits[0], depth)
    return text


def old_statement_header_text(node: SyntaxNode) -> str:
    """Comparison string for statement similarity.

    Compound statements compare on their headers only; simple statements
    compare on the whole statement.  Whitespace is collapsed so layout never
    influences the score.
    """
    k = node.kind
    if k == "IfStmt" or k == "WhileStmt":
        text = _expr(node.children[0], 0)
    elif k == "ForStmt":
        init, cond, update = node.children[0], node.children[1], node.children[2]
        init_text = _local_var(init, 0) if init.kind == "LocalVarDecl" \
            else _expr(init.children[0], 0)
        text = f"{init_text}; {_expr(cond, 0)}; {_expr(update, 0)}"
    elif k == "ForEachStmt":
        text = f"{_param(node.children[0])} : {_expr(node.children[1], 0)}"
    else:
        lines: list[str] = []
        _print_node(node, 0, lines)
        text = " ".join(lines)
    return " ".join(text.split())


# ---------------------------------------------------------------------------
# the inputs


@functools.lru_cache(maxsize=None)
def _trees() -> tuple[SyntaxTree, ...]:
    parsed = [parse_unit(p.name, p.read_text()).tree
              for p in corpus_java_files() + sorted(FANOUT.rglob("*.java"))]
    out = list(parsed)
    for workload in sorted(bench_gen.GENERATORS):
        for seed in (1, 4242):
            wl = bench_gen.generate(workload, seed)
            for version in (wl.base, wl.left, wl.right):
                out.extend(parse_unit(path, text).tree
                           for path, text in sorted(version.items()))
    rng = random.Random(9)
    out.extend(mutate_tree(tree, rng, 6) for tree in parsed)
    out.extend(parse_unit("T.java", text).tree for text in CORNERS)
    return tuple(out)


def _nodes(kinds) -> list[SyntaxNode]:
    return [n for tree in _trees() for n in tree.nodes() if n.kind in kinds]


def _marker_word(node: SyntaxNode | None) -> bool:
    return node is not None and node.kind == "Name" \
        and node.value in ("extends", "implements", "throws")


# ---------------------------------------------------------------------------
# the comparisons


def test_declaration_readers_match_partition():
    decls = _nodes(DECL_KINDS)
    assert len(decls) > 10000
    for n in decls:
        _ann, _mods, ext, impl, throws, type_refs, params, body, members, \
            _consts = _partition(n)
        groups = clauses(n)
        assert (groups[""], groups["extends"], groups["implements"],
                groups["throws"]) == (type_refs, ext, impl, throws), n
        assert parameters(n) == params, n
        assert body_of(n) is body, n


def test_declared_type_matches_the_old_readers():
    for n in _nodes(DECL_KINDS):
        if n.kind in ("Parameter", "LocalVarDecl"):
            # the printer's and the graph builder's rule for these
            want = next((c for c in n.children if c.kind == "TypeRef"), None)
        else:
            want = declared_type_node(n)
        assert declared_type(n) is want, n


def test_initializer_matches_the_old_readers():
    fields = _nodes({"FieldDecl"})
    assert any(c.kind == "Annotation" for n in fields for c in n.children) \
        and any(initializer(n) is not None for n in fields)
    for n in fields:
        *_, type_refs, _params, _body, members, _consts = _partition(n)
        printed = next((c for c in members if c not in type_refs), None)
        walked = next((c for c in n.children
                       if c.kind not in ("Modifier", "Annotation", "TypeRef")),
                      None)
        assert initializer(n) is walked, n
        if not _marker_word(walked):
            assert walked is printed, n
    for n in _nodes({"LocalVarDecl"}):
        inits = [c for c in n.children if c.kind not in ("Modifier", "TypeRef")]
        assert initializer(n) is (inits[0] if inits else None), n


def test_param_types_match_param_sig_of_decl():
    methods = _nodes({"MethodDecl", "ConstructorDecl"})
    assert any(len(parameters(n)) > 1 for n in methods)
    for n in methods:
        assert f"({param_types(n)})" == param_sig_of_decl(n), n


def test_clauses_match_heritage():
    types = _nodes(TYPE_DECL_KINDS)
    assert any(clauses(n)["implements"] for n in types)
    for n in types:
        groups = clauses(n)
        assert heritage(n) == ([t.value for t in groups["extends"]],
                               [t.value for t in groups["implements"]]), n


def test_statement_headers_match():
    stmts = _nodes(STATEMENT_KINDS)
    assert {n.kind for n in stmts} == STATEMENT_KINDS
    for n in stmts:
        assert statement_header_text(n) == old_statement_header_text(n), n


def test_type_base_name_strips_generics_and_qualifiers():
    assert type_base_name("List<String>") == "List"
    assert type_base_name("java.util.Map<K, V>") == "Map"
    assert type_base_name("int") == "int"
