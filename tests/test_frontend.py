"""Parser and printer: round-trips, node shapes, spans, error paths."""

import random

import pytest

from conftest import corpus_java_files, parse_snippet, random_program
from mergeweaver.parser import ParseError, parse_unit, tokenize
from mergeweaver.printer import (pretty_print, statement_header_text,
                                 token_stream)
from mergeweaver.syntax import structurally_equal


def roundtrip(text: str, path: str = "T.java") -> None:
    tree = parse_unit(path, text).tree
    printed = pretty_print(tree)
    again = parse_unit(path, printed).tree
    assert structurally_equal(tree.root, again.root)
    assert token_stream(printed) == token_stream(pretty_print(again))


# initializers the corpus lacks: clause marker words, as a field and a local
MARKER_WORD_INITIALIZERS = [
    "class A { int x = throws; }",
    "class A { void m() { int y = extends; } }",
]


def test_corpus_files_roundtrip():
    files = corpus_java_files()
    assert len(files) > 100
    for path in files:
        roundtrip(path.read_text(), path.name)
    for text in MARKER_WORD_INITIALIZERS:
        roundtrip(text)


def test_random_programs_roundtrip():
    for seed in range(100):
        roundtrip(random_program(random.Random(seed)))


def test_token_stream_ignores_layout():
    a = "package p;\npublic class A { int x = 1; }\n"
    b = "package p;\n\npublic class A {\n    int x = 1;\n}\n"
    assert token_stream(a) == token_stream(b)
    assert "class" in token_stream(a)


def test_tokenize_positions_and_kinds():
    toks = tokenize("T.java", 'class A { String s = "a b"; }')
    values = [t.text for t in toks]
    assert "class" in values and '"a b"' in values
    # positions are 1-based and non-decreasing
    assert toks[0].line == 1 and toks[0].col == 1
    lines = [t.line for t in toks]
    assert lines == sorted(lines)


@pytest.mark.parametrize("bad", [
    "class {",                       # missing name
    "package ;",                     # missing package name
    "class A { void m( { } }",       # broken parameter list
    'class A { String s = "unterminated; }',
    "class A } ",
])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_unit("B.java", bad)


def test_parse_error_is_not_silent_truncation():
    # trailing garbage after a valid unit must not be dropped
    with pytest.raises(ParseError):
        parse_unit("B.java", "package p; class A { } %%%")


def test_if_else_shape():
    sf = parse_snippet("""\
class A {
    void m(int x) {
        if (x == 1) {
            x = 2;
        } else {
            x = 3;
        }
    }
}
""")
    ifs = [n for n in sf.tree.nodes() if n.kind == "IfStmt"]
    assert len(ifs) == 1
    cond, then, other = ifs[0].children
    assert then.kind == "Block" and other.kind == "Block"
    sf2 = parse_snippet("class A { void m(int x) { if (x == 1) { x = 2; } } }")
    plain = [n for n in sf2.tree.nodes() if n.kind == "IfStmt"][0]
    assert len(plain.children) == 2    # no else branch, no placeholder


def test_invocation_chain_shape():
    sf = parse_snippet(
        "class A { void m() { getContext().getService().toData(key); } }")
    calls = [n for n in sf.tree.nodes() if n.kind == "MethodInvocation"]
    names = sorted(c.value for c in calls)
    assert names == ["getContext", "getService", "toData"]
    outer = next(c for c in calls if c.value == "toData")
    kinds = [c.kind for c in outer.children]
    assert "ArgumentList" in kinds


def test_cast_and_literal_shapes():
    sf = parse_snippet("class A { int m(long v) { return (int) v; } }")
    casts = [n for n in sf.tree.nodes() if n.kind == "CastExpr"]
    assert len(casts) == 1
    assert casts[0].children[0].kind == "TypeRef"
    assert casts[0].children[0].value == "int"


def test_preorder_ids_deterministic():
    text = corpus_java_files()[0].read_text()
    t1 = parse_unit("X.java", text).tree
    t2 = parse_unit("X.java", text).tree
    assert [n.id for n in t1.nodes()] == [n.id for n in t2.nodes()]
    ids = [n.id for n in t1.nodes()]
    assert ids == list(range(len(ids)))


def test_spans_nest_and_are_one_based():
    sf = parse_snippet("package p;\n\nclass A {\n    int x = 1;\n}\n")
    root = sf.tree.root
    assert root.span[0] == 1
    for node in sf.tree.nodes():
        if node.span is None:
            continue
        for child in node.children:
            if child.span is None:
                continue
            assert child.span[0] >= node.span[0]
            assert child.span[2] <= node.span[2]


def test_statement_header_text():
    sf = parse_snippet("""\
class A {
    void m(int x) {
        if (x == 1) {
            load(x);
        }
        int y = x + 1;
    }
}
""")
    stmts = {n.kind: n for n in sf.tree.nodes()
             if n.kind in ("IfStmt", "LocalVarDecl")}
    header = statement_header_text(stmts["IfStmt"])
    assert "x == 1" in header
    assert "load" not in header          # body is not part of the header
    assert "y" in statement_header_text(stmts["LocalVarDecl"])


def test_generics_and_foreach():
    sf = parse_snippet("""\
class A {
    Iterable<Node> kids(Node n) {
        for (Node child : kids(n)) {
            use(child);
        }
        return null;
    }
}
""")
    fors = [n for n in sf.tree.nodes() if n.kind == "ForEachStmt"]
    assert len(fors) == 1
    printed = pretty_print(sf.tree)
    assert "Iterable<Node>" in printed
    assert "for (Node child : kids(n))" in printed
