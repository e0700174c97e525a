"""Parser and printer: round-trips, node shapes, spans, error paths."""

import random
import sys
import threading

import pytest

from conftest import corpus_java_files, parse_snippet, random_program
from mergeweaver.parser import (MAX_NESTING, ParseError, parse_unit,
                                token_texts as token_stream)
from mergeweaver.printer import pretty_print, statement_header_text
from mergeweaver.syntax import structurally_equal
from reference_parser import tokenize


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


# One text per recursive production of the parser, nested k deep.
NESTINGS = {
    "calls": lambda k: "class A { int m() { return %s1%s; } }"
                       % ("g(" * k, ")" * k),
    "new": lambda k: "class A { Object m() { return %s%s; } }"
                     % ("new A(" * k, ")" * k),
    "anonymous": lambda k: "class A { Object f = %s1%s; }"
                           % ("new A() { int f = " * k, "; }" * k),
    "casts": lambda k: "class A { int m() { return %sx; } }" % ("(T) " * k),
    "blocks": lambda k: "class A { void m() { %s%s } }" % ("{ " * k, "}" * k),
    "ifs": lambda k: "class A { void m() { %s%s } }"
                     % ("if (a) { " * k, "}" * k),
    "types": lambda k: "class A { %s%s }" % ("class B { " * k, "}" * k),
    "assignments": lambda k: "class A { void m() { %s1; } }" % ("a = " * k),
}


def _verdict(text: str, extra_frames: int = 0) -> str:
    """parse_unit's verdict on ``text``, called from ``extra_frames`` more
    frames down the stack."""
    if extra_frames:
        return _verdict(text, extra_frames - 1)
    try:
        parse_unit("A.java", text)
    except ParseError as exc:
        return str(exc)
    return "parsed"


def _deepest(nest) -> int:
    """The largest k at which ``nest(k)`` parses from a shallow stack."""
    low, high = 1, 2 * MAX_NESTING       # parses at low, not at high
    while high - low > 1:
        mid = (low + high) // 2
        if _verdict(nest(mid)) == "parsed":
            low = mid
        else:
            high = mid
    return low


@pytest.mark.parametrize("name", sorted(NESTINGS))
def test_the_nesting_limit_does_not_depend_on_the_callers_stack(name):
    nest = NESTINGS[name]
    k = _deepest(nest)
    at, past = _verdict(nest(k)), _verdict(nest(k + 1))
    assert at == "parsed"
    assert past.startswith("A.java:1:") and past.endswith(
        ": nested too deeply")
    for extra in (200, 600):
        assert (_verdict(nest(k), extra), _verdict(nest(k + 1), extra)) \
            == (at, past)


def test_the_nesting_limit_counts_productions():
    # the class, the method body and the returned expression are three
    # levels, and each call's argument one more
    assert _deepest(NESTINGS["calls"]) == MAX_NESTING - 3
    # an if opens only its block, so it nests as deep as a bare block
    assert _deepest(NESTINGS["ifs"]) == _deepest(NESTINGS["blocks"]) \
        == MAX_NESTING - 2


def test_threads_parsing_at_the_limit_keep_their_verdicts():
    # parse_unit raises the interpreter-wide recursion limit for a parse;
    # no thread may restore it under another thread's parse
    at = NESTINGS["calls"](MAX_NESTING - 3)
    past = NESTINGS["calls"](MAX_NESTING - 2)
    expected = (_verdict(at), _verdict(past))
    limit = sys.getrecursionlimit()
    verdicts = []

    def work(extra: int) -> None:
        for _ in range(5):
            verdicts.append((_verdict(at, extra), _verdict(past, extra)))

    threads = [threading.Thread(target=work, args=(extra,))
               for extra in (0, 200, 400, 600)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert verdicts == [expected] * 20
    assert sys.getrecursionlimit() == limit


def test_an_else_if_chain_opens_no_nesting_level():
    # the arms of a chain follow one another in the text, so a chain far
    # longer than MAX_NESTING parses from any stack, into the same nested
    # IfStmt nodes, each the last child of the arm before it
    k = 8 * MAX_NESTING
    text = "class A { void m() { if (a) { }%s else { b(); } } }" % "".join(
        " else if (a%d) { }" % i for i in range(k))
    for extra in (0, 600):
        assert _verdict(text, extra) == "parsed"
    tree = parse_unit("A.java", text).tree
    node = tree.root
    while node.kind != "IfStmt":
        node = node.children[-1]
    arms = 0
    while node.kind == "IfStmt":
        arms += 1
        assert len(node.children) == 3
        node = node.children[-1]
    assert arms == k + 1 and node.kind == "Block"
    printed = pretty_print(tree)
    assert printed.count("} else if (a") == k
    assert structurally_equal(parse_unit("A.java", printed).tree.root,
                              tree.root)
