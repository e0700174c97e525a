"""Differential test: the parser kernel against the reference parser.

``reference_parser`` is the recursive-descent parser from before the
kernel (per-token objects, one recursive method per operator tier, ids
numbered in a separate walk) plus the comma rule.  On every input both
must give the same (kind, value, span, id) for every node in pre-order
and the same ``max_id``, or raise the same ParseError message.  So must
the kernel with recognized bodies, once every body is built.  Inputs:
every corpus file, the fanout fixture, the generated workloads, long
mixed-precedence operator chains, and seeded token mutations of corpus
files.
"""

import random

import pytest

from conftest import FANOUT, bench_gen, corpus_java_files
from mergeweaver.parser import ParseError, parse_unit
from mergeweaver.syntax import recognized_blocks
from reference_parser import parse_tree, tokenize


def outcome(text: str, path: str = "T.java"):
    """Both parsers' results on ``text``, the kernel's first.  The kernel
    parses twice, the second time with recognized bodies, and must give
    the same result both times."""
    try:
        tree = parse_unit(path, text).tree
        nodes = list(tree.nodes())
        # one walk numbers and indexes the tree
        for node in nodes:
            assert tree.node(node.id) is node
            for child in node.children:
                assert tree.parent(child) is node
        assert tree.parent(tree.root) is None
        new = ([(n.kind, n.value, n.span, n.id) for n in nodes], tree.max_id)
    except ParseError as exc:
        new = f"ParseError: {exc}"
    try:
        tree = parse_unit(path, text, recognize_bodies=True).tree
        # the ids hold before any body is built
        max_id = tree.max_id
        blocks = recognized_blocks(tree.root)
        assert not any(block.built for block in blocks)
        recognized = ([(n.kind, n.value, n.span, n.id) for n in tree.nodes()],
                      max_id)
        assert all(block.built for block in blocks)
    except ParseError as exc:
        recognized = f"ParseError: {exc}"
    assert recognized == new, text
    try:
        root, max_id = parse_tree(path, text)
        ref = ([(n.kind, n.value, n.span, n.id) for n in root.walk()], max_id)
    except ParseError as exc:
        ref = f"ParseError: {exc}"
    return new, ref


def assert_same(text: str) -> None:
    new, ref = outcome(text)
    assert new == ref, text


def test_every_corpus_and_fixture_file():
    files = corpus_java_files() + sorted(FANOUT.rglob("*.java"))
    assert any("expected" in p.parts for p in files)
    assert any("controls" in p.parts for p in files)
    for path in files:
        assert_same(path.read_text())


@pytest.mark.parametrize("seed", [1, 4242])
@pytest.mark.parametrize("workload", sorted(bench_gen.GENERATORS))
def test_generated_workloads(workload, seed):
    wl = bench_gen.generate(workload, seed)
    texts = {text for version in (wl.base, wl.left, wl.right)
             for text in version.values()}
    for text in sorted(texts):
        assert_same(text)


# ---------------------------------------------------------------------------
# Operator chains: every binary operator, operands of every expression form,
# and line breaks inside the chain so that spans cross lines.

_OPERATORS = ["||", "&&", "==", "!=", "<", ">", "<=", ">=",
              "+", "-", "*", "/", "%"]
_OPERANDS = ["a", "b", "1", "-2", '"s"', "'c'", "true", "null", "x.f",
             "g(a, b)", "h()", "o.m(a + b)", "(int) y", "(T) o.m()",
             "new T()", "new T(a * b, c)"]


def _chain(rng: random.Random, length: int) -> str:
    parts = [rng.choice(_OPERANDS)]
    for _ in range(length - 1):
        gap = rng.choice([" ", " ", "", "\n        ", "\t"])
        parts += [gap + rng.choice(_OPERATORS) + gap, rng.choice(_OPERANDS)]
    return "".join(parts)


def _chain_program(rng: random.Random) -> str:
    def chain() -> str:
        return _chain(rng, rng.randrange(1, 40))

    stmts = [
        f"x = {chain()};",
        f"x = y.f = {chain()};",
        f"int v = {chain()};",
        f"return {chain()};",
        f"if ({chain()}) {{ x = {chain()}; }} else {{ g({chain()}); }}",
        f"while ({chain()}) {{ }}",
        f"g({chain()}, {chain()});",
        f"for (int i = {chain()}; {chain()}; i = {chain()}) {{ }}",
    ]
    body = "\n    ".join(rng.sample(stmts, rng.randrange(1, len(stmts))))
    return (f"class C {{\n  int f = {chain()};\n"
            f"  void m() {{\n    {body}\n  }}\n}}\n")


def test_mixed_precedence_operator_chains():
    rng = random.Random(1973)
    for _ in range(300):
        text = _chain_program(rng)
        new, ref = outcome(text)
        assert not isinstance(ref, str), ref
        assert new == ref, text


def test_every_pair_of_tiers_in_both_orders():
    for first in _OPERATORS:
        for second in _OPERATORS:
            assert_same(f"class C {{ int f = a {first} b {second} c "
                        f"{first} d; }}")


@pytest.mark.parametrize("stmts", [
    "final; final = 1; final.f = 2; final + 1;",
    "int v = a < b; a < b; x = a <= b; final.g();",
    "for (final; i < n; i = i + 1) { final = 2; }",
    "g(new Object() { @A public static class I { void m() { final; } } "
    "@B final int f = 1; void n() { new I(); } });",
])
def test_what_a_body_takes_back_is_not_counted(stmts):
    # a local variable's probe and an anonymous class's member give back
    # the nodes they made, so a recognized body must not count them
    text = (f"class C {{\n  void m() {{\n    {stmts}\n  }}\n"
            f"  C() {{ {stmts} }}\n}}\n")
    new, ref = outcome(text)
    assert not isinstance(ref, str), ref
    assert new == ref, text


# ---------------------------------------------------------------------------
# Token mutations: drop, duplicate or swap tokens, or splice in a keyword,
# operator or punctuation mark, keeping the layout around the others.

_SPLICE = ["if", "else", "for", "while", "return", "throw", "new", "class",
           "interface", "enum", "extends", "implements", "throws", "final",
           "public", "static", "package", "import", "true", "null", "int",
           "x", "1", '"s"', *_OPERATORS, "=", "(", ")", "{", "}", "<", ">",
           ";", ",", ".", "@", ":", "!", "?", "[", "]"]


def _layout(text: str) -> tuple[list[str], list[str], str]:
    """``text`` as the gaps before each token, the tokens, and the tail."""
    line_starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]
    gaps: list[str] = []
    words: list[str] = []
    prev = 0
    for tok in tokenize("M.java", text)[:-1]:
        offset = line_starts[tok.line - 1] + tok.col - 1
        gaps.append(text[prev:offset])
        words.append(tok.text)
        prev = offset + len(tok.text)
    return gaps, words, text[prev:]


def _mutate(rng: random.Random, gaps: list[str], words: list[str],
            tail: str) -> str:
    gaps, words = list(gaps), list(words)
    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(len(words))
        roll = rng.random()
        if roll < 0.3:
            del gaps[i], words[i]
        elif roll < 0.5:
            gaps.insert(i + 1, " ")
            words.insert(i + 1, words[i])
        elif roll < 0.7 and i + 1 < len(words):
            words[i], words[i + 1] = words[i + 1], words[i]
        else:
            gaps.insert(i, " ")
            words.insert(i, rng.choice(_SPLICE))
        if not words:
            break
    return "".join(g + w for g, w in zip(gaps, words)) + tail


def test_seeded_token_mutations():
    rng = random.Random(20261018)
    sources = [_layout(p.read_text()) for p in corpus_java_files()]
    sources = [s for s in sources if s[1]]
    parsed = 0
    for _ in range(5000):
        text = _mutate(rng, *rng.choice(sources))
        new, ref = outcome(text)
        assert new == ref, text
        parsed += not isinstance(ref, str)
    # enough mutants still parse for the trees to be compared, not only
    # the error messages
    assert parsed > 200
