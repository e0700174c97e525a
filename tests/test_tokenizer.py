"""Differential test: the scanner against two references.

``reference_tokenize`` is the original character-at-a-time lexer, kept
here as an oracle, and ``reference_frontend.scan`` the scanner that
matched one token per regex call before the scan took one ``findall`` per
text.  ``scan`` now takes the token texts alone from one ``findall`` and
their kinds from a table keyed by first character, leaving the few heads
the table cannot decide to one rule; ``scan_positions`` matches the same
grammar one token at a time, reads kinds through the same table and rule,
and turns the tokens' offsets into lines and columns.  On every input
``reference_parser.tokenize``, the token-object view of
``scan_positions``, must agree with the first on every token (kind,
text, line, column), ``scan_positions`` with the second on all four
lists, eof entries included, and ``scan``, which keeps no positions, with
the second's kinds and texts; or each must raise the same ParseError
message as its reference.  The inputs: every corpus and fixture file,
the generated workloads at two seeds, edge cases, and seeded mutations
and character soup that add CRLF line ends, tabs, escapes, unterminated
comments, strings and chars, and non-ASCII text.

Two more tests pin the kernel's cost.  Text with a comment or literal
left open scans in linear time: the first one is a single token that
runs to the end of the text.  And ``scan`` reads well-formed text
without handing it to ``scan_positions``, a fallback whose output is the
same but whose cost is not, so only this test would see it taken.
"""

import random
import time

import pytest

import reference_frontend
from conftest import FANOUT, bench_gen, corpus_java_files, random_program
from mergeweaver import parser
from mergeweaver.parser import ParseError, parse_unit, scan, scan_positions
from reference_parser import Token, tokenize

_REFERENCE_PUNCT = [
    "||", "&&", "==", "!=", "<=", ">=",
    "{", "}", "(", ")", "[", "]", ";", ",", ".", "@", ":",
    "=", "<", ">", "+", "-", "*", "/", "%", "!", "?",
]


def reference_tokenize(path: str, text: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(text)

    def advance(k: int) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if text.startswith("//", i):
            j = text.find("\n", i)
            advance((j if j != -1 else n) - i)
            continue
        if text.startswith("/*", i):
            j = text.find("*/", i + 2)
            if j == -1:
                raise ParseError(path, line, col, "unterminated block comment")
            advance(j + 2 - i)
            continue
        if ch.isalpha() or ch in "_$":
            start, sl, sc = i, line, col
            while i < n and (text[i].isalnum() or text[i] in "_$"):
                advance(1)
            tokens.append(Token("ident", text[start:i], sl, sc))
            continue
        if ch.isdigit():
            start, sl, sc = i, line, col
            while i < n and (text[i].isalnum() or text[i] == "."):
                advance(1)
            tokens.append(Token("number", text[start:i], sl, sc))
            continue
        if ch == '"':
            start, sl, sc = i, line, col
            advance(1)
            while i < n and text[i] != '"':
                advance(2 if text[i] == "\\" else 1)
            if i >= n:
                raise ParseError(path, sl, sc, "unterminated string literal")
            advance(1)
            tokens.append(Token("string", text[start:i], sl, sc))
            continue
        if ch == "'":
            start, sl, sc = i, line, col
            advance(1)
            while i < n and text[i] != "'":
                advance(2 if text[i] == "\\" else 1)
            if i >= n:
                raise ParseError(path, sl, sc, "unterminated char literal")
            advance(1)
            tokens.append(Token("char", text[start:i], sl, sc))
            continue
        for p in _REFERENCE_PUNCT:
            if text.startswith(p, i):
                tokens.append(Token("punct", p, line, col))
                advance(len(p))
                break
        else:
            raise ParseError(path, line, col, f"unexpected character {ch!r}")
    tokens.append(Token("eof", "", line, col))
    return tokens


def outcome(fn, text: str):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in fn("T.java", text)]
    except ParseError as exc:
        return f"ParseError: {exc}"


def scan_outcome(fn, text: str):
    try:
        return fn("T.java", text)
    except ParseError as exc:
        return f"ParseError: {exc}"


def assert_same(text: str) -> None:
    assert outcome(tokenize, text) == outcome(reference_tokenize, text), \
        repr(text)
    reference = scan_outcome(reference_frontend.scan, text)
    assert scan_outcome(scan_positions, text) == reference, repr(text)
    kinds_and_texts = reference if isinstance(reference, str) \
        else reference[:2]
    assert scan_outcome(scan, text) == kinds_and_texts, repr(text)


# Fragments a mutation splices in: line ends, tabs, escapes, openers with
# no closer, stray characters, and non-ASCII letters, digits and numerals.
_FRAGMENTS = [
    "\r\n", "\r", "\n", "\t", "\t\t", " ", "\n\n",
    "/*", "*/", "/* c */", "/*\r\n*/", "//", "// x\n", "/**/", "/*/",
    '"', "'", '"a\\"b"', "'\\''", '"\\\\"', "'\\n'", '"\n"', "\\",
    '"abc', "'x", "\\u0041", "@", "#", "`", "~", "^", "&", "|", "\x00",
    "a_b$1", "$x", "_", "_1", "1_000", "0x1F", "1.5e3", "10L", "3.",
    "é", "Ärger", "名前", "x²", "²", "½", "Ⅻ", "٣", "१२", "ǅ", "ʰ",
    " ", " ", "​", "﻿", "ß", "ﬁ", "𝑥", "🙂",
    "||", "&&", "==", "!=", "<=", ">=", "<<", ">>=", "->", "::", "...",
]


def mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randrange(1, 5)):
        roll = rng.random()
        pos = rng.randrange(len(text) + 1)
        if roll < 0.55:
            text = text[:pos] + rng.choice(_FRAGMENTS) + text[pos:]
        elif roll < 0.7:
            text = text[:pos] + text[pos + rng.randrange(1, 20):]
        elif roll < 0.8:
            text = text.replace("\n", "\r\n")
        elif roll < 0.9:
            text = text.replace("    ", "\t")
        else:
            text = text[:pos]               # truncate mid-token
    return text


def test_reference_agrees_on_every_corpus_file():
    for path in corpus_java_files() + sorted(FANOUT.rglob("*.java")):
        assert_same(path.read_text())


@pytest.mark.parametrize("seed", [1, 4242])
@pytest.mark.parametrize("workload", sorted(bench_gen.GENERATORS))
def test_generated_workloads(workload, seed):
    wl = bench_gen.generate(workload, seed)
    for version in (wl.base, wl.left, wl.right):
        for text in version.values():
            assert_same(text)


@pytest.mark.parametrize("text", [
    "", " ", "\n", "a", "1", "@", "/*", "/* x", "//", '"', "'", '"\\',
    "'\\", "a\r\nb", "\tx", "x\n/*\n\n", '"a\nb"', "²", "½", "x²", "é1",
    "a /* b */ c // d\ne", "1_000", "..", "a.b.c",
    "a // d", "a /* b */", "a\n", "a;\n\n", "²_a ².5 ².a_b ²$", "a | b & c",
    '"a\nb" c\n\'\n\' d', "a\r\n/* x\n */ b",
    '"\\' * 3, "/* " * 3, "'\\" * 3, 'a "b\\\\" "c\\"', "'\\\\'",
    # a split number, then later lines: a literal across lines, an error
    '²\n x\n"open', 'a\n ²b.c\n\t"s\nt" ²\n  /*', '"a\nb" ²\r\né #',
])
def test_edge_cases(text):
    assert_same(text)


def test_seeded_mutations_of_corpus_files():
    rng = random.Random(20251018)
    sources = [p.read_text() for p in corpus_java_files()]
    for _ in range(3000):
        assert_same(mutate(rng, rng.choice(sources)))


def test_seeded_mutations_of_generated_programs():
    rng = random.Random(4242)
    for _ in range(500):
        assert_same(mutate(rng, random_program(rng)))


def test_random_character_soup():
    rng = random.Random(7)
    alphabet = "".join(_FRAGMENTS) + "abcXYZ019 .;(){}"
    for _ in range(2000):
        assert_same("".join(rng.choice(alphabet)
                            for _ in range(rng.randrange(1, 40))))


@pytest.mark.parametrize("piece", ['"\\', "/* ", "'\\"])
def test_open_comments_and_literals_scan_in_linear_time(piece):
    # quadratic if each later quote or "/*" read on to the end again
    text = "class A { " + piece * (65536 // len(piece)) + " }"
    expected = outcome(reference_tokenize, text)
    for fn in (scan, scan_positions, parse_unit):
        start = time.process_time()
        with pytest.raises(ParseError) as caught:
            fn("T.java", text)
        assert time.process_time() - start < 0.5, fn.__name__
        assert f"ParseError: {caught.value}" == expected


def test_scan_reads_well_formed_text_on_its_own(monkeypatch):
    def rescan(path, text):
        raise AssertionError(f"scan handed {text[:60]!r} to scan_positions")
    monkeypatch.setattr(parser, "scan_positions", rescan)
    texts = [path.read_text() for path in
             corpus_java_files() + sorted(FANOUT.rglob("*.java"))]
    for workload in sorted(bench_gen.GENERATORS):
        for seed in (1, 4242):
            wl = bench_gen.generate(workload, seed)
            texts += [text for version in (wl.base, wl.left, wl.right)
                      for text in version.values()]
    # texts that end in whitespace, in a comment or in a token
    texts += ["", "a ", "a\n", "a // d", "a //", "a /* b */", "a", "a;",
              '"s"', "'c'", "a / b", "a || b && c"]
    for text in texts:
        scan("T.java", text)
