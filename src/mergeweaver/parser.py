"""Lexer and recursive-descent parser for the supported Java subset.

What parses:

* package and single-type or on-demand (``.*``) imports;
* class, interface and enum declarations, nested too, with extends and
  implements clauses, name-only annotations and the modifiers public,
  private, protected, static, final and abstract;
* fields with an optional initializer, methods (abstract ones end in
  ``;``) and constructors, with parameters, ``final`` parameters and a
  throws clause; enum constants as bare names separated by commas, closed
  by ``;`` or ``}``;
* statements: blocks, local variable declarations, expression statements,
  if/else, for, for-each, while, return and throw (``break;`` and
  ``continue;`` parse as expression statements of a bare name);
* expressions: names, number, string, char, boolean and null literals, a
  minus sign directly before a number literal, invocation chains, field
  accesses, object creation with an optional anonymous body, casts
  ``(T) e``, the binary operators ``|| && == != < > <= >= + - * / %``
  (left-associative, in the usual precedence), and ``=`` assignments to a
  name or field access.

Generic type arguments are kept as opaque text on TypeRef values.
Comments are discarded.  Among what does not parse, a ParseError names
the first offending token:

* parenthesised expressions: ``(a + b) * c`` fails, because ``(`` in an
  expression always starts a cast;
* unary minus on anything other than a number literal (``-x``), and the
  other unary operators (``!``, ``++``, ``--``);
* a trailing comma after enum constants (``enum E { A, B, }``), and a
  missing or trailing comma between parameters or arguments;
* the empty statement ``;``;
* arrays, compound assignment, ``?:``, ``instanceof``, lambdas, method
  references, switch, try/catch, do/while, ``synchronized``, static
  imports, annotation arguments, varargs, records, default methods and
  generic methods.

Heritage and throws clauses are encoded with keyword marker leaves: a Name
node valued "extends", "implements" or "throws" precedes the TypeRef children
it introduces.  That keeps the node vocabulary closed while leaving the
printer enough to reproduce the clause.  ``syntax.clauses`` is the one
decoder of these leaves; the other ``syntax`` readers decode the rest of a
declaration's layout.

Nesting deeper than ``MAX_NESTING`` levels raises "nested too deeply" at
the token that opens the level past the limit.  The limit is a property of
the text: it does not depend on how deep the caller's stack is.

The scanner reads each file with one ``findall`` of ``_TOKEN_RE``, which
yields the token texts alone, and maps their first characters to kinds
through a table, both in C; the few heads that do not decide a kind
("/", "|", "&", quotes, non-ASCII characters) are found by ``list.index``
and sorted out in Python.  The scan is linear, on malformed text too: its
skip runs are possessive, its alternation ends in ``.|\\Z`` and so never
fails, and a comment or literal left open is one token that runs to the
end of the text.  The lists end in ``_EOF_PAD`` eof entries, so the
parser reads one token ahead by index without a bound check.

No position is computed while a file parses.  A node keeps the range of
tokens it covers and the file's ``TokenPositions``; its ``span`` is
resolved on first read (see ``syntax.SyntaxNode``) from a position table
that ``scan_positions`` builds once per file: it keeps the offset of each
``_TOKEN_RE`` match and turns the ascending offsets into lines and columns
in one pass.  ``_rare_kind`` is both scanners' rule for the heads the
table does not decide.  A text with a token that only its offset decides
(a character of no token class, an unterminated comment or literal, or a
number led by a non-ASCII digit such as "²", which needs its offset to be
split) is read again by ``scan_positions``, which raises the error at its
position or splits the number.  A ParseError of the parser builds its
file's table to name the line and column of the offending token, so a
file whose nodes nobody asks a span of costs its scan and grammar only.

A local variable declaration is told from an expression statement by a
probe that reads a type and a name; a probe whose type arguments run to
the end of the text gives up without an error, so it builds no position
table either.

With ``recognize_bodies`` (``merge3.parse_versions`` sets it for the
files at ``MergeScenario.deferred``, those every version shares and whose
bodies the entity-graph builds defer; a body that is read would pay for
this check and then for its build) the parser checks each method and
constructor body with the full grammar but builds none of its nodes:
``_node`` then only counts them and returns its kind's mark, since the
grammar reads no more of a node than its kind, and a probe that backs off
takes back the count of the nodes it made.  The body becomes a
``syntax.RecognizedBlock`` of its token range and that count, whose
children are parsed again from the file's text on their first read
(``_build_block``).  The body ran through the grammar once, so the file
raises the same ParseError, at the same position, as an eager parse; and
the tree numbers the block's nodes as if they were there, so every id is
the one an eager parse gives.  This is the preparser of Verwaest and
Hölttä, "Blazingly fast parsing, part 2: lazy parsing" (v8.dev, 2019).
"""

from __future__ import annotations

import re
import sys
import threading
from operator import itemgetter
from typing import Optional

from .syntax import (NODE_KINDS, TYPE_KEYWORDS, RecognizedBlock, SourceFile,
                     Span, SyntaxNode, SyntaxTree)

MODIFIERS = {"public", "private", "protected", "static", "final", "abstract"}
STMT_KEYWORDS = {"if", "for", "while", "return", "throw"}
# type declaration keyword -> node kind
_TYPE_DECL_OF = {kw: kind for kind, kw in TYPE_KEYWORDS.items()}
_NOT_A_LOCAL_TYPE = STMT_KEYWORDS | {"new", "else"}
_NOT_A_CONSTANT = MODIFIERS | set(_TYPE_DECL_OF)
_LITERAL_KINDS = frozenset({"number", "string", "char"})

# The precedence tier of every binary operator, lowest first; all are
# left-associative.
_TIER = {op: tier for tier, ops in enumerate([
    ["||"],
    ["&&"],
    ["==", "!="],
    ["<", ">", "<=", ">="],
    ["+", "-"],
    ["*", "/", "%"],
]) for op in ops}

# The token grammar: a skip run, then one token in group 1.  The skip run
# is possessive, so a token that fails never makes the engine re-read
# "/* a */ # /* b */" as one longer comment.  The matches tile the text,
# so findall never jumps over a character, and the first empty token is
# the end of the text (one ending in a skip run matches \Z twice).  A
# closed literal that fails reads its text once before '["'].*' reads it
# to the end; "." takes the other texts that are no token (a lone "|" or
# "&", a character of no token class).  An ASCII identifier takes the
# first branch, which consults no Unicode table, unless a non-ASCII
# character follows it.  \w and str.isalnum agree on every character, so
# the classes follow the isalpha/isdigit/isalnum rules of the subset
# except for characters that are \w but neither letters nor decimal digits
# (such as "²"), which scan_positions sorts out by hand.
_SKIP = r"(?:[ \t\r\n]++|//[^\n]*+|/\*.*?\*/)*+"
_TOKEN = (r"[A-Za-z_$][A-Za-z0-9_$]*+(?![^\x00-\x7f])"
          r"|\|\||&&|==|!=|<=|>=|/\*.*|[{}()\[\];,.@:=<>+\-*/%!?]"
          r"|(?:[^\W\d]|\$)[\w$]*"
          r"|\d(?:[^\W_]|\.)*"
          r'|"(?:[^"\\]|\\.)*+"|\'(?:[^\'\\]|\\.)*+\'|["\'].*'
          r"|.|\Z")
_TOKEN_RE = re.compile(f"{_SKIP}({_TOKEN})", re.DOTALL)


class _Kinds(dict):
    """Token kinds by first character.  A head that decides no kind maps
    to ``_RARE``: "/" (or "/*"), "|" ("||"), "&" ("&&"), quotes and
    non-ASCII characters, which ``_rare_kind`` sorts out."""

    def __missing__(self, head: str) -> str:
        return _RARE


_RARE = "rare"
_KIND_OF = _Kinds({c: "ident" if c.isalpha() or c in "_$" else
                   "number" if c.isdigit() else "punct"
                   for c in map(chr, range(128))
                   if c.isalnum() or c in "_${}()[];,.@:=<>+-*%!?"})
_FIRST = itemgetter(0)
_NUMBER_TAIL = re.compile(r"(?:[^\W_]|\.)*")
_UNTERMINATED = {'"': "unterminated string literal",
                 "'": "unterminated char literal",
                 "/": "unterminated block comment"}

# The deepest nesting a text may have, counted in open type declarations,
# blocks, expressions (each argument and initializer one more) and cast
# operands.  An if statement opens no level of its own, its block does, and
# its else-if arms, read in a loop, open none.  A call nested
# MAX_NESTING - 3 deep in a method's return statement is the deepest that
# parses.  The parser spends at most 7 frames per level (an argument of a
# ``new``: parse_expression, _binary, _postfix, _primary,
# _object_creation, _argument_list, _comma_list), and parse_unit makes
# room for _FRAMES_PER_LEVEL per level above the caller's frames, the
# spare one per level covering the frames outside the levels.
MAX_NESTING = 128
_FRAMES_PER_LEVEL = 8

# held while parse_unit has the interpreter's recursion limit raised, so
# that no thread restores the limit under another one's parse
_RECURSION_LIMIT_LOCK = threading.Lock()

# what a recognized body's grammar returns in place of a node: one
# childless node per kind, since the grammar reads no more of a node than
# its kind (an assignment's target)
_MARKS = {kind: SyntaxNode(kind) for kind in NODE_KINDS}

# eof entries at the end of the scanned lists: the real eof token plus
# one more, so that a one-token lookahead from eof stays in range
_EOF_PAD = 2


class ParseError(Exception):
    def __init__(self, path: str, line: int, col: int, message: str):
        super().__init__(f"{path}:{line}:{col}: {message}")
        self.path = path
        self.line = line
        self.col = col
        self.message = message


Tokens = tuple[list[str], list[str]]
Scan = tuple[list[str], list[str], list[int], list[int]]


def scan(path: str, text: str) -> Tokens:
    """Kinds and texts of the tokens of ``text``, each list ending in
    ``_EOF_PAD`` copies of an eof token; no positions.

    A text with a token whose kind only its offset decides (see
    ``_rare_kind``) is scanned again by ``scan_positions``, which raises
    the same ParseError it would or returns the same tokens.
    """
    texts = _TOKEN_RE.findall(text)
    # drop the empty tokens: \Z matches once, or twice after a skip run
    del texts[-1 if len(texts) < 2 or texts[-2] else -2:]
    kinds = list(map(_KIND_OF.__getitem__, map(_FIRST, texts)))
    kinds += ["eof"] * _EOF_PAD
    texts += [""] * _EOF_PAD
    at = 0
    for _ in range(kinds.count(_RARE)):
        at = kinds.index(_RARE, at)
        kind = _rare_kind(texts[at], not texts[at + 1])
        if kind is None:
            return scan_positions(path, text)[:2]
        kinds[at] = kind
    return kinds, texts


def _rare_kind(tok: str, last: bool) -> Optional[str]:
    """The kind of a token whose head decides none, ``last`` false only
    if text follows it; None if only its offset decides (see the module
    docstring)."""
    if tok in ("/", "||", "&&"):
        return "punct"
    head = tok[0]
    # a literal left open runs to the end of the text
    if head in "\"'" and (not last or _closed(tok)):
        return "string" if head == '"' else "char"
    if head.isalpha():              # a non-ASCII letter
        return "ident"
    return None


def _closed(literal: str) -> bool:
    """Whether ``literal``, read from its quote to the end of a text, ends
    in its closing quote: one that no backslash escapes."""
    inner = literal[:-1]
    return (len(literal) > 1 and literal[-1] == literal[0]
            and (len(inner) - len(inner.rstrip("\\"))) % 2 == 0)


def scan_positions(path: str, text: str) -> Scan:
    """Kinds, texts, lines and cols of the tokens of ``text``.

    Each list ends in ``_EOF_PAD`` copies of an eof token.  Lines and
    columns are 1-based; every character, tabs and carriage returns
    included, advances the column by one.
    """
    kinds: list[str] = []
    texts: list[str] = []
    starts: list[int] = []
    match = _TOKEN_RE.match
    pos = 0
    while True:
        m = match(text, pos)        # never fails: the grammar ends in \Z
        tok = m[1]
        at, pos = m.span(1)
        if not tok:
            break
        kind = _KIND_OF[tok[0]]
        if kind == _RARE:
            kind = _rare_kind(tok, pos == len(text))
            if kind is None:
                head = tok[0]
                if not head.isdigit():
                    (line,), (col,) = _lines_cols(text, [at])
                    raise ParseError(path, line, col, _UNTERMINATED.get(
                        head, f"unexpected character {head!r}"))
                # a non-ASCII digit such as "٣" or "²"; "²" is \w but no
                # decimal digit, so its match took an identifier's tail
                kind = "number"
                pos = _NUMBER_TAIL.match(text, at + 1).end()
                tok = text[at:pos]
        kinds.append(kind)
        texts.append(tok)
        starts.append(at)
    lines, cols = _lines_cols(text, starts + [at] * _EOF_PAD)
    return kinds + ["eof"] * _EOF_PAD, texts + [""] * _EOF_PAD, lines, cols


def _lines_cols(text: str, offsets: list[int]) -> tuple[list[int], list[int]]:
    """The lines and columns of the ascending ``offsets`` into ``text``."""
    lines: list[int] = []
    cols: list[int] = []
    line, line_start, prev = 1, 0, 0    # line_start: where ``line`` starts
    for at in offsets:
        nl = text.count("\n", prev, at)
        if nl:
            line += nl
            line_start = text.rfind("\n", prev, at) + 1
        lines.append(line)
        cols.append(at - line_start + 1)
        prev = at
    return lines, cols


class TokenPositions:
    """The positions of the tokens of one text, for the spans of the
    nodes parsed from it: a table of every token's text, line and column,
    built by ``scan_positions`` on the first question and then kept.  The
    table is built whole and published in one store.  So are the tokens
    themselves, which the first build of a recognized body scans again
    and the file's other bodies then share."""

    __slots__ = ("text", "_table", "_tokens")

    def __init__(self, text: str):
        self.text = text
        self._table: Optional[tuple[list[str], list[int], list[int]]] = None
        self._tokens: Optional[Tokens] = None

    def tokens(self) -> Tokens:
        """The kinds and texts of the tokens, as ``scan`` gives them."""
        tokens = self._tokens
        if tokens is None:
            tokens = self._tokens = scan("", self.text)
        return tokens

    @property
    def built(self) -> bool:
        """Whether the table has been built."""
        return self._table is not None

    def _positions(self) -> tuple[list[str], list[int], list[int]]:
        table = self._table
        if table is None:
            # the text scanned once already, so it scans again
            table = self._table = scan_positions("", self.text)[1:]
        return table

    def at(self, index: int) -> tuple[int, int]:
        """The line and column of token ``index``."""
        _texts, lines, cols = self._positions()
        return lines[index], cols[index]

    def span(self, packed: int) -> Span:
        """The span of the tokens ``first .. stop - 1``, packed as
        ``first << 32 | stop``: from the first one's start to the last
        one's last character.  With none (stop 0) the last is an eof
        entry, so an empty file's unit spans its eof position."""
        texts, lines, cols = self._positions()
        first, end = packed >> 32, (packed & 0xFFFFFFFF) - 1
        last = texts[end]
        return (lines[first], cols[first], lines[end],
                cols[end] + len(last) - 1 if last else cols[end])


def token_texts(text: str) -> list[str]:
    """Texts of the tokens of ``text``, without the eof token."""
    texts = scan("<tokens>", text)[1]
    del texts[-_EOF_PAD:]
    return texts


class _Parser:
    def __init__(self, path: str, tokens: Tokens, positions: TokenPositions,
                 recognize: bool = False):
        self.path = path
        self.kinds, self.texts = tokens
        self.positions = positions
        self.pos = 0
        self.eof = len(self.kinds) - _EOF_PAD   # index of the real eof
        self.depth = 0      # nesting levels open; see MAX_NESTING
        # whether the next member body is recognized rather than built,
        # and the nodes a body being recognized has made so far
        self.recognize = recognize
        self.made = 0

    # -- token plumbing ----------------------------------------------------

    def expect(self, text: str) -> None:
        found = self.texts[self.pos]
        if found != text:
            self.fail(f"expected {text!r} but found {found!r}")
        self.pos += 1

    def expect_ident(self) -> str:
        if self.kinds[self.pos] != "ident":
            self.fail("expected identifier but found "
                      f"{self.texts[self.pos]!r}")
        self.pos += 1
        return self.texts[self.pos - 1]

    def fail(self, message: str):
        line, col = self.positions.at(self.pos)
        raise ParseError(self.path, line, col, message)

    def _descend(self) -> None:
        """Opens one more nesting level at the next token."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail("nested too deeply")

    # -- nodes -------------------------------------------------------------

    def _node(self, kind: str, value: str, children: list[SyntaxNode],
              start: int) -> SyntaxNode:
        """A node over the tokens from index ``start`` to the last one
        taken, kept as a token range (see ``TokenPositions.span``)."""
        return SyntaxNode(kind, value, children, start << 32 | self.pos, -1,
                          self.positions)

    def _mark(self, kind: str, value: str, children: list[SyntaxNode],
              start: int) -> SyntaxNode:
        """``_node`` while a body is recognized: counts the node and
        returns its kind's mark."""
        self.made += 1
        return _MARKS[kind]

    def _leaf(self, kind: str) -> SyntaxNode:
        """A childless node of the next token, valued by its text."""
        self.pos += 1
        return self._node(kind, self.texts[self.pos - 1], [], self.pos - 1)

    # -- top level ---------------------------------------------------------

    def parse_unit(self) -> SyntaxNode:
        texts = self.texts
        children: list[SyntaxNode] = []
        if texts[0] == "package":
            self.pos = 1
            name = self._qualified_name()
            self.expect(";")
            children.append(self._node("PackageDecl", name, [], 0))
        while texts[self.pos] == "import":
            istart = self.pos
            self.pos += 1
            name = self._qualified_name()
            if texts[self.pos] == ".":
                self.pos += 1
                self.expect("*")
                name += ".*"
            self.expect(";")
            children.append(self._node("ImportDecl", name, [], istart))
        while self.pos < self.eof:
            children.append(self.parse_type_decl())
        return self._node("CompilationUnit", "", children, 0)

    def _qualified_name(self) -> str:
        kinds, texts = self.kinds, self.texts
        parts = [self.expect_ident()]
        while texts[self.pos] == "." and kinds[self.pos + 1] == "ident":
            parts.append(texts[self.pos + 1])
            self.pos += 2
        return ".".join(parts)

    def _annotations_and_modifiers(self) -> list[SyntaxNode]:
        kinds, texts = self.kinds, self.texts
        out: list[SyntaxNode] = []
        while True:
            text = texts[self.pos]
            if text == "@":
                astart = self.pos
                self.pos += 1
                name = self.expect_ident()
                out.append(self._node("Annotation", name, [], astart))
            elif text in MODIFIERS and kinds[self.pos] == "ident":
                out.append(self._leaf("Modifier"))
            else:
                return out

    def parse_type_decl(self) -> SyntaxNode:
        self._descend()
        texts = self.texts
        start = self.pos
        children = self._annotations_and_modifiers()
        kw = texts[self.pos]
        if kw not in _TYPE_DECL_OF:
            self.fail(f"expected type declaration but found {kw!r}")
        self.pos += 1
        name = self.expect_ident()
        if kw != "enum" and texts[self.pos] == "extends":
            children.append(self._leaf("Name"))
            children.append(self._type_ref())
        if kw == "class" and texts[self.pos] == "implements":
            children.append(self._leaf("Name"))
            children.append(self._type_ref())
            while texts[self.pos] == ",":
                self.pos += 1
                children.append(self._type_ref())
        self.expect("{")
        kind = _TYPE_DECL_OF[kw]
        if kw == "enum":
            children.extend(self._enum_constants())
        while texts[self.pos] != "}":
            children.append(self._member(name))
        self.pos += 1
        self.depth -= 1
        return self._node(kind, name, children, start)

    def _enum_constants(self) -> list[SyntaxNode]:
        kinds, texts = self.kinds, self.texts
        out: list[SyntaxNode] = []
        if kinds[self.pos] != "ident" or texts[self.pos] in _NOT_A_CONSTANT:
            return out
        # constants are IDENTs separated by commas, closed by ';' or '}'
        if texts[self.pos + 1] not in (",", ";", "}"):
            return out
        while True:
            cstart = self.pos
            name = self.expect_ident()
            out.append(self._node("EnumConstant", name, [], cstart))
            if texts[self.pos] != ",":
                break
            self.pos += 1
        if texts[self.pos] == ";":
            self.pos += 1
        return out

    def _member(self, owner: str) -> SyntaxNode:
        texts = self.texts
        start, made = self.pos, self.made
        children = self._annotations_and_modifiers()
        if texts[self.pos] in _TYPE_DECL_OF:
            # the type declaration reads its annotations and modifiers again
            self.pos, self.made = start, made
            return self.parse_type_decl()
        # constructor: Owner ( ...
        if texts[self.pos] == owner and texts[self.pos + 1] == "(" \
                and self.kinds[self.pos] == "ident":
            self.pos += 1
            children.extend(self._comma_list(self._parameter, "parameter"))
            children.extend(self._throws())
            children.append(self._body())
            return self._node("ConstructorDecl", owner, children, start)
        children.append(self._type_ref())
        name = self.expect_ident()
        if texts[self.pos] == "(":
            children.extend(self._comma_list(self._parameter, "parameter"))
            children.extend(self._throws())
            if texts[self.pos] == ";":
                self.pos += 1
            else:
                children.append(self._body())
            return self._node("MethodDecl", name, children, start)
        if texts[self.pos] == "=":
            self.pos += 1
            children.append(self.parse_expression())
        self.expect(";")
        return self._node("FieldDecl", name, children, start)

    def _comma_list(self, item, what: str) -> list[SyntaxNode]:
        """``'(' [item (',' item)*] ')'``: a comma between items, none after
        the last."""
        texts = self.texts
        self.expect("(")
        out: list[SyntaxNode] = []
        if texts[self.pos] != ")":
            out.append(item())
            while texts[self.pos] == ",":
                self.pos += 1
                if texts[self.pos] == ")":
                    self.fail(f"trailing comma in {what} list")
                out.append(item())
            if texts[self.pos] != ")":
                self.fail(f"expected ',' or ')' but found {texts[self.pos]!r}")
        self.pos += 1
        return out

    def _parameter(self) -> SyntaxNode:
        pstart = self.pos
        children = self._finals()
        children.append(self._type_ref())
        pname = self.expect_ident()
        return self._node("Parameter", pname, children, pstart)

    def _finals(self) -> list[SyntaxNode]:
        mods: list[SyntaxNode] = []
        while self.texts[self.pos] == "final":
            mods.append(self._leaf("Modifier"))
        return mods

    def _throws(self) -> list[SyntaxNode]:
        if self.texts[self.pos] != "throws":
            return []
        out = [self._leaf("Name"), self._type_ref()]
        while self.texts[self.pos] == ",":
            self.pos += 1
            out.append(self._type_ref())
        return out

    # -- types -------------------------------------------------------------

    def _type_ref(self) -> SyntaxNode:
        start = self.pos
        text = self._type_text()
        if text is None:
            self.fail("unterminated type arguments")
        return self._node("TypeRef", text, [], start)

    def _type_text(self) -> Optional[str]:
        """A type's text, or None at the eof of unterminated type
        arguments, which ``_try_local_var_decl`` takes for no type."""
        text = self._qualified_name()
        if self.texts[self.pos] == "<":
            args = self._generic_args()
            return None if args is None else text + args
        return text

    def _generic_args(self) -> Optional[str]:
        # balanced angle-bracket scan kept as canonical opaque text
        kinds, texts = self.kinds, self.texts
        depth = 0
        out: list[str] = []
        prev = ""
        while True:
            kind = kinds[self.pos]
            if kind == "eof":
                return None
            t = texts[self.pos]
            if t == "<":
                depth += 1
            elif t == ">":
                depth -= 1
            wordish = kind in ("ident", "number") or t == "?"
            prev_wordish = prev and (prev[-1].isalnum() or prev[-1] in "_$?")
            if out and wordish and prev_wordish:
                out.append(" ")
            out.append(t)
            prev = t
            self.pos += 1
            if depth == 0:
                return "".join(out)

    # -- statements ----------------------------------------------------------

    def _body(self) -> SyntaxNode:
        """A method's or constructor's block; with ``recognize``, checked by
        the same grammar but with ``_mark`` for ``_node``, and kept as a
        ``RecognizedBlock`` of the nodes it would have made."""
        if not self.recognize:
            return self._block()
        start = self.pos
        # the instance attribute shadows the method, and the bodies of
        # anonymous classes inside are part of this one
        self.recognize, self.made, self._node = False, 0, self._mark
        self._block()
        del self._node
        self.recognize = True
        # the count takes in the block itself
        return RecognizedBlock(start << 32 | self.pos, self.positions,
                               self.made - 1)

    def _block(self) -> SyntaxNode:
        texts = self.texts
        start = self.pos
        self._descend()
        self.expect("{")
        stmts: list[SyntaxNode] = []
        while texts[self.pos] != "}":
            stmts.append(self.parse_statement())
        self.pos += 1
        self.depth -= 1
        return self._node("Block", "", stmts, start)

    def parse_statement(self) -> SyntaxNode:
        text = self.texts[self.pos]
        start = self.pos
        if text == "if":
            return self._if_stmt()
        if text == "for":
            return self._for_stmt()
        if text == "while":
            self.pos += 1
            cond = self._condition()
            body = self._block()
            return self._node("WhileStmt", "", [cond, body], start)
        if text == "return":
            self.pos += 1
            children = [] if self.texts[self.pos] == ";" \
                else [self.parse_expression()]
            self.expect(";")
            return self._node("ReturnStmt", "", children, start)
        if text == "throw":
            self.pos += 1
            expr = self.parse_expression()
            self.expect(";")
            return self._node("ThrowStmt", "", [expr], start)
        if text == "{":
            return self._block()
        decl = self._try_local_var_decl()
        if decl is not None:
            return decl
        return self._expr_stmt()

    def _expr_stmt(self) -> SyntaxNode:
        start = self.pos
        expr = self.parse_expression()
        self.expect(";")
        return self._node("ExprStmt", "", [expr], start)

    def _condition(self) -> SyntaxNode:
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        return cond

    def _if_stmt(self) -> SyntaxNode:
        """An if and its else-if arms, read in a loop: the arms nest in the
        tree (each else-if is the last child of the arm before it) but not
        in the text, so they open no nesting level and take no frames."""
        texts = self.texts
        arms: list[tuple[int, list[SyntaxNode]]] = []
        tail: list[SyntaxNode] = []
        while True:
            start = self.pos
            self.expect("if")
            cond = self._condition()
            arms.append((start, [cond, self._block()]))
            if texts[self.pos] != "else":
                break
            self.pos += 1
            if texts[self.pos] != "if":
                tail = [self._block()]
                break
        for start, children in reversed(arms):
            node = self._node("IfStmt", "", children + tail, start)
            tail = [node]
        return node

    def _for_stmt(self) -> SyntaxNode:
        texts = self.texts
        start = self.pos
        self.expect("for")
        self.expect("(")
        # for-each has a ':' at depth zero before any ';'
        depth = 0
        is_foreach = False
        for i in range(self.pos, self.eof):
            t = texts[i]
            if t in ("(", "["):
                depth += 1
            elif t in (")", "]"):
                if depth == 0:
                    break
                depth -= 1
            elif t == ";" and depth == 0:
                break
            elif t == ":" and depth == 0:
                is_foreach = True
                break
        if is_foreach:
            param = self._parameter()
            self.expect(":")
            iterable = self.parse_expression()
            self.expect(")")
            body = self._block()
            return self._node("ForEachStmt", "", [param, iterable, body],
                              start)
        init = self._try_local_var_decl()
        if init is None:
            init = self._expr_stmt()
        cond = self.parse_expression()
        self.expect(";")
        update = self.parse_expression()
        self.expect(")")
        body = self._block()
        return self._node("ForStmt", "", [init, cond, update, body], start)

    def _try_local_var_decl(self) -> SyntaxNode | None:
        """A local variable declaration, or None with nothing taken and no
        node counted when the statement is not one."""
        kinds, texts = self.kinds, self.texts
        start, made = self.pos, self.made
        children = self._finals()
        ttext = None
        if kinds[self.pos] == "ident" \
                and texts[self.pos] not in _NOT_A_LOCAL_TYPE:
            tstart = self.pos
            ttext = self._type_text()
        if ttext is None or kinds[self.pos] != "ident" \
                or texts[self.pos + 1] not in ("=", ";"):
            self.pos, self.made = start, made
            return None
        children.append(self._node("TypeRef", ttext, [], tstart))
        name = texts[self.pos]
        self.pos += 1
        if texts[self.pos] == "=":
            self.pos += 1
            children.append(self.parse_expression())
        self.expect(";")
        return self._node("LocalVarDecl", name, children, start)

    # -- expressions ---------------------------------------------------------

    def parse_expression(self) -> SyntaxNode:
        self._descend()
        start = self.pos
        expr = self._binary()
        if self.texts[self.pos] == "=":
            self.pos += 1
            right = self.parse_expression()
            if expr.kind not in ("Name", "FieldAccess"):
                self.fail("assignment target must be a name or field access")
            expr = self._node("Assignment", "=", [expr, right], start)
        self.depth -= 1
        return expr

    def _binary(self) -> SyntaxNode:
        """Operands joined by binary operators, by precedence climbing over
        an explicit stack: an operator first reduces every pending one of
        the same or a higher tier, which makes all of them left-associative.
        A BinaryExpr spans from its first operand's first token."""
        texts = self.texts
        start = self.pos
        operand = self._postfix()
        pending: list[tuple[int, SyntaxNode, str, int]] = []
        while True:
            op = texts[self.pos]
            tier = _TIER.get(op, -1)
            while pending and pending[-1][3] >= tier:
                start, left, left_op, _ = pending.pop()
                operand = self._node("BinaryExpr", left_op, [left, operand],
                                     start)
            if tier < 0:
                return operand
            pending.append((start, operand, op, tier))
            self.pos += 1
            start = self.pos
            operand = self._postfix()

    def _postfix(self) -> SyntaxNode:
        kinds, texts = self.kinds, self.texts
        start = self.pos
        expr = self._primary()
        while texts[self.pos] == "." and kinds[self.pos + 1] == "ident":
            name = texts[self.pos + 1]
            self.pos += 2
            if texts[self.pos] == "(":
                args = self._argument_list()
                expr = self._node("MethodInvocation", name, [expr, args],
                                  start)
            else:
                expr = self._node("FieldAccess", name, [expr], start)
        return expr

    def _argument_list(self) -> SyntaxNode:
        start = self.pos
        args = self._comma_list(self.parse_expression, "argument")
        return self._node("ArgumentList", "", args, start)

    def _primary(self) -> SyntaxNode:
        start = self.pos
        kind = self.kinds[start]
        text = self.texts[start]
        if kind == "ident":
            if text in ("true", "false", "null"):
                return self._leaf("Literal")
            if text == "new":
                return self._object_creation()
            self.pos += 1
            if self.texts[self.pos] == "(":
                args = self._argument_list()
                return self._node("MethodInvocation", text, [args], start)
            return self._node("Name", text, [], start)
        if kind in _LITERAL_KINDS:
            return self._leaf("Literal")
        if text == "-" and self.kinds[start + 1] == "number":
            self.pos += 2
            return self._node("Literal", "-" + self.texts[start + 1], [],
                              start)
        if text == "(":
            self.pos += 1
            tref = self._type_ref()
            self.expect(")")
            self._descend()
            expr = self._postfix()
            self.depth -= 1
            return self._node("CastExpr", "", [tref, expr], start)
        self.fail(f"unexpected token {text!r} in expression")
        raise AssertionError  # unreachable

    def _object_creation(self) -> SyntaxNode:
        texts = self.texts
        start = self.pos
        self.pos += 1
        children = [self._type_ref(), self._argument_list()]
        if texts[self.pos] == "{":
            bstart = self.pos
            self.pos += 1
            members: list[SyntaxNode] = []
            while texts[self.pos] != "}":
                members.append(self._member(""))
            self.pos += 1
            children.append(self._node("AnonymousBody", "", members, bstart))
        return self._node("ObjectCreation", "", children, start)


def _with_room(grammar):
    """``grammar()`` with room for the deepest text the limit admits,
    however deep the caller.  The recursion limit is the interpreter's, so
    one parse at a time raises it, which costs nothing while the GIL runs
    one thread anyway."""
    with _RECURSION_LIMIT_LOCK:
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit + _FRAMES_PER_LEVEL * MAX_NESTING)
        try:
            return grammar()
        finally:
            sys.setrecursionlimit(limit)


def parse_unit(path: str, text: str,
               recognize_bodies: bool = False) -> SourceFile:
    """Parse one file; raises ParseError with position info on bad input.
    With ``recognize_bodies``, each method and constructor body is
    recognized, not built (see the module docstring)."""
    parser = _Parser(path, scan(path, text), TokenPositions(text),
                     recognize_bodies)
    return SourceFile(path=path, text=text,
                      tree=SyntaxTree(_with_room(parser.parse_unit),
                                      assign_ids=True))


def _build_block(positions: TokenPositions, first: int) -> list[SyntaxNode]:
    """The statements of the block that starts at token ``first`` of the
    text of ``positions``, parsed again.  The text parsed once already, so
    this parse raises nothing; it starts at nesting depth 0, no deeper than
    the first parse was at the block."""
    parser = _Parser("", positions.tokens(), positions)
    parser.pos = first
    return _with_room(parser._block).children
