"""Reference front end for the differential tests in test_tokenizer.py
(``scan``), test_merge3.py (``_read_tree``) and test_lazy_front_end.py
(``_read_tree`` and ``EagerIndex``).

Test-only verbatim copies of the two per-file kernels mergeweaver had
before they were rewritten around one ``findall`` per file and one
directory walk per tree: ``scan``, which matched one token per call of
the token regex and took each line from an ``rfind`` since the previous
token, and ``_read_tree``, which read ``sorted(root.rglob("*.java"))``
with ``Path.read_text``.  Keep them as they are; they are the oracle, not
a second implementation to maintain.

``EagerIndex`` is the oracle of ``SyntaxTree``'s lazy maps: the id and
parent maps of a tree built whole at construction, as a tree given its
ids once built them, with the lookups ``test_lazy_front_end`` asks of
both.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterator, Optional

from mergeweaver.merge3 import UnreadableSource
from mergeweaver.parser import ParseError, Scan
from mergeweaver.syntax import SyntaxNode

_SKIP = r"(?=(?P<skip>(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)*))(?P=skip)"
_TOKEN_RE = re.compile(
    _SKIP +
    r"(?:(?P<ident>(?:[^\W\d]|\$)[\w$]*)"
    r"|(?P<number>\d(?:[^\W_]|\.)*)"
    r'|(?P<string>"(?:[^"\\]|\\.)*")'
    r"|(?P<char>'(?:[^'\\]|\\.)*')"
    r"|(?P<open>/\*)"
    r"|(?P<punct>\|\||&&|==|!=|<=|>=|[{}()\[\];,.@:=<>+\-*/%!?]))",
    re.DOTALL)
_SKIP_RE = re.compile(_SKIP, re.DOTALL)
_NUMBER_TAIL = re.compile(r"(?:[^\W_]|\.)*")
_UNTERMINATED = {'"': "unterminated string literal",
                 "'": "unterminated char literal"}

# eof entries at the end of the scanned lists: the real eof token plus
# one more, so that a one-token lookahead from eof stays in range
_EOF_PAD = 2


def scan(path: str, text: str) -> Scan:
    """Kinds, texts, lines and cols of the tokens of ``text``.

    Each list ends in ``_EOF_PAD`` copies of an eof token.  Lines and
    columns are 1-based; every character, tabs and carriage returns
    included, advances the column by one.
    """
    kinds: list[str] = []
    texts: list[str] = []
    lines: list[int] = []
    cols: list[int] = []
    match = _TOKEN_RE.match
    rfind = text.rfind
    pos = 0
    line = 1
    line_start = 0      # index of the first character of ``line``
    last = 0            # start of the previous token; no newline before it
    while True:
        m = match(text, pos)
        if m is None:
            start = _SKIP_RE.match(text, pos).end()
            kind = "eof"
        else:
            kind = m.lastgroup
            start = m.start(kind)
            pos = m.end()
        # only skipped text and string or char tokens hold newlines
        nl = rfind("\n", last, start)
        if nl != -1:
            line += text.count("\n", last, nl + 1)
            line_start = nl + 1
        last = start
        if kind == "ident":
            if text[start] >= "\x80" and not text[start].isalpha():
                # a \w character that is no letter: a digit such as
                # "²" starts a number, anything else is not a token
                if not text[start].isdigit():
                    raise ParseError(path, line, start - line_start + 1,
                                     f"unexpected character {text[start]!r}")
                kind = "number"
                pos = _NUMBER_TAIL.match(text, start + 1).end()
        elif kind == "eof":
            if start < len(text):
                ch = text[start]
                raise ParseError(path, line, start - line_start + 1,
                                 _UNTERMINATED.get(
                                     ch, f"unexpected character {ch!r}"))
            for _ in range(_EOF_PAD):
                kinds.append("eof")
                texts.append("")
                lines.append(line)
                cols.append(start - line_start + 1)
            return kinds, texts, lines, cols
        elif kind == "open":
            raise ParseError(path, line, start - line_start + 1,
                             "unterminated block comment")
        kinds.append(kind)
        texts.append(text[start:pos])
        lines.append(line)
        cols.append(start - line_start + 1)


def _read_tree(root: Path) -> dict[str, str]:
    files = {}
    if root.is_dir():
        for p in sorted(root.rglob("*.java")):
            try:
                files[str(p.relative_to(root))] = p.read_text(encoding="utf-8")
            except UnicodeDecodeError as exc:
                raise UnreadableSource(p, exc) from None
    return files


class EagerIndex:
    def __init__(self, root: SyntaxNode):
        self.by_id: dict[int, SyntaxNode] = {}
        self.parents: dict[int, Optional[SyntaxNode]] = {}
        stack: list[tuple[SyntaxNode, Optional[SyntaxNode]]] = [(root, None)]
        while stack:
            node, parent = stack.pop()
            if node.id in self.by_id:
                raise ValueError(f"duplicate node id {node.id}")
            self.by_id[node.id] = node
            self.parents[node.id] = parent
            stack.extend((child, node) for child in node.children)
        self.max_id = max(self.by_id)

    def has_node(self, node_id: int) -> bool:
        return node_id in self.by_id

    def node(self, node_id: int) -> SyntaxNode:
        return self.by_id[node_id]

    def parent(self, node: SyntaxNode) -> Optional[SyntaxNode]:
        return self.parents[node.id]

    def ancestors(self, node: SyntaxNode) -> Iterator[SyntaxNode]:
        cur = self.parent(node)
        while cur is not None:
            yield cur
            cur = self.parent(cur)
