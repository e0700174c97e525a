"""Deterministic pretty-printer for syntax trees.

This is the only formatting authority in the package: resolved files are
re-printed from their trees rather than patched textually, so every consumer
sees one canonical layout.  One statement per line, four-space indents, and
`}` closers on their own lines.  Printing the same tree twice yields the same
bytes; printing then re-parsing yields a structurally identical tree.

A merge prints through one PrintMemo (kept on its Scorer): the depth-0
text of each member- and statement-level subtree, one string per node.
At depth d every non-empty line of it is padded by d indents; only an
empty anonymous body prints an empty line.  So a copy-on-write clone
(see ``syntax``) renders only its copied spine.  Only nodes of the merge's
parsed trees are stored, and nothing writes those (a clone copies a node
before it writes it), so no text goes stale.  ``pretty_print`` uses no
memo.
"""

from __future__ import annotations

from typing import Callable, Optional

from .syntax import (HEADED_KINDS, STATEMENT_KINDS, TYPE_DECL_KINDS,
                     TYPE_KEYWORDS, SyntaxNode, SyntaxTree, body_of, clauses,
                     declared_type, initializer, parameters)

INDENT = "    "

_MEMBER_KINDS = TYPE_DECL_KINDS | {"FieldDecl", "MethodDecl",
                                   "ConstructorDecl"}
# the kinds whose depth-0 text a PrintMemo keeps, and its reader of them
_MEMO_KINDS = _MEMBER_KINDS | STATEMENT_KINDS
_Reader = Callable[[SyntaxNode], str]
# the fewest children an expression of each kind prints
_OPERANDS = {"MethodInvocation": 1, "FieldAccess": 1, "ObjectCreation": 2,
             "BinaryExpr": 2, "Assignment": 2, "CastExpr": 2}


class MalformedTree(Exception):
    def __init__(self, node: SyntaxNode, message: str):
        super().__init__(f"{message} (at {node.kind} #{node.id})")
        self.node = node


def pretty_print(tree: SyntaxTree | SyntaxNode) -> str:
    root = tree.root if isinstance(tree, SyntaxTree) else tree
    return _print_text(root, None)


def _print_text(root: SyntaxNode, read: Optional[_Reader]) -> str:
    lines: list[str] = []
    _print_stmts([root], 0, lines, read)
    return "\n".join(lines) + "\n" if lines else ""


class PrintMemo:
    """See the module docstring.  ``printed`` counts the subtrees
    rendered, ``reused`` those read from the memo."""

    def __init__(self) -> None:
        self.texts: dict[SyntaxNode, str] = {}
        self.printed = self.reused = 0

    def print(self, node: SyntaxNode,
              keep: Optional[Callable[[SyntaxNode], bool]] = None) -> str:
        """``pretty_print(node)``; a subtree rendered is stored if ``keep``
        is None or holds for it."""
        def read(sub: SyntaxNode) -> str:
            text = self.texts.get(sub)
            if text is None:
                self.printed += 1
                lines: list[str] = []
                _print_node(sub, 0, lines, read)
                text = "\n".join(lines)
                if keep is None or keep(sub):
                    self.texts[sub] = text
            else:
                self.reused += 1
            return text
        return _print_text(node, read)


def _print_node(node: SyntaxNode, depth: int, lines: list[str],
                read: Optional[_Reader] = None) -> None:
    pad = INDENT * depth
    k = node.kind
    if k == "CompilationUnit":
        _print_stmts(node.children, depth, lines, read)
    elif k == "PackageDecl":
        lines.append(f"{pad}package {node.value};")
    elif k == "ImportDecl":
        lines.append(f"{pad}import {node.value};")
    elif k in TYPE_DECL_KINDS:
        _annotations(node, pad, lines)
        head = _modifiers(node) + f"{TYPE_KEYWORDS[k]} {node.value}"
        groups = clauses(node)
        for marker in ("extends", "implements"):
            if groups[marker]:
                head += f" {marker} " + ", ".join(t.value for t in groups[marker])
        lines.append(f"{pad}{head} {{")
        constants = [c.value for c in node.children if c.kind == "EnumConstant"]
        if constants:
            lines.append(f"{pad}{INDENT}" + ", ".join(constants) + ";")
        _print_stmts([m for m in node.children if m.kind in _MEMBER_KINDS],
                     depth + 1, lines, read)
        lines.append(f"{pad}}}")
    elif k == "FieldDecl":
        _annotations(node, pad, lines)
        lines.append(f"{pad}{_variable(node, depth)};")
    elif k in ("MethodDecl", "ConstructorDecl"):
        _annotations(node, pad, lines)
        head = _modifiers(node)
        if k == "MethodDecl":
            ret = declared_type(node)
            if ret is None:
                raise MalformedTree(node, "method without a return type")
            head += f"{ret.value} "
        head += node.value + "(" + ", ".join(
            _variable(p, depth) for p in parameters(node)) + ")"
        throws = clauses(node)["throws"]
        if throws:
            head += " throws " + ", ".join(t.value for t in throws)
        body = body_of(node)
        if body is None:
            lines.append(f"{pad}{head};")
        else:
            lines.append(f"{pad}{head} {{")
            _print_stmts(body.children, depth + 1, lines, read)
            lines.append(f"{pad}}}")
    elif k == "Block":
        lines.append(f"{pad}{{")
        _print_stmts(node.children, depth + 1, lines, read)
        lines.append(f"{pad}}}")
    elif k == "EnumConstant":
        lines.append(f"{pad}{node.value}")
    elif k == "LocalVarDecl":
        lines.append(f"{pad}{_variable(node, depth)};")
    elif k == "ExprStmt":
        lines.append(f"{pad}{_expr(node.children[0], depth)};")
    elif k == "ReturnStmt":
        if node.children:
            lines.append(f"{pad}return {_expr(node.children[0], depth)};")
        else:
            lines.append(f"{pad}return;")
    elif k == "ThrowStmt":
        lines.append(f"{pad}throw {_expr(node.children[0], depth)};")
    elif k in HEADED_KINDS:
        lines.append(f"{pad}{HEADED_KINDS[k]} ({_header(node, depth)}) {{")
        body = node.children[1 if k == "IfStmt" or k == "WhileStmt" else -1]
        _print_stmts(body.children, depth + 1, lines, read)
        # an if's else branch: an else-if chain, then an optional else block
        tail = node.children[2] if k == "IfStmt" and len(node.children) > 2 \
            else None
        while tail is not None and tail.kind == "IfStmt":
            lines.append(f"{pad}}} else if ({_header(tail, depth)}) {{")
            _print_stmts(tail.children[1].children, depth + 1, lines, read)
            tail = tail.children[2] if len(tail.children) > 2 else None
        if tail is not None:
            lines.append(f"{pad}}} else {{")
            _print_stmts(tail.children, depth + 1, lines, read)
        lines.append(f"{pad}}}")
    else:
        raise MalformedTree(node, f"{k} cannot appear at statement level")


def _print_stmts(nodes: list[SyntaxNode], depth: int, lines: list[str],
                 read: Optional[_Reader]) -> None:
    if read is None:
        for node in nodes:
            _print_node(node, depth, lines)
        return
    chunk: list[str] = []
    for node in nodes:
        if node.kind in _MEMO_KINDS:
            chunk.append(read(node))
        else:
            _print_node(node, 0, chunk, read)
    if chunk:
        # the depth-0 texts padded as one: every line, but the empty one
        # of an empty anonymous body
        text, pad = "\n".join(chunk), INDENT * depth
        lines.append(pad + text.replace("\n", "\n" + pad)
                     if "\n\n" not in text else "\n".join(
                         pad + line if line else line
                         for line in text.split("\n")))


def _header(node: SyntaxNode, depth: int) -> str:
    """What the parentheses of an if, while, for or for-each hold."""
    k = node.kind
    if k == "ForStmt":
        init, cond, update = node.children[:3]
        init_text = _variable(init, depth) if init.kind == "LocalVarDecl" \
            else _expr(init.children[0], depth)
        return f"{init_text}; {_expr(cond, depth)}; {_expr(update, depth)}"
    if k == "ForEachStmt":
        return f"{_variable(node.children[0], depth)} : " \
               f"{_expr(node.children[1], depth)}"
    return _expr(node.children[0], depth)


def _annotations(node: SyntaxNode, pad: str, lines: list[str]) -> None:
    lines.extend(f"{pad}@{c.value}" for c in node.children
                 if c.kind == "Annotation")


def _modifiers(node: SyntaxNode) -> str:
    return "".join(c.value + " " for c in node.children if c.kind == "Modifier")


def _variable(node: SyntaxNode, depth: int) -> str:
    """A field, parameter or local variable without its annotations:
    ``modifiers Type name`` and `` = initializer`` if it has one."""
    tref = declared_type(node)
    if tref is None:
        raise MalformedTree(node, "declaration without a type")
    text = _modifiers(node) + f"{tref.value} {node.value}"
    init = initializer(node)
    if init is not None:
        text += " = " + _expr(init, depth)
    return text


def _expr(node: SyntaxNode, depth: int) -> str:
    k = node.kind
    if k == "Name" or k == "Literal" or k == "TypeRef":
        return node.value
    if len(node.children) < _OPERANDS.get(k, 0):
        raise MalformedTree(node, f"{k} without an operand")
    if k == "MethodInvocation":
        args = node.children[-1]
        if args.kind != "ArgumentList":
            raise MalformedTree(node, "invocation without argument list")
        text = node.value + "(" + ", ".join(_expr(a, depth) for a in args.children) + ")"
        if len(node.children) == 2:
            return _expr(node.children[0], depth) + "." + text
        return text
    if k == "FieldAccess":
        return _expr(node.children[0], depth) + "." + node.value
    if k == "ObjectCreation":
        tref = node.children[0]
        args = node.children[1]
        text = "new " + tref.value + "(" + \
            ", ".join(_expr(a, depth) for a in args.children) + ")"
        if len(node.children) > 2 and node.children[2].kind == "AnonymousBody":
            body_lines: list[str] = []
            _print_stmts(node.children[2].children, depth + 1, body_lines,
                         None)
            inner = "\n".join(body_lines)
            text += " {\n" + inner + "\n" + INDENT * depth + "}"
        return text
    if k == "BinaryExpr":
        return f"{_expr(node.children[0], depth)} {node.value} " \
               f"{_expr(node.children[1], depth)}"
    if k == "Assignment":
        return f"{_expr(node.children[0], depth)} = {_expr(node.children[1], depth)}"
    if k == "CastExpr":
        return f"({node.children[0].value}) {_expr(node.children[1], depth)}"
    raise MalformedTree(node, f"{k} cannot appear in an expression")


def statement_header_text(node: SyntaxNode,
                          memo: Optional[PrintMemo] = None) -> str:
    """Comparison string for statement similarity.

    Compound statements compare on their headers only; simple statements
    compare on the whole statement.  Whitespace is collapsed so layout never
    influences the score.  A statement of a parsed tree may be printed
    through its merge's ``memo``.
    """
    if node.kind in HEADED_KINDS:
        text = _header(node, 0)
    else:
        text = pretty_print(node) if memo is None else memo.print(node)
    return " ".join(text.split())

