"""Reference parser for the differential test in test_parser_reference.py.

A test-only copy of the recursive-descent parser that mergeweaver had
before its parser kernel was rewritten: the ``_Parser`` class that reads a
list of ``Token`` objects, with one recursive method per binary-operator
tier, and pre-order ids assigned by a separate walk.  It reads its tokens
from ``tokenize`` below, the list-of-``Token`` view of
``mergeweaver.parser.scan_positions`` that the package kept while this
parser was its own; test_tokenizer.py checks it against its own reference
lexer.  The one change from that parser is the comma rule in
``_parameters`` and ``_argument_list``: a comma must separate parameters
and arguments, and none may follow the last one.  Keep it otherwise as it
is; it is the oracle, not a second implementation to maintain.
"""

from __future__ import annotations

from dataclasses import dataclass

from mergeweaver.parser import _EOF_PAD, ParseError, scan_positions
from mergeweaver.syntax import SyntaxNode

MODIFIERS = {"public", "private", "protected", "static", "final", "abstract"}
STMT_KEYWORDS = {"if", "for", "while", "return", "throw"}
TYPE_KEYWORDS = {"class", "interface", "enum"}

# Binary operators by increasing precedence tier.
_BINARY_TIERS = [
    ["||"],
    ["&&"],
    ["==", "!="],
    ["<", ">", "<=", ">="],
    ["+", "-"],
    ["*", "/", "%"],
]


@dataclass
class Token:
    kind: str  # ident | number | string | char | punct | eof
    text: str
    line: int
    col: int


def tokenize(path: str, text: str) -> list[Token]:
    """Tokens of ``text``, ending with an eof token.

    Lines and columns are 1-based; every character, tabs and carriage
    returns included, advances the column by one.
    """
    kinds, texts, lines, cols = scan_positions(path, text)
    n = len(kinds) - _EOF_PAD + 1
    return list(map(Token, kinds[:n], texts[:n], lines[:n], cols[:n]))


class _Parser:
    def __init__(self, path: str, tokens: list[Token]):
        self.path = path
        self.toks = tokens
        self.pos = 0
        self.ntoks = len(tokens)
        self.eof = tokens[-1]       # returned for every look past the end

    # -- token plumbing ----------------------------------------------------

    def peek(self, off: int = 0) -> Token:
        i = self.pos + off
        return self.toks[i] if i < self.ntoks else self.eof

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok.text == text and tok.kind in ("punct", "ident")

    def at_ident(self) -> bool:
        return self.peek().kind == "ident"

    def take(self) -> Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text:
            self.fail(f"expected {text!r} but found {tok.text!r}")
        return self.take()

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            self.fail(f"expected identifier but found {tok.text!r}")
        return self.take()

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(self.path, tok.line, tok.col, message)

    # -- span helpers ------------------------------------------------------

    def _start(self) -> tuple[int, int]:
        tok = self.peek()
        return (tok.line, tok.col)

    def _end(self) -> tuple[int, int]:
        tok = self.toks[self.pos - 1]
        return (tok.line, tok.col + max(len(tok.text) - 1, 0))

    def _node(self, kind: str, value: str, children: list[SyntaxNode],
              start: tuple[int, int]) -> SyntaxNode:
        el, ec = self._end()
        return SyntaxNode(kind, value, children, span=(start[0], start[1], el, ec))

    # -- top level ---------------------------------------------------------

    def parse_unit(self) -> SyntaxNode:
        start = self._start()
        children: list[SyntaxNode] = []
        if self.at("package"):
            pstart = self._start()
            self.take()
            name = self._qualified_name()
            self.expect(";")
            children.append(self._node("PackageDecl", name, [], pstart))
        while self.at("import"):
            istart = self._start()
            self.take()
            name = self._qualified_name()
            if self.at("."):
                self.take()
                self.expect("*")
                name += ".*"
            self.expect(";")
            children.append(self._node("ImportDecl", name, [], istart))
        while self.peek().kind != "eof":
            children.append(self.parse_type_decl())
        return self._node("CompilationUnit", "", children, start)

    def _qualified_name(self) -> str:
        parts = [self.expect_ident().text]
        while self.at(".") and self.peek(1).kind == "ident":
            self.take()
            parts.append(self.expect_ident().text)
        return ".".join(parts)

    def _annotations_and_modifiers(self) -> list[SyntaxNode]:
        out: list[SyntaxNode] = []
        while True:
            if self.at("@"):
                astart = self._start()
                self.take()
                name = self.expect_ident().text
                out.append(self._node("Annotation", name, [], astart))
            elif self.at_ident() and self.peek().text in MODIFIERS:
                mstart = self._start()
                out.append(self._node("Modifier", self.take().text, [], mstart))
            else:
                return out

    def parse_type_decl(self) -> SyntaxNode:
        start = self._start()
        prefix = self._annotations_and_modifiers()
        kw = self.peek().text
        if kw not in TYPE_KEYWORDS:
            self.fail(f"expected type declaration but found {kw!r}")
        self.take()
        name = self.expect_ident().text
        children = list(prefix)
        if kw in ("class", "interface") and self.at("extends"):
            mstart = self._start()
            self.take()
            children.append(self._node("Name", "extends", [], mstart))
            children.append(self._type_ref())
        if kw == "class" and self.at("implements"):
            mstart = self._start()
            self.take()
            children.append(self._node("Name", "implements", [], mstart))
            children.append(self._type_ref())
            while self.at(","):
                self.take()
                children.append(self._type_ref())
        self.expect("{")
        kind = {"class": "ClassDecl", "interface": "InterfaceDecl",
                "enum": "EnumDecl"}[kw]
        if kw == "enum":
            children.extend(self._enum_constants())
        while not self.at("}"):
            children.append(self._member(name))
        self.expect("}")
        return self._node(kind, name, children, start)

    def _enum_constants(self) -> list[SyntaxNode]:
        out: list[SyntaxNode] = []
        if not self.at_ident() or self.peek().text in MODIFIERS | TYPE_KEYWORDS:
            return out
        # constants are IDENTs separated by commas, closed by ';' or '}'
        if not (self.peek(1).text in (",", ";", "}")):
            return out
        while True:
            cstart = self._start()
            name = self.expect_ident().text
            out.append(self._node("EnumConstant", name, [], cstart))
            if self.at(","):
                self.take()
                continue
            break
        if self.at(";"):
            self.take()
        return out

    def _member(self, owner: str) -> SyntaxNode:
        start = self._start()
        saved = self.pos
        prefix = self._annotations_and_modifiers()
        if self.peek().text in TYPE_KEYWORDS:
            self.pos = saved
            return self.parse_type_decl()
        # constructor: Owner ( ...
        if self.at_ident() and self.peek().text == owner and self.peek(1).text == "(":
            name = self.take().text
            children = list(prefix)
            children.extend(self._parameters())
            children.extend(self._throws())
            children.append(self._block())
            return self._node("ConstructorDecl", name, children, start)
        type_ref = self._type_ref()
        name = self.expect_ident().text
        children = list(prefix) + [type_ref]
        if self.at("("):
            children.extend(self._parameters())
            children.extend(self._throws())
            if self.at(";"):
                self.take()
            else:
                children.append(self._block())
            return self._node("MethodDecl", name, children, start)
        if self.at("="):
            self.take()
            children.append(self.parse_expression())
        self.expect(";")
        return self._node("FieldDecl", name, children, start)

    def _parameters(self) -> list[SyntaxNode]:
        self.expect("(")
        out: list[SyntaxNode] = []
        while not self.at(")"):
            pstart = self._start()
            mods: list[SyntaxNode] = []
            while self.at("final"):
                mstart = self._start()
                mods.append(self._node("Modifier", self.take().text, [], mstart))
            tref = self._type_ref()
            pname = self.expect_ident().text
            out.append(self._node("Parameter", pname, mods + [tref], pstart))
            self._comma("parameter")
        self.expect(")")
        return out

    def _comma(self, what: str) -> None:
        # the comma rule: a ',' between items, none after the last
        if self.at(","):
            self.take()
            if self.at(")"):
                self.fail(f"trailing comma in {what} list")
        elif not self.at(")"):
            self.fail(f"expected ',' or ')' but found {self.peek().text!r}")

    def _throws(self) -> list[SyntaxNode]:
        if not self.at("throws"):
            return []
        out: list[SyntaxNode] = []
        mstart = self._start()
        self.take()
        out.append(self._node("Name", "throws", [], mstart))
        out.append(self._type_ref())
        while self.at(","):
            self.take()
            out.append(self._type_ref())
        return out

    # -- types -------------------------------------------------------------

    def _type_ref(self) -> SyntaxNode:
        start = self._start()
        text = self._type_text()
        return self._node("TypeRef", text, [], start)

    def _type_text(self) -> str:
        parts = [self.expect_ident().text]
        while self.at(".") and self.peek(1).kind == "ident":
            self.take()
            parts.append("." + self.expect_ident().text)
        text = "".join(parts)
        if self.at("<"):
            text += self._generic_args()
        return text

    def _generic_args(self) -> str:
        # balanced angle-bracket scan kept as canonical opaque text
        depth = 0
        out: list[str] = []
        prev = ""
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                self.fail("unterminated type arguments")
            t = tok.text
            if t == "<":
                depth += 1
            elif t == ">":
                depth -= 1
            wordish = tok.kind in ("ident", "number") or t == "?"
            prev_wordish = prev and (prev[-1].isalnum() or prev[-1] in "_$?")
            if out and wordish and prev_wordish:
                out.append(" ")
            out.append(t)
            prev = t
            self.take()
            if depth == 0:
                return "".join(out)

    # -- statements ----------------------------------------------------------

    def _block(self) -> SyntaxNode:
        start = self._start()
        self.expect("{")
        stmts: list[SyntaxNode] = []
        while not self.at("}"):
            stmts.append(self.parse_statement())
        self.expect("}")
        return self._node("Block", "", stmts, start)

    def parse_statement(self) -> SyntaxNode:
        tok = self.peek()
        if tok.text == "if":
            return self._if_stmt()
        if tok.text == "for":
            return self._for_stmt()
        if tok.text == "while":
            start = self._start()
            self.take()
            self.expect("(")
            cond = self.parse_expression()
            self.expect(")")
            body = self._block()
            return self._node("WhileStmt", "", [cond, body], start)
        if tok.text == "return":
            start = self._start()
            self.take()
            children = [] if self.at(";") else [self.parse_expression()]
            self.expect(";")
            return self._node("ReturnStmt", "", children, start)
        if tok.text == "throw":
            start = self._start()
            self.take()
            expr = self.parse_expression()
            self.expect(";")
            return self._node("ThrowStmt", "", [expr], start)
        if tok.text == "{":
            return self._block()
        decl = self._try_local_var_decl()
        if decl is not None:
            return decl
        start = self._start()
        expr = self.parse_expression()
        self.expect(";")
        return self._node("ExprStmt", "", [expr], start)

    def _if_stmt(self) -> SyntaxNode:
        start = self._start()
        self.expect("if")
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        then = self._block()
        children = [cond, then]
        if self.at("else"):
            self.take()
            if self.at("if"):
                children.append(self._if_stmt())
            else:
                children.append(self._block())
        return self._node("IfStmt", "", children, start)

    def _for_stmt(self) -> SyntaxNode:
        start = self._start()
        self.expect("for")
        self.expect("(")
        # for-each has a ':' at depth zero before any ';'
        depth = 0
        is_foreach = False
        for off in range(0, len(self.toks) - self.pos):
            t = self.peek(off).text
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
            pstart = self._start()
            mods: list[SyntaxNode] = []
            while self.at("final"):
                mstart = self._start()
                mods.append(self._node("Modifier", self.take().text, [], mstart))
            tref = self._type_ref()
            pname = self.expect_ident().text
            param = self._node("Parameter", pname, mods + [tref], pstart)
            self.expect(":")
            iterable = self.parse_expression()
            self.expect(")")
            body = self._block()
            return self._node("ForEachStmt", "", [param, iterable, body], start)
        init = self._try_local_var_decl(terminator=";")
        if init is None:
            istart = self._start()
            expr = self.parse_expression()
            self.expect(";")
            init = self._node("ExprStmt", "", [expr], istart)
        cond = self.parse_expression()
        self.expect(";")
        update = self.parse_expression()
        self.expect(")")
        body = self._block()
        return self._node("ForStmt", "", [init, cond, update, body], start)

    def _try_local_var_decl(self, terminator: str = ";") -> SyntaxNode | None:
        start = self._start()
        saved = self.pos
        mods: list[SyntaxNode] = []
        while self.at("final"):
            mstart = self._start()
            mods.append(self._node("Modifier", self.take().text, [], mstart))
        if not self.at_ident() or self.peek().text in STMT_KEYWORDS | {"new", "else"}:
            self.pos = saved
            return None
        try:
            tref = self._type_ref()
        except ParseError:
            self.pos = saved
            return None
        if not self.at_ident():
            self.pos = saved
            return None
        if self.peek(1).text not in ("=", terminator):
            self.pos = saved
            return None
        name = self.take().text
        children = mods + [tref]
        if self.at("="):
            self.take()
            children.append(self.parse_expression())
        self.expect(terminator)
        return self._node("LocalVarDecl", name, children, start)

    # -- expressions ---------------------------------------------------------

    def parse_expression(self) -> SyntaxNode:
        return self._assignment()

    def _assignment(self) -> SyntaxNode:
        start = self._start()
        left = self._binary(0)
        if self.at("="):
            self.take()
            right = self._assignment()
            if left.kind not in ("Name", "FieldAccess"):
                self.fail("assignment target must be a name or field access")
            return self._node("Assignment", "=", [left, right], start)
        return left

    def _binary(self, tier: int) -> SyntaxNode:
        if tier >= len(_BINARY_TIERS):
            return self._postfix()
        start = self._start()
        left = self._binary(tier + 1)
        while self.peek().kind == "punct" and self.peek().text in _BINARY_TIERS[tier]:
            op = self.take().text
            right = self._binary(tier + 1)
            left = self._node("BinaryExpr", op, [left, right], start)
        return left

    def _postfix(self) -> SyntaxNode:
        start = self._start()
        expr = self._primary()
        while self.at(".") and self.peek(1).kind == "ident":
            self.take()
            name = self.expect_ident().text
            if self.at("("):
                args = self._argument_list()
                expr = self._node("MethodInvocation", name, [expr, args], start)
            else:
                expr = self._node("FieldAccess", name, [expr], start)
        return expr

    def _argument_list(self) -> SyntaxNode:
        start = self._start()
        self.expect("(")
        args: list[SyntaxNode] = []
        while not self.at(")"):
            args.append(self.parse_expression())
            self._comma("argument")
        self.expect(")")
        return self._node("ArgumentList", "", args, start)

    def _primary(self) -> SyntaxNode:
        tok = self.peek()
        start = self._start()
        if tok.kind in ("number", "string", "char"):
            self.take()
            return self._node("Literal", tok.text, [], start)
        if tok.text == "-" and self.peek(1).kind == "number":
            self.take()
            num = self.take()
            return self._node("Literal", "-" + num.text, [], start)
        if tok.text in ("true", "false", "null"):
            self.take()
            return self._node("Literal", tok.text, [], start)
        if tok.text == "new":
            self.take()
            tref = self._type_ref()
            args = self._argument_list()
            children = [tref, args]
            if self.at("{"):
                bstart = self._start()
                self.expect("{")
                members: list[SyntaxNode] = []
                while not self.at("}"):
                    members.append(self._member(""))
                self.expect("}")
                children.append(self._node("AnonymousBody", "", members, bstart))
            return self._node("ObjectCreation", "", children, start)
        if tok.text == "(":
            self.take()
            tref = self._type_ref()
            self.expect(")")
            expr = self._postfix()
            return self._node("CastExpr", "", [tref, expr], start)
        if tok.kind == "ident":
            name = self.take().text
            if self.at("("):
                args = self._argument_list()
                return self._node("MethodInvocation", name, [args], start)
            return self._node("Name", name, [], start)
        self.fail(f"unexpected token {tok.text!r} in expression")
        raise AssertionError  # unreachable


def parse_tree(path: str, text: str) -> tuple[SyntaxNode, int]:
    """The root of ``text``'s tree with pre-order ids, and the largest id."""
    root = _Parser(path, tokenize(path, text)).parse_unit()
    counter = 0
    for node in root.walk():
        node.id = counter
        counter += 1
    return root, counter - 1
