"""Deterministic pretty-printer for syntax trees.

This is the only formatting authority in the package: resolved files are
re-printed from their trees rather than patched textually, so every consumer
sees one canonical layout.  One statement per line, four-space indents, and
`}` closers on their own lines.  Printing the same tree twice yields the same
bytes; printing then re-parsing yields a structurally identical tree.
"""

from __future__ import annotations

from .syntax import SyntaxNode, SyntaxTree

INDENT = "    "


class MalformedTree(Exception):
    def __init__(self, node: SyntaxNode, message: str):
        super().__init__(f"{message} (at {node.kind} #{node.id})")
        self.node = node


def pretty_print(tree: SyntaxTree | SyntaxNode) -> str:
    root = tree.root if isinstance(tree, SyntaxTree) else tree
    lines: list[str] = []
    _print_node(root, 0, lines)
    return "\n".join(lines) + "\n" if lines else ""


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


def _print_node(node: SyntaxNode, depth: int, lines: list[str]) -> None:
    pad = INDENT * depth
    k = node.kind
    if k == "CompilationUnit":
        for child in node.children:
            _print_node(child, depth, lines)
    elif k == "PackageDecl":
        lines.append(f"{pad}package {node.value};")
    elif k == "ImportDecl":
        lines.append(f"{pad}import {node.value};")
    elif k in ("ClassDecl", "InterfaceDecl", "EnumDecl"):
        ann, mods, ext, impl, _, _, _, _, members, constants = _partition(node)
        for a in ann:
            lines.append(f"{pad}@{a.value}")
        kw = {"ClassDecl": "class", "InterfaceDecl": "interface",
              "EnumDecl": "enum"}[k]
        head = "".join(m.value + " " for m in mods) + f"{kw} {node.value}"
        if ext:
            head += " extends " + ", ".join(t.value for t in ext)
        if impl:
            head += " implements " + ", ".join(t.value for t in impl)
        lines.append(f"{pad}{head} {{")
        if constants:
            lines.append(f"{pad}{INDENT}" + ", ".join(c.value for c in constants) + ";")
        for m in members:
            _print_node(m, depth + 1, lines)
        lines.append(f"{pad}}}")
    elif k == "FieldDecl":
        ann, mods, _, _, _, type_refs, _, _, members, _ = _partition(node)
        if not type_refs:
            raise MalformedTree(node, "field without a type")
        for a in ann:
            lines.append(f"{pad}@{a.value}")
        text = "".join(m.value + " " for m in mods) + f"{type_refs[0].value} {node.value}"
        init = [c for c in members if c not in type_refs]
        if init:
            text += " = " + _expr(init[0], depth)
        lines.append(f"{pad}{text};")
    elif k in ("MethodDecl", "ConstructorDecl"):
        ann, mods, _, _, throws, type_refs, params, body, _, _ = _partition(node)
        for a in ann:
            lines.append(f"{pad}@{a.value}")
        head = "".join(m.value + " " for m in mods)
        if k == "MethodDecl":
            if not type_refs:
                raise MalformedTree(node, "method without a return type")
            head += f"{type_refs[0].value} "
        head += node.value + "(" + ", ".join(_param(p) for p in params) + ")"
        if throws:
            head += " throws " + ", ".join(t.value for t in throws)
        if body is None:
            lines.append(f"{pad}{head};")
        else:
            lines.append(f"{pad}{head} {{")
            for stmt in body.children:
                _print_node(stmt, depth + 1, lines)
            lines.append(f"{pad}}}")
    elif k == "Block":
        lines.append(f"{pad}{{")
        for stmt in node.children:
            _print_node(stmt, depth + 1, lines)
        lines.append(f"{pad}}}")
    elif k == "LocalVarDecl":
        lines.append(f"{pad}{_local_var(node, depth)};")
    elif k == "ExprStmt":
        lines.append(f"{pad}{_expr(node.children[0], depth)};")
    elif k == "ReturnStmt":
        if node.children:
            lines.append(f"{pad}return {_expr(node.children[0], depth)};")
        else:
            lines.append(f"{pad}return;")
    elif k == "ThrowStmt":
        lines.append(f"{pad}throw {_expr(node.children[0], depth)};")
    elif k == "IfStmt":
        _print_if(node, depth, lines, pad)
    elif k == "WhileStmt":
        cond, body = node.children[0], node.children[1]
        lines.append(f"{pad}while ({_expr(cond, depth)}) {{")
        for stmt in body.children:
            _print_node(stmt, depth + 1, lines)
        lines.append(f"{pad}}}")
    elif k == "ForStmt":
        init, cond, update, body = node.children
        if init.kind == "LocalVarDecl":
            init_text = _local_var(init, depth)
        else:
            init_text = _expr(init.children[0], depth)
        lines.append(f"{pad}for ({init_text}; {_expr(cond, depth)}; "
                     f"{_expr(update, depth)}) {{")
        for stmt in body.children:
            _print_node(stmt, depth + 1, lines)
        lines.append(f"{pad}}}")
    elif k == "ForEachStmt":
        param, iterable, body = node.children
        lines.append(f"{pad}for ({_param(param)} : {_expr(iterable, depth)}) {{")
        for stmt in body.children:
            _print_node(stmt, depth + 1, lines)
        lines.append(f"{pad}}}")
    else:
        raise MalformedTree(node, f"{k} cannot appear at statement level")


def _print_if(node: SyntaxNode, depth: int, lines: list[str], pad: str) -> None:
    cond = node.children[0]
    then = node.children[1]
    lines.append(f"{pad}if ({_expr(cond, depth)}) {{")
    for stmt in then.children:
        _print_node(stmt, depth + 1, lines)
    cur = node.children[2] if len(node.children) > 2 else None
    while cur is not None:
        if cur.kind == "IfStmt":
            lines.append(f"{pad}}} else if ({_expr(cur.children[0], depth)}) {{")
            for stmt in cur.children[1].children:
                _print_node(stmt, depth + 1, lines)
            cur = cur.children[2] if len(cur.children) > 2 else None
        else:
            lines.append(f"{pad}}} else {{")
            for stmt in cur.children:
                _print_node(stmt, depth + 1, lines)
            cur = None
    lines.append(f"{pad}}}")


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


def _expr(node: SyntaxNode, depth: int) -> str:
    k = node.kind
    if k == "Name" or k == "Literal":
        return node.value
    if k == "TypeRef":
        return node.value
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
            for m in node.children[2].children:
                _print_node(m, depth + 1, body_lines)
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


def statement_header_text(node: SyntaxNode) -> str:
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


def token_stream(text_or_tree: str | SyntaxTree) -> list[str]:
    """Token texts of a source string or a printed tree, for equality checks."""
    from .parser import token_texts

    if isinstance(text_or_tree, SyntaxTree):
        text = pretty_print(text_or_tree)
    else:
        text = text_or_tree
    return token_texts(text)
