"""Syntax trees for the Java subset handled by mergeweaver.

Every parsed source file becomes a tree of SyntaxNode objects.  The node
vocabulary is fixed (see NODE_KINDS); anything outside it is a bug, not an
extension point.  Trees are ordered, values are plain strings, and node ids
are assigned in pre-order so that two parses of the same text produce the
same ids.

Invariants maintained here and relied on elsewhere:
  * a node's kind is always a member of NODE_KINDS
  * Name and Literal nodes carry a non-empty value and have no children
  * spans of siblings are disjoint and nest inside the parent's span
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

NODE_KINDS = frozenset({
    "CompilationUnit", "PackageDecl", "ImportDecl",
    "ClassDecl", "InterfaceDecl", "EnumDecl",
    "FieldDecl", "MethodDecl", "ConstructorDecl", "EnumConstant",
    "Parameter", "TypeRef", "Modifier", "Annotation",
    "Block", "IfStmt", "ForStmt", "ForEachStmt", "WhileStmt",
    "ReturnStmt", "ThrowStmt", "ExprStmt", "LocalVarDecl",
    "MethodInvocation", "FieldAccess", "ObjectCreation", "AnonymousBody",
    "Name", "Literal", "BinaryExpr", "Assignment", "CastExpr",
    "ArgumentList",
})

# Statement-level kinds; Block is deliberately excluded so that the
# "enclosing statement" of a node inside a then-branch is the inner
# statement, not the brace pair around it.
STATEMENT_KINDS = frozenset({
    "IfStmt", "ForStmt", "ForEachStmt", "WhileStmt",
    "ReturnStmt", "ThrowStmt", "ExprStmt", "LocalVarDecl",
})

# -- declaration layout -----------------------------------------------------
# The parser lays out a declaration's children in this order: annotations
# and modifiers; the declared type (of a field, parameter or local
# variable, or a method's return type); parameters; clause marker leaves,
# each a Name valued "extends", "implements" or "throws" that precedes the
# TypeRefs it introduces; then the Block body, a field's or local
# variable's initializer, or a type's members.  The readers below are the
# one decoder of that layout.

# the keyword of each type declaration kind, which is also its entity kind
TYPE_KEYWORDS = {"ClassDecl": "class", "InterfaceDecl": "interface",
                 "EnumDecl": "enum"}
TYPE_DECL_KINDS = frozenset(TYPE_KEYWORDS)

_TYPED_KINDS = frozenset({"FieldDecl", "MethodDecl", "Parameter",
                          "LocalVarDecl"})


def declared_type(decl: SyntaxNode) -> Optional[SyntaxNode]:
    """The TypeRef of a field, parameter or local variable, or a method's
    return type; None for any other kind of node."""
    if decl.kind not in _TYPED_KINDS:
        return None
    for child in decl.children:
        if child.kind == "TypeRef":
            return child
        if child.kind == "Parameter":
            break
    return None


def initializer(decl: SyntaxNode) -> Optional[SyntaxNode]:
    """The initializer of a field or local variable: its first child that
    is not a modifier, annotation or type."""
    for child in decl.children:
        if child.kind not in ("Modifier", "Annotation", "TypeRef"):
            return child
    return None


def parameters(decl: SyntaxNode) -> list[SyntaxNode]:
    return [c for c in decl.children if c.kind == "Parameter"]


def param_types(decl: SyntaxNode) -> str:
    """The parameter types of a method or constructor, comma-joined."""
    return ",".join(t.value for t in map(declared_type, parameters(decl))
                    if t is not None)


def body_of(decl: SyntaxNode) -> Optional[SyntaxNode]:
    return next((c for c in decl.children if c.kind == "Block"), None)


def clauses(decl: SyntaxNode) -> dict[str, list[SyntaxNode]]:
    """A declaration's TypeRef children grouped by the marker leaf before
    them: "" (none yet), "extends", "implements" and "throws"."""
    groups: dict[str, list[SyntaxNode]] = {"": [], "extends": [],
                                           "implements": [], "throws": []}
    mode = ""
    for child in decl.children:
        if child.kind == "Name" and child.value in ("extends", "implements",
                                                     "throws"):
            mode = child.value
        elif child.kind == "TypeRef":
            groups[mode].append(child)
    return groups


# (start_line, start_col, end_line, end_col); lines and cols are 1-based.
Span = tuple[int, int, int, int]


@dataclass(eq=False, slots=True)
class SyntaxNode:
    kind: str
    value: str = ""
    children: list["SyntaxNode"] = field(default_factory=list)
    span: Optional[Span] = None
    id: int = -1

    def __post_init__(self) -> None:
        if self.kind not in NODE_KINDS:
            raise ValueError(f"unknown node kind: {self.kind!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        v = f" {self.value!r}" if self.value else ""
        return f"<{self.kind}{v} #{self.id} ({len(self.children)} kids)>"

    def walk(self) -> Iterator["SyntaxNode"]:
        """Pre-order traversal including self."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


def structurally_equal(a: SyntaxNode, b: SyntaxNode) -> bool:
    """Kind, value and child order; ids and spans are ignored."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x.kind != y.kind or x.value != y.value \
                or len(x.children) != len(y.children):
            return False
        stack.extend(zip(x.children, y.children))
    return True


def clone_node(node: SyntaxNode) -> SyntaxNode:
    """Deep copy preserving ids and spans; an explicit stack, so the copy
    takes no frames however deep the tree."""
    root = SyntaxNode(node.kind, node.value, [], node.span, node.id)
    stack = [(node, root)]
    while stack:
        src, dst = stack.pop()
        for c in src.children:
            copy = SyntaxNode(c.kind, c.value, [], c.span, c.id)
            dst.children.append(copy)
            stack.append((c, copy))
    return root


class SyntaxTree:
    """A rooted tree plus the id and parent indexes over it.

    ``clone()`` is copy-on-write.  The copy starts as the same root and two
    empty overlay indexes that fall back to the tree it was taken from,
    plus a set of the ids it removed, so it shares every subtree it does
    not edit.  A node has no parent pointer, so one node can sit in both
    trees.  The tree a clone was taken from is read-only from then on.

    insert(), remove() and set_value() are the only writers.  Each looks
    its node up by id and, in a clone, first copies the node with every
    ancestor that the clone still shares (path copying), then writes the
    copy and updates the indexes of the edited subtree only.  A reference
    taken before an ancestor was copied therefore still names the right
    node, and no write reaches a shared node.  max_id only grows, so
    fresh_id() never hands out the id of a removed node; a clone's ids
    continue from its source's max_id.
    """

    def __init__(self, root: SyntaxNode, assign_ids: bool = False):
        """Index the tree under ``root``.  With ``assign_ids``, the same
        walk numbers its nodes 0, 1, ... in pre-order."""
        self.root = root
        self._by_id: dict[int, SyntaxNode] = {}
        self._parents: dict[int, Optional[SyntaxNode]] = {}
        self._max_id = -1
        # copy-on-write state: the tree this one is a clone of, the ids
        # removed from it, this clone's own copies, and whether a clone
        # shares this tree's nodes
        self._base: Optional[SyntaxTree] = None
        self._removed: set[int] = set()
        self._copies: dict[int, SyntaxNode] = {}
        self._shared = False
        if assign_ids:
            self._number(root)
        else:
            self._index(root, None)

    def _number(self, root: SyntaxNode) -> None:
        by_id, parents = self._by_id, self._parents
        counter = 0
        stack: list[tuple[SyntaxNode, Optional[SyntaxNode]]] = [(root, None)]
        while stack:
            node, parent = stack.pop()
            node.id = counter
            by_id[counter] = node
            parents[counter] = parent
            counter += 1
            for child in reversed(node.children):
                stack.append((child, node))
        self._max_id = counter - 1

    def _index(self, top: SyntaxNode, parent: Optional[SyntaxNode]) -> None:
        stack: list[tuple[SyntaxNode, Optional[SyntaxNode]]] = [(top, parent)]
        while stack:
            node, parent = stack.pop()
            if self.has_node(node.id):
                raise ValueError(f"duplicate node id {node.id}")
            self._removed.discard(node.id)
            self._by_id[node.id] = node
            self._parents[node.id] = parent
            self._max_id = max(self._max_id, node.id)
            for child in node.children:
                stack.append((child, node))

    def _lookup(self, node_id: int) -> Optional[SyntaxNode]:
        node = self._by_id.get(node_id)
        if node is None and self._base is not None \
                and node_id not in self._removed:
            return self._base._lookup(node_id)
        return node

    def _writable(self, node_id: int) -> SyntaxNode:
        """The node under node_id, ready to write: in a clone, a shared
        node is first replaced by a copy, and so is each shared ancestor."""
        if self._shared:
            raise ValueError("a tree shared with a clone is read-only")
        node = self.node(node_id)
        if self._base is None:
            return node
        # the shared path up to the first written ancestor, copied from
        # the top down; an explicit stack, so no frame per tree level
        path = []
        while node is not None and self._copies.get(node.id) is not node:
            path.append(node)
            node = self.parent(node)
        for shared in reversed(path):
            copy = SyntaxNode(shared.kind, shared.value,
                              list(shared.children), shared.span, shared.id)
            self._copies[shared.id] = self._by_id[shared.id] = copy
            for child in copy.children:
                self._parents[child.id] = copy
            if node is None:
                self.root = copy
            else:
                siblings = node.children
                siblings[siblings.index(shared)] = copy
            node = copy
        return node

    def insert(self, parent: SyntaxNode, index: int,
               subtree: SyntaxNode) -> None:
        """Attach a detached subtree as parent's index-th child."""
        parent = self._writable(parent.id)
        self._index(subtree, parent)
        parent.children.insert(index, subtree)

    def remove(self, node: SyntaxNode) -> None:
        """Detach node and its subtree; their ids leave the index."""
        parent = self.parent(node)
        if parent is None:
            raise ValueError("cannot remove the root")
        node = self.node(node.id)
        self._writable(parent.id).children.remove(node)
        for gone in node.walk():
            self._by_id.pop(gone.id, None)
            self._parents.pop(gone.id, None)
            self._removed.add(gone.id)

    def set_value(self, node: SyntaxNode, value: str) -> SyntaxNode:
        """Write node's value; returns the node now in the tree."""
        node = self._writable(node.id)
        node.value = value
        return node

    def node(self, node_id: int) -> SyntaxNode:
        node = self._lookup(node_id)
        if node is None:
            raise KeyError(node_id)
        return node

    def has_node(self, node_id: int) -> bool:
        return self._lookup(node_id) is not None

    def parent(self, node: SyntaxNode) -> Optional[SyntaxNode]:
        tree = self
        while node.id not in tree._parents:
            if tree._base is None or node.id in tree._removed:
                raise KeyError(node.id)
            tree = tree._base
        return tree._parents[node.id]

    @property
    def max_id(self) -> int:
        return self._max_id

    def fresh_id(self) -> int:
        self._max_id += 1
        return self._max_id

    def nodes(self) -> Iterator[SyntaxNode]:
        return self.root.walk()

    def clone(self) -> "SyntaxTree":
        """A copy-on-write copy (see the class docstring); this tree
        becomes read-only."""
        self._shared = True
        copy = SyntaxTree.__new__(SyntaxTree)
        copy.__dict__.update(self.__dict__, _by_id={}, _parents={},
                             _base=self, _removed=set(), _copies={},
                             _shared=False)
        return copy

    def enclosing_statement(self, node: SyntaxNode) -> Optional[SyntaxNode]:
        """Innermost statement containing node (node itself counts)."""
        cur: Optional[SyntaxNode] = node
        while cur is not None:
            if cur.kind in STATEMENT_KINDS:
                return cur
            cur = self.parent(cur)
        return None

    def ancestors(self, node: SyntaxNode) -> Iterator[SyntaxNode]:
        cur = self.parent(node)
        while cur is not None:
            yield cur
            cur = self.parent(cur)


@dataclass
class SourceFile:
    path: str
    text: str
    tree: SyntaxTree
