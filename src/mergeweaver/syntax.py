"""Syntax trees for the Java subset handled by mergeweaver.

Every parsed source file becomes a tree of SyntaxNode objects, some of
whose method bodies may be RecognizedBlocks that build their nodes on
first read.  The node vocabulary is fixed (see NODE_KINDS); anything
outside it is a bug, not an extension point.  Trees are ordered, values
are plain strings, and node ids are assigned in pre-order so that two
parses of the same text produce the same ids, built on first read or
not.

Invariants maintained here and relied on elsewhere:
  * a node's kind is always a member of NODE_KINDS
  * Name and Literal nodes carry a non-empty value and have no children
  * spans of siblings are disjoint and nest inside the parent's span
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
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

# The loops and branches: the statements with a parenthesised header and
# a body, each by its keyword.
HEADED_KINDS = {"IfStmt": "if", "WhileStmt": "while", "ForStmt": "for",
                "ForEachStmt": "for"}

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


def type_base_name(type_text: str) -> str:
    """Strip generics and qualifiers from a TypeRef value: a.b.Foo<T> -> Foo."""
    base = type_text.split("<", 1)[0]
    return base.rsplit(".", 1)[-1]


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


class SyntaxNode:
    """One node: kind, value, ordered children, source span and id.

    A node the parser made does not hold its span as a tuple.  It holds
    the range of tokens it covers, packed into one int as ``first << 32 |
    stop`` (the tokens first .. stop - 1; an empty file's unit has stop 0,
    which reads the eof entry at index -1), and the token positions of its
    file (``parser.TokenPositions``).  The first read of ``span`` turns the
    range into the tuple, from that file's position table, which is built
    on that read, once per file, and keeps the tuple.  So a file nobody
    asks a position of never gets a table.  A copy made with ``copy`` takes
    the range as it is; a node made by hand takes a tuple or None.
    """

    __slots__ = ("kind", "value", "children", "_span", "_tokens", "id")

    def __init__(self, kind: str, value: str = "",
                 children: Optional[list["SyntaxNode"]] = None,
                 span: Optional[Span] | int = None, id: int = -1,
                 tokens=None):
        """``span`` is a Span or None, or a packed token range when
        ``tokens`` gives the positions of the tokens it counts."""
        if kind not in NODE_KINDS:
            raise ValueError(f"unknown node kind: {kind!r}")
        self.kind = kind
        self.value = value
        self.children = [] if children is None else children
        self._span = span
        self._tokens = tokens
        self.id = id

    @property
    def span(self) -> Optional[Span]:
        span = self._span
        if span.__class__ is int:
            # one store: a thread that reads the range at the same time
            # resolves it to the same tuple
            span = self._span = self._tokens.span(span)
        return span

    @span.setter
    def span(self, span: Optional[Span]) -> None:
        self._span = span

    def copy(self, children: list["SyntaxNode"]) -> "SyntaxNode":
        """This node's kind, value, span and id over ``children``; an
        unresolved span stays an unresolved token range."""
        return SyntaxNode(self.kind, self.value, children, self._span,
                          self.id, self._tokens)

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


# held while a recognized block builds its children, so that a block is
# built once however many threads read it
_BUILD_LOCK = threading.Lock()


class RecognizedBlock(SyntaxNode):
    """A method or constructor body the parser checked without building
    its nodes (see the ``parser`` docstring): a Block that keeps its token
    range, where its first token ``first`` is read from, and ``size``, the
    number of nodes below it.  A tree's numbering steps over the block by
    that count, so its nodes' ids are those the parse would have given.

    The first read of ``children`` calls the parser's ``_build_block``,
    which parses the block again from its file's text and returns its
    statements.  The statements and their subtrees are numbered in
    pre-order from the block's id + 1 and published in one store, under a
    lock, so every reader gets the same nodes.
    """

    __slots__ = ("first", "size", "_built")

    def __init__(self, span: int, tokens, size: int):
        self.kind = "Block"
        self.value = ""
        self._span = span
        self._tokens = tokens
        self.id = -1
        self.first = span >> 32
        self.size = size
        self._built: Optional[list[SyntaxNode]] = None

    @property
    def built(self) -> bool:
        """Whether the block's children have been built."""
        return self._built is not None

    @property
    def children(self) -> list[SyntaxNode]:
        built = self._built
        if built is None:
            with _BUILD_LOCK:
                built = self._built
                if built is None:
                    # parser imports this module, so the import waits
                    from .parser import _build_block
                    built = _build_block(self._tokens, self.first)
                    _number(built, self.id + 1)
                    self._built = built
        return built


def recognized_blocks(root: SyntaxNode) -> list[RecognizedBlock]:
    """The recognized blocks under ``root``, in pre-order, found without
    building any: the walk does not enter them."""
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node.__class__ is RecognizedBlock:
            out.append(node)
        else:
            stack.extend(reversed(node.children))
    return out


def _number(roots: list[SyntaxNode], counter: int) -> int:
    """Number ``roots`` and their subtrees in pre-order from ``counter``,
    stepping over the nodes of each unbuilt recognized block by its size;
    returns the next free id."""
    stack = roots[::-1]
    while stack:
        node = stack.pop()
        node.id = counter
        counter += 1
        if node.__class__ is RecognizedBlock and not node.built:
            counter += node.size
        else:
            stack.extend(reversed(node.children))
    return counter


def last_node(nodes: list[SyntaxNode]) -> SyntaxNode:
    """The first node of greatest span; by token range, which orders the
    nodes of one file as spans do, and needs no position table, if it can."""
    tokens = nodes[0]._tokens
    if all(n._span.__class__ is int and n._tokens is tokens for n in nodes):
        return max(nodes, key=lambda n: n._span)
    return max(nodes, key=lambda n: n.span or (0, 0, 0, 0))


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
    """Deep copy preserving ids and spans, resolved or not; an explicit
    stack, so the copy takes no frames however deep the tree."""
    root = node.copy([])
    stack = [(node, root)]
    while stack:
        src, dst = stack.pop()
        for c in src.children:
            copy = c.copy([])
            dst.children.append(copy)
            stack.append((c, copy))
    return root


# -- name uses --------------------------------------------------------------
# name_index is the one decoder of which nodes can use a definition by name;
# the use finders of conflicts and inference filter its lists by kind.


def _mentioned_name(node: SyntaxNode) -> Optional[str]:
    """The name a node can use a definition by: the value of a name,
    field access or call, the base name of a type reference, and the base
    name of the type a creation makes or a variable is declared with."""
    kind = node.kind
    if kind in ("Name", "FieldAccess", "MethodInvocation"):
        return node.value
    if kind == "TypeRef":
        return type_base_name(node.value)
    if kind == "ObjectCreation":
        tref = next((c for c in node.children if c.kind == "TypeRef"), None)
    elif kind in ("LocalVarDecl", "Parameter"):
        tref = declared_type(node)
    else:
        return None
    return None if tref is None else type_base_name(tref.value)


def name_index(root: SyntaxNode) -> dict[str, list[SyntaxNode]]:
    """The nodes under ``root`` (itself included) by the name they
    mention, each list in pre-order.  A node is under exactly one name, so
    a name is a key exactly when some Name, FieldAccess or MethodInvocation
    has it as value or some TypeRef as base name."""
    out: dict[str, list[SyntaxNode]] = {}
    for node in root.walk():
        name = _mentioned_name(node)
        if name is not None:
            out.setdefault(name, []).append(node)
    return out


class SyntaxTree:
    """A rooted tree plus the id and parent maps over it.

    With ``assign_ids``, as the parser calls it, the tree numbers the
    nodes 0, 1, ... in pre-order at once, so ``max_id`` and every ``id``
    hold from the start; an unbuilt ``RecognizedBlock`` takes the ids of
    the nodes below it without building them.  Without ``assign_ids`` the
    tree is a view of nodes that already have their ids: a parsed
    declaration, a pattern context, a mined host.  Either way the two maps
    are built only on the first call that looks a node up: ``node``,
    ``has_node``, ``parent`` (so also ``ancestors`` and
    ``enclosing_statement``), ``clone`` and the writers, and for a view
    also ``max_id`` and ``fresh_id``.  That one walk refuses a duplicate
    id and finds a view's largest, and builds every recognized block it
    meets.  A tree that is only walked, as most of the trees of files no
    branch touched are, never builds the maps.  The maps are built
    whole and then published in one store, so a thread reads either no
    maps or both complete.

    ``clone()`` is copy-on-write.  The copy starts as the same root and two
    empty overlay maps that fall back to the tree it was taken from,
    plus a set of the ids it removed, so it shares every subtree it does
    not edit.  A node has no parent pointer, so one node can sit in both
    trees.  The tree a clone was taken from is read-only from then on,
    and is never itself a clone: cloning a clone raises ValueError, so a
    lookup reads one overlay and then one base.

    insert(), remove() and set_value() are the only writers.  Each looks
    its node up by id and, in a clone, first copies the node with every
    ancestor that the clone still shares (path copying), then writes the
    copy and updates the maps of the edited subtree only.  A reference
    taken before an ancestor was copied therefore still names the right
    node, or ``current`` gives its copy, and no write reaches a shared
    node.  max_id only grows, so fresh_id() never hands out the id of a
    removed node; a clone's ids continue from its source's max_id.
    """

    def __init__(self, root: SyntaxNode, assign_ids: bool = False):
        """Number the tree under ``root``, or keep the ids it has (see the
        class docstring)."""
        self.root = root
        # (id -> node, id -> parent), or None until the first lookup
        self._maps: Optional[tuple[dict[int, SyntaxNode],
                                   dict[int, Optional[SyntaxNode]]]] = None
        # a view's largest id is found with its maps
        self._max_id: Optional[int] = None
        # copy-on-write state: the tree this one is a clone of, the ids
        # removed from it, this clone's own copies, and whether a clone
        # shares this tree's nodes
        self._base: Optional[SyntaxTree] = None
        self._removed: set[int] = set()
        self._copies: dict[int, SyntaxNode] = {}
        self._shared = False
        if assign_ids:
            self._max_id = _number([root], 0) - 1

    def _indexes(self) -> tuple[dict[int, SyntaxNode],
                                dict[int, Optional[SyntaxNode]]]:
        """The id and parent maps, built on the first call, which also
        refuses a duplicate id and sets a view's ``max_id``."""
        maps = self._maps
        if maps is None:
            by_id: dict[int, SyntaxNode] = {}
            parents: dict[int, Optional[SyntaxNode]] = {}
            stack: list[tuple[SyntaxNode, Optional[SyntaxNode]]] = \
                [(self.root, None)]
            while stack:
                node, parent = stack.pop()
                if by_id.setdefault(node.id, node) is not node:
                    raise ValueError(f"duplicate node id {node.id}")
                parents[node.id] = parent
                for child in node.children:
                    stack.append((child, node))
            if self._max_id is None:
                self._max_id = max(by_id)
            maps = self._maps = (by_id, parents)
        return maps

    @property
    def indexed(self) -> bool:
        """Whether the id and parent maps have been built."""
        return self._maps is not None

    def _index(self, top: SyntaxNode, parent: Optional[SyntaxNode]) -> None:
        """Index a subtree ``insert`` attaches, refusing an id the tree
        already has."""
        by_id, parents = self._indexes()
        stack: list[tuple[SyntaxNode, Optional[SyntaxNode]]] = [(top, parent)]
        while stack:
            node, parent = stack.pop()
            if self.has_node(node.id):
                raise ValueError(f"duplicate node id {node.id}")
            self._removed.discard(node.id)
            by_id[node.id] = node
            parents[node.id] = parent
            self._max_id = max(self._max_id, node.id)
            for child in node.children:
                stack.append((child, node))

    def _lookup(self, node_id: int) -> Optional[SyntaxNode]:
        if self._base is None:
            return (self._maps or self._indexes())[0].get(node_id)
        # this clone's overlay, then the base, whose maps clone() built
        node = self._maps[0].get(node_id)
        if node is None and node_id not in self._removed:
            node = self._base._maps[0].get(node_id)
        return node

    def _writable(self, node_id: int) -> SyntaxNode:
        """The node under node_id, ready to write: in a clone, a shared
        node is first replaced by a copy, and so is each shared ancestor."""
        if self._shared:
            raise ValueError("a tree shared with a clone is read-only")
        node = self.node(node_id)
        if self._base is None:
            return node
        by_id = self._indexes()[0]
        # the shared path up to the first written ancestor, copied from
        # the top down; an explicit stack, so no frame per tree level; the
        # children keep their parent entries (see ``parent``)
        path = []
        while node is not None and self._copies.get(node.id) is not node:
            path.append(node)
            node = self.parent(node)
        for shared in reversed(path):
            copy = shared.copy(list(shared.children))
            self._copies[shared.id] = by_id[shared.id] = copy
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
        """Detach node and its subtree; their ids leave the maps."""
        parent = self.parent(node)
        if parent is None:
            raise ValueError("cannot remove the root")
        node = self.node(node.id)
        self._writable(parent.id).children.remove(node)
        by_id, parents = self._indexes()
        for gone in node.walk():
            by_id.pop(gone.id, None)
            parents.pop(gone.id, None)
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

    def current(self, node: SyntaxNode) -> SyntaxNode:
        """node, or the copy a write made of it in this clone."""
        return self._copies.get(node.id, node)

    def has_node(self, node_id: int) -> bool:
        return self._lookup(node_id) is not None

    def owns(self, node: SyntaxNode) -> bool:
        """Whether node itself, not a copy of it, is in this tree."""
        return self._lookup(node.id) is node

    def parent(self, node: SyntaxNode) -> Optional[SyntaxNode]:
        node_id = node.id
        if self._base is None:
            return (self._maps or self._indexes())[1][node_id]
        parents = self._maps[1]
        if node_id in parents:
            parent = parents[node_id]
        elif node_id in self._removed:
            raise KeyError(node_id)
        else:
            parent = self._base._maps[1][node_id]
        # a write copies a node, not its children's entries: the copy this
        # clone made of the parent since, if any, is the parent now
        return None if parent is None else self.current(parent)

    @property
    def max_id(self) -> int:
        if self._max_id is None:
            self._indexes()
        return self._max_id

    def fresh_id(self) -> int:
        self._max_id = self.max_id + 1
        return self._max_id

    def nodes(self) -> Iterator[SyntaxNode]:
        return self.root.walk()

    def clone(self) -> "SyntaxTree":
        """A copy-on-write copy (see the class docstring); this tree
        becomes read-only.  Refused for a clone."""
        if self._base is not None:
            raise ValueError("a clone cannot be cloned")
        self._indexes()
        self._shared = True
        copy = SyntaxTree.__new__(SyntaxTree)
        copy.__dict__.update(self.__dict__, _maps=({}, {}), _base=self,
                             _removed=set(), _copies={}, _shared=False)
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

    @property
    def positioned(self) -> bool:
        """Whether the position table of this file's tokens was built
        (see SyntaxNode): some span of the file was read."""
        tokens = self.tree.root._tokens
        return tokens is not None and tokens.built
