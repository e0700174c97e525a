"""Tree differencing with update/add/delete/move scripts, and the one
interpreter that replays such ops.

Matching runs three passes: isomorphic subtree matching by structural hash,
a bottom-up pass that pairs same-kind containers when the dice overlap of
their matched descendants exceeds one half, and an LCS recovery pass that
aligns leftover children of matched parents by kind.  Pairs whose before-side
sits under an unmatched ancestor are dropped, so every delete removes a whole
unmatched subtree.

The container pass is counted.  One post-order walk of the before tree
carries up, for each node, the after-side partners of its matched
descendants in pre-order, and the subtree sizes of both trees are computed
once.  For an unmatched container, one upward walk from each partner counts,
for every after ancestor, the partners below it, and collects the unmatched
ancestors of the container's kind in order of first reach.  A candidate's
Dice score, 2 * common / (descendants of the container + descendants of the
candidate), is then O(1).  The first candidate whose score beats the best so
far by more than 1e-12 wins, and it is paired when its score exceeds one
half.

The script is produced by running it on a copy-on-write clone of the
before tree, which copies only what the script edits: deletes first, then
a pre-order placement walk over the after tree emitting move, add and update
ops with indices valid at application time.  Each op is applied through
apply_op as soon as it is emitted, and the working copy must end up
structurally identical to the after tree, so the differ checks the same
interpreter that apply_script and the example strategy use.

apply_op has two policies.  Without a mapping, op ids are ids of the edited
tree, an add keeps its op id and an index past the end is an error; this
replays a script on (a copy of) the tree it was computed from.  With a
mapping from op ids to nodes of the edited tree, an add takes a fresh id and
is recorded in the mapping under its op id, and indices clamp to the
children present; this replays a pattern's ops inside matched merged code.
"""

from __future__ import annotations

from dataclasses import dataclass
from difflib import SequenceMatcher
from typing import Optional

from .syntax import SyntaxNode, SyntaxTree, postorder, structurally_equal


class DanglingOp(Exception):
    """An op referenced a node id absent from the tree being edited."""


@dataclass
class EditOp:
    op: str                         # update | add | delete | move
    node_id: int
    parent_id: Optional[int] = None
    index: Optional[int] = None
    node_kind: Optional[str] = None
    value: Optional[str] = None

    def __repr__(self) -> str:  # pragma: no cover
        if self.op == "update":
            return f"<update {self.node_id} -> {self.value!r}>"
        if self.op == "delete":
            return f"<delete {self.node_id}>"
        if self.op == "add":
            return (f"<add {self.node_kind}({self.value!r}) id={self.node_id}"
                    f" under {self.parent_id}@{self.index}>")
        return f"<move {self.node_id} under {self.parent_id}@{self.index}>"


EditScript = list[EditOp]


# ---------------------------------------------------------------------------
# matching


def _hash(node: SyntaxNode, memo: dict[int, tuple]) -> tuple:
    key = id(node)
    got = memo.get(key)
    if got is None:
        got = (node.kind, node.value,
               tuple(_hash(c, memo) for c in node.children))
        memo[key] = got
    return got


def _height(node: SyntaxNode, memo: dict[int, int]) -> int:
    key = id(node)
    got = memo.get(key)
    if got is None:
        got = 1 + max((_height(c, memo) for c in node.children), default=0)
        memo[key] = got
    return got


class _Matching:
    def __init__(self, before: SyntaxTree, after: SyntaxTree):
        self.before = before
        self.after = after
        self.b2a: dict[int, SyntaxNode] = {}
        self.a2b: dict[int, SyntaxNode] = {}

    def pair(self, b: SyntaxNode, a: SyntaxNode) -> None:
        self.b2a[b.id] = a
        self.a2b[a.id] = b

    def unpair(self, b: SyntaxNode) -> None:
        a = self.b2a.pop(b.id)
        del self.a2b[a.id]

    def matched_b(self, b: SyntaxNode) -> bool:
        return b.id in self.b2a

    def matched_a(self, a: SyntaxNode) -> bool:
        return a.id in self.a2b


def _match_isomorphic(m: _Matching) -> None:
    hmemo: dict[int, tuple] = {}
    tall: dict[int, int] = {}
    buckets: dict[tuple, list[SyntaxNode]] = {}
    for node in m.after.nodes():
        buckets.setdefault(_hash(node, hmemo), []).append(node)
    order = sorted(m.before.nodes(),
                   key=lambda n: -_height(n, tall))
    for b in order:
        if m.matched_b(b):
            continue
        for a in buckets.get(_hash(b, hmemo), []):
            if m.matched_a(a):
                continue
            _pair_subtrees(m, b, a)
            break


def _pair_subtrees(m: _Matching, b: SyntaxNode, a: SyntaxNode) -> None:
    m.pair(b, a)
    for bc, ac in zip(b.children, a.children):
        _pair_subtrees(m, bc, ac)


def _subtree_sizes(root: SyntaxNode) -> dict[int, int]:
    """Node id -> number of nodes in its subtree, itself included."""
    sizes: dict[int, int] = {}
    for node in postorder(root):
        sizes[node.id] = 1 + sum(sizes[c.id] for c in node.children)
    return sizes


def _match_containers(m: _Matching) -> None:
    b_sizes = _subtree_sizes(m.before.root)
    a_sizes = _subtree_sizes(m.after.root)
    a_parent = m.after.parent
    # per visited node not yet consumed by its parent: the partners of its
    # matched descendants, in pre-order
    carried: dict[int, list[SyntaxNode]] = {}
    for b in postorder(m.before.root):
        partners: list[SyntaxNode] = []
        for child in b.children:
            partner = m.b2a.get(child.id)
            if partner is not None:
                partners.append(partner)
            partners.extend(carried.pop(child.id))
        carried[b.id] = partners
        if m.matched_b(b) or not b.children or not partners:
            continue
        # every after-ancestor of a partner counts the partners below it;
        # its unmatched ones of b's kind are the candidates, in order of
        # first reach
        common: dict[int, int] = {}
        candidates: list[SyntaxNode] = []
        for p in partners:
            cur = a_parent(p)
            while cur is not None:
                count = common.get(cur.id)
                if count is None:
                    common[cur.id] = 1
                    if not m.matched_a(cur) and cur.kind == b.kind:
                        candidates.append(cur)
                else:
                    common[cur.id] = count + 1
                cur = a_parent(cur)
        best: Optional[SyntaxNode] = None
        best_dice = 0.0
        nb = b_sizes[b.id] - 1
        for c in candidates:
            total = nb + a_sizes[c.id] - 1
            dice = 2.0 * common[c.id] / total if total else 0.0
            if dice > best_dice + 1e-12:
                best, best_dice = c, dice
        if best is not None and best_dice > 0.5:
            m.pair(b, best)


def _sanitize(m: _Matching) -> None:
    if m.before.root.kind != m.after.root.kind:
        raise ValueError("cannot diff trees with different root kinds")
    if not m.matched_b(m.before.root) \
            or m.b2a[m.before.root.id] is not m.after.root:
        if m.matched_b(m.before.root):
            m.unpair(m.before.root)
        if m.matched_a(m.after.root):
            m.unpair(m.a2b[m.after.root.id])
        m.pair(m.before.root, m.after.root)
    # a matched node under an unmatched before-ancestor would be destroyed
    # by the subtree delete, so the pair degrades to delete plus add
    stack = [m.before.root]
    while stack:
        for child in stack.pop().children:
            if m.matched_b(child):
                stack.append(child)
            else:
                for d in child.walk():
                    if m.matched_b(d):
                        m.unpair(d)


def _recover_children(m: _Matching) -> None:
    # pre-order, so pairs created at a parent are themselves visited later
    for b in m.before.nodes():
        if not m.matched_b(b):
            continue
        a = m.b2a[b.id]
        free_b = [c for c in b.children if not m.matched_b(c)]
        free_a = [c for c in a.children if not m.matched_a(c)]
        if not free_b or not free_a:
            continue
        sm = SequenceMatcher(
            a=[c.kind for c in free_b], b=[c.kind for c in free_a],
            autojunk=False)
        for blk in sm.get_matching_blocks():
            for k in range(blk.size):
                m.pair(free_b[blk.a + k], free_a[blk.b + k])


# ---------------------------------------------------------------------------
# script generation


def diff_trees(before: SyntaxTree, after: SyntaxTree) -> EditScript:
    """Edit script turning before into after; ids refer to the before tree,
    add ops introduce fresh ids above before's maximum."""
    m = _Matching(before, after)
    _match_isomorphic(m)
    _match_containers(m)
    _sanitize(m)
    _recover_children(m)

    work = before.clone()
    ops: EditScript = []

    # deletes: maximal unmatched subtrees, left to right (after _sanitize
    # the parent of a matched node is matched, and the root is matched)
    doomed = [n for n in work.nodes()
              if not m.matched_b(n) and m.matched_b(work.parent(n))]
    for node in doomed:
        _emit(work, ops, EditOp("delete", node.id))

    if work.root.value != after.root.value:
        _emit(work, ops, EditOp("update", work.root.id,
                                value=after.root.value))
    _place(m, work, ops, after.root, work.root.id,
           max(before.max_id, after.max_id) + 1)

    assert structurally_equal(work.root, after.root), \
        "edit script replay diverged"
    return ops


def _emit(work: SyntaxTree, ops: EditScript, op: EditOp) -> SyntaxNode:
    ops.append(op)
    return apply_op(work, op)


def _place(m: _Matching, work: SyntaxTree, ops: EditScript,
           a_node: SyntaxNode, w_id: int, next_id: int) -> int:
    """Makes the subtree of work's node w_id equal a_node's, emitting and
    applying ops in pre-order; returns the next add id.  Not a closure: a
    recursive closure is a cycle that keeps work alive until the cyclic
    collector."""
    for i, a_child in enumerate(a_node.children):
        # a write below may have replaced the node with a copy
        w_node = work.node(w_id)
        if m.matched_a(a_child):
            w_child = work.node(m.a2b[a_child.id].id)
            in_place = work.parent(w_child) is w_node and \
                w_node.children.index(w_child) == i
            if not in_place:
                _emit(work, ops, EditOp("move", w_child.id,
                                        parent_id=w_node.id, index=i))
            if w_child.value != a_child.value:
                _emit(work, ops, EditOp("update", w_child.id,
                                        value=a_child.value))
        else:
            w_child = _emit(work, ops, EditOp(
                "add", next_id, parent_id=w_id, index=i,
                node_kind=a_child.kind, value=a_child.value))
            next_id += 1
        next_id = _place(m, work, ops, a_child, w_child.id, next_id)
    return next_id


def apply_op(tree: SyntaxTree, op: EditOp,
             mapping: Optional[dict[int, SyntaxNode]] = None) -> SyntaxNode:
    """Applies one op in place under the policy the mapping selects (see
    the module docstring) and returns the node it touched.  Nodes are
    looked up by id, and writes go through the tree's writers, so a
    mapped node that a clone has since copied still names its copy.  Raises
    DanglingOp, leaving the tree unchanged, for a missing or detached
    node, a move under itself or of the root, a delete of the root, or an
    unmapped index outside the children."""
    def lookup(node_id: Optional[int]) -> SyntaxNode:
        tree_id = node_id
        if mapping is not None:
            mapped = mapping.get(node_id)  # type: ignore[arg-type]
            tree_id = None if mapped is None else mapped.id
        # a mapped node is detached once an earlier op removed its subtree
        if tree_id is None or not tree.has_node(tree_id):
            raise DanglingOp(f"{op.op}: no node {node_id}")
        return tree.node(tree_id)

    def position(size: int) -> int:
        if mapping is not None:
            index = size if op.index is None else op.index
            return max(0, min(index, size))
        if op.index is None or not 0 <= op.index <= size:
            raise DanglingOp(f"{op.op}: bad index {op.index} "
                             f"under {op.parent_id}")
        return op.index

    if op.op == "update":
        return tree.set_value(lookup(op.node_id), op.value or "")
    if op.op == "delete":
        node = lookup(op.node_id)
        if tree.parent(node) is None:
            raise DanglingOp(f"delete: {op.node_id} is the root")
        tree.remove(node)
        return node
    if op.op == "add":
        parent = lookup(op.parent_id)
        if op.node_kind is None:
            raise DanglingOp(f"add: {op.node_id} has no kind")
        if mapping is None and tree.has_node(op.node_id):
            raise DanglingOp(f"add: reuses id {op.node_id}")
        index = position(len(parent.children))
        node_id = op.node_id if mapping is None else tree.fresh_id()
        node = SyntaxNode(op.node_kind, op.value or "", [], None, node_id)
        tree.insert(parent, index, node)
        if mapping is not None:
            mapping[op.node_id] = node
        return node
    if op.op == "move":
        node = lookup(op.node_id)
        parent = lookup(op.parent_id)
        # the root is an ancestor of every target, so it never moves
        if node is parent or node in tree.ancestors(parent):
            raise DanglingOp(f"move: {op.node_id} under its own subtree")
        index = position(len(parent.children)
                         - (tree.parent(node) is parent))
        tree.remove(node)
        tree.insert(parent, index, node)
        return node
    raise DanglingOp(f"unknown op {op.op}")


def apply_script(tree: SyntaxTree, script: EditScript) -> SyntaxTree:
    """Applies ops in order, editing the tree in place."""
    for op in script:
        apply_op(tree, op)
    return tree
