"""Tree differencing with update/add/delete/move scripts.

Matching runs three passes: isomorphic subtree matching by structural hash,
a bottom-up pass that pairs same-kind containers when the dice overlap of
their matched descendants exceeds one half, and an LCS recovery pass that
aligns leftover children of matched parents by kind.  Pairs whose before-side
sits under an unmatched ancestor are dropped, so every delete removes a whole
unmatched subtree.

The script is produced by simulating it on a working copy: deletes first,
then a pre-order placement walk over the after tree emitting move, add and
update ops with indices valid at application time.  The simulation asserts
the working copy ends up structurally identical to the after tree, which is
what apply_script reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from difflib import SequenceMatcher
from typing import Iterator, Optional

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


@dataclass
class EditScript:
    ops: list[EditOp]

    def __iter__(self) -> Iterator[EditOp]:
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self.ops)

    def __bool__(self) -> bool:
        return bool(self.ops)


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


def _match_containers(m: _Matching) -> None:
    desc_memo: dict[int, list[SyntaxNode]] = {}

    def descendants(node: SyntaxNode, tree: SyntaxTree) -> list[SyntaxNode]:
        got = desc_memo.get(node.id if tree is m.after else -node.id - 1)
        if got is None:
            got = [n for n in node.walk() if n is not node]
            desc_memo[node.id if tree is m.after else -node.id - 1] = got
        return got

    for b in postorder(m.before.root):
        if m.matched_b(b) or not b.children:
            continue
        partners = [m.b2a[d.id] for d in descendants(b, m.before)
                    if d.id in m.b2a]
        if not partners:
            continue
        candidates: list[SyntaxNode] = []
        seen: set[int] = set()
        for p in partners:
            cur = m.after.parent(p)
            while cur is not None:
                if cur.id not in seen:
                    seen.add(cur.id)
                    if not m.matched_a(cur) and cur.kind == b.kind:
                        candidates.append(cur)
                cur = m.after.parent(cur)
        best: Optional[SyntaxNode] = None
        best_dice = 0.0
        nb = len(descendants(b, m.before))
        partner_ids = {p.id for p in partners}
        for c in candidates:
            cdesc = descendants(c, m.after)
            common = sum(1 for d in cdesc if d.id in partner_ids)
            dice = 2.0 * common / (nb + len(cdesc)) if (nb + len(cdesc)) else 0.0
            if dice > best_dice + 1e-12:
                best, best_dice = c, dice
        if best is not None and best_dice > 0.5:
            m.pair(b, best)


def _sanitize(m: _Matching) -> None:
    # a matched node under an unmatched before-ancestor would be destroyed
    # by the subtree delete, so the pair degrades to delete plus add
    def drop_subtree(node: SyntaxNode) -> None:
        for d in node.walk():
            if m.matched_b(d):
                m.unpair(d)

    def walk(node: SyntaxNode) -> None:
        for child in node.children:
            if m.matched_b(child):
                walk(child)
            else:
                drop_subtree(child)

    if m.before.root.kind != m.after.root.kind:
        raise ValueError("cannot diff trees with different root kinds")
    if not m.matched_b(m.before.root) \
            or m.b2a[m.before.root.id] is not m.after.root:
        if m.matched_b(m.before.root):
            m.unpair(m.before.root)
        if m.matched_a(m.after.root):
            m.unpair(m.a2b[m.after.root.id])
        m.pair(m.before.root, m.after.root)
    walk(m.before.root)


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
    ops: list[EditOp] = []

    # deletes: maximal unmatched subtrees, left to right
    def collect_deletes(node: SyntaxNode, out: list[SyntaxNode]) -> None:
        for child in node.children:
            if m.matched_b(child):
                collect_deletes(child, out)
            else:
                out.append(child)

    doomed: list[SyntaxNode] = []
    collect_deletes(work.root, doomed)
    for node in doomed:
        ops.append(EditOp("delete", node.id))
        parent = work.parent(node)
        assert parent is not None
        parent.children.remove(node)
        work.reindex()

    next_id = max(before.max_id, after.max_id) + 1

    def place(a_node: SyntaxNode, w_node: SyntaxNode) -> None:
        nonlocal next_id
        for i, a_child in enumerate(a_node.children):
            if m.matched_a(a_child):
                b_child = m.a2b[a_child.id]
                w_child = work.node(b_child.id)
                cur_parent = work.parent(w_child)
                in_place = cur_parent is w_node and \
                    w_node.children.index(w_child) == i
                if not in_place:
                    ops.append(EditOp("move", w_child.id,
                                      parent_id=w_node.id, index=i))
                    assert cur_parent is not None
                    cur_parent.children.remove(w_child)
                    w_node.children.insert(i, w_child)
                    work.reindex()
                if w_child.value != a_child.value:
                    ops.append(EditOp("update", w_child.id,
                                      value=a_child.value))
                    w_child.value = a_child.value
                place(a_child, w_child)
            else:
                new = SyntaxNode(a_child.kind, a_child.value, [], None, next_id)
                next_id += 1
                ops.append(EditOp("add", new.id, parent_id=w_node.id, index=i,
                                  node_kind=new.kind, value=new.value))
                w_node.children.insert(i, new)
                work.reindex()
                place(a_child, new)

    if work.root.value != after.root.value:
        ops.append(EditOp("update", work.root.id, value=after.root.value))
        work.root.value = after.root.value
    place(after.root, work.root)

    assert structurally_equal(work.root, after.root), \
        "edit script simulation diverged"
    return EditScript(ops)


def apply_script(tree: SyntaxTree, script: EditScript) -> SyntaxTree:
    """Applies ops in order, editing the tree in place."""
    for op in script:
        if op.op == "delete":
            node = _require(tree, op.node_id)
            parent = tree.parent(node)
            if parent is None:
                raise DanglingOp(f"cannot delete root {op.node_id}")
            parent.children.remove(node)
            tree.reindex()
        elif op.op == "update":
            node = _require(tree, op.node_id)
            node.value = op.value or ""
        elif op.op == "add":
            if tree.has_node(op.node_id):
                raise DanglingOp(f"add reuses id {op.node_id}")
            parent = _require(tree, op.parent_id)
            if op.index is None or op.index > len(parent.children):
                raise DanglingOp(f"bad index for add at {op.parent_id}")
            assert op.node_kind is not None
            parent.children.insert(
                op.index, SyntaxNode(op.node_kind, op.value or "", [],
                                     None, op.node_id))
            tree.reindex()
        elif op.op == "move":
            node = _require(tree, op.node_id)
            target = _require(tree, op.parent_id)
            probe: Optional[SyntaxNode] = target
            while probe is not None:
                if probe is node:
                    raise DanglingOp(f"move of {op.node_id} creates a cycle")
                probe = tree.parent(probe)
            parent = tree.parent(node)
            if parent is None:
                raise DanglingOp(f"cannot move root {op.node_id}")
            parent.children.remove(node)
            tree.reindex()
            if op.index is None or op.index > len(target.children):
                raise DanglingOp(f"bad index for move at {op.parent_id}")
            target.children.insert(op.index, node)
            tree.reindex()
        else:
            raise DanglingOp(f"unknown op {op.op}")
    return tree


def _require(tree: SyntaxTree, node_id: Optional[int]) -> SyntaxNode:
    if node_id is None or not tree.has_node(node_id):
        raise DanglingOp(f"no node {node_id}")
    return tree.node(node_id)  # type: ignore[arg-type]
