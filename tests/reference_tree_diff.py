"""Reference tree differ for the differential tests in
test_tree_diff_reference.py.

Test-only verbatim copies of what mergeweaver's ``tree_diff`` had before
it numbered both trees into flat pre-order arrays: the matcher over node
objects and id-keyed dicts (the recursive structural ``_hash`` and
``_height``, the sorted isomorphic pass, the counted container pass, the
sanitizing sweep and the LCS recovery) and the recursive script generator,
with ``postorder`` as ``syntax`` had it.  ``_match_containers_listed`` is
the container pass from before that one counted common partners: for
every unmatched before container it lists its descendants, walks up from
each matched one's partner to collect candidates, and scores each
candidate by scanning that candidate's descendants.  Keep them as they
are; they are the oracle, not a second implementation to maintain.
"""

from __future__ import annotations

from difflib import SequenceMatcher
from typing import Optional

from mergeweaver.syntax import SyntaxNode, SyntaxTree, structurally_equal
from mergeweaver.tree_diff import EditOp, EditScript, apply_op


def postorder(node: SyntaxNode) -> list[SyntaxNode]:
    """Post-order list of node's subtree: the reverse of a pre-order walk
    that takes the children last to first."""
    out = []
    stack = [node]
    while stack:
        cur = stack.pop()
        out.append(cur)
        stack.extend(cur.children)
    out.reverse()
    return out


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


def _match_containers_listed(m: _Matching) -> None:
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
