"""Tree differencing with update/add/delete/move scripts, and the one
interpreter that replays such ops.

Both trees are numbered once.  An iterative pre-order walk lists each
tree's nodes, and one sweep from the last index back, children before
parents, gives every node its parent index, the end of its subtree (its
descendants are the indexes between it and the end), its height and its
class: the number interned for (kind, value, child classes) in one table
both trees share (hash-consing; Filliatre and Conchon, ML 2006).  Two
subtrees are isomorphic exactly when their classes are equal.  A matching
is two arrays of partner indexes, -1 where a node is unpaired.

Matching runs GumTree's passes (Falleri et al., ASE 2014).  The isomorphic
pass takes before nodes tallest first, in pre-order within a height; an
unpaired one takes the first unpaired after node of its class in
pre-order, and the two subtrees pair by offset, b+k with a+k.  The
container pass visits the before tree children first.  An unpaired
container's partners are those of the paired indexes in its subtree
range, listed by merging into the longest list of the containers below
it the others and the partners the scan between them reads, so a
partner is listed again only from a shorter list: once along an else-if
chain.  Its candidates are the unpaired after ancestors of its kind of
those partners, in order of first reach.  A candidate's common partners
are the partners inside its subtree interval, two bisections into the
sorted partners, so its Dice score, 2 * common / (descendants of the
container + descendants of the candidate), costs O(log n).  The first
candidate whose score beats the best so far by more than 1e-12 wins, and
it is paired when its score exceeds one half.  A bound on the score from
subtree sizes ends each walk up from a partner at the first ancestor
that can no longer win, and a subtree paired whole is walked from its
top only (see ``_match_containers``).  A pre-order sweep then
unpairs every node under an unpaired parent, so every delete removes a
whole unpaired subtree, and an LCS pass aligns the leftover children of
paired parents by kind; one leftover child on each side is paired when
the kinds are equal, and equal kind lists pair by position, without a
matcher.

The script is produced by running it on a copy-on-write clone of the
before tree, which copies only what the script edits: deletes first, left
to right, then a walk over the after tree in pre-order that places each
node with move, add and update ops whose indices are valid at application
time.  The walk does not descend below an after node whose isomorphic
pair no pass has dropped.  Every pair below it then holds too: the sweep
drops a pair only under a dropped one, and the root fix only a pair that
holds a root, which tops any isomorphic subtree it is in.  No other node
is paired into the two subtrees, so no delete, move or add reaches into
them, every child sits at its index and every value is equal: the subtree
emits no op.  Each op is applied through apply_op as soon as it is
emitted, and the working copy must end up structurally identical to the
after tree, so the differ checks the same interpreter that apply_script
and the example strategy use.

apply_op has two policies.  Without a mapping, op ids are ids of the edited
tree, an add keeps its op id and an index past the end is an error; this
replays a script on (a copy of) the tree it was computed from.  With a
mapping from op ids to nodes of the edited tree, an add takes a fresh id and
is recorded in the mapping under its op id, and indices clamp to the
children present; this replays a pattern's ops inside matched merged code.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from difflib import SequenceMatcher
from typing import Optional

from .syntax import SyntaxNode, SyntaxTree, structurally_equal


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


class _Numbered:
    """One tree in pre-order: node i, its parent index (-1 at the root),
    the end of its subtree (its descendants are i+1 .. end-1), its height
    and its interned class."""

    def __init__(self, tree: SyntaxTree, classes: dict[tuple, int]):
        nodes = list(tree.nodes())
        n = len(nodes)
        parent, end, height, cls = [-1] * n, [0] * n, [0] * n, [0] * n
        # children before parents, so each node reads its children's rows
        for i in range(n - 1, -1, -1):
            node = nodes[i]
            kids: list[int] = []
            tall = 0
            j = i + 1
            for _ in node.children:
                parent[j] = i
                kids.append(cls[j])
                if height[j] > tall:
                    tall = height[j]
                j = end[j]
            end[i], height[i] = j, tall + 1
            cls[i] = classes.setdefault((node.kind, node.value, tuple(kids)),
                                        len(classes))
        self.nodes, self.parent, self.end = nodes, parent, end
        self.height, self.cls = height, cls

    def children(self, i: int) -> list[int]:
        out = []
        j, end = i + 1, self.end[i]
        while j < end:
            out.append(j)
            j = self.end[j]
        return out


class _Matching:
    """A partial bijection between the pre-order indexes of two trees (-1
    where a node is unpaired), and the after roots of the isomorphic pairs
    that no pass has dropped."""

    def __init__(self, before: SyntaxTree, after: SyntaxTree):
        classes: dict[tuple, int] = {}
        self.b = _Numbered(before, classes)
        self.a = _Numbered(after, classes)
        self.b2a = [-1] * len(self.b.nodes)
        self.a2b = [-1] * len(self.a.nodes)
        self.iso: set[int] = set()
        # the partners the container pass listed, a count
        self.listed = 0

    def pair(self, b: int, a: int) -> None:
        self.b2a[b] = a
        self.a2b[a] = b

    def unpair(self, b: int) -> None:
        a = self.b2a[b]
        self.a2b[a] = self.b2a[b] = -1
        self.iso.discard(a)


def _match_isomorphic(m: _Matching) -> None:
    b, b2a, a2b = m.b, m.b2a, m.a2b
    # each class's after indices, last in pre-order first: a pair only
    # ever takes nodes, so a bucket's taken front is popped for good
    buckets: dict[int, list[int]] = {}
    for j in range(len(a2b) - 1, -1, -1):
        buckets.setdefault(m.a.cls[j], []).append(j)
    # tallest first, pre-order within a height (the sort is stable)
    for i in sorted(range(len(b2a)), key=b.height.__getitem__, reverse=True):
        bucket = buckets.get(b.cls[i])
        if b2a[i] >= 0 or bucket is None:
            continue
        while bucket and a2b[bucket[-1]] >= 0:
            bucket.pop()
        if bucket:
            j = bucket.pop()
            m.iso.add(j)
            for k in range(b.end[i] - i):
                b2a[i + k], a2b[j + k] = j + k, i + k


def _match_containers(m: _Matching) -> None:
    """Pairs each unpaired before container with the after candidate of
    best Dice score, if that score exceeds one half (see the module
    docstring), without walking or scoring what cannot change the winner.

    Candidates are scored as the walk first reaches them, which is the
    order of first reach.  A container i with nb descendants, np of them
    paired, shares at most min(np, size) partners with a candidate of
    ``size`` descendants, so the candidate scores at most
    2 * min(np, size) / (nb + size).  Up a chain of ancestors the size
    only grows, and once size >= np the bound falls as it grows.  So the
    walk stops at the first ancestor with size >= np whose bound is at
    most one half (4 * np <= nb + size, in integers) or at most the best
    score so far plus 1e-12 (in floats: the bound and a score divide by
    the same total, and rounding keeps the order), and neither that
    ancestor nor any above it is scored.  The winner does not change:

    * A skipped candidate scores no more than the best so far plus
      1e-12, and the best only grows, so it never beats the best.
    * A skipped candidate scores at most 0.5.  Any candidate that scores
      more, 2c / t > 1/2 with t = nb + size, scores at least 1 / (2t)
      more than 0.5, which is more than 1e-12 for any tree of fewer than
      5 * 10**11 nodes.  So the first such candidate in order wins over
      every skipped one before it, and none after it can win.  When no
      candidate scores more than 0.5, i stays unpaired either way.
    * Every kept candidate is reached from the same partner, so in the
      same order, as without the stops: a node below it on that walk is
      smaller, and were it a stop, so would the kept candidate be.

    A partner whose after parent is an earlier partner of i takes no walk.
    That parent is paired, so it is no candidate, and the walk above it
    was taken before, by the parent or by the top of its chain of such
    partners: a later walk that passes it ends where it ended before.  So
    the walks of a subtree paired whole start at its top only.  A partner
    that takes no walk from a container below takes none from i either:
    its after parent is an earlier partner of both.  So i's walks start
    from the partners its own scan reads and those the containers below
    it walked from, kept with their lists, in pre-order.
    """
    b, a, b2a, a2b = m.b, m.a, m.b2a, m.a2b
    a_end, a_parent, b_end, iso = a.end, a.parent, b.end, m.iso
    # each container visited: its partners, sorted, and those that took a
    # walk, in pre-order, until its nearest container above takes them
    done: dict[int, tuple[list[int], list[int]]] = {}
    # children first, left to right: by subtree end, the deepest first
    for i in sorted(range(len(b2a)), key=lambda i: (b_end[i], -i)):
        if b2a[i] >= 0 or b_end[i] == i + 1:
            continue
        # the partners of i's matched descendants, read one by one but
        # below a container visited before, whose lists hold them; in
        # pre-order, those that may take a walk
        lists, own, starts = [], [], []
        j, stop = i + 1, b_end[i]
        while j < stop:
            p = b2a[j]
            if p >= 0:
                starts.append(p)
                if p in iso:
                    # paired by offset, and each node below has an
                    # earlier partner as after parent, so takes no walk
                    own += range(p, p + b_end[j] - j)
                    j = b_end[j]
                    continue
                own.append(p)
            if j in done:
                ordered, walks = done.pop(j)
                lists.append(ordered)
                starts += walks
                j = b_end[j]
            else:
                j += 1
        # the longest list takes the rest
        ordered = max(lists, key=len, default=[])
        for other in lists:
            if other is not ordered:
                own += other
        m.listed += len(own)
        ordered += own
        ordered.sort()
        np = len(ordered)
        nb = b_end[i] - i - 1
        kind = b.nodes[i].kind
        seen: set[int] = set()
        walked: list[int] = []
        best, best_dice = -1, 0.0
        for p in starts:
            cur = a_parent[p]
            if i < a2b[cur] < a2b[p]:
                continue        # a parent of -1 would walk nothing either
            walked.append(p)
            # up to the first node seen before, whose own ancestors were
            # all seen or stopped at too
            while cur >= 0 and cur not in seen:
                seen.add(cur)
                size = a_end[cur] - cur - 1
                if size >= np and (4 * np <= nb + size or 2.0 * np / (
                        nb + size) <= best_dice + 1e-12):
                    break
                if a2b[cur] < 0 and a.nodes[cur].kind == kind:
                    total = nb + size
                    common = (bisect_left(ordered, a_end[cur])
                              - bisect_left(ordered, cur))
                    dice = 2.0 * common / total if total else 0.0
                    if dice > best_dice + 1e-12:
                        best, best_dice = cur, dice
                cur = a_parent[cur]
        done[i] = (ordered, walked)
        if best >= 0 and best_dice > 0.5:
            m.pair(i, best)


def _sanitize(m: _Matching) -> None:
    if m.b.nodes[0].kind != m.a.nodes[0].kind:
        raise ValueError("cannot diff trees with different root kinds")
    if m.b2a[0] != 0:
        if m.b2a[0] >= 0:
            m.unpair(0)
        if m.a2b[0] >= 0:
            m.unpair(m.a2b[0])
        m.pair(0, 0)
    # a matched node under an unmatched before-ancestor would be destroyed
    # by the subtree delete, so the pair degrades to delete plus add;
    # pre-order, so an unpaired parent has already been unpaired
    b2a, parent = m.b2a, m.b.parent
    for i in range(1, len(b2a)):
        if b2a[i] >= 0 and b2a[parent[i]] < 0:
            m.unpair(i)


def _recover_children(m: _Matching) -> None:
    b, a, b2a, a2b = m.b, m.a, m.b2a, m.a2b
    # pre-order, so pairs created at a parent are themselves visited later;
    # an isomorphic pair never dropped has no free node below it
    i = 0
    while i < len(b2a):
        j = b2a[i]
        if j in m.iso:
            i = b.end[i]
            continue
        free_b = [c for c in b.children(i) if b2a[c] < 0] if j >= 0 else []
        free_a = [c for c in a.children(j) if a2b[c] < 0] if free_b else []
        if free_a:
            for x, y in kind_pairs([b.nodes[c].kind for c in free_b],
                                   [a.nodes[c].kind for c in free_a]):
                m.pair(free_b[x], free_a[y])
        i += 1


def kind_pairs(a: list[str], b: list[str]) -> list[tuple[int, int]]:
    """The index pairs of difflib's matching blocks of two lists of kinds.
    Equal lists make one block, so they pair by position, unmatched."""
    if a == b:
        return [(k, k) for k in range(len(a))]
    sm = SequenceMatcher(a=a, b=b, autojunk=False)
    return [(blk.a + k, blk.b + k) for blk in sm.get_matching_blocks()
            for k in range(blk.size)]


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
    b2a, parent = m.b2a, m.b.parent
    for i in range(1, len(b2a)):
        if b2a[i] < 0 and b2a[parent[i]] >= 0:
            _emit(work, ops, EditOp("delete", m.b.nodes[i].id))

    if work.root.value != after.root.value:
        _emit(work, ops, EditOp("update", work.root.id,
                                value=after.root.value))
    _place(m, work, ops, max(before.max_id, after.max_id) + 1)

    assert structurally_equal(work.root, after.root), \
        "edit script replay diverged"
    return ops


def _emit(work: SyntaxTree, ops: EditScript, op: EditOp) -> SyntaxNode:
    ops.append(op)
    return apply_op(work, op)


def _place(m: _Matching, work: SyntaxTree, ops: EditScript,
           next_id: int) -> None:
    """Makes work equal the after tree below the root, emitting and
    applying ops in pre-order of the after tree."""
    a, a2b, b_nodes, current = m.a, m.a2b, m.b.nodes, work.current
    # (after index, its working parent, its index there)
    stack = [(c, work.root, k) for k, c in enumerate(a.children(0))][::-1]
    while stack:
        j, w_node, i = stack.pop()
        a_child = a.nodes[j]
        # a write below may have replaced the node with a copy
        w_node = current(w_node)
        partner = a2b[j]
        if partner >= 0:
            w_child = current(b_nodes[partner])
            # a node sits in the tree once, so this is its place
            siblings = w_node.children
            if not (i < len(siblings) and siblings[i] is w_child):
                _emit(work, ops, EditOp("move", w_child.id,
                                        parent_id=w_node.id, index=i))
            if w_child.value != a_child.value:
                _emit(work, ops, EditOp("update", w_child.id,
                                        value=a_child.value))
            if j in m.iso:
                continue
        else:
            w_child = _emit(work, ops, EditOp(
                "add", next_id, parent_id=w_node.id, index=i,
                node_kind=a_child.kind, value=a_child.value))
            next_id += 1
        stack += [(c, w_child, k) for k, c in enumerate(a.children(j))][::-1]


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
