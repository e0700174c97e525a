"""Reference container pass for the differential test in
test_tree_diff_reference.py.

A test-only verbatim copy of ``_match_containers`` as mergeweaver had it
before the pass counted common partners: for every unmatched before
container it lists its descendants, walks up from each matched one's
partner to collect candidates, and scores each candidate by scanning that
candidate's descendants.  Keep it as it is; it is the oracle, not a second
implementation to maintain.
"""

from __future__ import annotations

from typing import Optional

from mergeweaver.syntax import SyntaxNode, SyntaxTree, postorder
from mergeweaver.tree_diff import _Matching


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
