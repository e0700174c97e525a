"""Anchoring a transformation pattern in the merged code and applying it.

The pattern's statement holding the last critical use anchors the search:
the best-scoring statement of the merged member is paired with it, then
preceding and following sibling statements extend the pairing order-
preservingly, and finally enclosing statements pair up by header.  A pair
scores one point for equal kinds plus the trigram similarity of the
statement texts when it clears 0.618; 1.618 is the bar a pair must clear.

Every search of one conflict, and of every other conflict anchored in the
same merged member, scans the same statements.  So each merged member is
indexed once per merge: its tree, its statements, their header texts
(printed through the merge's PrintMemo, see ``printer``) and the first
position of each (kind, header gram multiset) make a MergedMember, kept
in ``FourWayGraph.members``, so a header is printed once per merge
however many patterns ask.  The searches score through the merge's
Scorer (see ``similarity``), a pair asked again scored again.
The member memo is sound because nothing edits a merged tree: application
below and the rules write copy-on-write clones, which never write a node
they share.

The anchor is looked up before it is scored.  A pair scores at most 2.0,
and 2.0 exactly when the kinds and the gram multisets are equal (a Dice
of 1), so the first statement of the pattern statement's kind and
multiset, indexed with the member, is the statement a scan of them all
would pick.  Only a miss scans, and then no statement scores 2.0.

Application rewrites a copy-on-write clone of the merged file, so it
copies only the nodes on the path from an edit to the root: a kind-aligned
walk (``tree_diff.kind_pairs``) maps each matched pattern statement onto
its merged partner, and the ops whose governing pattern statement was
matched are replayed through tree_diff.apply_op with that mapping (fresh
ids for adds, clamped indices).  An op the mapping cannot place is
skipped and makes the result partial.  A clone that no longer prints (a
skipped op left a node it was to fill short of a child) yields no
resolution, and the next ranked candidate is tried.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .conflicts import Conflict
from .inference import NoRelevantEdit, TransformationPattern, infer_pattern
from .merge3 import MergeScenario
from .mining import mine_examples
from .graph_diff import FourWayGraph
from .peg import Entity
from .printer import MalformedTree, PrintMemo, statement_header_text
from .similarity import Scorer, trigrams
from .syntax import (STATEMENT_KINDS, SourceFile, SyntaxNode, SyntaxTree,
                     last_node)
from .tree_diff import DanglingOp, apply_op, kind_pairs

SIM_THRESHOLD = 0.618
ANCHOR_THRESHOLD = 1.618


class NoAnchor(Exception):
    """No statement scores above the anchor bar; best is the top score."""

    def __init__(self, message: str, best: float = 0.0):
        super().__init__(message)
        self.best = best


@dataclass
class MatchSet:
    pairs: list[tuple[SyntaxNode, SyntaxNode, float]]
    sigma: float
    exact: int


@dataclass
class Resolution:
    strategy: str               # example | rule
    conflict: Conflict
    path: str
    text: str
    partial: bool = False
    rank: Optional[int] = None
    source_host: Optional[str] = None
    sigma: Optional[float] = None
    exact: Optional[int] = None
    rule: Optional[str] = None


@dataclass
class Outcome:
    """One strategy's result on one conflict: "resolved" and the resolution,
    or the code of why not (see the README), and every pattern inferred."""
    strategy: str               # example | rule
    conflict: Conflict
    reason: str
    resolution: Optional[Resolution] = None
    patterns: list[TransformationPattern] = field(default_factory=list,
                                                  compare=False)


def _score(p: SyntaxNode, m: SyntaxNode, sim: float) -> float:
    """One point for equal kinds, plus ``sim``, the header similarity of
    the two statements, when it clears SIM_THRESHOLD."""
    score = 1.0 if p.kind == m.kind else 0.0
    if sim > SIM_THRESHOLD:
        score += sim
    return score


def _multiset(text: str) -> tuple[str, ...]:
    """text's grams, sorted: equal exactly when the multisets are."""
    return tuple(sorted(trigrams(text)))


class MergedMember:
    """A merged member indexed for anchor searches (see the module
    docstring), and the scorer of the merge it belongs to."""

    def __init__(self, tree: SyntaxTree, scorer: Scorer):
        self.tree = tree
        self.scorer = scorer
        self.statements = [n for n in tree.nodes()
                           if n.kind in STATEMENT_KINDS]
        self.headers = {n: statement_header_text(n, scorer.print_memo)
                        for n in self.statements}
        # the first position of each kind and gram multiset
        self.first: dict[tuple[str, tuple[str, ...]], int] = {}
        for pos, (n, text) in enumerate(self.headers.items()):
            self.first.setdefault((n.kind, _multiset(text)), pos)


# ---------------------------------------------------------------------------
# anchoring


def _statement_siblings(tree: SyntaxTree,
                        stmt: SyntaxNode) -> list[SyntaxNode]:
    parent = tree.parent(stmt)
    if parent is None:
        return [stmt]
    return [c for c in parent.children if c.kind in STATEMENT_KINDS]


def _parent_statement(tree: SyntaxTree,
                      node: SyntaxNode) -> Optional[SyntaxNode]:
    parent = tree.parent(node)
    if parent is None:
        return None
    return tree.enclosing_statement(parent)


def match_context(pattern: TransformationPattern,
                  member: MergedMember) -> MatchSet:
    """Anchor pattern in a merged member."""
    ctx = pattern.context
    similarity, headers = member.scorer.similarity, member.headers

    # each pattern statement below is scored in one place, so its header
    # is printed once per search
    def score(p: SyntaxNode, p_text: str, m: SyntaxNode) -> float:
        return _score(p, m, similarity(p_text, headers[m]))

    crit = [ctx.node(i) for i in sorted(pattern.critical_ids)
            if ctx.has_node(i)]
    if not crit:
        raise NoAnchor("pattern has no critical nodes")
    s_p = ctx.enclosing_statement(last_node(crit))
    if s_p is None:
        raise NoAnchor("last critical use sits outside any statement")

    m_stmts = member.statements
    if not m_stmts:
        raise NoAnchor("merged member has no statements")
    text = statement_header_text(s_p)
    best_score, best_pos = 2.0, member.first.get((s_p.kind,
                                                  _multiset(text)))
    if best_pos is None:
        best_score, best_pos = min(((score(s_p, text, m), pos)
                                    for pos, m in enumerate(m_stmts)),
                                   key=lambda t: (-t[0], t[1]))
    if best_score <= ANCHOR_THRESHOLD:
        raise NoAnchor(f"best anchor score {best_score:.3f}", best_score)
    s_m = m_stmts[best_pos]
    pairs = [(s_p, s_m, best_score)]

    p_sibs = _statement_siblings(ctx, s_p)
    m_sibs = _statement_siblings(member.tree, s_m)
    p_idx = p_sibs.index(s_p)
    m_idx = m_sibs.index(s_m)

    # the preceding siblings, then the following ones, each paired with
    # the best merged sibling past the last pair, the nearest on a tie
    for p_part, step in ((p_sibs[:p_idx][::-1], -1), (p_sibs[p_idx + 1:], 1)):
        bound = m_idx
        for p_sib in p_part:
            near = range(bound + step, -1 if step < 0 else len(m_sibs), step)
            if not near:
                break
            text = statement_header_text(p_sib)
            sc, j = max(((score(p_sib, text, m_sibs[j]), j) for j in near),
                        key=lambda t: t[0])
            if sc <= ANCHOR_THRESHOLD:
                break
            pairs.append((p_sib, m_sibs[j], sc))
            bound = j

    p_cur, m_cur = s_p, s_m
    while True:
        pp = _parent_statement(ctx, p_cur)
        mm = _parent_statement(member.tree, m_cur)
        if pp is None or mm is None:
            break
        sc = score(pp, statement_header_text(pp), mm)
        if sc <= ANCHOR_THRESHOLD:
            break
        pairs.append((pp, mm, sc))
        p_cur, m_cur = pp, mm

    sigma = sum(sc for _, _, sc in pairs)
    exact = sum(1 for _, _, sc in pairs if sc == 2.0)
    return MatchSet(pairs=pairs, sigma=sigma, exact=exact)


def rank_candidates(cands: list[tuple[TransformationPattern, MatchSet]]
                    ) -> list[tuple[TransformationPattern, MatchSet]]:
    """Best candidate first: highest sigma, then most exact pairs, then
    the lexicographically smallest source host."""
    return sorted(cands, key=lambda pm: (-pm[1].sigma, -pm[1].exact,
                                         pm[0].example.host))


# ---------------------------------------------------------------------------
# application


def _depth(tree: SyntaxTree, node: SyntaxNode) -> int:
    return sum(1 for _ in tree.ancestors(node))


def _map_pair(p: SyntaxNode, w: SyntaxNode,
              mapping: dict[int, SyntaxNode]) -> None:
    """Maps p's subtree onto w's, children aligned by kind; an explicit
    stack, so no frame per tree level."""
    stack = [(p, w)]
    while stack:
        p, w = stack.pop()
        mapping[p.id] = w
        stack += [(p.children[x], w.children[y]) for x, y in kind_pairs(
            [c.kind for c in p.children], [c.kind for c in w.children])]


def apply_pattern(pattern: TransformationPattern, match_set: MatchSet,
                  conflict: Conflict, am_file: SourceFile,
                  memo: PrintMemo) -> Optional[Resolution]:
    """None if no op applies; raises MalformedTree if the clone won't print."""
    work = am_file.tree.clone()
    mapping: dict[int, SyntaxNode] = {}
    for p_stmt, m_stmt, _sc in sorted(
            match_set.pairs,
            key=lambda t: _depth(pattern.context, t[0])):
        if not work.has_node(m_stmt.id):
            continue
        _map_pair(p_stmt, work.node(m_stmt.id), mapping)

    matched_ids = {p.id for p, _, _ in match_set.pairs}
    applied = 0
    skipped = 0
    for op, stmt_id in zip(pattern.ops, pattern.stmt_ids):
        if stmt_id not in matched_ids:
            skipped += 1
            continue
        try:
            apply_op(work, op, mapping)
            applied += 1
        except DanglingOp:
            skipped += 1
    if applied == 0:
        return None

    partial = skipped > 0
    covered = {m.id for _, m, _ in match_set.pairs}
    for site in conflict.sites:
        if site.file != am_file.path:
            partial = True
            continue
        if not am_file.tree.has_node(site.node_id):
            continue
        stmt = am_file.tree.enclosing_statement(
            am_file.tree.node(site.node_id))
        if stmt is None or stmt.id not in covered:
            partial = True

    return Resolution(
        strategy="example",
        conflict=conflict,
        path=am_file.path,
        text=memo.print(work.root, am_file.tree.owns),
        partial=partial,
        source_host=pattern.example.host,
        sigma=match_set.sigma,
        exact=match_set.exact,
    )


def _merged_member(fw: FourWayGraph, entity: Entity) -> MergedMember:
    """The merge's one MergedMember for a merged entity, built on first
    use."""
    member = fw.members.get(entity.id)
    if member is None:
        member = fw.members[entity.id] = MergedMember(SyntaxTree(entity.decl),
                                                      fw.scorer)
    return member


def resolve_by_example(fw: FourWayGraph, conflict: Conflict,
                       scenario: MergeScenario) -> Outcome:
    if conflict.using_am is None or conflict.using_am.decl is None:
        return Outcome("example", conflict, "no-using-entity")
    am_file = scenario.am.get(conflict.sites[0].file)
    if am_file is None:
        return Outcome("example", conflict, "target-missing")

    examples, record = mine_examples(fw, conflict), scenario.record
    record.lap("mine")
    patterns: list[TransformationPattern] = []
    cands: list[tuple[TransformationPattern, MatchSet]] = []
    best = 0.0
    for example in examples:
        try:
            pattern = infer_pattern(example, conflict)
        except NoRelevantEdit:
            continue
        finally:
            record.lap("infer")
        patterns.append(pattern)
        try:
            cands.append((pattern, match_context(
                pattern, _merged_member(fw, conflict.using_am))))
        except NoAnchor as exc:
            best = max(best, exc.best)
        record.lap("anchor")

    reason = ("no-example" if not examples
              else "no-relevant-edit" if not patterns
              else f"no-anchor(best={best:.3f})" if not cands
              else "no-op-applied")
    for rank, (pattern, match_set) in enumerate(rank_candidates(cands), 1):
        try:
            resolution = apply_pattern(pattern, match_set, conflict, am_file,
                                       fw.scorer.print_memo)
        except MalformedTree:
            reason = "malformed-result"
            continue
        finally:
            record.lap("apply")
        if resolution is not None:
            resolution.rank = rank
            return Outcome("example", conflict, "resolved", resolution,
                           patterns)
    return Outcome("example", conflict, reason, patterns=patterns)
