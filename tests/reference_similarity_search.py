"""Reference similarity searches for the differential test in
test_similarity_search.py.

Test-only verbatim copies of the two trigram searches as mergeweaver had
them before one per-merge scorer served both: ``match_graphs`` with
``_parent_id`` and the Counter ``profile``/``profile_similarity`` kernel,
and ``match_context`` with ``_score``.  Three adaptations only: the old
``EntityGraph.context_string`` scan is the function ``context_string``
below, ``_parent_id`` reads ``EntityGraph.parent_id`` where it read the
parent entity's id, and a merged member is given as its bare tree, from
which the old ``MergedMember`` took its statements.  Keep it as it is; it
is the oracle, not a second implementation to maintain.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from mergeweaver.graph_diff import MATCH_THRESHOLD
from mergeweaver.inference import TransformationPattern
from mergeweaver.matching import (ANCHOR_THRESHOLD, SIM_THRESHOLD, MatchSet,
                                  NoAnchor)
from mergeweaver.peg import Entity, EntityGraph
from mergeweaver.printer import statement_header_text
from mergeweaver.syntax import STATEMENT_KINDS, SyntaxNode, SyntaxTree

# ---------------------------------------------------------------------------
# similarity


def trigrams(text: str) -> Counter:
    if len(text) < 3:
        return Counter({text: 1})
    return Counter(text[i:i + 3] for i in range(len(text) - 2))


# (text, its trigram multiset, the multiset's size)
Profile = tuple[str, Counter, int]


def profile(text: str) -> Profile:
    grams = trigrams(text)
    return text, grams, sum(grams.values())


def profile_similarity(a: Profile, b: Profile) -> float:
    if a[0] == b[0]:
        return 1.0
    total = a[2] + b[2]
    if total == 0:
        return 1.0
    small, large = a[1], b[1]
    if len(small) > len(large):
        small, large = large, small
    get = large.get
    overlap = 0
    for gram, n in small.items():
        m = get(gram)
        if m:
            overlap += n if n < m else m
    return 2.0 * overlap / total


# ---------------------------------------------------------------------------
# graph matching


def context_string(graph: EntityGraph, entity: Entity) -> str:
    fqns = set()
    for rel in graph.relations:
        if rel.src == entity.id:
            fqns.add(graph.entities[rel.dst].fqn)
        elif rel.dst == entity.id:
            fqns.add(graph.entities[rel.src].fqn)
    return " ".join(sorted(fqns))


def _parent_id(graph: EntityGraph, entity: Entity) -> Optional[str]:
    return graph.parent_id(entity)


_PHASE2_ORDER = {
    "project": 0, "package": 1, "compilation-unit": 2,
    "class": 3, "interface": 3, "enum": 3,
    "field": 4, "method": 4, "constructor": 4, "enum-constant": 4,
}


def match_graphs(ga: EntityGraph, gb: EntityGraph) -> dict[str, str]:
    """Correspondence between two graphs as a dict of entity ids."""
    matches: dict[str, str] = {}
    taken: set[str] = set()
    for eid in ga.entities:
        if eid in gb.entities:
            matches[eid] = eid
            taken.add(eid)

    # the printed body and the context of each entity scored, profiled once
    memo: dict[tuple[int, str], tuple[Profile, Profile]] = {}

    def profiles(graph: EntityGraph, ent: Entity) -> tuple[Profile, Profile]:
        key = (id(graph), ent.id)
        got = memo.get(key)
        if got is None:
            got = memo[key] = (profile(graph.body_text(ent)),
                               profile(context_string(graph, ent)))
        return got

    # similarity phase, repeated until stable so a matched parent can unlock
    # the pairing of its renamed children
    while True:
        candidates = []
        for eid, ent in ga.entities.items():
            if eid in matches:
                continue
            pid = _parent_id(ga, ent)
            if pid is not None and pid not in matches:
                continue
            want_parent = matches.get(pid) if pid is not None else None
            for oid, other in gb.entities.items():
                if oid in taken or other.kind != ent.kind:
                    continue
                if _parent_id(gb, other) != want_parent:
                    continue
                body_a, context_a = profiles(ga, ent)
                body_b, context_b = profiles(gb, other)
                sim = 0.5 * profile_similarity(body_a, body_b) \
                    + 0.5 * profile_similarity(context_a, context_b)
                if sim >= MATCH_THRESHOLD:
                    candidates.append((sim, ent, other))
        if not candidates:
            return matches
        candidates.sort(key=lambda c: (-c[0], _PHASE2_ORDER[c[1].kind],
                                       c[1].fqn, c[2].fqn))
        progressed = False
        for _sim, ent, other in candidates:
            if ent.id in matches or other.id in taken:
                continue
            matches[ent.id] = other.id
            taken.add(other.id)
            progressed = True
        if not progressed:
            return matches


# ---------------------------------------------------------------------------
# anchor search


def _score(p: SyntaxNode, m: SyntaxNode, p_prof: Profile,
           m_prof: Profile) -> float:
    score = 1.0 if p.kind == m.kind else 0.0
    sim = profile_similarity(p_prof, m_prof)
    if sim > SIM_THRESHOLD:
        score += sim
    return score


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
                  member_tree: SyntaxTree) -> MatchSet:
    """Anchor pattern in a merged member."""
    statements = [n for n in member_tree.nodes()
                  if n.kind in STATEMENT_KINDS]
    member_profiles = {n: profile(statement_header_text(n))
                       for n in statements}
    ctx = pattern.context
    p_profiles: dict[SyntaxNode, Profile] = {}

    def score(p: SyntaxNode, m: SyntaxNode) -> float:
        p_prof = p_profiles.get(p)
        if p_prof is None:
            p_prof = p_profiles[p] = profile(statement_header_text(p))
        return _score(p, m, p_prof, member_profiles[m])

    crit = [ctx.node(i) for i in sorted(pattern.critical_ids)
            if ctx.has_node(i)]
    if not crit:
        raise NoAnchor("pattern has no critical nodes")
    last = max(crit, key=lambda n: n.span or (0, 0, 0, 0))
    s_p = ctx.enclosing_statement(last)
    if s_p is None:
        raise NoAnchor("last critical use sits outside any statement")

    m_stmts = statements
    if not m_stmts:
        raise NoAnchor("merged member has no statements")
    scored = sorted(((score(s_p, m), pos) for pos, m in enumerate(m_stmts)),
                    key=lambda t: (-t[0], t[1]))
    best_score, best_pos = scored[0]
    if best_score <= ANCHOR_THRESHOLD:
        raise NoAnchor(f"best anchor score {best_score:.3f}")
    s_m = m_stmts[best_pos]
    pairs = [(s_p, s_m, best_score)]

    p_sibs = _statement_siblings(ctx, s_p)
    m_sibs = _statement_siblings(member_tree, s_m)
    p_idx = p_sibs.index(s_p)
    m_idx = m_sibs.index(s_m)

    bound = m_idx
    for p_sib in reversed(p_sibs[:p_idx]):
        cands = sorted(((score(p_sib, m_sibs[j]), j) for j in range(bound)),
                       key=lambda t: (-t[0], -t[1]))
        if not cands or cands[0][0] <= ANCHOR_THRESHOLD:
            break
        sc, j = cands[0]
        pairs.append((p_sib, m_sibs[j], sc))
        bound = j

    bound = m_idx
    for p_sib in p_sibs[p_idx + 1:]:
        cands = sorted(((score(p_sib, m_sibs[j]), j)
                        for j in range(bound + 1, len(m_sibs))),
                       key=lambda t: (-t[0], t[1]))
        if not cands or cands[0][0] <= ANCHOR_THRESHOLD:
            break
        sc, j = cands[0]
        pairs.append((p_sib, m_sibs[j], sc))
        bound = j

    p_cur, m_cur = s_p, s_m
    while True:
        pp = _parent_statement(ctx, p_cur)
        mm = _parent_statement(member_tree, m_cur)
        if pp is None or mm is None:
            break
        sc = score(pp, mm)
        if sc <= ANCHOR_THRESHOLD:
            break
        pairs.append((pp, mm, sc))
        p_cur, m_cur = pp, mm

    sigma = sum(sc for _, _, sc in pairs)
    exact = sum(1 for _, _, sc in pairs if sc == 2.0)
    return MatchSet(pairs=pairs, sigma=sigma, exact=exact)
