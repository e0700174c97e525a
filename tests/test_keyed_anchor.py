"""The keyed first anchor picks what a scan of every statement picks.

``match_context`` looks the pattern statement's kind and header gram
multiset up in the merged member before it scores anything: the first
statement holding both is the first to score 2.0, so a hit scores
nothing.  Generated members with repeated headers, mixed kinds and
trigram twins (``abcab``, ``bcabc`` and ``cabca`` hold the same gram
multiset) must anchor, and pair their siblings, as the full-scan
reference search of ``reference_similarity_search`` does, and a pattern
statement alone must score no statement on a key hit and each statement
of another header on a miss.
"""

from hypothesis import example, given, settings, strategies as st

import reference_similarity_search as ref
from conftest import parse_snippet
from mergeweaver.inference import TransformationPattern
from mergeweaver.matching import MergedMember, NoAnchor, match_context
from mergeweaver.printer import statement_header_text
from mergeweaver.similarity import Scorer
from mergeweaver.syntax import SyntaxTree

# each kind's statement around a header
FORMS = {"IfStmt": "if ({}) {{ }}", "WhileStmt": "while ({}) {{ }}",
         "ExprStmt": "{}();"}
HEADERS = ["abcab", "bcabc", "cabca", "abcabc", "abcaby", "ab", "zz"]

_stmts = st.tuples(st.sampled_from(sorted(FORMS)), st.sampled_from(HEADERS))


def _method(stmts) -> SyntaxTree:
    body = " ".join(FORMS[kind].format(header) for kind, header in stmts)
    tree = parse_snippet(f"class A {{ void m() {{ {body} }} }}").tree
    return SyntaxTree(next(n for n in tree.nodes()
                           if n.kind == "MethodDecl"))


def _outcome(search) -> tuple:
    try:
        ms = search()
    except NoAnchor as exc:
        return ("no-anchor", str(exc))
    return ([(p.id, m.id, sc) for p, m, sc in ms.pairs], ms.sigma, ms.exact)


@settings(max_examples=300, deadline=None)
@given(member=st.lists(_stmts, min_size=1, max_size=10),
       before=st.lists(_stmts, max_size=2), anchor=_stmts,
       after=st.lists(_stmts, max_size=2))
@example(member=[("IfStmt", "bcabc"), ("IfStmt", "abcab")], before=[],
         anchor=("IfStmt", "abcab"), after=[])
@example(member=[("WhileStmt", "abcab"), ("IfStmt", "cabca"),
                 ("IfStmt", "abcab")], before=[("ExprStmt", "ab")],
         anchor=("IfStmt", "abcab"), after=[("IfStmt", "zz")])
def test_keyed_anchor_equals_the_full_scan(member, before, anchor, after):
    context = _method(before + [anchor] + after)
    s_p = [n for n in context.nodes()
           if n.kind == anchor[0]][sum(1 for k, _h in before
                                       if k == anchor[0])]
    pattern = TransformationPattern(context=context, ops=[], stmt_ids=[],
                                    critical_ids={s_p.children[0].id},
                                    example=None)
    tree = _method(member)
    scorer = Scorer()
    got = _outcome(lambda: match_context(pattern,
                                         MergedMember(tree, scorer)))
    assert got == _outcome(lambda: ref.match_context(pattern, tree))
    if not before and not after:
        # the anchor alone: a key hit scores nothing, a miss scores each
        # statement whose header differs from the pattern statement's
        text = statement_header_text(s_p)
        hit = got[0] != "no-anchor" and got[0][0][2] == 2.0
        assert scorer.scored == (0 if hit else sum(
            1 for t in MergedMember(tree, Scorer()).headers.values()
            if t != text))


def test_a_twin_before_the_key_hit_is_the_anchor():
    context = _method([("IfStmt", "abcab")])
    s_p = next(n for n in context.nodes() if n.kind == "IfStmt")
    pattern = TransformationPattern(context=context, ops=[], stmt_ids=[],
                                    critical_ids={s_p.children[0].id},
                                    example=None)
    tree = _method([("ExprStmt", "zz"), ("IfStmt", "abcaby"),
                    ("IfStmt", "cabca"), ("IfStmt", "abcab")])
    scorer = Scorer()
    ms = match_context(pattern, MergedMember(tree, scorer))
    twin = [n for n in tree.nodes() if n.kind == "IfStmt"][1]
    assert ms.pairs[0] == (s_p, twin, 2.0)
    # the twin holds the key hit's gram multiset, so nothing was scored
    assert scorer.scored == 0
