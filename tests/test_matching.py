"""Context matching, candidate ranking, pattern application."""

import dataclasses
import functools
import random

import pytest

import reference_similarity_search as ref
from conftest import CORPUS, FANOUT, parse_snippet, run_corpus
from mergeweaver.evaluate import scenario_dirs
from mergeweaver.inference import NoRelevantEdit, infer_pattern
from mergeweaver.matching import (ANCHOR_THRESHOLD, SIM_THRESHOLD, MatchSet,
                                  MergedMember, NoAnchor, _map_pair, _score,
                                  match_context, rank_candidates,
                                  resolve_by_example)
from mergeweaver.mining import mine_examples
from mergeweaver.pipeline import run_scenario
from mergeweaver.printer import statement_header_text
from mergeweaver.similarity import Scorer
from mergeweaver.syntax import SyntaxTree


def motivating_pattern():
    run = run_corpus("serializer-rename")
    (conflict,) = run.report.conflicts
    ex = next(e for e in mine_examples(run.fourway, conflict)
              if e.host.endswith("handleSerializers(Node)"))
    return run, conflict, infer_pattern(ex, conflict)


def stmt_from(text: str):
    tree = parse_snippet(f"class T {{ void m() {{ {text} }} }}").tree
    return next(n for n in tree.nodes()
                if n.kind in ("ExprStmt", "LocalVarDecl", "IfStmt",
                              "ReturnStmt"))


def fresh_score(p, m) -> float:
    """The anchor score of two statements, from a fresh Scorer."""
    return _score(p, m, Scorer().similarity(statement_header_text(p),
                                            statement_header_text(m)))


def test_score_identical_statement_is_two():
    a = stmt_from("emit(total);")
    b = stmt_from("emit(total);")
    assert fresh_score(a, b) == 2.0


def test_score_same_kind_dissimilar_text_is_one():
    a = stmt_from("emit(total);")
    b = stmt_from("refresh(cursor, label, 99);")
    assert fresh_score(a, b) == 1.0


def test_score_near_miss_adds_similarity():
    a = stmt_from('if ("type-serializer".equals(name)) { emit(1); }')
    b = stmt_from('if ("type-serializer".equals(name2)) { emit(1); }')
    score = fresh_score(a, b)
    assert 1.0 + SIM_THRESHOLD < score < 2.0


def test_score_kind_mismatch_gets_no_kind_point():
    a = stmt_from("emit(total);")
    b = stmt_from("int left = emit(total);")
    assert fresh_score(a, b) < 2.0


def test_motivating_match_set():
    run, conflict, pattern = motivating_pattern()
    am = run.scenario.am["XmlClientConfigBuilder.java"]
    ms = match_context(pattern, MergedMember(am.tree, Scorer()))
    assert ms.exact == 4
    assert len(ms.pairs) == 5
    assert ms.sigma == pytest.approx(9.947368421052632)
    p_anchor, m_anchor, _sc = ms.pairs[0]
    assert statement_header_text(p_anchor) \
        == "addTypeSerializer(serializerConfig);"
    assert statement_header_text(m_anchor) \
        == "addTypeSerializer(serializerConfig);"
    scores = sorted(sc for _, _, sc in ms.pairs)
    assert scores[-4:] == [2.0, 2.0, 2.0, 2.0]
    # the search's scores equal a fresh Scorer's
    assert all(sc == fresh_score(p, m) for p, m, sc in ms.pairs)


def test_no_anchor_when_nothing_clears_threshold():
    _, _, pattern = motivating_pattern()
    stranger = parse_snippet("""\
class Other {
    void unrelated() {
        int count = 1;
        count = count + 1;
    }
}
""").tree
    with pytest.raises(NoAnchor):
        match_context(pattern, MergedMember(stranger, Scorer()))
    assert ANCHOR_THRESHOLD == pytest.approx(1.618)


def candidates_with(*rows):
    """rows: (sigma, exact, host) with a shared real pattern."""
    _, _, pattern = motivating_pattern()
    out = []
    for sigma, exact, host in rows:
        example = dataclasses.replace(pattern.example, host=host)
        pat = dataclasses.replace(pattern, example=example)
        out.append((pat, MatchSet(pairs=[], sigma=sigma, exact=exact)))
    return out


def test_rank_highest_sigma_wins():
    cands = candidates_with((3.0, 1, "z.Z.a()"), (5.0, 0, "a.A.a()"),
                            (4.0, 2, "m.M.a()"))
    ranked = rank_candidates(cands)
    assert [c[1].sigma for c in ranked] == [5.0, 4.0, 3.0]


def test_rank_breaks_sigma_tie_by_exact_then_host():
    cands = candidates_with((4.0, 1, "b.B.m()"), (4.0, 2, "c.C.m()"),
                            (4.0, 2, "a.A.m()"))
    ranked = rank_candidates(cands)
    heads = [(c[1].exact, c[0].example.host) for c in ranked]
    assert heads == [(2, "a.A.m()"), (2, "c.C.m()"), (1, "b.B.m()")]


def test_rank_argmax_is_permutation_invariant():
    cands = candidates_with(
        (6.0, 3, "d.D.m()"), (5.5, 4, "a.A.m()"), (6.0, 2, "e.E.m()"),
        (4.0, 9, "b.B.m()"), (6.0, 3, "c.C.m()"))
    rng = random.Random(7)
    first = rank_candidates(list(cands))[0]
    for _ in range(100):
        shuffled = list(cands)
        rng.shuffle(shuffled)
        top = rank_candidates(shuffled)[0]
        assert top[1].sigma == first[1].sigma
        assert top[1].exact == first[1].exact
        assert top[0].example.host == first[0].example.host
    assert first[0].example.host == "c.C.m()"


def test_resolve_by_example_end_to_end():
    run, conflict, _ = motivating_pattern()
    res = resolve_by_example(run.fourway, conflict, run.scenario)
    assert res is not None
    assert res.strategy == "example"
    assert res.rank == 1
    assert res.partial is False
    assert "SerializerConfig serializer = new SerializerConfig();" in res.text
    assert "addSerializerConfig(serializer);" in res.text
    # untouched sibling methods survive application verbatim
    assert "private void addTypeSerializer(TypeSerializerConfig" in res.text


def test_partial_application_rewrites_first_use_only():
    run = run_corpus("serialization-service-moved")
    (conflict,) = run.report.conflicts
    res = resolve_by_example(run.fourway, conflict, run.scenario)
    assert res is not None and res.partial is True
    assert res.sigma == pytest.approx(2.0)
    assert res.exact == 1
    body = res.text
    assert "getContext().getSerializationService().toData(key)" in body
    # second call in the same method keeps its old shape
    assert "Data valueData = getSerializationService().toData(value);" in body


def test_no_candidates_returns_none():
    run = run_corpus("callback-ref-rename")
    (conflict,) = run.report.conflicts
    assert resolve_by_example(run.fourway, conflict, run.scenario) is None


# ---------------------------------------------------------------------------
# the merged-member memo


@functools.lru_cache(maxsize=None)
def _runs_with_examples() -> list:
    """(name, run) of every scenario whose example strategy anchored."""
    runs = []
    for sdir in (scenario_dirs(CORPUS) + scenario_dirs(CORPUS / "controls")
                 + [FANOUT]):
        run = run_scenario(sdir / "base", sdir / "left", sdir / "right")
        if run.fourway.members:
            runs.append((sdir.name, run))
    return runs


def test_memo_holds_merged_members_only():
    members = 0
    for name, run in _runs_with_examples():
        fw = run.fourway
        for key, member in fw.members.items():
            # keyed by a merged entity, whose decl the member indexes
            assert key in fw.merged.entities, name
            assert member.tree.root is fw.merged.by_id(key).decl, name
            # every statement, and so every header key, belongs to that
            # merged tree, so no pattern context outlives its search
            for node in member.statements:
                assert member.tree.node(node.id) is node, name
            assert list(member.headers) == member.statements, name
            assert member.scorer is fw.scorer, name
            members += 1
    assert members >= 12             # 11 corpus hosts, 1 fanout host


def test_shared_member_anchors_as_a_fresh_member_does():
    searched = 0
    for name, run in _runs_with_examples():
        fw = run.fourway
        for conflict in run.report.conflicts:
            if conflict.using_am is None \
                    or conflict.using_am.id not in fw.members:
                continue
            member = fw.members[conflict.using_am.id]
            for ex in mine_examples(fw, conflict):
                try:
                    pattern = infer_pattern(ex, conflict)
                except NoRelevantEdit:
                    continue
                try:
                    want = match_context(pattern, MergedMember(
                        SyntaxTree(conflict.using_am.decl), Scorer()))
                except NoAnchor as exc:
                    with pytest.raises(NoAnchor, match=str(exc)):
                        match_context(pattern, member)
                    continue
                assert match_context(pattern, member) == want, name
                searched += 1
    assert searched >= 70           # 64 of them on the fanout fixture


def test_second_resolution_on_one_graph_is_identical():
    resolved = 0
    for name, run in _runs_with_examples():
        fw = run.fourway
        for conflict in run.report.conflicts:
            first = resolve_by_example(fw, conflict, run.scenario)
            memo = dict(fw.members)
            second = resolve_by_example(fw, conflict, run.scenario)
            assert second == first, name
            assert fw.members == memo, name     # nothing rebuilt
            resolved += first is not None
    assert resolved >= 20           # 16 of them on the fanout fixture


def test_merged_member_profiles_every_statement():
    run, _, _ = motivating_pattern()
    scorer = Scorer()
    member = MergedMember(run.scenario.am["XmlClientConfigBuilder.java"].tree,
                          scorer)
    assert member.statements
    assert list(member.headers) == member.statements
    for stmt, text in member.headers.items():
        assert text == statement_header_text(stmt)
    # a second index of the member prints no statement again: each one
    # printed through the merge's print memo is read back from it
    printed = scorer.print_memo.printed
    assert printed
    assert MergedMember(member.tree, scorer).headers == member.headers
    assert scorer.print_memo.printed == printed
    # scored through the scorer, every header pair scores as afresh and as
    # the Counter reference does, and every unequal pair counts once
    texts = sorted(set(member.headers.values()))
    for a in texts:
        for b in texts:
            sim = scorer.similarity(a, b)
            assert sim == Scorer().similarity(a, b)
            assert sim == ref.profile_similarity(ref.profile(a),
                                                 ref.profile(b))
    assert scorer.scored == len(texts) * (len(texts) - 1)


def test_the_statement_mapping_walks_a_long_else_if_chain():
    # the chain nests one IfStmt per arm; the mapping takes no frame per
    # level, so 3 000 arms map as a short chain does
    arms = "".join(" else if (x == %d) { x = %d; }" % (i, i)
                   for i in range(1, 3000))
    tree = parse_snippet("class T { void m(int x) { if (x == 0) { x = 1; }"
                         "%s } }" % arms).tree
    top = next(n for n in tree.nodes() if n.kind == "IfStmt")
    mapping = {}
    _map_pair(top, top, mapping)
    assert len(mapping) == sum(1 for _ in top.walk())
    assert all(mapping[n.id] is n for n in top.walk())
