"""Parsed trees shared across versions stay untouched by resolution.

merge_scenario parses a file whose text is the same in several versions
once and hands every version the same SourceFile.  Both resolution
strategies edit copy-on-write clones, which share every subtree they do
not edit with the parsed tree: after running them on every corpus
scenario, control, the fanout fixture and the generated workloads, every
tree of all four versions prints, and is laid out, exactly as before.  A
rule's copy is O(edit): each top-level member that holds no conflict site
is still the parsed member itself.

mine_examples keeps each adapted host as one EditExample (its before and
after trees, script and refinement facts) for the lifetime of the
four-way graph, or None when the host's script is empty.  Its trees are
views of the host declarations themselves, so after whole pipeline runs
every memoized record must still equal a mining of a fresh parse of its
host, its facts must equal facts recomputed from a copy of its before
tree and its script, its indexed use lookup must equal the old
whole-tree walk for every conflict refined against it, it must hold no
pattern or conflict, and conflicts that share a host must get the same
record.

resolve_by_example keeps each merged member it anchors in (its tree,
statements and header texts) for the lifetime of the four-way graph
too.  Those trees are the merged decls themselves, so after resolution
they must still print and lay out as a fresh parse does, and their
headers and the merge's scores of them must equal fresh ones.
"""

import gc
import types

import pytest

import reference_inference as ref
import reference_similarity_search as ref_sim
from conftest import CORPUS, FANOUT, merge_inputs
from mergeweaver.conflicts import Conflict
from mergeweaver.inference import (TransformationPattern, script_edits,
                                   use_node_ids)
from mergeweaver.conflicts import detect_conflicts
from mergeweaver.evaluate import scenario_dirs
from mergeweaver.graph_diff import build_fourway
from mergeweaver.matching import resolve_by_example
from mergeweaver.merge3 import merge_scenario
from mergeweaver.mining import EditExample, mine_examples
from mergeweaver.pipeline import run_scenario
from mergeweaver.printer import pretty_print, statement_header_text
from mergeweaver.rules import (RULES, NotCovered, TargetMissing,
                              resolve_by_rule)
from mergeweaver.similarity import Scorer
from mergeweaver.syntax import (STATEMENT_KINDS, SyntaxTree, clone_node,
                                name_index, structurally_equal)
from mergeweaver.tree_diff import diff_trees

VERSIONS = ("base", "left", "right", "am")


def _fingerprint(scenario) -> dict:
    out = {}
    for version in VERSIONS:
        for path, sf in getattr(scenario, version).items():
            layout = [(n.id, n.kind, n.value, n.span)
                      for n in sf.tree.root.walk()]
            out[version, path] = (pretty_print(sf.tree), layout)
    return out


def _all_scenarios():
    return scenario_dirs(CORPUS) + scenario_dirs(CORPUS / "controls")


def test_resolution_leaves_every_parsed_tree_unchanged(generated):
    resolved = 0
    members = hosts = 0
    for sdir in _all_scenarios() + [FANOUT] + generated:
        scenario = merge_scenario(sdir / "base", sdir / "left",
                                  sdir / "right")
        before = _fingerprint(scenario)
        fw = build_fourway(scenario)
        for conflict in detect_conflicts(fw):
            if resolve_by_example(fw, conflict, scenario) is not None:
                resolved += 1
            try:
                resolve_by_rule(fw, conflict, scenario)
                resolved += 1
            except (NotCovered, TargetMissing):
                pass
        assert _fingerprint(scenario) == before, sdir.name
        members += len(fw.members)
        hosts += sum(ex is not None for ex in fw.mined.values())
    assert resolved >= 146          # 76 corpus and fanout, 70 generated
    assert members >= 16            # with the merged-member memo in place
    assert hosts >= 26              # 16 corpus and fanout, 10 generated


def test_rule_copy_shares_every_member_without_a_site():
    scenario = merge_scenario(FANOUT / "base", FANOUT / "left",
                              FANOUT / "right")
    fw = build_fourway(scenario)
    shared = copied = 0
    for conflict in detect_conflicts(fw):
        am = scenario.am[conflict.sites[0].file].tree
        work = am.clone()
        RULES[conflict.type][1](work, conflict, fw)
        sites = {site.node_id for site in conflict.sites}
        for decl in work.root.children:
            for member in decl.children:
                if sites.isdisjoint(n.id for n in member.walk()):
                    assert member is am.node(member.id), member
                    shared += 1
                else:           # on the path from an edit to the root
                    assert member is not am.node(member.id), member
                    copied += 1
    # 16 conflicts in one three-member file, one edited member each
    assert (shared, copied) == (32, 16)


def test_memoized_merged_members_stay_equal_to_a_fresh_parse():
    checked = 0
    for sdir in _all_scenarios() + [FANOUT]:
        fw = run_scenario(sdir / "base", sdir / "left",
                          sdir / "right").fourway
        fresh = build_fourway(merge_scenario(sdir / "base", sdir / "left",
                                             sdir / "right"))
        for key, member in fw.members.items():
            decl = fw.merged.by_id(key).decl
            fresh_decl = fresh.merged.by_id(key).decl
            fresh_tree = SyntaxTree(fresh_decl)
            assert member.tree.root is decl and decl is not fresh_decl
            assert pretty_print(decl) == pretty_print(fresh_decl), key
            assert _layout(member.tree) == _layout(fresh_tree), key
            assert [n.span for n in decl.walk()] \
                == [n.span for n in fresh_decl.walk()], key
            assert [n.id for n in member.statements] == [
                n.id for n in fresh_decl.walk()
                if n.kind in STATEMENT_KINDS], key
            for node, text in member.headers.items():
                assert text == statement_header_text(
                    fresh_tree.node(node.id)), key
            # the merge's memoized scores of these headers equal a fresh
            # Scorer's and the Counter reference's
            texts = sorted(set(member.headers.values()))
            for a in texts:
                for b in texts:
                    sim = member.scorer.similarity(a, b)
                    assert sim == Scorer().similarity(a, b), key
                    assert sim == ref_sim.profile_similarity(
                        ref_sim.profile(a), ref_sim.profile(b)), key
            checked += 1
    assert checked >= 12            # 11 corpus members, 1 fanout member


def test_untouched_file_is_one_shared_object():
    d = CORPUS / "tax-c01"          # neither branch touches Painter.java
    scenario = merge_scenario(d / "base", d / "left", d / "right")
    painter = scenario.base["Painter.java"]
    assert all(getattr(scenario, v)["Painter.java"] is painter
               for v in VERSIONS)
    for path in scenario.am:
        texts = {getattr(scenario, v)[path].text for v in VERSIONS
                 if path in getattr(scenario, v)}
        ids = {id(getattr(scenario, v)[path]) for v in VERSIONS
               if path in getattr(scenario, v)}
        assert len(ids) == len(texts), path    # one object per distinct text


def _ops(script) -> list[tuple]:
    return [(op.op, op.node_id, op.parent_id, op.index, op.node_kind,
             op.value) for op in script]


def _layout(tree: SyntaxTree) -> list[tuple]:
    return [(n.id, n.kind, n.value) for n in tree.nodes()]


def test_memoized_examples_stay_equal_to_a_fresh_mining():
    checked = 0
    for sdir in _all_scenarios() + [FANOUT]:
        fw = run_scenario(sdir / "base", sdir / "left",
                          sdir / "right").fourway
        fresh = build_fourway(merge_scenario(sdir / "base", sdir / "left",
                                             sdir / "right"))
        for (branch, base_id, target_id), mined in fw.mined.items():
            delta, fresh_delta = (fw.delta_left, fresh.delta_left) \
                if branch == "l" else (fw.delta_right, fresh.delta_right)
            fresh_before = SyntaxTree(fresh.base.by_id(base_id).decl)
            fresh_after = SyntaxTree(fresh_delta.target.by_id(target_id).decl)
            if mined is None:       # kept as None: the bodies do not differ
                assert not diff_trees(fresh_before, fresh_after)
                continue
            before, after, script = mined.before, mined.after, mined.script
            assert before.root is fw.base.by_id(base_id).decl
            assert after.root is delta.target.by_id(target_id).decl
            assert before.root is not fresh_before.root
            assert structurally_equal(before.root, fresh_before.root)
            assert structurally_equal(after.root, fresh_after.root)
            assert _layout(before) == _layout(fresh_before), sdir.name
            assert _layout(after) == _layout(fresh_after), sdir.name
            assert _ops(script) == _ops(diff_trees(fresh_before,
                                                   fresh_after)), sdir.name
            checked += 1
    assert checked >= 16            # 12 corpus hosts, 4 fanout hosts


def test_conflicts_sharing_a_host_share_its_script():
    fw = build_fourway(merge_scenario(FANOUT / "base", FANOUT / "left",
                                      FANOUT / "right"))
    first, second = detect_conflicts(fw)[:2]
    ex1 = mine_examples(fw, first)
    assert len(ex1) == len(fw.mined) == 4
    ex2 = mine_examples(fw, second)
    assert len(fw.mined) == 4
    assert [e.host for e in ex1] == [e.host for e in ex2]
    assert first.subject != second.subject
    for a, b in zip(ex1, ex2):
        assert a is b


@pytest.fixture(scope="module")
def resolved(generated):
    """(four-way graph, conflicts) of a whole pipeline run on every corpus
    scenario and control, the fanout fixture and the generated
    workloads."""
    out = []
    for d in merge_inputs() + generated:
        run = run_scenario(d / "base", d / "left", d / "right")
        out.append((run.fourway, run.report.conflicts))
    return out


def _facts_view(edits, named) -> tuple:
    return (edits.targets,
            edits.stmt_ids,
            [(sid, stmt.id) for sid, stmt in edits.edited.items()],
            edits.used, edits.owner, edits.by_target, edits.by_stmt,
            edits.definers,
            {name: [n.id for n in nodes] for name, nodes in named.items()})


def test_mined_facts_equal_a_fresh_recomputation(resolved):
    checked = 0
    for fw, _conflicts in resolved:
        for (_branch, base_id, _target_id), ex in fw.mined.items():
            if ex is None:
                continue
            fresh_before = SyntaxTree(
                clone_node(fw.base.by_id(base_id).decl))
            fresh = _facts_view(script_edits(fresh_before, list(ex.script)),
                                name_index(fresh_before.root))
            assert _facts_view(ex.edits, ex.named) == fresh
            checked += 1
    assert checked >= 26


def test_indexed_use_lookup_equals_the_whole_tree_walk(resolved):
    pairs = 0
    for fw, conflicts in resolved:
        for conflict in conflicts:
            for ex in mine_examples(fw, conflict):
                want = ref.use_node_ids(ex.before, conflict)
                assert use_node_ids(ex.named, conflict) == want
                pairs += 1
    assert pairs >= 206         # 12 corpus, 64 fanout, 130 generated


def _reachable_types(root) -> set[type]:
    """Types of every object reachable from root, not following classes,
    modules and functions."""
    seen: set[int] = set()
    kinds: set[type] = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
                obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        kinds.add(type(obj))
        stack.extend(gc.get_referents(obj))
    return kinds


def test_mined_records_hold_no_pattern_or_conflict(resolved):
    records = 0
    for fw, _conflicts in resolved:
        for ex in fw.mined.values():
            if ex is None:
                continue
            assert type(ex) is EditExample
            assert not _reachable_types(ex) & {TransformationPattern, Conflict}
            records += 1
    assert records >= 26
