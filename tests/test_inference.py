"""Pattern inference: use discovery, dependence closure, pruning."""

import random

import pytest

import reference_inference as ref
from conftest import (CORPUS, FANOUT, brute_force_closure, parse_snippet,
                      random_program, run_corpus)
from mergeweaver.conflicts import Conflict
from mergeweaver.evaluate import scenario_dirs
from mergeweaver.inference import (NoRelevantEdit, infer_pattern,
                                   refine_context, refine_edits,
                                   script_edits, use_node_ids)
from mergeweaver.graph_diff import EntityEdit, build_fourway
from mergeweaver.merge3 import parse_versions
from mergeweaver.mining import EditExample, mine_examples
from mergeweaver.peg import DuplicateEntity
from mergeweaver.pipeline import run_scenario
from mergeweaver.printer import pretty_print, statement_header_text
from mergeweaver.syntax import (STATEMENT_KINDS, SyntaxTree, clone_node,
                                name_index)
from mergeweaver.tree_diff import diff_trees


def mined(name: str, host_suffix: str = ""):
    run = run_corpus(name)
    (conflict,) = run.report.conflicts
    examples = mine_examples(run.fourway, conflict)
    if host_suffix:
        examples = [e for e in examples if e.host.endswith(host_suffix)]
    assert examples, f"no mined example in {name}"
    return conflict, examples[0]


def test_use_nodes_for_class_subject():
    conflict, ex = mined("serializer-rename", "handleSerializers(Node)")
    uses = use_node_ids(ex.named, conflict)
    shapes = sorted((ex.before.node(i).kind, ex.before.node(i).value)
                    for i in uses)
    assert shapes == [
        ("LocalVarDecl", "serializerConfig"),
        ("Name", "serializerConfig"),
        ("Name", "serializerConfig"),
        ("Name", "serializerConfig"),
        ("TypeRef", "TypeSerializerConfig"),
        ("TypeRef", "TypeSerializerConfig"),
    ]


def test_use_nodes_for_field_subject():
    conflict, ex = mined("cluster-field-removed")
    uses = use_node_ids(ex.named, conflict)
    assert uses
    for i in uses:
        node = ex.before.node(i)
        assert node.kind in ("Name", "FieldAccess")
        assert node.value == "timeout"


def test_use_nodes_for_constructor_subject():
    conflict, ex = mined("client-ctor-params")
    uses = use_node_ids(ex.named, conflict)
    kinds = {ex.before.node(i).kind for i in uses}
    assert "ObjectCreation" in kinds
    # the argument list and type name of the creation count as uses too,
    # so an inserted argument still targets a use node
    assert "ArgumentList" in kinds


def test_use_nodes_for_method_subject():
    conflict, ex = mined("serialization-service-moved")
    uses = use_node_ids(ex.named, conflict)
    kinds = {ex.before.node(i).kind for i in uses}
    assert "MethodInvocation" in kinds
    named = {ex.before.node(i).value
             for i in uses if ex.before.node(i).kind == "MethodInvocation"}
    assert named == {"getSerializationService"}


def test_motivating_closure_is_the_five_statements():
    conflict, ex = mined("serializer-rename", "handleSerializers(Node)")
    kept, closure, critical = refine_edits(ex, conflict)
    headers = sorted(statement_header_text(ex.before.node(s))
                     for s in closure)
    assert headers == sorted([
        '"type-serializer".equals(name)',
        "TypeSerializerConfig serializerConfig = new TypeSerializerConfig();",
        'serializerConfig.setClassName(getAttribute(child, "class-name"));',
        "serializerConfig.setTypeClassName(typeClassName);",
        "addTypeSerializer(serializerConfig);",
    ])
    # the unrelated local declaration between the setters stays out
    for sid in closure:
        assert "typeClassName = getAttribute" \
            not in statement_header_text(ex.before.node(sid))
    assert critical <= use_node_ids(ex.named, conflict)
    assert len(kept) == 8


def test_motivating_context_is_pruned_if_statement():
    conflict, ex = mined("serializer-rename", "handleSerializers(Node)")
    pattern = infer_pattern(ex, conflict)
    text = pretty_print(pattern.context)
    assert text == """\
if ("type-serializer".equals(name)) {
    TypeSerializerConfig serializerConfig = new TypeSerializerConfig();
    serializerConfig.setClassName(getAttribute(child, "class-name"));
    serializerConfig.setTypeClassName(typeClassName);
    addTypeSerializer(serializerConfig);
}
"""


def test_pattern_invariants():
    for name in ("serializer-rename", "cluster-field-removed",
                 "client-ctor-params", "serialization-service-moved"):
        conflict, ex = mined(name)
        try:
            pattern = infer_pattern(ex, conflict)
        except NoRelevantEdit:
            continue
        ctx_ids = {n.id for n in pattern.context.nodes()}
        assert pattern.critical_ids <= ctx_ids
        assert pattern.critical_ids
        for op in pattern.ops:
            assert op.op == "add" or op.node_id in ctx_ids


def test_closure_matches_brute_force_on_all_mined_examples():
    scenarios = ("serializer-rename", "cluster-field-removed",
                 "client-ctor-params", "serialization-service-moved",
                 "tax-c19", "tax-c20", "tax-c21", "tax-c22", "tax-c23",
                 "tax-c15", "tax-c17")
    runs = [(name, run_corpus(name)) for name in scenarios]
    runs.append(("rename-fanout", run_scenario(
        FANOUT / "base", FANOUT / "left", FANOUT / "right")))
    checked = 0
    for name, run in runs:
        for conflict in run.report.conflicts:
            for ex in mine_examples(run.fourway, conflict):
                uses = use_node_ids(ex.named, conflict)
                try:
                    _, closure, _ = refine_edits(ex, conflict)
                except NoRelevantEdit:
                    continue
                assert closure == brute_force_closure(
                    ex.before, list(ex.script), uses), (name, ex.host)
                checked += 1
    assert checked >= 76            # 12 corpus examples, 64 fanout ones


def _write(root, files: dict[str, str]) -> None:
    for version, text_by_path in files.items():
        for path, text in text_by_path.items():
            (root / version).mkdir(parents=True, exist_ok=True)
            (root / version / path).write_text(text)


_HUB = "package p;\npublic class H {\n    public int %s(int k) { return k; }\n}\n"
_HOST = """\
package p;
public class C {
    public int f(H h, int k) {
        int s = 0;
        int t = %s;
        s = s + h.%s;
        return s;
    }
}
"""
_CALLER = """\
package p;
public class D {
    public int g(H h) { return h.m(1); }
}
"""


def test_real_dependence_pulls_its_statement_in(tmp_path):
    # the adapted call now reads t, and the edited statement before it
    # defines t: the m pattern must keep that statement, although the
    # call's before-side target (h.m(k)) never mentions t
    _write(tmp_path, {
        "base": {"H.java": _HUB % "m", "C.java": _HOST % ("0", "m(k)")},
        "left": {"H.java": _HUB % "m2",
                 "C.java": _HOST % ("k * 2", "m2(t)")},
        "right": {"H.java": _HUB % "m", "C.java": _HOST % ("0", "m(k)"),
                  "D.java": _CALLER},
    })
    run = run_scenario(tmp_path / "base", tmp_path / "left",
                       tmp_path / "right")
    (conflict,) = run.report.conflicts
    (ex,) = mine_examples(run.fourway, conflict)
    _, closure, _ = refine_edits(ex, conflict)
    assert sorted(statement_header_text(ex.before.node(s))
                  for s in closure) == ["int t = 0;", "s = s + h.m(k);"]
    assert closure == brute_force_closure(
        ex.before, list(ex.script), use_node_ids(ex.named, conflict))
    context = pretty_print(infer_pattern(ex, conflict).context)
    assert "int t = 0;" in context and "s = s + h.m(k);" in context


def test_each_fanout_pattern_keeps_only_its_own_call():
    # every s = s + h.x(..) both defines and uses s, but renaming h.x
    # reads only h, which no edited statement defines
    run = run_scenario(FANOUT / "base", FANOUT / "left", FANOUT / "right")
    assert len(run.report.conflicts) == 16
    checked = 0
    for conflict in run.report.conflicts:
        method = conflict.def_change.old.simple_name
        for ex in mine_examples(run.fourway, conflict):
            pattern = infer_pattern(ex, conflict)
            stmts = [n for n in pattern.context.nodes()
                     if n.kind in STATEMENT_KINDS]
            assert len(stmts) == 1, (method, ex.host)
            calls = [n.value for n in stmts[0].walk()
                     if n.kind == "MethodInvocation"]
            assert calls == [method], (method, ex.host)
            checked += 1
    assert checked == 64


def test_unrelated_script_raises_no_relevant_edit():
    # an example about one subject cannot be refined against a conflict
    # over a different subject
    _, ex = mined("serializer-rename", "handleSerializers(Node)")
    other_conflict = run_corpus("tax-c15").report.conflicts[0]
    with pytest.raises(NoRelevantEdit):
        refine_edits(ex, other_conflict)


# ---------------------------------------------------------------------------
# one-pass pruning against the clone-then-prune reference


def _reference_prune(node, keep_ids: set[int]) -> None:
    kept_children = []
    for i, child in enumerate(node.children):
        droppable = child.kind in STATEMENT_KINDS \
            or (node.kind == "IfStmt" and i == 2)
        if droppable and not ({n.id for n in child.walk()} & keep_ids):
            continue
        kept_children.append(child)
    node.children = kept_children
    for child in node.children:
        _reference_prune(child, keep_ids)


def _lifted_target(op, ops):
    """op's target, its add lifted through the pending adds among ops."""
    adds_by_id = {o.node_id: o for o in ops if o.op == "add"}
    if op.op != "add":
        return op.node_id
    pid = op.parent_id
    while pid is not None and pid in adds_by_id:
        pid = adds_by_id[pid].parent_id
    return pid


def _lca(tree: SyntaxTree, nodes: list) -> object:
    """The deepest common node of the nodes' paths from the root."""
    if not nodes:
        return tree.root
    paths = []
    for n in nodes:
        path = [n] + list(tree.ancestors(n))
        path.reverse()
        paths.append(path)
    shortest = min(len(p) for p in paths)
    lca = paths[0][0]
    for depth in range(shortest):
        first = paths[0][depth]
        if all(p[depth] is first for p in paths):
            lca = first
        else:
            break
    return lca


def reference_context(example, kept, closure, critical) -> SyntaxTree:
    """The context as refine_context built it before pruning went one-pass:
    clone the root, then re-walk each child's subtree at every level; the
    kept ops' targets are lifted through the kept adds alone, and the root
    is the statement around the common ancestor of the kept nodes that
    their whole paths give."""
    before = example.before
    ops = [example.script[i] for i in kept]
    keep_ids = set(closure) | set(critical)
    for op in ops:
        tid = _lifted_target(op, ops)
        if tid is not None:
            keep_ids.add(tid)
    anchors = [before.node(i) for i in sorted(keep_ids)
               if before.has_node(i)]
    root = _lca(before, anchors)
    stmt = before.enclosing_statement(root)
    if stmt is not None:
        root = stmt
    pruned = clone_node(root)
    _reference_prune(pruned, keep_ids)
    return SyntaxTree(pruned)


def _context_stmt_id(pattern, op):
    """The id of the context statement holding op's target, its add
    lifted through the pattern's adds: what application derived per op
    before a pattern carried its ops' statement ids."""
    ctx = pattern.context
    tid = _lifted_target(op, pattern.ops)
    if tid is None or not ctx.has_node(tid):
        return None
    stmt = ctx.enclosing_statement(ctx.node(tid))
    return None if stmt is None else stmt.id


def _layout(tree: SyntaxTree) -> list[tuple]:
    return [(n.kind, n.value, n.id, n.span, len(n.children))
            for n in tree.nodes()]


def test_one_pass_pruning_matches_clone_then_prune():
    checked = 0
    for sdir in (scenario_dirs(CORPUS) + scenario_dirs(CORPUS / "controls")
                 + [FANOUT]):
        run = run_scenario(sdir / "base", sdir / "left", sdir / "right")
        for conflict in run.report.conflicts:
            for ex in mine_examples(run.fourway, conflict):
                try:
                    kept, closure, critical = refine_edits(ex, conflict)
                except NoRelevantEdit:
                    continue
                before_layout = _layout(ex.before)
                pattern = refine_context(ex, kept, closure, critical)
                want = reference_context(ex, kept, closure, critical)
                assert _layout(pattern.context) == _layout(want), \
                    (sdir.name, ex.host)
                ctx_ids = {n.id for n in want.nodes()}
                assert pattern.ops == [ex.script[i] for i in kept
                                       if ex.script[i].op == "add"
                                       or ex.script[i].node_id in ctx_ids]
                assert pattern.stmt_ids == [_context_stmt_id(pattern, op)
                                            for op in pattern.ops], \
                    (sdir.name, ex.host)
                assert pattern.critical_ids == critical & ctx_ids
                assert _layout(ex.before) == before_layout  # left unedited
                # the id-order closure equals the position-order one
                assert closure == brute_force_closure(
                    ex.before, list(ex.script),
                    use_node_ids(ex.named, conflict)), (sdir.name, ex.host)
                checked += 1
    assert checked >= 76            # 12 corpus examples, 64 fanout ones


def test_one_pass_pruning_matches_on_random_keep_sets():
    # random programs nest statements under if/else and while, which the
    # mined examples do not, and random keep sets reach below them
    rng = random.Random(11)
    checked = dropped_else = 0
    for seed in range(200):
        unit = parse_snippet(random_program(random.Random(seed))).tree
        for decl in unit.nodes():
            if decl.kind != "MethodDecl":
                continue
            before = SyntaxTree(clone_node(decl), assign_ids=True)
            stmts = [n.id for n in before.nodes()
                     if n.kind in STATEMENT_KINDS]
            if not stmts:
                continue
            example = EditExample(host="", host_kind="method", branch="l",
                                  before=before, after=before, script=[],
                                  edits=script_edits(before, []),
                                  named=name_index(before.root))
            ids = [n.id for n in before.nodes()]
            for _ in range(4):
                critical = set(rng.sample(ids, rng.randint(1, 3)))
                closure = set(rng.sample(stmts,
                                         rng.randint(0, min(2, len(stmts)))))
                pattern = refine_context(example, [], closure, critical)
                want = reference_context(example, [], closure, critical)
                assert _layout(pattern.context) == _layout(want), seed
                dropped_else += sum(
                    1 for n in before.nodes()
                    if n.kind == "IfStmt" and len(n.children) == 3
                    and pattern.context.has_node(n.id)
                    and len(pattern.context.node(n.id).children) == 2)
                checked += 1
    assert checked > 300 and dropped_else > 10


def _refinement(refine, example, conflict):
    try:
        return refine(example, conflict)
    except NoRelevantEdit:
        return None


def test_indexed_refinement_equals_the_op_scans():
    # every method two versions of a seeded mutation of test_unit_facts
    # both hold, the base and either mutant, each way round, diffed as a
    # host and refined against every method, field and type of its side
    from test_unit_facts import _mutant, _texts, base_project
    pairs = kept = 0
    for seed in range(160):
        rng = random.Random(seed)
        base = base_project(rng)
        mutants = [_mutant(rng, base, set()), _mutant(rng, base, set())]
        for old, new in [(base, m) for m in mutants] \
                + [(m, base) for m in mutants]:
            try:
                fw = build_fourway(parse_versions(
                    _texts(old), _texts(new), _texts(old), _texts(new)))
            except DuplicateEntity:
                continue
            pairs_kept = _refine_every_host(fw)
            pairs += pairs_kept[0]
            kept += pairs_kept[1]
    assert pairs >= 2900 and kept >= 250


def _refine_every_host(fw) -> tuple[int, int]:
    delta, pairs, kept = fw.delta_left, 0, 0
    subjects = [ent for ent in fw.base.entities.values()
                if ent.decl is not None
                and ent.kind in ("method", "field", "class", "interface")]
    for host in fw.base.entities.values():
        target = delta.matches.get(host.id)
        if host.kind != "method" or target is None:
            continue
        before = SyntaxTree(host.decl)
        script = diff_trees(before, SyntaxTree(
            delta.target.by_id(target).decl))
        if not script:
            continue
        example = EditExample(host.fqn, host.kind, "l", before, None,
                              script, script_edits(before, script),
                              name_index(host.decl))
        for ent in subjects:
            conflict = Conflict("C15", "l", ent.fqn, ent.kind, EntityEdit(
                "update", "l", ent.kind, ent.fqn, ent.fqn, old=ent,
                new=ent), None, "", None, [])
            got = _refinement(refine_edits, example, conflict)
            assert got == _refinement(ref.refine_edits, example, conflict), \
                (host.fqn, ent.fqn)
            pairs += 1
            kept += got is not None
    return pairs, kept
