"""Example mining: which hosts qualify and what the examples carry.

A mined host is a view of its two declarations under the ids of their
parse.  ``reference_mining`` is the mining that renumbered deep copies
from 0 instead: on every merge input and generated workload the two must
mine the same hosts, and each script and each inferred pattern must be
the reference's once ids are mapped: a before-tree id shifts by the id
of the host's root, and add ids map in the order they are added.
"""

import dataclasses

import reference_mining as ref
from conftest import merge_inputs, run_corpus
from mergeweaver.conflicts import detect_conflicts
from mergeweaver.graph_diff import build_fourway
from mergeweaver.inference import NoRelevantEdit, infer_pattern
from mergeweaver.merge3 import merge_scenario
from mergeweaver.mining import mine_examples


def examples_for(name: str):
    run = run_corpus(name)
    (conflict,) = run.report.conflicts
    return run, conflict, mine_examples(run.fourway, conflict)


def test_motivating_scenario_yields_adapted_hosts():
    run, conflict, examples = examples_for("serializer-rename")
    hosts = {ex.host for ex in examples}
    assert hosts == {
        "com.hazelcast.config.XmlConfigBuilder.handleSerializers(Node)",
        "com.hazelcast.config.XmlConfigBuilder"
        ".addTypeSerializer(TypeSerializerConfig)",
    }
    big = next(ex for ex in examples
               if ex.host.endswith("handleSerializers(Node)"))
    assert big.host_kind == "method"
    assert big.branch == "l"
    # the example is the four-way graph's own record of the host
    assert any(m is big for m in run.fourway.mined.values())
    assert len(big.script) > 0
    # before is the base body, after the adapted one
    assert big.before.root.kind == big.after.root.kind


def test_rename_example_script_touches_the_subject_uses():
    _, _, examples = examples_for("serializer-rename")
    ex = next(e for e in examples
              if e.host.endswith("handleSerializers(Node)"))
    before_names = {n.value for n in ex.before.nodes() if n.value}
    assert "TypeSerializerConfig" in before_names
    after_names = {n.value for n in ex.after.nodes() if n.value}
    assert "SerializerConfig" in after_names


def test_unadapted_hosts_are_skipped():
    # the only base caller of the renamed method was not updated in the
    # defining branch, so nothing can be mined
    _, _, examples = examples_for("rule-c15")
    assert examples == []


def test_pure_addition_conflicts_mine_nothing():
    # duplicate definitions introduce new entities; there is no edit to
    # the old definition to learn from
    _, _, examples = examples_for("tax-c14")
    assert examples == []
    _, _, examples = examples_for("tax-c16")
    assert examples == []


def test_deletion_subject_mines_adapting_host():
    # a removed field: the example comes from the host that stopped
    # using it
    _, conflict, examples = examples_for("tax-c20")
    assert conflict.type == "C20"
    assert len(examples) >= 1
    hosts = {ex.host for ex in examples}
    assert "pools.Pool.free()" not in hosts      # free() is the conflict use
    for ex in examples:
        assert ex.script, "examples always carry a non-empty edit script"


def test_import_removal_without_adapted_user_mines_nothing():
    _, conflict, examples = examples_for("introspector-import")
    assert conflict.type == "C5"
    # no base host dropped its own use of the type in the deleting
    # branch, so the example pool is empty and only the rule can act
    assert examples == []


def _id_map(ex, reference):
    """ex's ids to reference's: a before id shifted by the host root's id,
    the k-th add id to the reference's k-th."""
    adds = [op.node_id for op in ex.script if op.op == "add"]
    ref_adds = [op.node_id for op in reference.script if op.op == "add"]
    assert len(adds) == len(ref_adds), ex.host
    renamed = dict(zip(adds, ref_adds))
    shift = ex.before.root.id

    def to_reference(node_id):
        if node_id is None:
            return None
        return renamed.get(node_id, node_id - shift)
    return to_reference


def _ops(ops, to_reference=lambda node_id: node_id) -> list[tuple]:
    return [(op.op, to_reference(op.node_id), to_reference(op.parent_id),
             op.index, op.node_kind, op.value) for op in ops]


def _pattern(ex, conflict, to_reference=lambda node_id: node_id):
    try:
        pattern = infer_pattern(ex, conflict)
    except NoRelevantEdit:
        return None
    return (_ops(pattern.ops, to_reference),
            sorted(map(to_reference, pattern.critical_ids)),
            [(to_reference(n.id), n.kind, n.value)
             for n in pattern.context.nodes()])


def test_mined_hosts_are_views_equal_to_the_renumbered_copies(generated):
    scripts = patterns = 0
    for d in merge_inputs() + generated:
        fw = build_fourway(merge_scenario(d / "base", d / "left",
                                          d / "right"))
        reference_fw = dataclasses.replace(fw, mined={})
        for conflict in detect_conflicts(fw):
            examples = mine_examples(fw, conflict)
            references = ref.mine_examples(reference_fw, conflict)
            assert [ex.host for ex in examples] \
                == [ex.host for ex in references], d.name
            for ex, reference in zip(examples, references):
                to_reference = _id_map(ex, reference)
                assert _ops(ex.script, to_reference) \
                    == _ops(reference.script), (d.name, ex.host)
                scripts += 1
                got = _pattern(ex, conflict, to_reference)
                assert got == _pattern(reference, conflict), \
                    (d.name, ex.host)
                patterns += got is not None
        assert fw.mined.keys() == reference_fw.mined.keys(), d.name
        for (branch, base_id, target_id), ex in fw.mined.items():
            if ex is None:
                continue
            delta = fw.delta_left if branch == "l" else fw.delta_right
            host_base = fw.base.by_id(base_id)
            assert ex.before.root is host_base.decl
            assert ex.after.root is delta.target.by_id(target_id).decl
            assert ex.named is fw.name_index(host_base.decl)
    # 12 corpus, 64 fanout and 130 generated examples, each refining
    assert scripts >= 206 and patterns >= 206
