"""Example mining: which hosts qualify and what the examples carry."""

from conftest import run_corpus
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
