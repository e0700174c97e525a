"""Command line behavior and exit codes."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import CORPUS, FANOUT, ROOT, bench_gen
from mergeweaver.cli import main
from mergeweaver.inference import NoRelevantEdit, infer_pattern
from mergeweaver.mining import mine_examples
from mergeweaver.parser import ParseError, parse_unit
from mergeweaver.peg import build_peg
from mergeweaver.pipeline import run_scenario

MOT = CORPUS / "serializer-rename"


def args_for(cmd: str, scenario=MOT, **extra) -> list:
    argv = [cmd, "--base", str(scenario / "base"),
            "--left", str(scenario / "left"),
            "--right", str(scenario / "right")]
    for flag, value in extra.items():
        argv.append(f"--{flag.replace('_', '-')}")
        if value is not True:
            argv.append(str(value))
    return argv


def test_detect_writes_report(tmp_path):
    report = tmp_path / "report.json"
    assert main(args_for("detect", report=report)) == 0
    doc = json.loads(report.read_text())
    assert doc["scenario"] == "serializer-rename"
    assert [c["type"] for c in doc["conflicts"]] == ["C1"]
    assert "timingMs" in doc


def test_detect_stdout_and_no_timing(capsys):
    assert main(args_for("detect", no_timing=True)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "timingMs" not in doc
    assert doc["conflicts"]


def test_resolve_writes_output_tree(tmp_path):
    out = tmp_path / "out"
    report = tmp_path / "r.json"
    assert main(args_for("resolve", out=out, report=report)) == 0
    assert (out / "am" / "XmlClientConfigBuilder.java").is_file()
    example = out / "example" / "conflict-0" / "XmlClientConfigBuilder.java"
    rule = out / "rule" / "conflict-0" / "XmlClientConfigBuilder.java"
    assert example.is_file() and rule.is_file()
    assert example.with_name(example.name + ".diff").read_text() \
        .startswith("--- am/")
    assert "SerializerConfig serializer" in example.read_text()
    doc = json.loads(report.read_text())
    assert {r["strategy"] for r in doc["resolutions"]} == {"example", "rule"}


def test_merge_writes_files(tmp_path):
    out = tmp_path / "merged"
    assert main(args_for("merge", out=out)) == 0
    assert (out / "SerializerConfig.java").is_file()
    assert not (out / "TypeSerializerConfig.java").exists()


def test_merge_lists_files_without_out(capsys):
    assert main(args_for("merge")) == 0
    listed = capsys.readouterr().out.splitlines()
    assert "XmlClientConfigBuilder.java" in listed


def test_textual_conflict_exits_3(tmp_path):
    for leg, body in (("base", "int x = 0;"), ("left", "int x = 1;"),
                      ("right", "int x = 2;")):
        d = tmp_path / leg
        d.mkdir()
        (d / "A.java").write_text(
            f"package p;\n\npublic class A {{\n    {body}\n}}\n")
    assert main(args_for("detect", scenario=tmp_path)) == 3


def test_parse_error_exits_2(tmp_path):
    for leg in ("base", "left", "right"):
        d = tmp_path / leg
        d.mkdir()
        (d / "A.java").write_text("package p;\n\npublic class A {\n")
    assert main(args_for("detect", scenario=tmp_path)) == 2


def test_eval_command(tmp_path, capsys):
    report = tmp_path / "summary.json"
    assert main(["eval", str(CORPUS), "--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["coverage"] >= 0.9
    assert set(doc["perStrategy"]) == {"example", "rule"}


def test_eval_without_key_exits_1(tmp_path, capsys):
    assert main(["eval", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"eval error: {tmp_path / 'golden_key.json'}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("shape", ["fifo", "dev-zero", "dev-null"])
def test_a_key_that_is_not_a_regular_file_exits_1_at_once(tmp_path, shape):
    # as for sources: a FIFO would block the open, and /dev/zero never
    # ends, so eval runs in a child process under a timeout
    key_path = tmp_path / "golden_key.json"
    if shape == "fifo":
        os.mkfifo(key_path)
    else:
        key_path.symlink_to("/dev/" + shape.split("-")[1])
    done = subprocess.run(
        [sys.executable, "-m", "mergeweaver", "eval", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=20)
    assert done.returncode == 1
    assert done.stderr == f"eval error: {key_path}: not a regular file\n"


@pytest.mark.parametrize("key, cause", [
    (b"{not json", "not valid JSON"),
    (b'{"s": {"conflicts": [], "note": "\xff"}}', "not valid UTF-8"),
    (b'[{"conflicts": []}]', "expected an object"),
    (b'{"s": {"example": null, "rule": null}}',
     "entry 's' needs a \"conflicts\" list"),
    (b'{"s": {"conflicts": [{"subject": "p.A.run()"}]}}',
     "entry 's' needs a \"conflicts\" list"),
], ids=["not-json", "not-utf8", "not-an-object", "entry-without-conflicts",
        "conflict-without-type"])
def test_malformed_golden_key_exits_1(tmp_path, capsys, key, cause):
    (tmp_path / "s" / "base").mkdir(parents=True)     # one scenario
    key_path = tmp_path / "golden_key.json"
    key_path.write_bytes(key)
    assert main(["eval", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"eval error: {key_path}: {cause}")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_dump_flags_go_to_stderr(capsys):
    assert main(args_for("detect", dump_peg=True, dump_delta=True,
                         no_timing=True)) == 0
    captured = capsys.readouterr()
    assert "[peg:base]" in captured.err
    assert "[delta:left]" in captured.err
    json.loads(captured.out)        # stdout stays machine-readable


def test_dump_peg_prints_the_full_graphs(tmp_path, capsys):
    # method-rename defers the bodies of most files; the dump resolves them
    bench_gen.write_workload(bench_gen.generate("method-rename", 1), tmp_path)
    assert main(args_for("detect", scenario=tmp_path, dump_peg=True,
                         no_timing=True)) == 0
    dumped = capsys.readouterr().err
    run = run_scenario(tmp_path / "base", tmp_path / "left",
                       tmp_path / "right")
    assert run.fourway.base.deferred
    lines = []
    for label, bucket, version in (("base", "base", "b"),
                                   ("left", "left", "l"),
                                   ("right", "right", "r"),
                                   ("merged", "am", "am")):
        graph = build_peg(getattr(run.scenario, bucket), version)
        lines.append(f"[peg:{label}] {len(graph.entities)} entities, "
                     f"{len(graph.relations)} relations")
        lines += [f"  {ent.kind} {ent.fqn}" for ent in
                  sorted(graph.entities.values(), key=lambda e: e.id)]
        lines += [f"  {src} -{kind}-> {dst}" for src, kind, dst in
                  sorted((r.src, r.kind, r.dst) for r in graph.relations)]
    assert dumped == "\n".join(lines) + "\n"


@pytest.mark.parametrize("scenario", [FANOUT, MOT], ids=["fanout", "corpus"])
def test_dump_script_prints_the_patterns_of_the_run(scenario, capsys):
    # the reference mines and infers every conflict again, after the run
    assert main(args_for("resolve", scenario=scenario, dump_script=True,
                         no_timing=True)) == 0
    dumped = capsys.readouterr().err
    run = run_scenario(scenario / "base", scenario / "left",
                       scenario / "right")
    lines = []
    for i, conflict in enumerate(run.report.conflicts):
        for ex in mine_examples(run.fourway, conflict):
            try:
                pattern = infer_pattern(ex, conflict)
            except NoRelevantEdit:
                continue
            lines.append(f"[script] conflict {i} example from {ex.host}")
            lines += [f"  {op.op} node={op.node_id} parent={op.parent_id} "
                      f"index={op.index} kind={op.node_kind} "
                      f"value={op.value!r}" for op in pattern.ops]
    assert len(lines) > len(run.report.conflicts)
    assert dumped == "\n".join(lines) + "\n"


def test_resolve_trace_prints_the_similarity_counts(capsys):
    assert main(args_for("resolve", scenario=FANOUT, trace=True,
                         no_timing=True)) == 0
    traced = capsys.readouterr()
    run = run_scenario(FANOUT / "base", FANOUT / "left", FANOUT / "right")
    scorer = run.fourway.scorer
    assert scorer.scored
    # the run's record: its counters, sorted, then one time per layer
    (counts,) = [line.split()[1:] for line in traced.err.splitlines()
                 if line.startswith("counts: ")]
    assert f"pairs={scorer.scored}" in counts
    assert counts == [f"{key}={value}" for key, value
                      in sorted(run.scenario.record.counts.items())]
    (ms,) = [line.split()[1:] for line in traced.err.splitlines()
             if line.startswith("ms: ")]
    assert [entry.split("=")[0] for entry in ms] \
        == list(run.scenario.record.ms)
    assert not [line for line in traced.err.splitlines()
                if line.startswith("similarity:")]
    # one line per outcome: every conflict resolves by both strategies
    assert [line for line in traced.err.splitlines()
            if line.startswith("outcome:")] \
        == [f"outcome: conflict {i} {strategy} resolved"
            for i in range(16) for strategy in ("example", "rule")]
    # the report does not change with the trace
    assert main(args_for("resolve", scenario=FANOUT, no_timing=True)) == 0
    assert capsys.readouterr().out == traced.out


# a tree that is missing, or a regular file, is a read error like any
# other unreadable source: one line, no usage dump
def _run_with_tree(capsys, cmd, leg, path):
    argv = args_for(cmd)
    argv[argv.index(f"--{leg}") + 1] = str(path)
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


def test_missing_tree_dir_is_rejected(tmp_path, capsys):
    path = tmp_path / "nope"
    for cmd in ("detect", "resolve", "merge"):
        assert _run_with_tree(capsys, cmd, "left", path) \
            == (2, f"read error: {path}: No such file or directory\n"), cmd


def test_a_regular_file_as_a_tree_is_a_one_line_read_error(tmp_path,
                                                           capsys):
    path = tmp_path / "file.txt"
    path.write_text("not a tree\n")
    for cmd in ("detect", "resolve", "merge"):
        assert _run_with_tree(capsys, cmd, "base", path) \
            == (2, f"read error: {path}: Not a directory\n"), cmd


def test_an_empty_tree_path_is_a_one_line_read_error(capsys):
    # Path("") is the current directory, which must not be read as a tree
    for cmd in ("detect", "resolve", "merge"):
        assert _run_with_tree(capsys, cmd, "base", "") \
            == (2, "read error: '': the path is empty\n"), cmd


def test_unknown_command_is_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def _write_legs(root, files_per_leg):
    for leg, files in files_per_leg.items():
        d = root / leg
        d.mkdir()
        for name, body in files.items():
            (d / name).write_bytes(body)


def test_non_utf8_source_exits_2_naming_the_file(tmp_path, capsys):
    good = b"package p;\n\npublic class A {\n}\n"
    bad = b"package p;\n\npublic class B {\n    // caf\xe9\n}\n"
    _write_legs(tmp_path, {"base": {"A.java": good},
                           "left": {"A.java": good, "B.java": bad},
                           "right": {"A.java": good}})
    assert main(args_for("detect", scenario=tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert str(tmp_path / "left" / "B.java") in err
    assert "UTF-8" in err and "Traceback" not in err


@pytest.mark.parametrize("cmd", ["merge", "detect", "resolve"])
@pytest.mark.parametrize("shape", ["directory", "dangling-symlink"])
def test_unreadable_source_exits_2_naming_the_file(tmp_path, capsys, shape,
                                                   cmd):
    good = b"package p;\n\npublic class A {\n}\n"
    _write_legs(tmp_path, {"base": {"A.java": good},
                           "left": {"A.java": good},
                           "right": {"A.java": good}})
    bad = tmp_path / "left" / "B.java"
    if shape == "directory":
        bad.mkdir()
        cause = "Is a directory"
    else:
        bad.symlink_to(tmp_path / "left" / "Z.java")
        cause = "No such file or directory"
    assert main(args_for(cmd, scenario=tmp_path)) == 2
    err = capsys.readouterr().err
    assert err == f"read error: {bad}: {cause}\n"


@pytest.mark.parametrize("shape", ["fifo", "dev-zero", "dev-null"])
def test_a_source_that_is_not_a_regular_file_exits_2_at_once(tmp_path,
                                                              shape):
    # a FIFO would block the open, and /dev/zero never ends; each command
    # runs in a child process under a timeout, so a hang fails the test
    good = b"package p;\n\npublic class A {\n}\n"
    _write_legs(tmp_path, {"base": {"A.java": good},
                           "left": {"A.java": good},
                           "right": {"A.java": good}})
    bad = tmp_path / "left" / "F.java"
    if shape == "fifo":
        os.mkfifo(bad)
    else:
        bad.symlink_to("/dev/" + shape.split("-")[1])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for cmd in ("merge", "detect", "resolve"):
        done = subprocess.run(
            [sys.executable, "-m", "mergeweaver",
             *args_for(cmd, scenario=tmp_path)],
            env=env, capture_output=True, text=True, timeout=20)
        assert done.returncode == 2, cmd
        assert done.stderr == f"read error: {bad}: not a regular file\n"


def test_parse_error_names_the_first_version_that_fails(tmp_path, capsys):
    good = b"package p;\n\npublic class A {\n    int x;\n}\n"
    bad = b"package p;\n\npublic class A {\n    int[] x;\n}\n"
    _write_legs(tmp_path, {"base": {"A.java": good}, "left": {"A.java": bad},
                           "right": {"A.java": good}})
    assert main(args_for("detect", scenario=tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: left/A.java:4:") and "'['" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    # a failing text shared by several versions is named by the first
    (tmp_path / "right" / "A.java").write_bytes(bad)
    assert main(args_for("detect", scenario=tmp_path)) == 2
    assert capsys.readouterr().err.startswith("parse error: left/A.java:4:")
    (tmp_path / "base" / "A.java").write_bytes(bad)
    assert main(args_for("detect", scenario=tmp_path)) == 2
    assert capsys.readouterr().err.startswith("parse error: base/A.java:4:")


def test_a_parse_error_in_a_shared_file_is_named_before_a_later_path(
        tmp_path, capsys):
    # parse_versions parses the unshared B.java first; its base error must
    # not be the one reported, since base/A.java comes first in order
    shared = b"class A {\n    int x = ;\n}\n"
    broken, fixed = b"class B {\n    int y = ;\n}\n", b"class B {\n}\n"
    _write_legs(tmp_path, {"base": {"A.java": shared, "B.java": broken},
                           "left": {"A.java": shared, "B.java": fixed},
                           "right": {"A.java": shared, "B.java": broken}})
    assert main(args_for("detect", scenario=tmp_path)) == 2
    assert capsys.readouterr().err == \
        "parse error: base/A.java:2:13: unexpected token ';' in expression\n"


@pytest.mark.parametrize("text, message", [
    (b"\xff\xfe",
     "read error: {path}: not valid UTF-8 (byte 0xff at offset 0)"),
    (b'class X { String s = "abc; }',
     "parse error: {path}:1:22: unterminated string literal"),
], ids=["not-utf8", "unterminated-string"])
def test_a_malformed_expected_file_exits_2_naming_it(tmp_path, capsys, text,
                                                     message):
    shutil.copytree(MOT, tmp_path / MOT.name)
    key = json.loads((CORPUS / "golden_key.json").read_text())
    (tmp_path / "golden_key.json").write_text(
        json.dumps({MOT.name: key[MOT.name]}))
    path = tmp_path / MOT.name / "expected" / "XmlClientConfigBuilder.java"
    path.write_bytes(text)
    assert main(["eval", str(tmp_path)]) == 2
    assert capsys.readouterr().err == message.format(path=path) + "\n"



def test_an_eval_scenario_without_a_branch_tree_exits_2(tmp_path, capsys):
    # a missing left/ once read as a left deleting every file, and the
    # scenario reported a spurious C17 with coverage 0.5
    scenario = CORPUS / "rule-c01"
    shutil.copytree(scenario, tmp_path / scenario.name)
    key = json.loads((CORPUS / "golden_key.json").read_text())
    (tmp_path / "golden_key.json").write_text(
        json.dumps({scenario.name: key[scenario.name]}))
    left = tmp_path / scenario.name / "left"
    shutil.rmtree(left)
    assert main(["eval", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"read error: {left}: No such file or directory\n"
    assert captured.out == ""

def test_deep_nesting_exits_2_without_a_traceback(tmp_path, capsys):
    # deeper than parser.MAX_NESTING
    text = "class A { int x = " + "g(" * 300 + "1" + ")" * 300 + "; }\n"
    _write_legs(tmp_path, {v: {"A.java": text.encode()}
                           for v in ("base", "left", "right")})
    assert main(args_for("detect", scenario=tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: base/A.java:1:")
    assert err.endswith(": nested too deeply\n") and err.count("\n") == 1


@pytest.mark.parametrize("text, message", [
    ("package p;\n\npublic class A {\n    int x;\n    void f() { g(a b); }"
     "\n}\n", "5:20: expected ',' or ')' but found 'b'"),
    ("class A {\n    void m() {\n        return " + "g(" * 300 + "1"
     + ")" * 300 + ";\n    }\n}\n", "3:268: nested too deeply"),
], ids=["malformed", "too-deep"])
def test_a_bad_body_of_a_file_all_trees_share_exits_2(tmp_path, capsys, text,
                                                      message):
    # the body is recognized, not built, and fails where a built one does
    _write_legs(tmp_path, {v: {"A.java": text.encode()}
                           for v in ("base", "left", "right")})
    assert main(args_for("detect", scenario=tmp_path)) == 2
    assert capsys.readouterr().err == f"parse error: base/A.java:{message}\n"


def _deep_member(nest: str, k: int, name: str) -> str:
    """A field nested k deep whose innermost call is of ``name``."""
    if nest == "new":
        return "    Object f = %sBox.make(%s(1))%s;\n" % (
            "new Box(" * k, name, ")" * k)
    return "    Object f = %s%s(1)%s;\n" % (
        "new Box() { int f = " * k, name, "; }" * k)


# the k of each nest at parser.MAX_NESTING: the class and the field's
# initializer are two levels, each argument and initializer one more
_DEEPEST = {"new": 124, "anonymous": 125}


@pytest.mark.parametrize("nest", sorted(_DEEPEST))
def test_the_deepest_text_the_parser_accepts_resolves(tmp_path, capsys, nest):
    # the left branch renames Lib.g and adapts the deep call, the right one
    # adds a call of g, so the deep member is the mined example
    k = _DEEPEST[nest]

    def legs(name: str, use: str) -> dict:
        return {
            "Lib.java": ("public class Lib {\n    public static int %s(int x)"
                         " {\n        return x;\n    }\n}\n" % name).encode(),
            "Box.java": b"public class Box {\n    public Box(int x) {\n    }"
                        b"\n    public Box() {\n    }\n    public static int"
                        b" make(int x) {\n        return x;\n    }\n}\n",
            "Deep.java": ("public class Deep extends Lib {\n%s}\n"
                          % _deep_member(nest, k, name)).encode(),
            "Use.java": ("public class Use extends Lib {\n%s}\n"
                         % use).encode()}
    call = "    int v() {\n        return g(2);\n    }\n"
    _write_legs(tmp_path, {"base": legs("g", ""), "left": legs("h", ""),
                           "right": legs("g", call)})
    assert main(args_for("resolve", scenario=tmp_path, no_timing=True)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["conflicts"]) == 1
    assert "rule" in {r["strategy"] for r in doc["resolutions"]}
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_unit("Deep.java", "class Deep {\n%s}\n"
                   % _deep_member(nest, k + 1, "g"))


def test_a_long_else_if_chain_parses_and_resolves(tmp_path, capsys):
    # an else-if chain opens no nesting level, and no walk past the parser
    # takes a frame per arm, so a generated dispatch of thousands of arms,
    # with Lib.g called in its first and last ones, merges like any method
    def legs(arms: int, name: str, use: str) -> dict:
        chain = "".join(" else if (x == %d) {\n            x = %d;\n        }"
                        % (i, i) for i in range(1, arms))
        return {
            "Lib.java": ("public class Lib {\n    public int %s(int x) {\n"
                         "        return x;\n    }\n}\n" % name).encode(),
            "Deep.java": ("public class Deep extends Lib {\n    public int "
                          "m(int x) {\n        if (x == 0) {\n            "
                          "x = %s(0);\n        }%s else {\n            x = "
                          "%s(1);\n        }\n        return x;\n    }\n}\n"
                          % (name, chain, name)).encode(),
            "Use.java": ("public class Use extends Lib {\n%s}\n"
                         % use).encode()}
    call = "    int v() {\n        return g(2);\n    }\n"
    for arms in (1000, 3000):
        scenario = tmp_path / str(arms)
        scenario.mkdir()
        _write_legs(scenario, {"base": legs(arms, "g", ""),
                               "left": legs(arms, "h", ""),
                               "right": legs(arms, "g", call)})
        assert main(args_for("resolve", scenario=scenario,
                             no_timing=True)) == 0, arms
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["conflicts"]) == 1, arms
        assert "rule" in {r["strategy"] for r in doc["resolutions"]}, arms


def test_a_partly_applied_example_pattern_yields_no_resolution(tmp_path,
                                                               capsys):
    # the example adds a cast around read() in store's argument; the merged
    # argument is already a cast, so the op that moves read() under the new
    # cast finds no place and leaves a cast of one child, which no longer
    # prints: the candidate yields nothing instead of a traceback
    base = ("class Meter {\n    int read() {\n        return 0;\n    }\n\n"
            "    void sample() {\n        store(read());\n    }\n\n"
            "    void store(int v) {\n    }\n}\n")
    left = base.replace("int read()", "long read()") \
        .replace("store(read());", "store((int) read());")
    right = base.replace("    }\n}\n", "    }\n\n    void log() {\n"
                         "        store((int) read());\n    }\n}\n")
    _write_legs(tmp_path, {leg: {"Meter.java": text.encode()} for leg, text
                           in (("base", base), ("left", left),
                               ("right", right))})
    assert main(args_for("resolve", scenario=tmp_path, no_timing=True,
                         trace=True)) == 0
    out, err = capsys.readouterr()
    assert [c["type"] for c in json.loads(out)["conflicts"]] == ["C22"]
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("outcome:")] \
        == ["outcome: conflict 0 example malformed-result",
            "outcome: conflict 0 rule not-covered"]


@pytest.mark.parametrize("member, message", [
    ("void f(int a int b) { }", "4:18: expected ',' or ')' but found 'int'"),
    ("void f() { g(a b); }", "4:20: expected ',' or ')' but found 'b'"),
    ("void f() { g(a,); }", "4:20: trailing comma in argument list"),
    ("void f(int a,) { }", "4:18: trailing comma in parameter list"),
])
def test_missing_or_trailing_comma_exits_2(tmp_path, capsys, member,
                                           message):
    good = b"package p;\n\npublic class A {\n    int x;\n}\n"
    bad = f"package p;\n\npublic class A {{\n    {member}\n}}\n".encode()
    _write_legs(tmp_path, {"base": {"A.java": good}, "left": {"A.java": bad},
                           "right": {"A.java": good}})
    assert main(args_for("detect", scenario=tmp_path)) == 2
    assert capsys.readouterr().err == f"parse error: left/A.java:{message}\n"


def test_duplicate_class_from_both_branches_exits_4(tmp_path, capsys):
    base = b"package p;\n\npublic class A {\n}\n"
    dup = b"package p;\n\npublic class Dup {\n}\n"
    inner = b"package p;\n\npublic class Other {\n    class Dup {\n    }\n}\n"
    _write_legs(tmp_path, {"base": {"A.java": base},
                           "left": {"A.java": base, "Dup.java": dup},
                           "right": {"A.java": base, "Other.java": inner}})
    # Other.Dup is p.Other.Dup, no clash; a second top-level p.Dup is one
    assert main(args_for("detect", scenario=tmp_path, no_timing=True)) == 0
    capsys.readouterr()
    (tmp_path / "right" / "Other.java").write_bytes(
        b"package p;\n\nclass Dup {\n}\n")
    assert main(args_for("detect", scenario=tmp_path)) == 4
    err = capsys.readouterr().err
    assert err == "duplicate declaration: duplicate entity p.Dup " \
                  "in the merged version\n"


@pytest.mark.parametrize("cmd,flag", [
    ("detect", "report"), ("resolve", "out"), ("merge", "out")])
def test_write_failure_exits_5_naming_the_path(tmp_path, capsys, cmd, flag):
    blocker = tmp_path / "f"
    blocker.write_text("a regular file where a directory is needed\n")
    target = blocker / "x"
    assert main(args_for(cmd, **{flag: target})) == 5
    err = capsys.readouterr().err
    assert err.startswith(f"write error: {target}")
    assert err.count("\n") == 1 and "Traceback" not in err


def _run_checkout(argv: list, **env_extra) -> subprocess.CompletedProcess:
    env = dict(os.environ, **env_extra)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "mergeweaver", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


def test_python_dash_m_runs_from_a_checkout(tmp_path):
    report = tmp_path / "summary.json"
    proc = _run_checkout(["eval", "corpus", "--report", str(report)])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(report.read_text())
    assert doc["coverage"] == 1.0


@pytest.mark.parametrize("argv", [
    ["eval", "corpus"],
    args_for("resolve", scenario=FANOUT, no_timing=True),
], ids=["eval-corpus", "resolve-fanout"])
def test_output_does_not_depend_on_the_hash_seed(argv):
    runs = [_run_checkout(argv, PYTHONHASHSEED=seed) for seed in ("0", "1")]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    assert runs[0].stdout and runs[0].stdout == runs[1].stdout


@pytest.mark.parametrize("scenario", [FANOUT, MOT], ids=["fanout", "corpus"])
def test_graph_dumps_do_not_depend_on_the_hash_seed(scenario):
    # the edit scripts too: the tree differ interns subtree classes in a
    # dict keyed by tuples of strings
    argv = args_for("resolve", scenario=scenario, no_timing=True,
                    dump_peg=True, dump_delta=True, dump_script=True)
    runs = [_run_checkout(argv, PYTHONHASHSEED=seed) for seed in ("0", "1")]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    assert "[peg:merged]" in runs[0].stderr and "[delta:right]" in runs[0].stderr
    assert "[script]" in runs[0].stderr
    assert runs[0].stderr == runs[1].stderr

