"""Merges that edit a file declaring an enum.

The graph delta compares the printed body of every entity it pairs, enum
constants included, so the printer must print a constant on its own.
"""

import json

from conftest import parse_snippet
from mergeweaver.cli import main
from mergeweaver.pipeline import run_scenario
from mergeweaver.printer import pretty_print

ENUM = "enum E { A, B; int x; }\n"


def _write(root, files: dict[str, dict[str, str]]) -> None:
    """files: version -> path -> text."""
    for version, texts in files.items():
        (root / version).mkdir()
        for path, text in texts.items():
            (root / version / path).write_text(text)


def _args(cmd: str, root) -> list[str]:
    return [cmd, "--base", str(root / "base"), "--left", str(root / "left"),
            "--right", str(root / "right"), "--no-timing"]


def test_a_lone_enum_constant_prints_as_its_name():
    unit = parse_snippet(ENUM).tree
    constants = [n for n in unit.nodes() if n.kind == "EnumConstant"]
    assert [pretty_print(c) for c in constants] == ["A\n", "B\n"]


def test_a_branch_editing_an_enum_merges_without_conflict(tmp_path, capsys):
    _write(tmp_path, {"base": {"E.java": ENUM}, "right": {"E.java": ENUM},
                      "left": {"E.java": "enum E { A, B; int x; int y; }\n"}})
    assert main(_args("detect", tmp_path)) == 0
    assert json.loads(capsys.readouterr().out)["conflicts"] == []


def test_a_renamed_enum_field_is_c13_and_the_rule_retargets_the_use(
        tmp_path):
    user = "class U {\n    int get(E c) {\n        return 0;\n    }\n}\n"
    added = user.replace(
        "}\n}\n", "}\n    int read(E c) {\n        return c.v;\n    }\n}\n")
    _write(tmp_path, {
        "base": {"E.java": "enum E { A, B; int v; }\n", "U.java": user},
        "left": {"E.java": "enum E { A, B; int w; }\n", "U.java": user},
        "right": {"E.java": "enum E { A, B; int v; }\n", "U.java": added},
    })
    report = run_scenario(tmp_path / "base", tmp_path / "left",
                          tmp_path / "right").report
    assert [c.type for c in report.conflicts] == ["C13"]
    (rule,) = [r for r in report.resolutions if r.strategy == "rule"]
    assert "return c.w;" in rule.text
    assert "c.v" not in rule.text
