"""Three-way text merge: laws on disjoint edits, conflicts, file sets, and
the tree reader against ``reference_frontend._read_tree``, the reader it
replaced."""

import random
import shutil
import subprocess

import pytest
from hypothesis import given, strategies as st

import reference_frontend
from conftest import CORPUS, random_disjoint_triple
from mergeweaver.merge3 import (TextualConflict, UnreadableSource, _read_tree,
                                merge_file, merge_scenario, merge_texts,
                                parse_versions)
from mergeweaver.parser import ParseError

BASE = "a\nb\nc\nd\ne\n"


def test_left_only_change_wins():
    left = "a\nB\nc\nd\ne\n"
    assert merge_file(BASE, left, BASE) == left


def test_right_only_change_wins():
    right = "a\nb\nc\nD\ne\n"
    assert merge_file(BASE, BASE, right) == right


def test_disjoint_changes_combine():
    left = "a\nB\nc\nd\ne\n"
    right = "a\nb\nc\nD\ne\n"
    assert merge_file(BASE, left, right) == "a\nB\nc\nD\ne\n"


def test_identical_competing_change_is_clean():
    both = "a\nB\nc\nd\ne\n"
    assert merge_file(BASE, both, both) == both


def test_overlap_raises():
    with pytest.raises(TextualConflict):
        merge_file(BASE, "a\nB1\nc\nd\ne\n", "a\nB2\nc\nd\ne\n")


CLASHES = {
    "insert-after-line": ("a\nb\nX\nc\n", "a\nb\nY\nc\n", (2, 2),
                          "after line 2"),
    "insert-at-start": ("X\na\nb\nc\n", "Y\na\nb\nc\n", (0, 0),
                        "at the start"),
    "insert-at-end": ("a\nb\nc\nX\n", "a\nb\nc\nY\n", (3, 3),
                      "after line 3"),
    "replaced-line": ("a\nB1\nc\n", "a\nB2\nc\n", (1, 2), "lines 2-2"),
}


@pytest.mark.parametrize("left,right,region,where", CLASHES.values(),
                         ids=CLASHES.keys())
def test_a_clash_names_its_base_lines_or_insertion_point(left, right,
                                                         region, where):
    with pytest.raises(TextualConflict) as caught:
        merge_file("a\nb\nc\n", left, right, "F.java")
    assert caught.value.region == region
    assert str(caught.value) == f"textual conflict in F.java {where}"


TOUCHING = {
    "adjacent-lines": ("a\nb\nc\nd\n", "a\nB\nc\nd\n",
                       "a\nb\nC\nd\n", "a\nB\nC\nd\n"),
    "insert-before-replaced": ("a\nb\nc\n", "a\nX\nb\nc\n",
                               "a\nB\nc\n", "a\nX\nB\nc\n"),
    "insert-after-replaced": ("a\nb\nc\n", "a\nb\nX\nc\n",
                              "a\nB\nc\n", "a\nB\nX\nc\n"),
}


@pytest.mark.parametrize("base,left,right,want", TOUCHING.values(),
                         ids=TOUCHING.keys())
def test_touching_hunks_merge_where_git_conflicts(base, left, right, want,
                                                  tmp_path):
    # _overlap lets hunks that only touch merge side by side, in both
    # branch orders; git merge-file (diff3) reports a conflict instead
    assert merge_file(base, left, right) == want
    assert merge_file(base, right, left) == want
    if shutil.which("git") is None:
        return                  # the git cross-check needs git on PATH
    for name, text in (("left", left), ("base", base), ("right", right)):
        (tmp_path / name).write_text(text)
    git = subprocess.run(["git", "merge-file", "-p", "left", "base",
                          "right"], cwd=tmp_path, capture_output=True,
                         text=True)
    assert git.returncode == 1 and "<<<<<<<" in git.stdout


def test_delete_vs_edit_same_line_raises():
    left = "a\nc\nd\ne\n"
    right = "a\nB2\nc\nd\ne\n"
    with pytest.raises(TextualConflict):
        merge_file(BASE, left, right)


def test_laws_on_random_disjoint_triples():
    for seed in range(60):
        rng = random.Random(seed)
        b, l, r = random_disjoint_triple(rng)
        assert merge_file(b, l, b) == l
        assert merge_file(b, b, r) == r
        assert merge_file(b, l, l) == l
        merged = merge_file(b, l, r)
        # every line someone wrote and nobody removed survives
        for line in merged.splitlines():
            assert (line in b.splitlines() or line in l.splitlines()
                    or line in r.splitlines())


_texts = st.lists(st.sampled_from(["a\n", "b\n", "c\n", "\n", "a", "b\r\n"]),
                  max_size=8).map("".join)


@given(base=_texts, other=_texts, changed=st.sampled_from(["l", "r", "lr"]))
def test_unchanged_side_shortcut_equals_merge_file(base, other, changed):
    # merge_texts skips difflib when one side equals base or both sides
    # agree; merge_file must give the same text on those triples
    left = other if "l" in changed else base
    right = other if "r" in changed else base
    assert merge_texts({"F": base}, {"F": left}, {"F": right}) \
        == {"F": merge_file(base, left, right)}


def test_merge_texts_file_add_and_delete():
    base = {"A.java": "x\n", "B.java": "y\n"}
    left = {"A.java": "x\n"}                       # left deletes B
    right = {"A.java": "x\n", "B.java": "y\n", "C.java": "z\n"}
    merged = merge_texts(base, left, right)
    assert sorted(merged) == ["A.java", "C.java"]
    assert merged["C.java"] == "z\n"


def test_merge_texts_both_add_same_file_identical():
    base = {}
    left = {"N.java": "n\n"}
    right = {"N.java": "n\n"}
    assert merge_texts(base, left, right) == {"N.java": "n\n"}


def test_merge_texts_both_add_same_file_different_raises():
    with pytest.raises(TextualConflict):
        merge_texts({}, {"N.java": "n1\n"}, {"N.java": "n2\n"})


def test_delete_vs_modify_file_raises():
    base = {"A.java": "old\n"}
    with pytest.raises(TextualConflict):
        merge_texts(base, {}, {"A.java": "new\n"})


def test_merge_scenario_reads_and_parses_trees():
    d = CORPUS / "serializer-rename"
    scn = merge_scenario(d / "base", d / "left", d / "right")
    assert "XmlClientConfigBuilder.java" in scn.am
    assert "SerializerConfig.java" in scn.am          # left rename wins
    assert "TypeSerializerConfig.java" not in scn.am
    sf = scn.am["XmlClientConfigBuilder.java"]
    assert sf.tree.root.kind == "CompilationUnit"
    assert sf.path == "XmlClientConfigBuilder.java"
    # base/left/right trees are kept for graph building
    assert set(scn.base) == {"TypeSerializerConfig.java",
                             "XmlConfigBuilder.java"}


def _read_outcome(read, root):
    try:
        return list(read(root).items())
    except UnreadableSource as exc:
        return f"UnreadableSource: {exc}"


def test_reader_matches_reference(tmp_path):
    bad = b"class B {\n    // caf\xe9\n}\n"
    for rel, body in {"p/q/A.java": b"class A {}\n",
                      ".hidden/H.java": b"class H {}\r\n",
                      ".H2.java": b"class H2 {}\n",
                      ".java": b"class J {}\n",
                      "X.JAVA": b"class X {}\n",
                      "Bad.java": bad,
                      "a/Bad.java": bad,
                      "a-b/Bad.java": bad}.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_bytes(body)
    (tmp_path / "L.java").symlink_to(tmp_path / "p" / "q" / "A.java")
    (tmp_path / "link").symlink_to(tmp_path / "p")
    failed = []
    while True:
        got = _read_outcome(_read_tree, tmp_path)
        assert got == _read_outcome(reference_frontend._read_tree, tmp_path)
        if not isinstance(got, str):
            break
        # the first unreadable file in path order, by components: "a/"
        # sorts before "a-b/", though "a-b/..." < "a/..." as strings
        path = got.split(": ")[1]
        failed.append(path[len(str(tmp_path)) + 1:])
        (tmp_path / failed[-1]).unlink()
    assert failed == ["Bad.java", "a/Bad.java", "a-b/Bad.java"]
    assert [rel for rel, _text in got] == [
        ".H2.java", ".hidden/H.java", ".java", "L.java", "p/q/A.java"]
    assert dict(got)[".hidden/H.java"] == "class H {}\n"


@pytest.mark.parametrize("shape", ["directory", "dangling-symlink"])
def test_reader_raises_unreadable_source_for_what_it_cannot_read(tmp_path,
                                                                 shape):
    (tmp_path / "A.java").write_text("class A {}\n")
    if shape == "directory":
        (tmp_path / "B.java").mkdir()
        (tmp_path / "B.java" / "C.java").write_text("class C {}\n")
        cause = "Is a directory"
    else:
        (tmp_path / "B.java").symlink_to(tmp_path / "missing.java")
        cause = "No such file or directory"
    with pytest.raises(UnreadableSource) as info:
        _read_tree(tmp_path)
    assert str(info.value) == f"{tmp_path / 'B.java'}: {cause}"


@pytest.mark.parametrize("bad, first", [
    ({"A": "base", "B": "left"}, "base/A.java:1:26:"),
    ({"B": "left", "C": "right"}, "left/B.java:1:26:"),
    ({"C": "right"}, "right/C.java:1:26:"),
])
def test_the_first_bad_file_in_version_and_path_order_is_named(bad, first):
    # A.java is the same in base, left and right; B.java and C.java are
    # not, and parse before the shared files, so their errors wait
    def text(name: str, version: str) -> str:
        body = "g(a b);" if bad.get(name) == version else "g();"
        return f"class {name} {{ void m() {{ {body} }} }} // {version}\n"

    versions = [{f"{name}.java": text(name, "base" if name == "A" else version)
                 for name in "ABC"} for version in ("base", "left", "right")]
    with pytest.raises(ParseError) as exc:
        parse_versions(*versions, {})
    assert str(exc.value).startswith(first)
