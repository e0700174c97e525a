"""Every top-level name of the package has a reader.

Each function, class and constant defined at module level in
src/mergeweaver must appear as a word in src/, tests/, tools/ or bench/
somewhere outside its own definition.  Each function, class and method
that the package's ``__all__`` does not export must have a reader in
src/, tools/ or bench/: a reader in tests/ alone does not keep it.  A word
counts only in code: a mention in a docstring or a comment reads nothing.
Each attribute a class of the package stores, by ``self.x = ...`` or as a
dataclass or NamedTuple field, must be read as an attribute (``obj.x``)
somewhere in src/, tests/, tools/ or bench/.
"""

import ast
import io
import re
import tokenize
from collections import Counter

from conftest import ROOT

PACKAGE = ROOT / "src" / "mergeweaver"
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _definitions(module: ast.Module):
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        elif isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name):
            yield node.target.id, node


def _code_words(text: str) -> list[tuple[tuple[int, int], str]]:
    """Each word of ``text`` outside its comments and docstrings, with the
    (row, column) where its token starts."""
    docstrings = {(node.lineno, node.col_offset)
                  for node in ast.walk(ast.parse(text))
                  if isinstance(node, ast.Expr)
                  and isinstance(node.value, ast.Constant)
                  and isinstance(node.value.value, str)}
    return [(tok.start, word)
            for tok in tokenize.generate_tokens(io.StringIO(text).readline)
            if tok.type != tokenize.COMMENT
            and (tok.type != tokenize.STRING or tok.start not in docstrings)
            for word in WORD.findall(tok.string)]


def _words(*tops: str) -> Counter:
    words: Counter = Counter()
    for top in tops:
        for path in (ROOT / top).rglob("*.py"):
            words.update(word for _at, word in _code_words(path.read_text()))
    return words


def _own(words: list, node: ast.AST, name: str) -> int:
    """How often ``name`` is a word of ``node``'s own code."""
    start = (node.lineno, node.col_offset)
    end = (node.end_lineno, node.end_col_offset)
    return sum(word == name and start <= at < end for at, word in words)


def _functions_classes_and_methods(module: ast.Module):
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item


def test_every_top_level_name_is_referenced():
    words = _words("src", "tests", "tools", "bench")
    unreferenced = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        code = _code_words(text)
        for name, node in _definitions(ast.parse(text)):
            if not name.startswith("__") \
                    and words[name] == _own(code, node, name):
                unreferenced.append(f"{path.name}:{name}")
    assert unreferenced == []


def test_every_unexported_callable_has_a_reader_outside_tests():
    exported = set(__import__("mergeweaver").__all__)
    words = _words("src", "tools", "bench")
    test_only = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        code = _code_words(text)
        for name, node in _functions_classes_and_methods(ast.parse(text)):
            if not name.startswith("__") and name not in exported \
                    and words[name] == _own(code, node, name):
                test_only.append(f"{path.name}:{name}")
    assert test_only == []


# held but never read by design: a unit keeps its SourceFile alive so that
# the id() in its unit-facts memo key (peg._unit_of) is never reused
HELD_ONLY = {"peg.py:_Unit.source"}


def _stored_attributes(module: ast.Module):
    """(class name, attribute) for each attribute a class of ``module``
    stores: ``self.x = ...`` in its methods, and the fields of a dataclass
    or NamedTuple."""
    for node in ast.walk(module):
        if not isinstance(node, ast.ClassDef):
            continue
        fields = any("dataclass" in ast.unparse(d)
                     for d in node.decorator_list) \
            or any(ast.unparse(b) == "NamedTuple" for b in node.bases)
        for item in node.body:
            if fields and isinstance(item, ast.AnnAssign) \
                    and isinstance(item.target, ast.Name) \
                    and "ClassVar" not in ast.unparse(item.annotation):
                yield node.name, item.target.id
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) \
                    and isinstance(sub.ctx, ast.Store) \
                    and isinstance(sub.value, ast.Name) \
                    and sub.value.id == "self":
                yield node.name, sub.attr


def test_every_stored_attribute_is_read():
    read = set()
    for top in ("src", "tests", "tools", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            read.update(node.attr for node in ast.walk(ast.parse(
                path.read_text())) if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load))
    unread = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for owner, attr in _stored_attributes(ast.parse(path.read_text())):
            if attr not in read:
                unread.add(f"{path.name}:{owner}.{attr}")
    assert sorted(unread - HELD_ONLY) == []
    assert HELD_ONLY <= unread
