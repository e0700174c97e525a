"""Every top-level name of the package has a reader.

Each function, class and constant defined at module level in
src/mergeweaver must appear as a word in src/, tests/, tools/ or bench/
somewhere outside its own definition.  Each function, class and method
that the package's ``__all__`` does not export must have a reader in
src/, tools/ or bench/: a reader in tests/ alone does not keep it.
"""

import ast
import re
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


def _words(*tops: str) -> Counter:
    words: Counter = Counter()
    for top in tops:
        for path in (ROOT / top).rglob("*.py"):
            words.update(WORD.findall(path.read_text()))
    return words


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
        for name, node in _definitions(ast.parse(text)):
            own = WORD.findall(ast.get_source_segment(text, node) or "")
            if not name.startswith("__") and words[name] == own.count(name):
                unreferenced.append(f"{path.name}:{name}")
    assert unreferenced == []


def test_every_unexported_callable_has_a_reader_outside_tests():
    exported = set(__import__("mergeweaver").__all__)
    words = _words("src", "tools", "bench")
    test_only = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        for name, node in _functions_classes_and_methods(ast.parse(text)):
            own = WORD.findall(ast.get_source_segment(text, node) or "")
            if not name.startswith("__") and name not in exported \
                    and words[name] == own.count(name):
                test_only.append(f"{path.name}:{name}")
    assert test_only == []
