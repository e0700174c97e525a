"""Every top-level name of the package has a reader.

Each function, class and constant defined at module level in
src/mergeweaver must appear as a word in src/, tests/, tools/ or bench/
somewhere outside its own definition.
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


def test_every_top_level_name_is_referenced():
    words: Counter = Counter()
    for top in ("src", "tests", "tools", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            words.update(WORD.findall(path.read_text()))
    unreferenced = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        for name, node in _definitions(ast.parse(text)):
            own = WORD.findall(ast.get_source_segment(text, node) or "")
            if not name.startswith("__") and words[name] == own.count(name):
                unreferenced.append(f"{path.name}:{name}")
    assert unreferenced == []
