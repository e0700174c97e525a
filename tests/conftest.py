"""Shared fixtures: corpus paths, snippet parsing, random program and
tree generators used by the round-trip and differ oracles."""

from __future__ import annotations

import functools
import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

from mergeweaver.conflicts import _first_row, _rows_of
from mergeweaver.parser import parse_unit
from mergeweaver.pipeline import ScenarioRun, run_scenario
from mergeweaver.similarity import Scorer
from mergeweaver.syntax import SyntaxNode, SyntaxTree, clone_node

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
FANOUT = ROOT / "tests" / "data" / "synthetic" / "rename-fanout"

# bench/gen.py, the seeded workload generator, imported as ``bench_gen``
_spec = importlib.util.spec_from_file_location("bench_gen",
                                               ROOT / "bench" / "gen.py")
bench_gen = sys.modules["bench_gen"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_gen)


@functools.lru_cache(maxsize=None)
def scaling_tool():
    """tools/scaling.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location(
        "scaling", ROOT / "tools" / "scaling.py")
    scaling = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scaling)
    return scaling


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One visible PASS/FAIL line per acceptance criterion."""
    rows = []
    for key in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(key, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py" in nodeid and "::" in nodeid:
                outcome = "PASS" if key == "passed" else "FAIL"
                rows.append((nodeid.split("::")[-1], outcome))
    if rows:
        terminalreporter.write_sep("=", "acceptance criteria")
        for name, outcome in sorted(set(rows)):
            terminalreporter.write_line(f"{name}: {outcome}")


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    assert CORPUS.is_dir(), "corpus/ missing; run tools/build_corpus.py"
    return CORPUS


@pytest.fixture(scope="session")
def golden_key(corpus_dir: Path) -> dict:
    return json.loads((corpus_dir / "golden_key.json").read_text())


def write_versions(root: Path, files: dict[str, dict[str, str]]) -> None:
    """Write each version's files under root: version -> path -> text."""
    for version, texts in files.items():
        for path, text in texts.items():
            target = root / version / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text)


def parse_snippet(text: str, path: str = "T.java"):
    return parse_unit(path, text)


def classify(def_change, use_intro, fw) -> str | None:
    """The taxonomy code ``detect_conflicts`` gives a def-side/use-side
    edit pair, or None; a pair within one branch has none."""
    if def_change.branch == use_intro.branch:
        return None
    row = _first_row(_rows_of(def_change), def_change, use_intro, fw)
    return row.code if row is not None else None


@functools.lru_cache(maxsize=None)
def run_corpus(name: str) -> ScenarioRun:
    """Run one corpus scenario; cached because several tests share runs."""
    d = CORPUS / name
    return run_scenario(d / "base", d / "left", d / "right",
                        scenario_id=name)


def corpus_java_files() -> list[Path]:
    return sorted(CORPUS.rglob("*.java"))


def merge_inputs() -> list[Path]:
    """Every corpus scenario and control, then the committed fanout trees."""
    manifest = json.loads((CORPUS / "manifest.json").read_text())
    return ([CORPUS / n for n in manifest["scenarios"]]
            + [CORPUS / "controls" / n for n in manifest["controls"]]
            + [FANOUT])


GENERATED = [(w, s) for w in ("method-rename", "package-rename",
                              "rename-fanout") for s in (1, 4242)]


@pytest.fixture(scope="session")
def generated(tmp_path_factory) -> list[Path]:
    """The three bench/gen.py workloads at seeds 1 and 4242, written once."""
    dirs = []
    for workload, seed in GENERATED:
        out = tmp_path_factory.mktemp(f"{workload}-{seed}")
        bench_gen.write_workload(bench_gen.generate(workload, seed), out)
        dirs.append(out)
    return dirs


@pytest.fixture
def scored_pairs(monkeypatch) -> list[tuple[str, str, float]]:
    """Each (a, b, score) that ``Scorer.similarity`` returns during the
    test, in call order, recorded by a wrapper of the method."""
    calls: list[tuple[str, str, float]] = []
    similarity = Scorer.similarity

    def recorded(self: Scorer, a: str, b: str) -> float:
        sim = similarity(self, a, b)
        calls.append((a, b, sim))
        return sim

    monkeypatch.setattr(Scorer, "similarity", recorded)
    return calls


def reference_match_pairs(ga, gb) -> list[tuple[str, str]]:
    """Each (text, text) pair the reference greedy of
    ``reference_similarity_search`` scores to match ga with gb: every
    body and context pair of every candidate it weighs, in call order."""
    import reference_similarity_search as ref
    pairs: list[tuple[str, str]] = []
    score = ref.profile_similarity

    def recorded(a, b) -> float:
        pairs.append((a[0], b[0]))
        return score(a, b)

    ref.profile_similarity = recorded
    try:
        ref.match_graphs(ga, gb)
    finally:
        ref.profile_similarity = score
    return pairs


# ---------------------------------------------------------------------------
# Random program generation.  Deliberately restricted to constructs the
# corpus itself exercises; identifiers come from fixed pools so repeated
# seeds are stable.

_TYPES = ["int", "long", "boolean", "String", "Object"]
_NAMES = ["alpha", "beta", "gamma", "delta", "omega", "item", "count",
          "label", "total", "cursor"]
_METHODS = ["load", "store", "refresh", "combine", "emit", "check"]
_CLASSES = ["Widget", "Holder", "Engine", "Router", "Ledger"]


def _expr(rng: random.Random, depth: int = 0) -> str:
    roll = rng.random()
    if depth >= 2 or roll < 0.3:
        return rng.choice([
            str(rng.randrange(100)),
            f'"{rng.choice(_NAMES)}"',
            rng.choice(_NAMES),
            "null",
            "true",
            "false",
        ])
    if roll < 0.5:
        return f"{_expr(rng, depth + 1)} {rng.choice(['+', '-', '*'])} {_expr(rng, depth + 1)}"
    if roll < 0.65:
        args = ", ".join(_expr(rng, depth + 1)
                         for _ in range(rng.randrange(3)))
        recv = rng.choice(["", "this.", rng.choice(_NAMES) + "."])
        return f"{recv}{rng.choice(_METHODS)}({args})"
    if roll < 0.8:
        args = ", ".join(_expr(rng, depth + 1)
                         for _ in range(rng.randrange(2)))
        return f"new {rng.choice(_CLASSES)}({args})"
    if roll < 0.9:
        return f"(int) {_expr(rng, depth + 1)}"
    return f"{rng.choice(_NAMES)}.{rng.choice(_NAMES)}"


def _stmt(rng: random.Random, depth: int = 0) -> list[str]:
    roll = rng.random()
    if roll < 0.35:
        return [f"{rng.choice(_TYPES)} {rng.choice(_NAMES)} = {_expr(rng)};"]
    if roll < 0.55:
        return [f"{rng.choice(_NAMES)} = {_expr(rng)};"]
    if roll < 0.7:
        args = ", ".join(_expr(rng) for _ in range(rng.randrange(3)))
        return [f"{rng.choice(_METHODS)}({args});"]
    if roll < 0.8 and depth < 1:
        body = [f"    {s}" for s in _stmt(rng, depth + 1)]
        out = [f"if ({rng.choice(_NAMES)} == {rng.randrange(10)}) {{",
               *body, "}"]
        if rng.random() < 0.4:
            out[-1] = "} else {"
            out += [f"    {s}" for s in _stmt(rng, depth + 1)] + ["}"]
        return out
    if roll < 0.9 and depth < 1:
        body = [f"    {s}" for s in _stmt(rng, depth + 1)]
        return [f"while ({rng.choice(_NAMES)} == 0) {{", *body, "}"]
    return [f"return {_expr(rng)};"]


def random_program(rng: random.Random) -> str:
    pkg = f"gen.p{rng.randrange(50)}"
    lines = [f"package {pkg};", ""]
    for _ in range(rng.randrange(3)):
        lines.append(f"import java.util.{rng.choice(_CLASSES)};")
    if lines[-1].startswith("import"):
        lines.append("")
    cls = rng.choice(_CLASSES) + str(rng.randrange(100))
    heritage = ""
    if rng.random() < 0.3:
        heritage = f" extends {rng.choice(_CLASSES)}"
    if rng.random() < 0.2:
        heritage += f" implements {rng.choice(_CLASSES)}"
    lines.append(f"public class {cls}{heritage} {{")
    for _ in range(rng.randrange(1, 4)):
        kind = rng.random()
        if kind < 0.35:
            init = f" = {_expr(rng)}" if rng.random() < 0.5 else ""
            lines.append(f"    private {rng.choice(_TYPES)} "
                         f"{rng.choice(_NAMES)}{init};")
        else:
            ret = rng.choice(_TYPES + ["void"])
            params = ", ".join(f"{rng.choice(_TYPES)} {n}"
                               for n in rng.sample(_NAMES,
                                                   rng.randrange(3)))
            lines.append(f"    public {ret} "
                         f"{rng.choice(_METHODS)}({params}) {{")
            for _ in range(rng.randrange(4)):
                lines.extend(f"        {s}" for s in _stmt(rng))
            if ret != "void":
                lines.append(f"        return {_expr(rng)};")
            lines.append("    }")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Independent re-computation of the dependence closure used when refining
# a mined edit script.  Same contract, separately written primitives, so
# the two implementations check each other.  The closure is edit-scoped: a
# statement uses only the names its own ops read or write, not every name
# it mentions, while the names it defines are read off the whole statement.

_OWNER_KINDS = ("IfStmt", "ForStmt", "ForEachStmt", "WhileStmt")


def brute_force_closure(before: SyntaxTree, script, use_ids: set[int]
                        ) -> set[int]:
    adds = {op.node_id: op for op in script if op.op == "add"}

    def target(op):
        cur = op
        if op.op == "add":
            while cur.parent_id is not None and cur.parent_id in adds:
                cur = adds[cur.parent_id]
            tid = cur.parent_id
        else:
            tid = op.node_id
        return tid if tid is not None and before.has_node(tid) else None

    def stmt_of(tid):
        return None if tid is None \
            else before.enclosing_statement(before.node(tid))

    edited = {}
    for op in script:
        s = stmt_of(target(op))
        if s is not None:
            edited[s.id] = s

    closure = {stmt_of(target(op)).id for op in script
               if target(op) in use_ids
               and stmt_of(target(op)) is not None}

    def defined(stmt):
        out = set()
        for n in stmt.walk():
            if n.kind == "LocalVarDecl":
                out.add(n.value)
            elif n.kind == "Assignment" and n.children \
                    and n.children[0].kind == "Name":
                out.add(n.children[0].value)
        return out

    def used(stmt):
        # only what the statement's own ops touch: the names under each
        # op target's before-side node, and a name an add or update writes
        out = set()
        for op in script:
            tid = target(op)
            if tid is None or stmt_of(tid) is not stmt:
                continue
            top = before.node(tid)
            stack = [top]
            while stack:
                n = stack.pop()
                if n.kind in ("Name", "FieldAccess"):
                    out.add(n.value)
                stack.extend(n.children)
            written = top.kind if op.op == "update" else op.node_kind
            if op.op in ("add", "update") \
                    and written in ("Name", "FieldAccess"):
                out.add(op.value)
        return out

    order = {n.id: i for i, n in enumerate(before.nodes())}
    while True:
        new: set[int] = set()
        for sid in closure:
            stmt = before.node(sid)
            for anc in before.ancestors(stmt):
                if anc.kind in _OWNER_KINDS:
                    if anc.id in edited and anc.id not in closure:
                        new.add(anc.id)
                    break                     # nearest owner only
            for oid, other in edited.items():
                if oid in closure or oid in new or order[oid] >= order[sid]:
                    continue
                if defined(other) & used(stmt):
                    new.add(oid)
        if not new:
            return closure
        closure |= new


# ---------------------------------------------------------------------------
# Random three-way text triples whose left and right edits never touch the
# same segment, so a clean merge is guaranteed.  Segment edges stay intact
# to keep the hunks anchored.

def random_disjoint_triple(rng: random.Random) -> tuple[str, str, str]:
    n = rng.randrange(4, 9)
    base = [f"line {s}-{k} tok{(s * 7 + k) % 13}"
            for s in range(n) for k in range(6)]
    left, right = list(base), list(base)
    for s in reversed(range(n)):        # tail-first so indexes stay valid
        owner = rng.choice(("l", "r", "none"))
        if owner == "none":
            continue
        side = left if owner == "l" else right
        lo = s * 6 + 1
        k = rng.randrange(1, 4)
        kind = rng.random()
        if kind < 0.4:
            for off in range(k):
                side[lo + off] = f"edit {owner} {s}-{off} v{rng.randrange(99)}"
        elif kind < 0.7:
            del side[lo:lo + k]
        else:
            side[lo:lo] = [f"ins {owner} {s}-{i}" for i in range(k)]

    def join(lines: list[str]) -> str:
        return "\n".join(lines) + "\n"

    return join(base), join(left), join(right)


# ---------------------------------------------------------------------------
# Random tree mutation for the differ oracle.  Edits stay structural:
# statements are deleted from / inserted into / moved between Blocks and
# leaf values are rewritten, so the result is always a legal tree even
# when it would not be sensible Java.

from mergeweaver.syntax import STATEMENT_KINDS  # noqa: E402


def _blocks(tree: SyntaxTree) -> list[SyntaxNode]:
    return [n for n in tree.nodes() if n.kind == "Block"]


def _fresh_stmt(rng: random.Random) -> SyntaxNode:
    name = f"gen{rng.randrange(10000)}"
    if rng.random() < 0.5:
        return SyntaxNode("LocalVarDecl", "", [
            SyntaxNode("TypeRef", "int"),
            SyntaxNode("Name", name),
            SyntaxNode("Literal", str(rng.randrange(100))),
        ])
    return SyntaxNode("ExprStmt", "", [
        SyntaxNode("MethodInvocation", name, [
            SyntaxNode("ArgumentList", "", [
                SyntaxNode("Name", rng.choice(_NAMES)),
            ]),
        ]),
    ])


def _stamp_fresh(tree: SyntaxTree, node: SyntaxNode) -> None:
    for n in node.walk():
        n.id = tree.fresh_id()


def mutate_tree(tree: SyntaxTree, rng: random.Random,
                edits: int) -> SyntaxTree:
    """Return a structurally mutated deep copy with `edits` random
    changes.  A deep copy, not a copy-on-write clone: the leaf values are
    written directly and the result is renumbered in place."""
    out = SyntaxTree(clone_node(tree.root))
    for _ in range(edits):
        op = rng.random()
        blocks = _blocks(out)
        stmts = [n for b in blocks for n in b.children
                 if n.kind in STATEMENT_KINDS]
        if op < 0.3 and stmts:
            out.remove(rng.choice(stmts))
        elif op < 0.55 and blocks:
            fresh = _fresh_stmt(rng)
            _stamp_fresh(out, fresh)
            target = rng.choice(blocks)
            out.insert(target, rng.randrange(len(target.children) + 1),
                       fresh)
        elif op < 0.7 and stmts and len(blocks) > 1:
            victim = rng.choice(stmts)
            homes = [b for b in blocks
                     if b is not victim
                     and victim not in out.ancestors(b)]
            if not homes:
                continue
            out.remove(victim)
            home = rng.choice(homes)
            out.insert(home, rng.randrange(len(home.children) + 1), victim)
        else:
            leaves = [n for n in out.nodes()
                      if n.kind in ("Name", "Literal", "TypeRef",
                                    "Modifier") and n.value]
            if not leaves:
                continue
            rng.choice(leaves).value = f"mut{rng.randrange(10000)}"
    return SyntaxTree(out.root, assign_ids=True)
