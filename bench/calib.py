"""A fixed pure-Python reference job, timed next to every pass.

The host this benchmark runs on is shared: its CPU speed drifts by tens of
percent over seconds to minutes, and CPU time drifts with it.  A pass's
cost is therefore reported relative to this job, timed in the same
process right before and right after the pass, so a slow-down of the
machine scales both and cancels out.  The job does what mergeweaver does
most (regex tokenizing, building small objects, difflib matching over
token lists, dict look-ups) on a fixed input, so the same work is done on
every run and no seed or program change alters it.

Standard library only; it imports nothing from mergeweaver.
"""

from __future__ import annotations

import difflib
import re
import time
from dataclasses import dataclass

_TOKEN = re.compile(r"[A-Za-z_]\w*|\d+|\S")
_WORDS = ("alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta",
          "iota", "kappa", "lambda", "mu")


def _source(variant: int) -> str:
    """A fixed Java-like text; ``variant`` flips every seventh operator."""
    lines = []
    for i in range(240):
        a = _WORDS[i % len(_WORDS)]
        b = _WORDS[(i * 5 + 3) % len(_WORDS)]
        op = "-" if variant and i % 7 == 0 else "+"
        lines.append(f"int {a}{i} = {b}{i // 2} {op} {i * 37 % 101};")
    return "\n".join(lines)


_BASE = _source(0)
_EDITED = _source(1)


@dataclass
class _Node:
    kind: str
    text: str
    children: list


def _tree(text: str) -> _Node:
    root = _Node("unit", "", [])
    for line in text.splitlines():
        stmt = _Node("stmt", line, [])
        for tok in _TOKEN.findall(line):
            kind = "name" if tok[0].isalpha() else "lit" if tok[0].isdigit() \
                else "op"
            stmt.children.append(_Node(kind, tok, []))
        root.children.append(stmt)
    return root


def _job() -> int:
    left, right = _tree(_BASE), _tree(_EDITED)
    counts: dict[str, int] = {}
    for stmt in left.children + right.children:
        for leaf in stmt.children:
            counts[leaf.text] = counts.get(leaf.text, 0) + 1
    a = [s.text for s in left.children]
    b = [s.text for s in right.children]
    changed = 0
    for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(
            None, a, b, autojunk=False).get_opcodes():
        if tag != "equal":
            for x, y in zip(a[i1:i2], b[j1:j2]):
                changed += round(10 * difflib.SequenceMatcher(
                    None, x, y).ratio())
    return changed + len(counts)


ROUNDS = 12     # about 0.1 s of CPU on a 2-CPU Xeon VM at Python 3.11


def reference_cpu_s(rounds: int = ROUNDS) -> float:
    """CPU seconds of ``rounds`` repetitions of the fixed job."""
    t0 = time.process_time()
    for _ in range(rounds):
        _job()
    return time.process_time() - t0


def warm_up() -> None:
    _job()
