"""Per-layer spans and counters, recorded from outside the program.

``install`` replaces public functions of mergeweaver's modules with timing
wrappers.  Every module attribute bound to a wrapped function is replaced,
so ``from .parser import parse_unit`` in another module is traced too.
Each call opens a span (name, start, end, parent); a span's self time is
its duration minus the time its traced children covered, its total time
the whole duration.  The bookkeeping
a wrapper does after the call (counting nodes, edits, ...) is charged to
no layer, so it only shows up in the tracing overhead.

Spans stay in memory until the pass ends.  The two hottest leaves,
``similarity`` and ``printer`` (called once per scored entity pair), are
aggregated per name instead of stored one by one.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

_clock = time.perf_counter


def _count_nodes(root) -> int:
    n, stack = 0, [root]
    while stack:
        node = stack.pop()
        n += 1
        stack.extend(node.children)
    return n


def _edit_count(delta) -> int:
    return len(delta.entity_edits) + len(delta.relation_edits)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []     # (id, name, start, end, parent, self)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[list] = []     # [span id, name, child seconds]
        self._next_id = 0
        self._seen_parses: set[tuple[str, str]] = set()
        self._origin = _clock()

    def wrap(self, fn: Callable, name: str, *, leaf: bool = False,
             count: Optional[Callable] = None,
             skip_under: Optional[str] = None) -> Callable:
        """Return a traced version of ``fn``.

        ``count(tracer, args, result)`` runs after the span closes.  When
        the innermost open span is ``skip_under``, the call is not traced
        separately and its time stays with that span.
        """
        stack, spans, self_s, total_s, calls = (
            self._stack, self.spans, self.self_s, self.total_s, self.calls)

        def traced(*args, **kwargs):
            if skip_under is not None and stack and stack[-1][1] == skip_under:
                return fn(*args, **kwargs)
            t0 = _clock()
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, name, 0.0]
            stack.append(frame)
            result = None
            failed: Optional[BaseException] = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                failed = exc
                raise
            finally:
                t1 = _clock()
                stack.pop()
                own = (t1 - t0) - frame[2]
                self_s[name] += own
                total_s[name] += t1 - t0
                calls[name] += 1
                if not leaf:
                    spans.append((sid, name, t0, t1, parent, own))
                if failed is not None:
                    self.counts[f"{name}.raised.{type(failed).__name__}"] += 1
                elif count is not None:
                    count(self, args, result)
                if stack:
                    stack[-1][2] += _clock() - t0

        traced.__wrapped__ = fn
        return traced

    # -- counters, run after each span closes ------------------------------

    def _parsed(self, args, result) -> None:
        key = (args[0], args[1])          # (path, text)
        if key in self._seen_parses:
            self.counts["parser.repeats"] += 1
        self._seen_parses.add(key)
        self.counts["parser.nodes"] += _count_nodes(result.tree.root)

    def _merged(self, args, result) -> None:
        self.counts["merge3.files"] += len(result.am)

    def _graph(self, args, result) -> None:
        self.counts["peg.entities"] += len(result.entities)
        self.counts["peg.relations"] += len(result.relations)

    def _delta(self, args, result) -> None:
        base, target = args[0], args[1]
        self.counts["graph_diff.entity_edits"] += len(result.entity_edits)
        self.counts["graph_diff.relation_edits"] += len(result.relation_edits)
        self.counts["graph_diff.unmatched_by_id"] += sum(
            1 for eid in base.entities if eid not in target.entities)

    def _cap(self, args, result) -> None:
        ga, gb = args[0], args[1]
        self.counts["graph_diff.unmatched_by_id"] += sum(
            1 for eid in ga.entities if eid not in gb.entities)

    def _detected(self, args, result) -> None:
        fw = args[0]
        self.counts["conflicts.edits_in"] += (_edit_count(fw.delta_left)
                                              + _edit_count(fw.delta_right))
        self.counts["conflicts.found"] += len(result)

    def _mined(self, args, result) -> None:
        self.counts["mining.examples"] += len(result)

    def _script(self, args, result) -> None:
        self.counts["tree_diff.ops"] += len(result)

    def _inferred(self, args, result) -> None:
        self.counts["inference.patterns"] += 1

    def _anchored(self, args, result) -> None:
        self.counts["matching.anchored"] += 1

    def _resolved(self, args, result) -> None:
        if result is not None:
            self.counts["matching.resolutions"] += 1

    def _ruled(self, args, result) -> None:
        self.counts["rules.applied"] += 1

    # -- output ------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "self_ms": {k: v * 1000.0 for k, v in self.self_s.items()},
            "total_ms": {k: v * 1000.0 for k, v in self.total_s.items()},
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "missing": self.missing,
        }

    def write_spans(self, path) -> None:
        origin = self._origin
        spans = [{"id": sid, "name": name,
                  "start_ms": (t0 - origin) * 1000.0,
                  "end_ms": (t1 - origin) * 1000.0,
                  "parent": parent, "self_ms": own * 1000.0}
                 for sid, name, t0, t1, parent, own in self.spans]
        leaves = {name: {"calls": self.calls[name],
                         "self_ms": self.self_s[name] * 1000.0}
                  for name in LEAVES if self.calls[name]}
        with open(path, "w") as fh:
            json.dump({"spans": spans, "leaves": leaves}, fh)


LEAVES = ("similarity", "printer")

# (module, attribute, span name, options)
TARGETS = (
    ("pipeline", "run_scenario", "pipeline", {}),
    ("evaluate", "evaluate_corpus", "evaluate", {}),
    ("merge3", "merge_scenario", "merge3", {"count": Tracer._merged}),
    ("parser", "parse_unit", "parser", {"count": Tracer._parsed}),
    ("peg", "build_peg", "peg", {"count": Tracer._graph}),
    ("graph_diff", "diff_graphs", "graph_diff.delta",
     {"count": Tracer._delta}),
    # match_graphs inside diff_graphs is part of the delta layer; called
    # directly it maps the merged graph onto a branch ("cap")
    ("graph_diff", "match_graphs", "graph_diff.cap",
     {"count": Tracer._cap, "skip_under": "graph_diff.delta"}),
    ("similarity", "trigram_similarity", "similarity", {"leaf": True}),
    ("printer", "pretty_print", "printer", {"leaf": True}),
    ("conflicts", "detect_conflicts", "conflicts",
     {"count": Tracer._detected}),
    ("matching", "resolve_by_example", "matching",
     {"count": Tracer._resolved}),
    ("mining", "mine_examples", "mining", {"count": Tracer._mined}),
    ("tree_diff", "diff_trees", "tree_diff", {"count": Tracer._script}),
    ("inference", "infer_pattern", "inference",
     {"count": Tracer._inferred}),
    ("matching", "match_context", "matching.anchor",
     {"count": Tracer._anchored}),
    ("matching", "apply_pattern", "matching.apply", {}),
    ("rules", "resolve_by_rule", "rules", {"count": Tracer._ruled}),
)


def install() -> Tracer:
    """Wrap every target in the already imported mergeweaver package.

    A target the program no longer has is recorded in ``missing`` and
    skipped, so its layer reads zero instead of failing the run.
    """
    tracer = Tracer()
    for mod_name, attr, span, opts in TARGETS:
        try:
            module = importlib.import_module(f"mergeweaver.{mod_name}")
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            tracer.missing.append(f"{mod_name}.{attr}")
            continue
        opts = dict(opts)
        count = opts.pop("count", None)
        wrapped = tracer.wrap(original, span, count=count, **opts)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "mergeweaver"
                                   or name.startswith("mergeweaver.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    return tracer
