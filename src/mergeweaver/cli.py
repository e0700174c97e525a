"""Command line interface.

Exit codes, each failure with a one-line message on stderr:

* 0 on success (detected-but-unresolved conflicts are still success);
* 1 when an evaluation corpus has no golden key, when the key cannot be
  read or is not a regular file (refused at once, as a source is), is not
  UTF-8 JSON of the documented shape (an object of scenario entries, each
  with a "conflicts" list), or when it lacks an entry;
* 2 when a source or expected file fails to parse, cannot be read (a
  directory or a dangling symlink named ``B.java``, say) or is not valid
  UTF-8, when a source tree is missing, no directory or an empty path
  (never read as the current directory), or it or a directory below it
  cannot be listed (an ``eval`` scenario without ``left/``, say), and for
  bad arguments (argparse prints usage);
* 3 when the textual merge itself conflicts;
* 4 when one version declares the same entity twice, for example when
  both branches add a class of the same name;
* 5 when an output file (a report, resolved or merged files) cannot be
  written, for example because a regular file sits where its directory
  would go.
"""

from __future__ import annotations

import argparse
import difflib
import json
import sys
from pathlib import Path
from typing import Optional

from .evaluate import MissingGolden, evaluate_corpus, summary_to_dict
from .merge3 import (TextualConflict, UnreadableSource, _read_tree,
                     merge_texts)
from .parser import ParseError
from .peg import DuplicateEntity
from .pipeline import ScenarioRun, report_to_dict, run_scenario
from .printer import pretty_print


class WriteFailure(Exception):
    """An output file or one of its directories could not be written."""


def _write_text(target: Path, text: str) -> None:
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    except OSError as exc:
        raise WriteFailure(f"{target}: {exc}") from exc


def _emit_json(obj: dict, report_path: Optional[str]) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if report_path:
        _write_text(Path(report_path), text)
    else:
        sys.stdout.write(text)


def _dump_peg(run: ScenarioRun) -> None:
    for label, graph in (("base", run.fourway.base),
                         ("left", run.fourway.left),
                         ("right", run.fourway.right),
                         ("merged", run.fourway.merged)):
        graph.resolve_deferred()
        print(f"[peg:{label}] {len(graph.entities)} entities, "
              f"{len(graph.relations)} relations", file=sys.stderr)
        for ent in sorted(graph.entities.values(), key=lambda e: e.id):
            print(f"  {ent.kind} {ent.fqn}", file=sys.stderr)
        for rel in sorted(graph.relations,
                          key=lambda r: (r.src, r.kind, r.dst)):
            print(f"  {rel.src} -{rel.kind}-> {rel.dst}", file=sys.stderr)


def _dump_delta(run: ScenarioRun) -> None:
    for label, delta in (("left", run.fourway.delta_left),
                         ("right", run.fourway.delta_right)):
        print(f"[delta:{label}] {len(delta.entity_edits)} entity edits, "
              f"{len(delta.relation_edits)} relation edits",
              file=sys.stderr)
        for e in delta.entity_edits:
            detail = f" ({e.detail})" if e.detail else ""
            print(f"  {e.op} {e.kind} {e.subject}{detail}",
                  file=sys.stderr)
        for e in delta.relation_edits:
            print(f"  {e.op} {e.src_fqn} -{e.kind}-> {e.dst_fqn}",
                  file=sys.stderr)


def _dump_scripts(run: ScenarioRun) -> None:
    index = {id(c): i for i, c in enumerate(run.report.conflicts)}
    for outcome in run.report.outcomes:
        for pattern in outcome.patterns:
            print(f"[script] conflict {index[id(outcome.conflict)]} "
                  f"example from {pattern.example.host}", file=sys.stderr)
            for op in pattern.ops:
                print(f"  {op.op} node={op.node_id} parent={op.parent_id} "
                      f"index={op.index} kind={op.node_kind} "
                      f"value={op.value!r}", file=sys.stderr)


def _write_resolutions(run: ScenarioRun, out_dir: str) -> None:
    out = Path(out_dir)
    reprints = {path: pretty_print(sf.tree)
                for path, sf in run.scenario.am.items()}
    for path, text in reprints.items():
        _write_text(out / "am" / path, text)
    index = {id(c): i for i, c in enumerate(run.report.conflicts)}
    for res in run.report.resolutions:
        i = index.get(id(res.conflict), 0)
        target = out / res.strategy / f"conflict-{i}" / res.path
        _write_text(target, res.text)
        before = reprints.get(res.path, "")
        diff = "".join(difflib.unified_diff(
            before.splitlines(keepends=True),
            res.text.splitlines(keepends=True),
            fromfile=f"am/{res.path}",
            tofile=f"{res.strategy}/conflict-{i}/{res.path}"))
        _write_text(target.with_name(target.name + ".diff"), diff)


def _run(args: argparse.Namespace) -> ScenarioRun:
    if args.trace:
        print(f"merging {args.base} + {args.left} + {args.right}",
              file=sys.stderr)
    run = run_scenario(args.base, args.left, args.right)
    if args.trace:
        index = {id(c): i for i, c in enumerate(run.report.conflicts)}
        record = run.scenario.record
        print(f"{len(run.report.conflicts)} conflict(s), "
              f"{len(run.report.resolutions)} resolution(s)",
              "counts: " + " ".join(f"{key}={value}" for key, value
                                    in sorted(record.counts.items())),
              "ms: " + " ".join(f"{layer}={ms:.3f}"
                                for layer, ms in record.ms.items()),
              *(f"outcome: conflict {index[id(o.conflict)]} {o.strategy} "
                f"{o.reason}" for o in run.report.outcomes),
              sep="\n", file=sys.stderr)
    return run


def _cmd_merge(args: argparse.Namespace) -> int:
    merged = merge_texts(_read_tree(args.base), _read_tree(args.left),
                         _read_tree(args.right))
    if args.out:
        for path, text in sorted(merged.items()):
            _write_text(Path(args.out) / path, text)
    else:
        for path in sorted(merged):
            print(path)
    return 0


def _cmd_resolve(args: argparse.Namespace) -> int:
    run = _run(args)
    if args.dump_peg:
        _dump_peg(run)
    if args.dump_delta:
        _dump_delta(run)
    if args.dump_script:
        _dump_scripts(run)
    if args.out:
        _write_resolutions(run, args.out)
    _emit_json(report_to_dict(run.report, include_timing=not args.no_timing),
               args.report)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    summary = evaluate_corpus(args.corpus)
    _emit_json(summary_to_dict(summary), args.report)
    return 0


def _add_tree_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--base", required=True, help="base source tree")
    sub.add_argument("--left", required=True, help="left source tree")
    sub.add_argument("--right", required=True, help="right source tree")


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--report", help="write the JSON report here")
    sub.add_argument("--dump-peg", action="store_true",
                     help="dump entity graphs to stderr")
    sub.add_argument("--dump-delta", action="store_true",
                     help="dump graph deltas to stderr")
    sub.add_argument("--trace", action="store_true",
                     help="progress lines on stderr")
    sub.add_argument("--no-timing", action="store_true",
                     help="omit timings for byte-stable output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mergeweaver",
        description="detect and resolve build conflicts in three-way "
                    "source merges")
    subs = parser.add_subparsers(dest="command", required=True)

    p_merge = subs.add_parser("merge", help="textual three-way merge only")
    _add_tree_args(p_merge)
    p_merge.add_argument("--out", help="write merged files here")
    p_merge.set_defaults(func=_cmd_merge)

    p_detect = subs.add_parser("detect", help="report build conflicts")
    _add_tree_args(p_detect)
    _add_common_flags(p_detect)
    p_detect.set_defaults(func=_cmd_resolve, out=None, dump_script=False)

    p_resolve = subs.add_parser("resolve",
                                help="detect and resolve build conflicts")
    _add_tree_args(p_resolve)
    _add_common_flags(p_resolve)
    p_resolve.add_argument("--out", help="write resolved files here")
    p_resolve.add_argument("--dump-script", action="store_true",
                           help="dump inferred edit scripts to stderr; "
                           "their ids are node ids of the host's own parse")
    p_resolve.set_defaults(func=_cmd_resolve)

    p_eval = subs.add_parser("eval", help="evaluate a scenario corpus")
    p_eval.add_argument("corpus", help="corpus directory")
    p_eval.add_argument("--report", help="write the JSON summary here")
    p_eval.set_defaults(func=_cmd_eval)

    return parser


# each failure's message prefix and exit code, matched in this order
_FAILURES = {
    ParseError: ("parse error", 2),
    UnreadableSource: ("read error", 2),
    TextualConflict: ("textual conflict", 3),
    MissingGolden: ("eval error", 1),
    DuplicateEntity: ("duplicate declaration", 4),
    WriteFailure: ("write error", 5),
}


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_FAILURES) as exc:
        prefix, code = next(failure for kind, failure in _FAILURES.items()
                            if isinstance(exc, kind))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
