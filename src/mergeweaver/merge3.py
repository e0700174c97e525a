"""Line-based three-way merge.

The merge aligns base/left and base/right with difflib and composes the two
edit sets.  Regions changed on one side only take that side; regions changed
identically on both sides are taken once; overlapping differing regions raise
TextualConflict -- this merger never emits conflict markers, callers are
expected to stop instead (exit code 3 at the CLI).

A tree's source files are the entries below its root whose names end in
``.java``, case-sensitively, hidden ones included: the files ``rglob``
selects.  The walk enters subdirectories but no symlinked directory; a
symlinked file is read through its link.  A tree, or a directory below
it, that cannot be listed (a scenario without ``left/``, say) raises
UnreadableSource as ``<path>: <cause>``, so it is never read as empty.
Files are read in sorted path order, compared by path component.  The
first that cannot be read raises UnreadableSource: any OSError (a
directory or a dangling symlink named ``B.java``, say) as ``<path>:
<cause>``, a FIFO or a device, opened without blocking since its read
could block or never end, as ``<path>: not a regular file``, and a file
that is not UTF-8 as ``<path>: not valid UTF-8 (byte 0x.. at offset
N)``, N counted in bytes from the start of the file; exit code 2 at the
CLI.

A file is read as bytes, with ``os.open`` and ``os.read`` until the end,
and then decoded as strict UTF-8 in one call, so a decoding error names
its offset in the file.  Line ends are then translated as Python's
universal-newline text mode does: ``\r\n`` and a lone ``\r`` each become
``\n``; a byte-order mark is kept as a character.  This gives the text
``open(path, encoding="utf-8").read()`` gives, without building a
buffered text reader per file: a merge reads each file of three trees,
and almost all of them are the same in all three.
A text that does not parse raises ParseError naming the first version
that holds it, as in ``left/A.java:4:6: ...`` (merged text is
``merged/``); exit code 2 as well.

File-level rules: a file absent from the base is taken verbatim from the
branch that adds it; a file deleted by one branch and untouched by the other
is deleted; deletion against modification is a textual conflict too.
"""

from __future__ import annotations

import difflib
import os
import stat
import time
from dataclasses import dataclass, field
from pathlib import Path

from .parser import ParseError, parse_unit
from .peg import deferred_by_text
from .syntax import SourceFile


class UnreadableSource(Exception):
    """A source file cannot be read, or is not valid UTF-8."""

    def __init__(self, path: Path, exc: OSError | UnicodeDecodeError):
        if isinstance(exc, UnicodeDecodeError):
            cause = (f"not valid UTF-8 (byte 0x{exc.object[exc.start]:02x} "
                     f"at offset {exc.start})")
        else:
            cause = exc.strerror or str(exc)
        super().__init__(f"{path}: {cause}")
        self.path = path


class TextualConflict(Exception):
    def __init__(self, path: str, region: tuple[int, int] | None = None):
        where = f" lines {region[0]}-{region[1]}" if region else ""
        super().__init__(f"textual conflict in {path}{where}")
        self.path = path
        self.region = region


@dataclass
class _Edit:
    lo: int
    hi: int
    lines: list[str]


def _edits(base: list[str], changed: list[str]) -> list[_Edit]:
    matcher = difflib.SequenceMatcher(a=base, b=changed, autojunk=False)
    out = []
    for tag, a_lo, a_hi, b_lo, b_hi in matcher.get_opcodes():
        if tag != "equal":
            out.append(_Edit(a_lo, a_hi, changed[b_lo:b_hi]))
    return out


def _overlap(a: _Edit, b: _Edit) -> bool:
    """Whether two hunks over base lines [lo, hi) clash: they cover the
    same range (two insertions at one point included), or they share a
    base line.  Touching hunks, where one ends at the line the other
    starts, do not clash and merge side by side: edits to adjacent lines,
    and an insertion just before or just after a replaced range.  diff3
    and ``git merge-file`` report a conflict for touching hunks."""
    if a.lo == b.lo and a.hi == b.hi:
        return True
    return a.lo < b.hi and b.lo < a.hi


def merge_file(base: str, left: str, right: str, path: str = "<file>") -> str:
    base_l = base.splitlines(keepends=True)
    left_e = _edits(base_l, left.splitlines(keepends=True))
    right_e = _edits(base_l, right.splitlines(keepends=True))

    merged: list[_Edit] = []
    li = ri = 0
    while li < len(left_e) or ri < len(right_e):
        if ri >= len(right_e):
            merged.append(left_e[li]); li += 1
            continue
        if li >= len(left_e):
            merged.append(right_e[ri]); ri += 1
            continue
        le, re = left_e[li], right_e[ri]
        if _overlap(le, re):
            if le == re:
                merged.append(le)
                li += 1
                ri += 1
                continue
            raise TextualConflict(path, (min(le.lo, re.lo) + 1,
                                         max(le.hi, re.hi)))
        if (le.lo, le.hi) <= (re.lo, re.hi):
            merged.append(le); li += 1
        else:
            merged.append(re); ri += 1

    out: list[str] = []
    cursor = 0
    for e in merged:
        out.extend(base_l[cursor:e.lo])
        out.extend(e.lines)
        cursor = max(cursor, e.hi)
    out.extend(base_l[cursor:])
    return "".join(out)


@dataclass
class Record:
    """One run's CPU milliseconds by layer and its counters.  A lap charges
    the CPU time since the previous lap (or the record's start) to its
    layer, so every millisecond lands in exactly one layer; the layers
    are ``pipeline.STAGES``."""
    ms: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    _last: float = field(default_factory=time.process_time, repr=False)

    def lap(self, layer: str) -> None:
        now = time.process_time()
        self.ms[layer] = self.ms.get(layer, 0.0) + (now - self._last) * 1e3
        self._last = now


@dataclass
class MergeScenario:
    base: dict[str, SourceFile] = field(default_factory=dict)
    left: dict[str, SourceFile] = field(default_factory=dict)
    right: dict[str, SourceFile] = field(default_factory=dict)
    am: dict[str, SourceFile] = field(default_factory=dict)
    # the paths of the files every version shares whose bodies no graph
    # build reads: parse_versions recognizes their bodies without building
    # them, and build_fourway defers them (peg's "Deferred bodies")
    deferred: frozenset[str] = frozenset()
    # peg's unit facts of the files parse_versions read to pick deferred,
    # by (path, id of the SourceFile): the start of build_fourway's memo
    unit_facts: dict = field(default_factory=dict, compare=False, repr=False)
    # the run's layer times and counters, begun by merge_scenario
    record: Record = field(default_factory=Record, compare=False, repr=False)


def _read_tree(root: Path) -> dict[str, str]:
    """The source files below ``root`` by path relative to it, in sorted
    path order; raises UnreadableSource at the first that fails."""
    top = os.fspath(root)
    cut = len(os.path.join(top, ""))   # the length of "top/"
    found = []
    # rglob's selection: every entry named *.java, a directory too (its
    # open fails below), of every directory walked; os.walk, as rglob,
    # lists a symlinked directory but does not enter it
    for dirpath, dirnames, filenames in os.walk(top, onerror=_unlistable):
        prefix = dirpath[cut:] + "/" if len(dirpath) > len(top) else ""
        found += [prefix + name for names in (dirnames, filenames)
                  for name in names if name.endswith(".java")]
    files = {}
    for rel in sorted(found, key=lambda rel: rel.split("/")):
        files[rel] = _read_text(os.path.join(top, rel))
    return files


def _unlistable(exc: OSError):
    raise UnreadableSource(Path(exc.filename), exc) from None


def _read_text(path: str) -> str:
    """The text of one file, as the module docstring describes; raises
    UnreadableSource."""
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        try:
            chunks = []
            st = os.fstat(fd)
            if not (stat.S_ISREG(st.st_mode) or stat.S_ISDIR(st.st_mode)):
                raise OSError("not a regular file")
            # the file's size plus one, so a regular file takes one read
            # and the empty one after it
            size = st.st_size + 1
            while chunk := os.read(fd, size):
                chunks.append(chunk)
        finally:
            os.close(fd)
        text = b"".join(chunks).decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UnreadableSource(Path(path), exc) from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def merge_texts(base: dict[str, str], left: dict[str, str],
                right: dict[str, str]) -> dict[str, str]:
    """Merge three path->text maps; raises TextualConflict."""
    am: dict[str, str] = {}
    for path in sorted(set(base) | set(left) | set(right)):
        b, l, r = base.get(path), left.get(path), right.get(path)
        if b is None:
            if l is not None and r is not None:
                am[path] = l if l == r else merge_file("", l, r, path)
            else:
                am[path] = l if l is not None else r  # type: ignore[assignment]
            continue
        if l is None and r is None:
            continue  # deleted on both sides
        if l is None or r is None:
            survivor = l if l is not None else r
            if survivor == b:
                continue  # deleted on one side, untouched on the other
            raise TextualConflict(path)
        # one side unchanged, or both changed alike: merge_file would take
        # the other side's edits alone, which rebuild its text exactly
        if l == b:
            am[path] = r
        elif r == b or l == r:
            am[path] = l
        else:
            am[path] = merge_file(b, l, r, path)
    return am


def merge_scenario(base_dir: str | Path, left_dir: str | Path,
                   right_dir: str | Path) -> MergeScenario:
    record = Record()
    base = _read_tree(Path(base_dir))
    left = _read_tree(Path(left_dir))
    right = _read_tree(Path(right_dir))
    record.lap("read")
    am = merge_texts(base, left, right)
    record.lap("merge")
    scenario = parse_versions(base, left, right, am)
    scenario.record = record
    record.lap("parse")
    return scenario


def parse_versions(base: dict[str, str], left: dict[str, str],
                   right: dict[str, str], am: dict[str, str]) -> MergeScenario:
    """Parse four path->text maps into a scenario; raises ParseError.

    A file with the same text in every version (one that base, left and
    right share, merged) is one SourceFile in all four.  The files the
    versions do not all share are parsed first, and from them
    ``peg.deferred_by_text`` picks the shared files whose bodies no build
    of ``graph_diff.build_fourway`` reads, once per merge:
    ``MergeScenario.deferred``.  Those files have their method and
    constructor bodies recognized, not built (see ``parser``), and the
    builds defer them; any other shared file is parsed whole, since a body
    that is read builds its nodes then, at nearly the cost of a parse of
    its own.
    """
    versions = (("base", base), ("left", left), ("right", right),
                ("merged", am))
    # a file with the same text in several versions is parsed once and its
    # SourceFile shared; resolvers edit copy-on-write clones, which never
    # write a node of these trees
    parsed: dict[tuple[str, str], SourceFile] = {}
    shared = {path for path, text in base.items()
              if left.get(path) == text == right.get(path) == am.get(path)}
    scenario = MergeScenario()

    def parse(version: str, path: str, text: str) -> SourceFile:
        sf = parsed.get((path, text))
        if sf is None:
            try:
                sf = parsed[path, text] = parse_unit(
                    path, text, recognize_bodies=path in scenario.deferred)
            except ParseError as exc:
                raise ParseError(f"{version}/{path}", exc.line, exc.col,
                                 exc.message) from None
        return sf

    if shared:
        try:
            others = [{path: parse(version, path, text)
                       for path, text in files.items() if path not in shared}
                      for version, files in versions]
        except ParseError:
            pass    # the parse below raises the first error in order
        else:
            quiet = deferred_by_text(others, scenario.unit_facts)
            scenario.deferred = frozenset(path for path in shared
                                          if quiet(base[path]))
    for bucket, (version, files) in zip(("base", "left", "right", "am"),
                                        versions):
        setattr(scenario, bucket, {path: parse(version, path, text)
                                   for path, text in sorted(files.items())})
    return scenario
