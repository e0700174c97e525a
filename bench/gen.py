"""Seeded generator for the synthetic merge workloads.

Each workload is three Java source trees (base/, left/, right/) plus a
reference built by construction, not by mergeweaver: the build conflicts
the merge must report, as ``(type, subject)`` pairs, and for each one the
merged file a correct resolution produces.  The seed picks identifiers,
the order in which classes are laid out and the filler statements; the
shape of a workload (how many files, which edits, which conflicts) depends
only on its size parameters.

Standard library only.  ``generate`` builds a workload in memory and
``write_workload`` puts it on disk.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

NOUNS = (
    "Account", "Batch", "Cache", "Channel", "Cursor", "Digest", "Engine",
    "Filter", "Gateway", "Handle", "Index", "Journal", "Kernel", "Ledger",
    "Mapper", "Node", "Order", "Parcel", "Queue", "Record", "Schema",
    "Ticket", "Unit", "Vector", "Window", "Zone", "Anchor", "Bucket",
    "Cipher", "Driver", "Event", "Frame", "Graph", "Holder", "Item",
    "Joint", "Key", "Lease", "Meter", "Notice", "Option", "Packet",
)
ADJECTIVES = (
    "Async", "Basic", "Cached", "Direct", "Eager", "Fast", "Global",
    "Hybrid", "Inner", "Lazy", "Local", "Mutable", "Native", "Open",
    "Plain", "Quick", "Remote", "Shared", "Typed", "Virtual",
)
VERBS = (
    "apply", "build", "check", "compute", "drain", "emit", "fetch",
    "flush", "handle", "load", "merge", "probe", "process", "pull",
    "push", "query", "read", "scan", "sync", "tally", "update", "write",
)
PACKAGE_WORDS = (
    "acme", "billing", "core", "data", "engine", "grid", "infra", "ledger",
    "metrics", "orders", "portal", "relay", "store", "telemetry", "vault",
)
LOCALS = ("a", "b", "c", "d", "e", "k", "n", "q", "u", "v", "w", "z")

# Workload sizes used by the benchmark; tests use smaller ones.
DEFAULT_SIZES = {
    "method-rename": {"files": 120, "filler": 3},
    "package-rename": {"files": 24, "filler": 3},
    "rename-fanout": {"methods": 16, "callers": 4, "filler": 2},
}


@dataclass
class Workload:
    name: str
    base: dict[str, str] = field(default_factory=dict)
    left: dict[str, str] = field(default_factory=dict)
    right: dict[str, str] = field(default_factory=dict)
    # one entry per expected conflict: type, subject, the file a
    # resolution rewrites, its correct text, and the strategies that
    # must produce it
    conflicts: list[dict] = field(default_factory=list)

    def reference(self) -> dict:
        return {"workload": self.name, "conflicts": self.conflicts}


class _Names:
    """Distinct identifiers drawn from word lists by one seeded RNG."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def _fresh(self, make) -> str:
        for _ in range(1000):
            name = make()
            if name not in self.used:
                self.used.add(name)
                return name
        raise RuntimeError("identifier space exhausted")

    def cls(self) -> str:
        r = self.rng
        return self._fresh(lambda: r.choice(ADJECTIVES) + r.choice(NOUNS)
                           + str(r.randrange(10, 100)))

    def method(self) -> str:
        r = self.rng
        return self._fresh(lambda: r.choice(VERBS) + r.choice(NOUNS)
                           + str(r.randrange(10, 100)))

    def package(self, depth: int = 2) -> str:
        r = self.rng
        return self._fresh(lambda: ".".join(r.choice(PACKAGE_WORDS)
                                            for _ in range(depth)))


def _filler(rng: random.Random, count: int, param: str) -> list[str]:
    """Straight-line statements over one int parameter; shape is fixed by
    ``count``, operators and constants by the seed."""
    lines = []
    names = rng.sample(LOCALS, count)
    prev = param
    for name in names:
        op = rng.choice(("+", "-", "*"))
        lines.append(f"int {name} = {prev} {op} {rng.randrange(2, 50)};")
        prev = name
    lines.append(f"total = total + {prev};")
    return lines


def _method(sig: str, body: list[str]) -> list[str]:
    return [f"    public {sig} {{"] + [f"        {s}" for s in body] + ["    }"]


def _class(package: str, name: str, members: list[list[str]],
           imports: tuple[str, ...] = ()) -> str:
    out = [f"package {package};", ""]
    if imports:
        out += [f"import {i};" for i in imports] + [""]
    out.append(f"public class {name} {{")
    out.append("    private int total;")
    for m in members:
        out.append("")
        out += m
    out.append("}")
    return "\n".join(out) + "\n"


def _path(package: str, cls: str) -> str:
    return package.replace(".", "/") + f"/{cls}.java"


def method_rename(seed: int, files: int = 120, filler: int = 3) -> Workload:
    """A large project; left renames one method of the service class and
    adapts its one caller, right adds one new call to the old name in
    another class.  Expected: one C15, resolved by both strategies."""
    if files < 3:
        raise ValueError("method-rename needs at least 3 files")
    rng = random.Random(seed)
    names = _Names(rng)
    pkg = names.package()
    classes = [names.cls() for _ in range(files)]
    work = [names.method() for _ in range(files)]
    old, new, extra = names.method(), names.method(), names.method()
    svc = classes[0]
    host = rng.randrange(2, files)
    arg = rng.randrange(1, 10)
    bodies = [_filler(rng, filler, "x") for _ in range(files + 1)]

    def call_block(method: str) -> list[str]:
        return [f"{svc} s = new {svc}();", f"int r = s.{method}({arg});",
                "return r;"]

    def source(i: int, renamed: bool = False, add_call: bool = False) -> str:
        dep = (i + 1) % files
        members = [
            _method(f"int {work[i]}(int x)", bodies[i] + ["return total;"]),
            _method(f"int step{i}(int x)",
                    [f"{classes[dep]} d = new {classes[dep]}();",
                     f"int y = d.{work[dep]}(x);", "return y + total;"]),
        ]
        called = new if renamed else old
        if i == 0:
            members.append(_method(f"int {called}(int x)",
                                   bodies[files] + ["return total;"]))
        if i == 1:
            members.append(_method("int drive()", call_block(called)))
        if add_call:
            members.append(_method(f"int {extra}()", call_block(old)))
        return _class(pkg, classes[i], members)

    wl = Workload("method-rename")
    order = list(range(files))
    rng.shuffle(order)
    for i in order:
        path = _path(pkg, classes[i])
        wl.base[path] = source(i)
        wl.left[path] = source(i, renamed=i in (0, 1))
        wl.right[path] = source(i, add_call=i == host)
    merged_host = source(host, add_call=True).replace(f"s.{old}(",
                                                      f"s.{new}(")
    wl.conflicts.append({
        "type": "C15", "subject": f"{pkg}.{svc}.{old}(int)",
        "path": _path(pkg, classes[host]), "text": merged_host,
        "strategies": ["example", "rule"],
    })
    return wl


def package_rename(seed: int, files: int = 24, filler: int = 3) -> Workload:
    """Left moves every class to a new package, so no entity keeps its id;
    right adds a client in a third package that imports one class from the
    old package.  Expected: one C6, resolved by the rule strategy."""
    if files < 2:
        raise ValueError("package-rename needs at least 2 files")
    rng = random.Random(seed)
    names = _Names(rng)
    # the last segment of the package is renamed, as in most real moves
    prefix = names.package(2)
    old_seg, new_seg = rng.sample(PACKAGE_WORDS, 2)
    old_pkg, new_pkg = f"{prefix}.{old_seg}", f"{prefix}.{new_seg}"
    client_pkg = names.package(2)
    classes = [names.cls() for _ in range(files)]
    work = [names.method() for _ in range(files)]
    client, use = names.cls(), names.method()
    target = rng.randrange(files)
    bodies = [_filler(rng, filler, "x") for _ in range(files)]
    links = [rng.randrange(files) for _ in range(files)]

    def source(i: int, pkg: str) -> str:
        dep = links[i] if links[i] != i else (i + 1) % files
        members = [
            _method(f"int {work[i]}(int x)", bodies[i] + ["return total;"]),
            _method(f"int link{i}(int x)",
                    [f"{classes[dep]} d = new {classes[dep]}();",
                     f"return d.{work[dep]}(x);"]),
        ]
        return _class(pkg, classes[i], members)

    def client_source(pkg: str) -> str:
        body = [f"{classes[target]} t = new {classes[target]}();",
                f"return t.{work[target]}(x);"]
        return _class(client_pkg, client, [_method(f"int {use}(int x)", body)],
                      imports=(f"{pkg}.{classes[target]}",))

    wl = Workload("package-rename")
    order = list(range(files))
    rng.shuffle(order)
    for i in order:
        wl.base[_path(old_pkg, classes[i])] = source(i, old_pkg)
        wl.left[_path(new_pkg, classes[i])] = source(i, new_pkg)
        wl.right[_path(old_pkg, classes[i])] = source(i, old_pkg)
    client_path = _path(client_pkg, client)
    wl.right[client_path] = client_source(old_pkg)
    wl.conflicts.append({
        "type": "C6", "subject": old_pkg, "path": client_path,
        "text": client_source(new_pkg), "strategies": ["rule"],
    })
    return wl


def rename_fanout(seed: int, methods: int = 16, callers: int = 4,
                  filler: int = 2) -> Workload:
    """Left renames all methods of a hub class and adapts every caller;
    right adds one host that calls every old name.  Expected: one C15 per
    hub method, each resolved by both strategies from ``callers``
    mined examples."""
    if methods < 1 or callers < 1:
        raise ValueError("rename-fanout needs at least one method and caller")
    rng = random.Random(seed)
    names = _Names(rng)
    pkg = names.package()
    hub = names.cls()
    old = [names.method() for _ in range(methods)]
    new = [names.method() for _ in range(methods)]
    caller_classes = [names.cls() for _ in range(callers)]
    host_cls, host_method = names.cls(), names.method()
    hub_bodies = [_filler(rng, filler, "x") for _ in range(methods)]
    args = [rng.randrange(1, 10) for _ in range(methods)]
    order = list(range(methods))
    rng.shuffle(order)

    def hub_source(names_: list[str]) -> str:
        members = [_method(f"int {names_[i]}(int x)",
                           hub_bodies[i] + ["return total;"]) for i in order]
        return _class(pkg, hub, members)

    def calls(names_: list[str]) -> list[str]:
        body = [f"{hub} h = new {hub}();", "int s = 0;"]
        body += [f"s = s + h.{names_[i]}({args[i]});" for i in range(methods)]
        return body + ["return s;"]

    def caller_source(j: int, names_: list[str]) -> str:
        return _class(pkg, caller_classes[j],
                      [_method(f"int call{j}()", calls(names_))])

    def host_source(names_: list[str]) -> str:
        return _class(pkg, host_cls, [_method(f"int {host_method}()",
                                              calls(names_))])

    wl = Workload("rename-fanout")
    hub_path = _path(pkg, hub)
    wl.base[hub_path] = wl.right[hub_path] = hub_source(old)
    wl.left[hub_path] = hub_source(new)
    for j in rng.sample(range(callers), callers):
        path = _path(pkg, caller_classes[j])
        wl.base[path] = wl.right[path] = caller_source(j, old)
        wl.left[path] = caller_source(j, new)
    host_path = _path(pkg, host_cls)
    wl.right[host_path] = host_source(old)
    for i in range(methods):
        fixed = list(old)
        fixed[i] = new[i]
        wl.conflicts.append({
            "type": "C15", "subject": f"{pkg}.{hub}.{old[i]}(int)",
            "path": host_path, "text": host_source(fixed),
            "strategies": ["example", "rule"],
        })
    return wl


GENERATORS = {
    "method-rename": method_rename,
    "package-rename": package_rename,
    "rename-fanout": rename_fanout,
}


def generate(workload: str, seed: int, **sizes) -> Workload:
    params = dict(DEFAULT_SIZES[workload])
    params.update(sizes)
    return GENERATORS[workload](seed, **params)


def write_workload(wl: Workload, out_dir: Path) -> dict:
    """Write base/, left/, right/ and reference.json under ``out_dir``."""
    out_dir = Path(out_dir)
    for version in ("base", "left", "right"):
        root = out_dir / version
        root.mkdir(parents=True, exist_ok=True)
        for rel, text in getattr(wl, version).items():
            target = root / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text)
    ref = wl.reference()
    (out_dir / "reference.json").write_text(
        json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return ref
