"""Reference mining for the view test in test_mining.py.

A test-only verbatim copy of ``mine_examples`` as mergeweaver had it
before a mined host became a view of its declarations: it deep-copies
both host declarations, renumbers each copy from 0 in pre-order, diffs
the copies and indexes the before copy by name a second time.  It shares
the unchanged helpers of ``mergeweaver.mining`` and memoizes in
``fw.mined`` as that did, so hand it a four-way graph of its own.  Keep it
as it is; it is the oracle, not a second implementation to maintain.
"""

from __future__ import annotations

from mergeweaver.conflicts import Conflict
from mergeweaver.graph_diff import FourWayGraph
from mergeweaver.inference import script_edits
from mergeweaver.mining import (_HOST_KINDS, EditExample, _references,
                                _subject_entities)
from mergeweaver.peg import Entity, lookup_uses
from mergeweaver.syntax import SyntaxTree, clone_node, name_index
from mergeweaver.tree_diff import diff_trees


def mine_examples(fw: FourWayGraph, conflict: Conflict) -> list[EditExample]:
    branch = conflict.branch_of_def
    delta = fw.delta_left if branch == "l" else fw.delta_right
    subject_base, subject_branch = _subject_entities(conflict.def_change)
    if subject_base is None:
        return []

    hosts: dict[str, Entity] = {}
    for src, _rel in lookup_uses(fw.base, subject_base):
        if src.kind in _HOST_KINDS:
            hosts[src.id] = src
    if subject_base.kind in ("class", "interface", "enum"):
        # declared-only uses (parameter and local types) leave no relation
        simple = subject_base.simple_name
        for ent in fw.base.entities.values():
            if ent.kind in _HOST_KINDS and ent.decl is not None \
                    and simple in fw.name_index(ent.decl):
                hosts.setdefault(ent.id, ent)

    examples: list[EditExample] = []
    for host_base in sorted(hosts.values(), key=lambda e: e.fqn):
        target_id = delta.matches.get(host_base.id)
        if target_id is None:
            continue
        host_branch = delta.target.by_id(target_id)
        if host_base.decl is None or host_branch.decl is None:
            continue
        if subject_branch is not None:
            adapted = _references(delta.target, host_branch, subject_branch)
            if not adapted and subject_branch.kind in ("class", "interface",
                                                       "enum"):
                adapted = subject_branch.simple_name \
                    in fw.name_index(host_branch.decl)
            if not adapted:
                continue
        key = (branch, host_base.id, target_id)
        if key not in fw.mined:
            before = SyntaxTree(clone_node(host_base.decl), assign_ids=True)
            after = SyntaxTree(clone_node(host_branch.decl), assign_ids=True)
            script = diff_trees(before, after)
            fw.mined[key] = EditExample(
                host_base.fqn, host_base.kind, branch, before, after, script,
                script_edits(before, script), name_index(before.root)
            ) if script else None
        if fw.mined[key] is not None:
            examples.append(fw.mined[key])
    return examples
