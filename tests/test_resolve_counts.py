"""Per-conflict inference does not grow with the project: counts, not times.

On rename-fanout every conflict is one renamed hub method, whatever the
number of hub methods, so what inferring its pattern reads should not
depend on that number either.  The op entries each inference reads of
its mined host's script (the script, each op's target and statement, and
the op lists of the script's indexes, see ``inference.refine_edits``),
counted by lists that count their reads, must be equal at 16 and at 64
hub methods.

The same run also checks the rest of the resolve stage: every conflict
is resolved by both strategies.
"""

from conftest import bench_gen
from mergeweaver import matching
from mergeweaver.conflicts import detect_conflicts
from mergeweaver.graph_diff import build_fourway
from mergeweaver.inference import infer_pattern
from mergeweaver.merge3 import merge_scenario
from mergeweaver.mining import mine_examples
from mergeweaver.rules import resolve_by_rule


class Counted(list):
    """A list that counts the entries read from it, by index or in a
    loop."""
    reads = 0

    def __getitem__(self, index):
        item = super().__getitem__(index)
        Counted.reads += len(item) if isinstance(index, slice) else 1
        return item

    def __iter__(self):
        for item in super().__iter__():
            Counted.reads += 1
            yield item


def _count_reads(example) -> None:
    """Make every per-op list of a mined example count its reads."""
    if isinstance(example.script, Counted):
        return
    edits = example.edits
    example.script = Counted(example.script)
    example.edits = edits._replace(
        targets=Counted(edits.targets), stmt_ids=Counted(edits.stmt_ids),
        by_target={k: Counted(v) for k, v in edits.by_target.items()},
        by_stmt={k: Counted(v) for k, v in edits.by_stmt.items()})


def _counts(tmp_path, methods: int) -> tuple[set, int]:
    out = tmp_path / str(methods)
    bench_gen.write_workload(
        bench_gen.generate("rename-fanout", 1, methods=methods), out)
    scenario = merge_scenario(out / "base", out / "left", out / "right")
    fw = build_fourway(scenario)
    visits, resolved = set(), 0
    conflicts = detect_conflicts(fw)
    for conflict in conflicts:
        member = matching._merged_member(fw, conflict.using_am)
        candidates = []
        for example in mine_examples(fw, conflict):
            _count_reads(example)
            before = Counted.reads
            pattern = infer_pattern(example, conflict)
            visits.add(Counted.reads - before)
            candidates.append((pattern, matching.match_context(pattern,
                                                               member)))
        am_file = scenario.am[conflict.sites[0].file]
        pattern, match_set = matching.rank_candidates(candidates)[0]
        assert matching.apply_pattern(pattern, match_set, conflict, am_file,
                                      fw.scorer.print_memo) is not None
        assert resolve_by_rule(fw, conflict, scenario).reason == "resolved"
        resolved += 1
    assert resolved == len(conflicts) == methods
    return visits, len(candidates)


def test_ops_per_inference_do_not_grow(tmp_path):
    small, large = _counts(tmp_path, 16), _counts(tmp_path, 64)
    assert small == large
    visits, examples = small
    assert examples == 4                # one per adapted caller
    # the kept op read a few times over
    assert max(visits) <= 12, small
