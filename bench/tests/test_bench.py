"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import copy
import filecmp
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

TINY = {
    "method-rename": {"files": 5, "filler": 1},
    "package-rename": {"files": 3, "filler": 1},
    "rename-fanout": {"methods": 3, "callers": 2, "filler": 1},
}
SYNTHETIC = sorted(TINY)


def _write(workload: str, seed: int, out: Path) -> dict:
    return gen.write_workload(gen.generate(workload, seed, **TINY[workload]),
                              out)


def _same_tree(a: Path, b: Path) -> bool:
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.funny_files:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files,
                                           shallow=False)
    if mismatch or errors:
        return False
    return all(_same_tree(a / d, b / d) for d in cmp.common_dirs)


@pytest.mark.parametrize("workload", SYNTHETIC)
def test_same_seed_same_bytes(workload, tmp_path):
    _write(workload, 7, tmp_path / "a")
    _write(workload, 7, tmp_path / "b")
    assert _same_tree(tmp_path / "a", tmp_path / "b")


@pytest.mark.parametrize("workload", SYNTHETIC)
def test_other_seed_other_bytes(workload, tmp_path):
    ref_a = _write(workload, 7, tmp_path / "a")
    ref_b = _write(workload, 8, tmp_path / "b")
    assert not _same_tree(tmp_path / "a", tmp_path / "b")
    # ... but the same shape
    assert [c["type"] for c in ref_a["conflicts"]] == \
        [c["type"] for c in ref_b["conflicts"]]


def test_tokens_ignore_layout_and_comments():
    assert check.tokens("a  =b+ 1; // x\n/* y */") == \
        ["a", "=", "b", "+", "1", ";"]
    assert check.tokens('s = "a b";') == ["s", "=", '"a b"', ";"]
    assert check.tokens("x >>= 2") != check.tokens("x > >= 2")


def test_golden_key_holds_the_contract_figures():
    # reproducing every golden verdict reproduces these figures
    golden = check.load_golden(ROOT / "corpus")
    assert len(golden) == 43
    for strategy, produced, correct in (("example", 11, 9),
                                        ("rule", 33, 31)):
        verdicts = [g[strategy] for g in golden.values()]
        assert sum(v is not None for v in verdicts) == produced
        assert verdicts.count("correct") == correct


def _worker(mode: str, *args, hashseed: str = "0") -> dict:
    env = run._worker_env()
    env["PYTHONHASHSEED"] = hashseed
    proc = subprocess.run(
        [sys.executable, "-s", str(BENCH / "worker.py"), str(ROOT), mode,
         *map(str, args)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def fanout(tmp_path_factory):
    out = tmp_path_factory.mktemp("wl") / "rename-fanout"
    ref = _write("rename-fanout", 3, out)
    return out, ref, _worker("scenario", out)["output"]


def test_reference_check_accepts_the_program(fanout):
    _, ref, output = fanout
    score = check.score_synthetic(ref, output)
    assert score.failures == []
    assert score.found == score.expected == 3
    assert score.correct["rule"] == score.produced["rule"] == 3


def test_corrupted_resolution_is_caught(fanout):
    _, ref, output = fanout
    good = check.score_synthetic(ref, output)
    bad_output = copy.deepcopy(output)
    i = next(i for i, r in enumerate(bad_output["report"]["resolutions"])
             if r["strategy"] == "rule")
    bad_output["texts"][i] = bad_output["texts"][i].replace("return",
                                                            "retrun", 1)
    bad = check.score_synthetic(ref, bad_output)
    assert bad.correct["rule"] == good.correct["rule"] - 1


def test_missing_or_spurious_conflict_fails(fanout):
    _, ref, output = fanout
    fewer = copy.deepcopy(output)
    fewer["report"]["resolutions"] = [
        r for r in fewer["report"]["resolutions"] if r["strategy"] != "rule"]
    fewer["texts"] = [t for r, t in zip(output["report"]["resolutions"],
                                        output["texts"])
                      if r["strategy"] != "rule"]
    assert check.score_synthetic(ref, fewer).failed == 1
    extra = copy.deepcopy(output)
    extra["report"]["conflicts"].append(
        {"type": "C1", "subject": "nowhere.Nothing"})
    score = check.score_synthetic(ref, extra)
    assert score.failed == 1 and score.spurious == 1
    assert check.score_synthetic(ref, None, "boom").failed == 1


def test_corrupted_corpus_resolution_is_caught():
    golden = check.load_golden(ROOT / "corpus")
    name = "rule-c15"
    out = _worker("corpus-runs")["output"]
    runs = out["runs"]
    assert check.verify_corpus(golden, ROOT / "corpus", runs).failures == []
    broken = copy.deepcopy(runs)
    broken[name]["texts"][0] = broken[name]["texts"][0].replace("start(",
                                                                "play(")
    failures = check.verify_corpus(golden, ROOT / "corpus", broken).failures
    assert failures and failures[0].startswith(name)


def test_reports_do_not_depend_on_hash_seed(fanout):
    out, _, output = fanout
    other = _worker("scenario", out, hashseed="12345")["output"]
    assert json.dumps(other, sort_keys=True) == \
        json.dumps(output, sort_keys=True)


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
def test_result_shape(trace, monkeypatch):
    monkeypatch.setattr(gen, "DEFAULT_SIZES", TINY)
    result = run.run(ROOT, "rename-fanout", 5, 1, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = _benchmark_json()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    assert not (ROOT / ".bench_work" / str(os.getpid())).exists()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
