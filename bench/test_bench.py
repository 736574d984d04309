"""Self-tests for the benchmark (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import workloads as W  # noqa: E402
from run import prepare  # noqa: E402
from worker import Runner, load_digests, measure, trace  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
CLI_METRICS = {"cli.import_s", "cli.interpreter_s"}  # measured by run.py, not the worker


@pytest.fixture
def work():
    path = ROOT / ".bench_work" / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass


def _tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_same_seed_same_input_bytes(work, workload):
    prepare(work / "a", workload, W.sequence(7)[: W.STRATA])
    prepare(work / "b", workload, W.sequence(7)[: W.STRATA])
    prepare(work / "c", workload, W.sequence(8)[: W.STRATA])
    assert _tree(work / "a") == _tree(work / "b")
    assert _tree(work / "a") != _tree(work / "c")


def test_sequence_blocks_cover_every_stratum_once():
    order = W.sequence(3)
    assert sorted(order) == [(s, m) for s in range(W.STRATA) for m in range(W.PER_STRATUM)]
    for b in range(0, len(order), W.STRATA):
        assert sorted(s for s, _ in order[b : b + W.STRATA]) == list(range(W.STRATA))


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_smoke_one_block(work, workload):
    prepare(work, workload, W.sequence(1)[: W.STRATA])
    ops = json.loads((work / "manifest.json").read_text(encoding="utf-8"))["ops"]
    runner = Runner(workload, work, load_digests()[workload])
    timed = measure(runner, ops, seconds=0, min_ops=W.STRATA)
    assert (timed["attempted"], timed["failed"]) == (W.STRATA, 0)
    traced = trace(runner, ops, blocks=1)
    assert traced["failed"] == 0
    assert runner.problems == []
    assert set(traced["metrics"]) | CLI_METRICS == PER_LAYER
    m = traced["metrics"]
    if workload == "check-zipf":
        assert m["pipeline.passes"] == m["pipeline.documents"] == W.STRATA
    if workload == "fix-dense":
        assert m["pipeline.windows_linted"] > m["pipeline.first_pass_windows"]
        assert m["pipeline.fixes_applied"] > 0
    if workload == "stats-corpus":
        assert m["corpus.files"] > 0 and m["pipeline.documents"] == 0


@pytest.mark.parametrize("trace_flag", [0, 1])
def test_printed_metric_names_match_benchmark_json(trace_flag):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", "stats-corpus",
           "--seed", "2", "--seconds", "0", "--trace", str(trace_flag)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == (PER_LAYER if trace_flag else END_TO_END)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert all(v["unit"] == units[name] for name, v in result["metrics"].items())


def test_fails_without_the_program(work):
    shutil.copytree(BENCH, work / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", work)
    cmd = [sys.executable, "bench/run.py", "--workload", "check-zipf",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=work, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
