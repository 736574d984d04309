"""Benchmark entry point: one workload, end to end or traced per layer.

    python3 bench/run.py --workload check-zipf --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program is the checkout's
``src/nota``; nothing is installed.  This process generates the seeded
inputs under ``.bench_work/``, times CLI cold starts in fresh
interpreters, and runs ``worker.py`` in a separate process, so that
neither the generator nor this process counts toward the measured
memory.  Times are scaled to a nominal host speed (``calibrate.py``);
the raw figures are printed next to them.  It prints every metric with
its unit, then, as the last line, one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``).  The exit status is 0 when the outputs were correct, 1
when a correctness check failed and 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as W
from calibrate import BARE_START_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEADLINE_S = 165  # the whole run, worker included
# Blocks of inputs written per run; a run that needs more cycles through
# them again.  stats-corpus, the workload with the most operations, runs
# about 30 blocks in 30 s at the commit that added the benchmark.
PREPARED_BLOCKS = 48

# Timed cold starts per run, half before and half after the worker so that
# they sample the host over the whole run; one more runs first to write
# the bytecode.
COLD_STARTS = 16
COLD_LINE = "باش نمشي\n"
COLD_EXPECTED = (
    "one.txt:0-3: warning R-FUT: future marker before a verb is written بش"
    " (باش means 'with what') -> بش\n"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_kchar_s": "kchar/s",
    "doc_p50_ms": "ms",
    "doc_p90_ms": "ms",
    "peak_rss_mib": "MiB",
    "ok_frac": "frac",
}


class BenchError(Exception):
    pass


def prepare(work: Path, workload: str, order: list[tuple[int, int]]) -> None:
    """Write the inputs for ``order`` and a manifest the worker reads."""
    mode = W.SPECS[workload].mode
    ops = []
    for stratum, member in order:
        key = W.pool_key(stratum, member)
        if mode == "stats":
            files = W.stats_shard(stratum, member)
            path = f"shards/{key}"
            W.write_shard(work / path, files)
            op = {"chars": W.shard_chars(files), "size": len(files),
                  "bytes": sum(map(len, files.values()))}
        else:
            text = W.check_document(stratum, member) if mode == "check" else W.fix_document(stratum, member)
            path = f"docs/{key}.txt"
            (work / "docs").mkdir(parents=True, exist_ok=True)
            (work / path).write_text(text, encoding="utf-8")
            op = {"chars": len(text), "size": text.count("\n"), "bytes": len(text.encode("utf-8"))}
        ops.append({"key": key, "path": path, **op})
    (work / "manifest.json").write_text(json.dumps({"ops": ops}), encoding="utf-8")


def _timed(cmd: list[str], env: dict[str, str], cwd: Path) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(cmd[1:])} did not finish within 60 s") from exc
    return time.perf_counter() - start, proc


def cold_starts(env: dict[str, str], work: Path, n: int) -> list[tuple[float, float]]:
    """``n`` pairs of wall times: a bare interpreter start, then
    ``nota normalize --check`` on a one-line file."""
    (work / "one.txt").write_text(COLD_LINE, encoding="utf-8")
    cmd = [sys.executable, "-m", "nota.cli", "normalize", "--check", "one.txt"]
    pairs = []
    for _ in range(n):
        bare, _ = _timed([sys.executable, "-c", "pass"], env, work)
        elapsed, proc = _timed(cmd, env, work)
        if proc.returncode != 1 or proc.stdout != COLD_EXPECTED:
            raise BenchError(f"cold start gave exit {proc.returncode}, output {proc.stdout!r}, {proc.stderr!r}")
        pairs.append((bare, elapsed))
    return pairs


def cli_layer(env: dict[str, str], work: Path) -> dict[str, float]:
    """Bare interpreter start, and what ``import nota.cli`` adds to it."""
    bare, imports = [], []
    for _ in range(COLD_STARTS + 1):
        bare.append(_timed([sys.executable, "-c", "pass"], env, work)[0])
        elapsed, proc = _timed([sys.executable, "-c", "import nota.cli"], env, work)
        if proc.returncode != 0:
            raise BenchError(f"import nota.cli failed: {proc.stderr}")
        imports.append(elapsed)
    interpreter = statistics.median(bare[1:])
    return {"cli.interpreter_s": interpreter, "cli.import_s": statistics.median(imports[1:]) - interpreter}


def run_worker(args: argparse.Namespace, env: dict[str, str], work: Path, deadline: float) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--work", str(work),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {DEADLINE_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def report(args: argparse.Namespace, result: dict, metrics: dict[str, tuple[float, str]], notes: dict[str, str]) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"operations {attempted}  failed {failed}  failed_frac {failed / attempted:.4g}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit:8s} {notes.get(name, '')}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", ".fix_yield")) or ".self_share_" in name:
        return "frac"
    if name.endswith("_slowdown"):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=W.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "nota" / "__init__.py").is_file():
        print(f"bench: no program to measure: {SRC / 'nota'} is missing", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(SRC))
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        prepare(work, args.workload, W.sequence(args.seed)[: PREPARED_BLOCKS * W.STRATA])
        notes: dict[str, str] = {}
        if args.trace:
            cli = cli_layer(env, work)
            result = run_worker(args, env, work, deadline)
            layer = {**result["metrics"], **cli}
            metrics = {name: (value, per_layer_unit(name)) for name, value in sorted(layer.items())}
        else:
            starts = cold_starts(env, work, COLD_STARTS // 2 + 1)[1:]
            result = run_worker(args, env, work, deadline)
            starts += cold_starts(env, work, COLD_STARTS - len(starts))
            setup_raw = statistics.median(cold for _, cold in starts)
            raw = result["raw"]
            values = {
                "setup_s": statistics.median(cold / bare for bare, cold in starts) * BARE_START_S,
                "throughput_kchar_s": result["throughput_kchar_s"],
                "doc_p50_ms": result["doc_p50_ms"],
                "doc_p90_ms": result["doc_p90_ms"],
                "peak_rss_mib": result["peak_rss_mib"],
                "ok_frac": 1 - result["failed"] / result["attempted"],
            }
            metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
            ops = f"{result['attempted']} ops"
            notes = {
                "setup_s": f"median of {len(starts)} cold starts; raw {setup_raw:.4g}",
                "throughput_kchar_s": f"{ops}; raw {raw['throughput_kchar_s']:.4g}",
                "doc_p50_ms": f"{ops}; raw {raw['doc_p50_ms']:.4g}",
                "doc_p90_ms": f"{ops}; raw {raw['doc_p90_ms']:.4g}",
                "ok_frac": f"{ops}; host slowdown {raw['slowdown']:.3f}",
            }
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    report(args, result, metrics, notes)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
