#!/usr/bin/env python3
"""Run the benchmark in alternating pairs against an earlier commit and
write the results to ``BENCH_<pr>.json``.

    python3 scripts/bench_pairs.py --pr N --against REV --pairs 10

The earlier commit, REV, is exported with ``git archive`` into a
temporary directory, removed at the end; no worktree or other ``.git``
state is made.  The other side is the checkout this script sits in, as
it is on disk.  Pair k runs ``python3 bench/run.py --workload W --seed
k+1 --seconds T --trace 0`` once in each tree, REV first on even k and
the checkout first on odd k, for every workload that ``BENCHMARK.json``
lists, T being its ``run_seconds``.  The runs get the caller's
environment without ``PYTHONDONTWRITEBYTECODE``, so that each writes the
bytecode its cold starts read.

For each workload and each end-to-end metric of ``BENCHMARK.json`` the
file holds, per side, the median, the quartiles and the raw values in
pair order, and the pairs the checkout won, by the metric's direction.
A metric is "unresolved" where REV's interquartile spread, over its
median, exceeds the metric's bound: such runs spread too widely to tell
a change within the bound.  A pair where a side gave no result (it
exited 2, or printed no JSON line) counts in neither side; it is kept
under ``failed_pairs``.  The file is rewritten after every pair, so an
interrupted run leaves the pairs made so far.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def export(rev: str, dest: Path) -> str:
    """Unpack ``rev`` of the checkout into ``dest``; return its commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", rev + "^{commit}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    tar = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        # The ``filter`` argument came with Python 3.12, 3.11.4 and 3.10.12;
        # the archive is the repo's own, so older Pythons unpack it without.
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dest, filter="data")
        else:
            archive.extractall(dest)
    return commit


def run_bench(tree: Path, workload: str, seed: int, seconds: float, env: dict[str, str]) -> dict:
    """One ``bench/run.py`` run in ``tree``: its JSON result and exit code,
    or the error that kept it from giving one."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    try:
        done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=seconds + 300)
    except subprocess.TimeoutExpired:
        return {"error": "timed out"}
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"returncode": done.returncode, "error": done.stderr.strip()[-500:]}
    return {"returncode": done.returncode, **result}


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def workload_report(runs: list[dict], metrics: list[dict]) -> dict:
    """The per-metric summary of one workload's pairs."""
    done = [run for run in runs if all("metrics" in run[side] for side in SIDES)]
    out: dict = {
        "pairs": len(done),
        "correct": {side: [run[side]["correct"] for run in done] for side in SIDES},
        "failed_ops": {side: [run[side]["failed"] for run in done] for side in SIDES},
        "failed_pairs": [run for run in runs if run not in done],
        "metrics": {},
    }
    if not done:
        return out
    for spec in metrics:
        name, higher = spec["name"], spec["better"] == "higher"
        values = {side: [run[side]["metrics"][name]["value"] for run in done] for side in SIDES}
        wins = sum((c > p) if higher else (c < p) for p, c in zip(values["parent"], values["change"]))
        parent, change = summary(values["parent"]), summary(values["change"])
        spread = (parent["q3"] - parent["q1"]) / parent["median"] if parent["median"] else 0.0
        out["metrics"][name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "parent": parent,
            "change": change,
            "change_wins": wins,
            "delta_frac": (change["median"] - parent["median"]) / parent["median"] if parent["median"] else 0.0,
            "parent_iqr_frac": spread,
            "unresolved": spread > spec["bound"],
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--pr", type=int, required=True, help="the number in BENCH_<pr>.json")
    parser.add_argument("--against", required=True, help="the commit to compare with, e.g. HEAD~1")
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    out_path = ROOT / f"BENCH_{args.pr}.json"
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent_tree = Path(tmp)
        commit = export(args.against, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for k in range(args.pairs):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                run = {"seed": k + 1, "first": order[0]}
                for side in order:
                    run[side] = run_bench(trees[side], workload, k + 1, seconds, env)
                    value = run[side].get("metrics", {}).get("throughput_kchar_s", {}).get("value")
                    print(f"pair {k} {workload} {side}: throughput_kchar_s {value}", file=sys.stderr)
                runs[workload].append(run)
            doc = {
                "pr": args.pr,
                "against": {"rev": args.against, "commit": commit},
                "command": f"bench/run.py --seconds {seconds:g} --trace 0",
                "seeds": list(range(1, k + 2)),
                "python": platform.python_version(),
                "workloads": {w: workload_report(runs[w], spec["end_to_end"]) for w in workloads},
            }
            out_path.write_text(json.dumps(doc, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {out_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
