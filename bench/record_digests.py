"""Record the output digest of every pool item into ``digests.json``.

    python3 bench/record_digests.py [WORKLOAD ...]

The worker's correctness gate compares each op's output with these
digests, so run this only on a commit whose outputs are known good (it
was run on the commit that added the benchmark) and only when the pool
itself changes.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads as W  # noqa: E402
from run import prepare  # noqa: E402
from worker import Runner, digest  # noqa: E402


def record(workload: str, work: Path) -> dict[str, str]:
    order = [(s, m) for s in range(W.STRATA) for m in range(W.PER_STRATUM)]
    prepare(work, workload, order)
    runner = Runner(workload, work, digests=None)
    ops = json.loads((work / "manifest.json").read_text(encoding="utf-8"))["ops"]
    out = {}
    for op in ops:
        inp = runner.load(op)
        out[op["key"]] = digest(runner.mode, inp, runner.call(inp))
    return out


def main(argv: list[str]) -> int:
    path = BENCH / "digests.json"
    digests = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for workload in argv or W.WORKLOADS:
        work = BENCH.parent / ".bench_work" / f"record-{workload}"
        try:
            digests[workload] = record(workload, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"{workload}: {len(digests[workload])} digests")
    path.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
