"""The measured process: one workload, one closed-loop caller, no threads.

``run.py`` writes the inputs and starts this script with the checkout's
``src`` on ``PYTHONPATH``.  The process holds the program and one input
at a time, so its peak resident memory is the program's.  Every output
passes the correctness gate outside the timed call.  The last line of
standard output is a JSON object for ``run.py``.

Untraced: ops run in blocks of ``STRATA`` until ``--seconds`` have
passed and at least ``MIN_OPS`` ran; each op's time is scaled by the
host slowdown measured right around it (``calibrate.py``).  Traced: the first
``TRACE_BLOCKS`` blocks run twice each, untraced and traced in
alternating order, so the totals cover the same ops on every commit and
the two timings give the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable

import workloads as W
from calibrate import reference_seconds, slowdown
from tracer import Tracer

from nota import Mode, collect_stats, default_lexicon, normalize, report_to_json

BENCH = Path(__file__).resolve().parent
MODES = {"check": Mode.CHECK, "fix": Mode.FIX}
REPEAT_EVERY = 8  # stats ops whose report is rebuilt to check it is byte-identical
MIN_OPS = 100  # so that p90 has at least ten samples beyond it
TRACE_BLOCKS = 4


def load_digests() -> dict[str, dict[str, str]]:
    return json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))


def digest(mode: str, text: str, out: Any) -> str:
    """Digest of what a user sees: the fixed text, or the diagnostics, or the report."""
    if mode == "stats":
        payload = out
    elif mode == "fix":
        payload = out.output
    else:
        payload = json.dumps(
            [out.output == text]
            + [[d.rule, d.start, d.end, d.severity.name, d.message, d.replacement]
               for d in out.diagnostics],
            ensure_ascii=False,
        )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class Runner:
    """Calls the program for one op and checks what it returned."""

    def __init__(self, workload: str, work: Path, digests: dict[str, str] | None) -> None:
        self.mode = W.SPECS[workload].mode
        self.work = work
        self.digests = digests
        self.lex = default_lexicon()
        self.problems: list[str] = []

    def load(self, op: dict) -> Any:
        path = self.work / op["path"]
        return path if self.mode == "stats" else path.read_text(encoding="utf-8")

    def call(self, inp: Any, normalize_fn: Callable = normalize,
             collect_fn: Callable = collect_stats, to_json_fn: Callable = report_to_json) -> Any:
        if self.mode == "stats":
            return to_json_fn(collect_fn(inp, self.lex))
        return normalize_fn(inp, self.lex, mode=MODES[self.mode])

    def gate(self, op: dict, inp: Any, out: Any, index: int) -> bool:
        """True if the output passes every check; records why not."""
        key = op["key"]
        why = []
        if self.digests is not None and digest(self.mode, inp, out) != self.digests.get(key):
            why.append("output digest differs from the recorded one")
        if self.mode == "stats":
            if index % REPEAT_EVERY == 0 and self.call(inp) != out:
                why.append("stats report differs on a repeat")
        else:
            n = len(inp)
            if any(not 0 <= d.start <= d.end <= n for d in out.diagnostics):
                why.append("a diagnostic span lies outside the input")
            if self.mode == "check" and out.output != inp:
                why.append("check mode changed the text")
            if self.mode == "fix" and out.output != W.expected_fix(inp):
                why.append("fix output differs from the hand-written fixes")
        for w in why:
            self.problems.append(f"{key}: {w}")
        return not why

    def check_fix_table(self) -> None:
        """Each table line fixes to its hand-written line, alone and after any other."""
        for line, _ in W.FIX_TABLE:
            for before, _ in W.FIX_TABLE:
                doc = f"{before}\n{line}\n"
                if normalize(doc, self.lex, mode=Mode.FIX).output != W.expected_fix(doc):
                    self.problems.append(f"fix table: {before!r} then {line!r} does not fix line by line")


def run_op(runner: Runner, op: dict, **fns: Callable) -> tuple[float, Any, Any, bool]:
    """One timed call; an exception counts as a failed op."""
    inp = runner.load(op)
    start = time.perf_counter()
    try:
        out = runner.call(inp, **fns)
    except Exception:
        elapsed = time.perf_counter() - start
        runner.problems.append(f"{op['key']}: raised {traceback.format_exc(limit=3)}")
        return elapsed, inp, None, False
    elapsed = time.perf_counter() - start
    return elapsed, inp, out, True


def warm_up(runner: Runner, ops: list[dict]) -> None:
    """Fill the page cache and run the code once before timing."""
    if runner.mode == "stats":
        for op in ops:
            for path in (runner.work / op["path"]).rglob("*"):
                if path.is_file():
                    path.read_bytes()
    runner.call(runner.load(ops[0]))


def measure(runner: Runner, ops: list[dict], seconds: float, min_ops: int) -> dict:
    """Closed loop over whole blocks; each op's time is scaled by the host
    slowdown measured by the reference loops right before and after it."""
    latencies: list[float] = []
    refs = [reference_seconds()]
    chars = failed = 0
    start = time.perf_counter()
    i = 0
    while not (i % W.STRATA == 0 and i >= min_ops and time.perf_counter() - start >= seconds):
        op = ops[i % len(ops)]
        elapsed, inp, out, ok = run_op(runner, op)
        refs.append(reference_seconds())
        ok = ok and runner.gate(op, inp, out, i)
        latencies.append(elapsed)
        chars += op["chars"]
        failed += not ok
        i += 1
    scaled = [t / slowdown(refs[k : k + 2]) for k, t in enumerate(latencies)]
    return {
        "attempted": i,
        "failed": failed,
        "throughput_kchar_s": chars / sum(scaled) / 1000,
        "doc_p50_ms": statistics.median(scaled) * 1000,
        "doc_p90_ms": statistics.quantiles(scaled, n=10)[8] * 1000,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "raw": {
            "slowdown": slowdown(refs),
            "throughput_kchar_s": chars / sum(latencies) / 1000,
            "doc_p50_ms": statistics.median(latencies) * 1000,
            "doc_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1000,
        },
    }


def trace(runner: Runner, ops: list[dict], blocks: int) -> dict:
    tracer = Tracer()
    fns = {
        "normalize_fn": tracer.wrap("pipeline.normalize", normalize),
        "collect_fn": tracer.wrap("corpus.collect_stats", collect_stats),
        "to_json_fn": tracer.wrap("corpus.report_to_json", report_to_json),
    }
    plain_s = traced_s = 0.0
    failed = 0
    refs = []
    n = min(len(ops), blocks * W.STRATA)
    for i, op in enumerate(ops[:n]):
        refs.append(reference_seconds())
        for traced in ((False, True) if i % 2 else (True, False)):
            if traced:
                with tracer.installed():
                    elapsed, inp, out, ok = run_op(runner, op, **fns)
                traced_s += elapsed
            else:
                elapsed, inp, out, ok = run_op(runner, op)
                plain_s += elapsed
            if not (ok and runner.gate(op, inp, out, i)):
                failed += 1
                tracer.spans.clear()  # a call that raised left spans without a result
                break
        tracer.fold(lines=op["size"], bytes_read=op["bytes"])
    tracer.check_fired(runner.mode)
    lex_times = []
    for _ in range(5):
        start = time.perf_counter()
        default_lexicon()
        lex_times.append(time.perf_counter() - start)
    metrics = tracer.metrics()
    metrics["lexicon.default_lexicon_s"] = statistics.median(lex_times)
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1
    metrics["trace.operations"] = n
    metrics["trace.host_slowdown"] = slowdown(refs)
    return {"attempted": n, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=W.WORKLOADS, required=True)
    p.add_argument("--work", type=Path, required=True, help="directory run.py prepared")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    manifest = json.loads((args.work / "manifest.json").read_text(encoding="utf-8"))
    ops = manifest["ops"]
    runner = Runner(args.workload, args.work, load_digests()[args.workload])
    if runner.mode == "fix":
        runner.check_fix_table()
    warm_up(runner, ops)
    if args.trace:
        result = trace(runner, ops, TRACE_BLOCKS)
    else:
        result = measure(runner, ops, args.seconds, MIN_OPS)
    result["problems"] = runner.problems[:20]
    result["correct"] = not runner.problems
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
