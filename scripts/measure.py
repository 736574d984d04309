#!/usr/bin/env python3
"""Time `normalize` in check and fix mode, and trace one check run's memory.

For each --lines N the document is N lines drawn (seed 0) from the
sentences of make_synthetic_corpus.py, most of which carry a fixable
finding.  A fresh lexicon is loaded for each size, and one CHECK run
made right after it is traced: its tracemalloc peak is the memory
figure.  Then each mode runs three times untraced, and so does
``canonicalize`` alone, the first layer of both; the best time counts.
Last, CHECK runs on three documents of the same size made of fresh
random stems (seeds 1-3), words that miss the rule memo; the best
time counts.  Prints one row per size: chars, CHECK and FIX seconds,
FIX minus CHECK (the fix loop's own time, since FIX first lints as
CHECK does), FIX over CHECK, check throughput, check throughput on fresh
stems, peak bytes per input character, the seconds of ``canonicalize``
and the share of the wall time of one more CHECK run, made right after
the timed ones, spent in cyclic GC collections, timed by a
``gc.callbacks`` hook:

    python scripts/measure.py --lines 1000 10000 100000

It imports the src/nota of the checkout it sits in.
"""

from __future__ import annotations

import argparse
import gc
import random
import sys
import time
import tracemalloc
from functools import partial
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from make_synthetic_corpus import LINES  # noqa: E402
from nota import Mode, default_lexicon, normalize  # noqa: E402
from nota.script import LETTERS, canonicalize  # noqa: E402

RUNS = 3

# Stem letters: no matres, no hamza seats, no ة.
STEM_LETTERS = [ch for ch in LETTERS if ch not in "اىويةآءأؤإئ"]


def fresh_stems(size: int, seed: int) -> str:
    """``size`` characters of random stems of 4-7 letters, eight to a line."""
    rng = random.Random(seed)
    words: list[str] = []
    chars = 0
    while chars < size:
        words.append("".join(rng.choices(STEM_LETTERS, k=rng.randint(4, 7))))
        chars += len(words[-1]) + 1
    return "".join(w + ("\n" if i % 8 == 7 else " ") for i, w in enumerate(words))[:size]


def best_of(run: Callable[[str], object], texts: list[str]) -> float:
    times = []
    for text in texts:
        start = time.perf_counter()
        run(text)
        times.append(time.perf_counter() - start)
    return min(times)


def check_peak(text: str, lex) -> int:
    """The tracemalloc peak of one CHECK run, in bytes."""
    tracemalloc.start()
    normalize(text, lex, mode=Mode.CHECK)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def check_gc_share(text: str, lex) -> float:
    """The share of one CHECK run's wall time spent in cyclic GC."""
    spent = [0.0, 0.0]  # collection time so far, and the current one's start

    def timed(phase: str, info: dict) -> None:
        if phase == "start":
            spent[1] = time.perf_counter()
        else:
            spent[0] += time.perf_counter() - spent[1]

    gc.callbacks.append(timed)
    try:
        start = time.perf_counter()
        normalize(text, lex, mode=Mode.CHECK)
        wall = time.perf_counter() - start
    finally:
        gc.callbacks.remove(timed)
    return spent[0] / wall


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lines", type=int, nargs="+", default=[10_000])
    args = parser.parse_args()

    print(
        f"{'lines':>8} {'chars':>9} {'check_s':>8} {'fix_s':>8} {'fix-check_s':>11}"
        f" {'fix/check':>9} {'check_Mchar/s':>13} {'fresh_Mchar/s':>13} {'peak_B/char':>11}"
        f" {'canon_s':>8} {'gc_share':>8}"
    )
    for lines in args.lines:
        rng = random.Random(0)
        text = "\n".join(rng.choice(LINES) for _ in range(lines)) + "\n"
        lex = default_lexicon()
        peak = check_peak(text, lex)
        check_run = partial(normalize, lex=lex, mode=Mode.CHECK)
        check = best_of(check_run, [text] * RUNS)
        gc_share = check_gc_share(text, lex)
        fix = best_of(partial(normalize, lex=lex, mode=Mode.FIX), [text] * RUNS)
        canon = best_of(canonicalize, [text] * RUNS)
        fresh = best_of(check_run, [fresh_stems(len(text), seed) for seed in range(1, RUNS + 1)])
        print(
            f"{lines:>8} {len(text):>9} {check:>8.3f} {fix:>8.3f} {fix - check:>11.3f}"
            f" {fix / check:>9.2f} {len(text) / check / 1e6:>13.3f} {len(text) / fresh / 1e6:>13.3f}"
            f" {peak / len(text):>11.1f} {canon:>8.4f} {gc_share:>8.3f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
