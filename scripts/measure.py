#!/usr/bin/env python3
"""Time `normalize` in check and fix mode, and trace one check run's memory.

For each --lines N the document is N lines drawn (seed 0) from the
sentences of make_synthetic_corpus.py, most of which carry a fixable
finding.  A fresh lexicon is loaded for each size, and one CHECK run
made right after it is traced: its tracemalloc peak is the memory
figure.  Every timed round lints the same character budget, BUDGET: a
document shorter than that runs again and again, back to back, until
the round has linted at least BUDGET characters, so that every size
pays its share of cyclic GC collections and a small document is not
timed on a run that escaped them.  A round's time per document is its
wall time over its runs.  Each mode runs three rounds untraced, and so
does ``canonicalize`` alone, the first layer of both; the best round
counts.  Last, CHECK runs three rounds on documents of the same size cut
from fresh random stems (seeds 1-3), words that miss the rule memo; the
best round counts.  Prints one row per size: chars, CHECK and FIX
seconds per document, FIX minus CHECK (the fix loop's own time, since
FIX first lints as CHECK does), FIX over CHECK, check throughput, check
throughput on fresh stems, peak bytes per input character, the seconds
of ``canonicalize`` per document and the share of the wall time of one
more CHECK round, made right after the timed ones, spent in cyclic GC
collections, timed by a ``gc.callbacks`` hook:

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
# Characters each timed round lints, whatever the document's size.
BUDGET = 1_500_000

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


def copies(text: str) -> int:
    """How many runs of ``text`` lint at least BUDGET characters."""
    return -(-BUDGET // len(text))


def per_document(run: Callable[[str], object], texts: list[str]) -> float:
    """The seconds per document of ``run`` over ``texts``, back to back."""
    start = time.perf_counter()
    for text in texts:
        run(text)
    return (time.perf_counter() - start) / len(texts)


def best_of(run: Callable[[str], object], rounds: list[list[str]]) -> float:
    return min(per_document(run, texts) for texts in rounds)


def check_peak(text: str, lex) -> int:
    """The tracemalloc peak of one CHECK run, in bytes."""
    tracemalloc.start()
    normalize(text, lex, mode=Mode.CHECK)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def check_gc_share(texts: list[str], lex) -> float:
    """The share of one CHECK round's wall time spent in cyclic GC."""
    spent = [0.0, 0.0]  # collection time so far, and the current one's start

    def timed(phase: str, info: dict) -> None:
        if phase == "start":
            spent[1] = time.perf_counter()
        else:
            spent[0] += time.perf_counter() - spent[1]

    gc.callbacks.append(timed)
    try:
        start = time.perf_counter()
        for text in texts:
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
        n = copies(text)
        rounds = [[text] * n] * RUNS
        check_run = partial(normalize, lex=lex, mode=Mode.CHECK)
        check = best_of(check_run, rounds)
        gc_share = check_gc_share(rounds[0], lex)
        fix = best_of(partial(normalize, lex=lex, mode=Mode.FIX), rounds)
        canon = best_of(canonicalize, rounds)
        size = len(text)
        stems = [fresh_stems(size * n, seed) for seed in range(1, RUNS + 1)]
        fresh = best_of(check_run, [[s[k : k + size] for k in range(0, size * n, size)] for s in stems])
        print(
            f"{lines:>8} {len(text):>9} {check:>8.4f} {fix:>8.4f} {fix - check:>11.4f}"
            f" {fix / check:>9.2f} {len(text) / check / 1e6:>13.3f} {len(text) / fresh / 1e6:>13.3f}"
            f" {peak / len(text):>11.1f} {canon:>8.4f} {gc_share:>8.3f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
