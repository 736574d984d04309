#!/usr/bin/env python3
"""Time `normalize` in check and in fix mode on one synthetic document.

The document is N lines drawn (seed 0) from the sentences of
make_synthetic_corpus.py, most of which carry a fixable finding.  Each
mode runs three times with one lexicon; the best time counts.  Prints
the size, both times, their ratio and the check throughput:

    python scripts/fix_check_ratio.py --lines 10000

It imports the src/nota of the checkout it sits in.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from make_synthetic_corpus import LINES  # noqa: E402
from nota import Mode, default_lexicon, normalize  # noqa: E402

RUNS = 3


def best_of(text: str, lex, mode: Mode) -> float:
    times = []
    for _ in range(RUNS):
        start = time.perf_counter()
        normalize(text, lex, mode=mode)
        times.append(time.perf_counter() - start)
    return min(times)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lines", type=int, default=10_000)
    args = parser.parse_args()

    rng = random.Random(0)
    text = "\n".join(rng.choice(LINES) for _ in range(args.lines)) + "\n"
    lex = default_lexicon()
    check = best_of(text, lex, Mode.CHECK)
    fix = best_of(text, lex, Mode.FIX)
    print(f"{'lines':>8} {'chars':>9} {'check_s':>8} {'fix_s':>8} {'fix/check':>9} {'check_Mchar/s':>13}")
    print(
        f"{args.lines:>8} {len(text):>9} {check:>8.3f} {fix:>8.3f}"
        f" {fix / check:>9.2f} {len(text) / check / 1e6:>13.3f}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
