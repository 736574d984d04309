#!/usr/bin/env python3
"""Measure the memory one check-mode `normalize` allocates on a large document.

The document is N lines drawn (seed 0) from the sentences of
make_synthetic_corpus.py, as in fix_check_ratio.py.  The lexicon is
loaded and the document built before tracing starts; the peak is what
tracemalloc saw allocated during one CHECK run.  Prints the size, the
peak and the peak per input character:

    python scripts/peak_memory.py --lines 100000

It imports the src/nota of the checkout it sits in.
"""

from __future__ import annotations

import argparse
import random
import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from make_synthetic_corpus import LINES  # noqa: E402
from nota import Mode, default_lexicon, normalize  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lines", type=int, default=10_000)
    args = parser.parse_args()

    rng = random.Random(0)
    text = "\n".join(rng.choice(LINES) for _ in range(args.lines)) + "\n"
    lex = default_lexicon()
    tracemalloc.start()
    normalize(text, lex, mode=Mode.CHECK)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    print(f"{'lines':>8} {'chars':>9} {'peak_MiB':>9} {'B/char':>7}")
    print(f"{args.lines:>8} {len(text):>9} {peak / 2**20:>9.1f} {peak / len(text):>7.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
