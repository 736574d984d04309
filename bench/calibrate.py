"""A fixed pure-Python reference loop that tracks the host's speed.

The host this benchmark was defined on shares its cores.  Its speed
switches between two states about 1.7x apart and stays in each for
tenths of a second to seconds, so with identical code and inputs the
mean time of a 15 s window drifts by 10-25% from window to window.  An
operation's time is therefore scaled to a nominal host on which
``reference_work`` takes ``REFERENCE_S``: the worker times the reference
loop right before and right after each operation and divides the
operation's time by ``mean(those two) / REFERENCE_S``, the host's
slowdown at that moment.  The loop uses no part of the program, so a
change to the program cannot move it.

A cold start runs in another process, which the loop in this one does
not track.  It is scaled instead by a bare interpreter start
(``python -c pass``) timed right before it: the same kind of work, which
no change to the program can move either.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.010  # about the loop's time on an idle core of the defining host
BARE_START_S = 0.050  # about ``python -c pass`` there

_TEXT = "بش نمشي في الدار، والكتاب قدام الحومة. " * 20


def reference_work() -> int:
    counts: dict[str, int] = {}
    total = 0
    for _ in range(80):
        for ch in _TEXT:
            counts[ch] = counts.get(ch, 0) + 1
        total += len(" ".join(w[::-1] for w in _TEXT.split()))
    return total + len(counts)


def reference_seconds() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def slowdown(samples: list[float]) -> float:
    """How much slower the host ran than nominal while the samples were taken."""
    return statistics.median(samples) / REFERENCE_S
