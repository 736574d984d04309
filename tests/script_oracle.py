"""The range-scan character predicates and the multi-pass canonicalizer.

Kept as the oracle for the table-driven character layer in nota.script.
The code is the per-character implementation that the tables replaced,
unchanged except for one step of ``canonicalize``: tatweel is dropped
before the hamza/madda pairs are composed (it used to be dropped after,
so ``اـٓ`` canonicalized to ``ا``+``ٓ`` and only a second run composed it).
``Canonical`` is the class nota.script had before it kept spans only for
the runs it rewrote: one source span per output character.
``canonicalize_by_runs`` is the loop that built it, which copies the
runs it need not rewrite; it is unchanged except that it zips the start
and end lists ``_canonicalize_slow`` now returns into spans.  It finds
each run with ``_NEEDS_REWRITE``, the lazy match from the start of a run
to its first trigger that nota.script ran before it scanned for the
triggers alone.  ``to_original`` is the per-span map of nota.script's
``Canonical``, one bisect per span, that nota.pipeline ran before it
swept the sorted findings in one pass.
"""

from __future__ import annotations

import re
import unicodedata
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter

from nota import script
from nota.script import (
    _COMPOSE_PAIRS,
    _PRESENTATION_FORMS,
    _RUN_END,
    ARABIC_MARKS,
    LETTER_SET,
    NOTA_MARKS,
    SHADDA,
    SUKUN,
    TATWEEL,
    VOWEL_MARKS,
    CharClass,
    _canonicalize_slow,
    char_class,
)

_ARABIC_RANGES = (
    (0x0600, 0x06FF),
    (0x0750, 0x077F),
    (0x08A0, 0x08FF),
    (0xFB50, 0xFDFF),
    (0xFE70, 0xFEFF),
)


def in_arabic_block(ch: str) -> bool:
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in _ARABIC_RANGES)


def classify(ch: str) -> CharClass:
    """Classify one code point. Total and pure."""
    if ch in LETTER_SET:
        return CharClass.LETTER
    if ch in VOWEL_MARKS:
        return CharClass.VOWEL
    if ch == SHADDA:
        return CharClass.SHADDA
    if ch == SUKUN:
        return CharClass.SUKUN
    if ch.isspace():
        return CharClass.SPACE
    cat = unicodedata.category(ch)
    if cat == "Nd":
        return CharClass.DIGIT
    if cat == "Zs":
        return CharClass.SPACE
    if cat[0] in "PS":
        return CharClass.PUNCT
    if cat[0] == "L":
        return CharClass.UNKNOWN if in_arabic_block(ch) else CharClass.FOREIGN
    return CharClass.UNKNOWN


def is_arabic_mark(ch: str) -> bool:
    """True for any combining mark of the Arabic blocks, canonical or not."""
    return ch in NOTA_MARKS or (
        in_arabic_block(ch) and unicodedata.combining(ch) > 0
    )


def is_word_char(ch: str) -> bool:
    """True if the character belongs inside a Word token."""
    c = classify(ch)
    if c in (CharClass.LETTER, CharClass.VOWEL, CharClass.SHADDA, CharClass.SUKUN):
        return True
    return in_arabic_block(ch) and unicodedata.category(ch) in ("Lo", "Lm", "Mn")


_PRESENTATION_RANGES = ((0xFB50, 0xFDFF), (0xFE70, 0xFEFF))


def _is_presentation(ch: str) -> bool:
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in _PRESENTATION_RANGES)


@dataclass(frozen=True)
class Canonical:
    """Canonicalized text plus a map back to original offsets."""

    text: str
    spans: tuple[tuple[int, int], ...]  # source span of each output char

    def to_original(self, start: int, end: int) -> tuple[int, int]:
        """Map a span of the canonical text back onto the original input."""
        if not self.spans:
            return (0, 0)
        if start >= end:
            anchor = self.spans[start][0] if start < len(self.spans) else self.spans[-1][1]
            return (anchor, anchor)
        covered = self.spans[start:end]
        return (min(s for s, _ in covered), max(e for _, e in covered))


def canonicalize(text: str) -> Canonical:
    tagged: list[tuple[str, int, int]] = []
    for i, ch in enumerate(text):
        if _is_presentation(ch):
            for folded in unicodedata.normalize("NFKC", ch):
                tagged.append((folded, i, i + 1))
        else:
            tagged.append((ch, i, i + 1))

    # Moved ahead of composition (see the module docstring).
    tagged = [(ch, s, e) for ch, s, e in tagged if ch != TATWEEL]

    composed: list[tuple[str, int, int]] = []
    for ch, s, e in tagged:
        if composed:
            prev = composed[-1]
            merged = _COMPOSE_PAIRS.get((prev[0], ch))
            if merged is not None:
                composed[-1] = (merged, prev[1], e)
                continue
        composed.append((ch, s, e))

    out: list[tuple[str, int, int]] = []
    run: list[tuple[str, int, int]] = []

    def flush() -> None:
        if run:
            run.sort(key=lambda t: 0 if t[0] == SHADDA else 1)  # stable
            out.extend(run)
            run.clear()

    for ch, s, e in composed:
        if is_arabic_mark(ch):
            run.append((ch, s, e))
        else:
            flush()
            out.append((ch, s, e))
    flush()

    return Canonical("".join(ch for ch, _, _ in out), tuple((s, e) for _, s, e in out))


# A whitespace-delimited run up to its first rewrite trigger.  The match may
# start only after whitespace, so each run is scanned once.
_REWRITTEN = char_class(_PRESENTATION_FORMS | {TATWEEL, "\u0653", "\u0654", "\u0655"})
_MARKS_BUT_SHADDA = char_class(ARABIC_MARKS - {SHADDA})
_NEEDS_REWRITE = re.compile(rf"(?<!\S)\S*?(?:[{_REWRITTEN}]|[{_MARKS_BUT_SHADDA}]\u0651)")


def to_original(canon: script.Canonical, start: int, end: int) -> tuple[int, int]:
    """Map a non-empty, whitespace-free span of ``canon.text``, as every
    finding is, to the least start and the greatest end of its characters'
    source spans.

    Each rewritten run ends at whitespace or at the end of the text, so the
    span lies in the run that holds its start or in the copied text after
    it.  In a run a Shadda moves ahead of the marks typed before it.
    """
    k = bisect_right(canon.runs, start, key=attrgetter("start")) - 1
    if k < 0:
        return (start, end)
    run = canon.runs[k]
    if start >= run.start + len(run.sources):
        return (start + run.delta, end + run.delta)
    lo, hi = start - run.start, end - run.start
    return (min(run.sources[lo:hi]), max(run.source_ends[lo:hi]))


def canonicalize_by_runs(text: str) -> Canonical:
    out: list[str] = []
    spans: list[tuple[int, int]] = []
    pos = 0
    while (m := _NEEDS_REWRITE.search(text, pos)) is not None:
        start = m.start()
        end = _RUN_END.search(text, m.end()).start()
        out.append(text[pos:start])
        spans += zip(range(pos, start), range(pos + 1, start + 1))
        run_chars, run_starts, run_ends = _canonicalize_slow(text[start:end], start)
        out += run_chars
        spans += zip(run_starts, run_ends)
        pos = end
    out.append(text[pos:])
    spans += zip(range(pos, len(text)), range(pos + 1, len(text) + 1))
    return Canonical("".join(out), tuple(spans))
