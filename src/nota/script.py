"""Character inventory for the NOTA orthography of Tunisian Arabic.

The inventory is the standard Arabic letters plus three Perso-Arabic
letters (پ ڤ ڨ for /p v g/), four short-vowel diacritics (Fatha,
Zwarakay, Damma, Kasra for /a ɛ u i/), Shadda and Sukun.  Everything
here is table-driven and pure: classification is a total function over
code points, and canonicalization maps arbitrary Arabic-script input to
one deterministic byte form (presentation forms folded, tatweel dropped,
hamza/madda pairs composed, Shadda first inside each mark run).  The
result keeps what maps its offsets back onto the input: a source span per
character only for the whitespace-delimited runs it rewrote, since every
other character is copied as it is.

The per-character tables are frozensets built once at import;
``char_class`` turns one into a regex class of code-point ranges, so the
tokenizer and ``canonicalize`` scan text with compiled regexes, not a
Python loop over its characters; only the runs ``canonicalize`` rewrites
are walked in Python.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from enum import Enum, auto
from operator import attrgetter
from typing import NamedTuple

# Short-vowel diacritics and syllable marks.
FATHA = "َ"      #  َ   /a/
DAMMA = "ُ"      #  ُ   /u/
KASRA = "ِ"      #  ِ   /i/
ZWARAKAY = "ٙ"   #  ٙ   /ɛ/ (borrowed from the Pashto set)
SHADDA = "ّ"     #  ّ   gemination
SUKUN = "ْ"      #  ْ   no vowel
TATWEEL = "ـ"    #  ـ   presentational only, stripped


class Vowel(Enum):
    """The four short-vowel qualities, valued by their diacritic."""

    A = FATHA
    E = ZWARAKAY
    U = DAMMA
    I = KASRA

    # Read only by the acceptance suite.
    mark = property(attrgetter("value"))


VOWEL_MARKS = frozenset(v.value for v in Vowel)
NOTA_MARKS = VOWEL_MARKS | {SHADDA, SUKUN}

# Frequently referenced letters.
ALEF = "ا"          # ا
ALEF_MADDA = "آ"    # آ
ALEF_HAMZA = "أ"    # أ
ALEF_HAMZA_BELOW = "إ"  # إ
WAW = "و"           # و
YEH = "ي"           # ي
ALEF_MAQSURA = "ى"  # ى
TEH_MARBUTA = "ة"   # ة
LAM = "ل"           # ل
TEH = "ت"           # ت
QAF = "ق"           # ق
PEH = "پ"           # پ  /p/
VEH = "ڤ"           # ڤ  /v/
GAF = "ڨ"           # ڨ  /g/

HAMZA_LETTERS = frozenset("ءأؤإئ")  # ء أ ؤ إ ئ

# Each base letter with its broad phoneme label.
LETTERS: dict[str, str] = {
    "ء": "ʔ",       # ء
    "آ": "ʔaː",     # آ  (madda carries its own long /a/)
    "أ": "ʔ",       # أ
    "ؤ": "ʔ",       # ؤ
    "إ": "ʔ",       # إ
    "ئ": "ʔ",       # ئ
    "ا": "aː",      # ا  (mater; label used as fallback)
    "ب": "b",       # ب
    "ة": "a",       # ة  (word-final /a/)
    "ت": "t",       # ت
    "ث": "θ",       # ث
    "ج": "ʒ",       # ج
    "ح": "ħ",       # ح
    "خ": "x",       # خ
    "د": "d",       # د
    "ذ": "ð",       # ذ
    "ر": "r",       # ر
    "ز": "z",       # ز
    "س": "s",       # س
    "ش": "ʃ",       # ش
    "ص": "sˤ",      # ص
    "ض": "ðˤ",      # ض  (merged with ظ)
    "ط": "tˤ",      # ط
    "ظ": "ðˤ",      # ظ  (merged with ض)
    "ع": "ʕ",       # ع
    "غ": "ɣ",       # غ
    "ف": "f",       # ف
    "ق": "q",       # ق
    "ك": "k",       # ك
    "ل": "l",       # ل
    "م": "m",       # م
    "ن": "n",       # ن
    "ه": "h",       # ه
    "و": "w",       # و
    "ى": "aː",      # ى  (final mater)
    "ي": "j",       # ي
    PEH: "p",       # پ
    VEH: "v",       # ڤ
    GAF: "g",       # ڨ
}
LETTER_SET = frozenset(LETTERS)


class CharClass(Enum):
    """Classification of a single code point against the inventory."""

    LETTER = auto()      # inventory base letter
    VOWEL = auto()       # one of the four short-vowel diacritics
    SHADDA = auto()
    SUKUN = auto()
    DIGIT = auto()       # any Unicode decimal digit (Arabic-Indic or ASCII)
    PUNCT = auto()       # punctuation and symbols
    SPACE = auto()
    FOREIGN = auto()     # letters of other scripts
    UNKNOWN = auto()     # everything else, incl. non-inventory Arabic chars


_ARABIC_RANGES = (
    (0x0600, 0x06FF),
    (0x0750, 0x077F),
    (0x08A0, 0x08FF),
    (0xFB50, 0xFDFF),  # presentation forms A
    (0xFE70, 0xFEFF),  # presentation forms B
)


def _chars_in(ranges: tuple[tuple[int, int], ...]) -> list[str]:
    return [chr(cp) for lo, hi in ranges for cp in range(lo, hi + 1)]


# Per-character tables, built once from the ranges above.
# Every combining mark of the Arabic blocks, canonical or not.
ARABIC_MARKS = frozenset(ch for ch in _chars_in(_ARABIC_RANGES) if unicodedata.combining(ch))
# What a Word token is made of.  Besides the inventory this keeps stray
# Arabic-script material (variant letters, non-canonical marks, tatweel)
# attached to the word so that the rules can see and repair it.
WORD_CHARS = frozenset(
    ch for ch in _chars_in(_ARABIC_RANGES) if unicodedata.category(ch) in ("Lo", "Lm", "Mn")
)
_PRESENTATION_FORMS = frozenset(_chars_in(_ARABIC_RANGES[3:]))


def char_class(chars: frozenset[str]) -> str:
    """The body of a regex character class matching exactly ``chars``.

    Written as code-point ranges, which compile in less than half the time
    of the same characters listed one by one.
    """
    cps = sorted(map(ord, chars))
    # A range ends wherever the next code point is not the one after it.
    breaks = [i for i in range(1, len(cps)) if cps[i] != cps[i - 1] + 1]
    return "".join(
        f"\\U{cps[lo]:08x}-\\U{cps[hi - 1]:08x}"
        for lo, hi in zip([0, *breaks], [*breaks, len(cps)])
    )


_MARK = re.compile(f"[{char_class(ARABIC_MARKS)}]")


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
        # Arabic-script letters outside the inventory (e.g. گ) are not
        # "foreign"; they are unknown to the orthography and left for the
        # consonant rule to repair.  Every Arabic letter is Lo or Lm.
        return CharClass.UNKNOWN if ch in WORD_CHARS else CharClass.FOREIGN
    return CharClass.UNKNOWN


def skeleton(text: str) -> str:
    """The bare letter skeleton: every Arabic mark removed, canonical or not.

    No cache: a rule set takes the skeletons of its memo misses in one call
    per chunk, on their texts joined by line feeds, and hands them to the rules.
    """
    return _MARK.sub("", text)


# --- canonicalization ----------------------------------------------------

# Compositions applied before classification; same pairs NFC would
# compose, but applied alone so that mark order stays under our control.
_COMPOSE_PAIRS = {
    (ALEF, "ٓ"): ALEF_MADDA,        # ا + madda   → آ
    (ALEF, "ٔ"): ALEF_HAMZA,        # ا + hamza   → أ
    (ALEF, "ٕ"): ALEF_HAMZA_BELOW,  # ا + hamza below → إ
    (WAW, "ٔ"): "ؤ",           # و + hamza   → ؤ
    (YEH, "ٔ"): "ئ",           # ي + hamza   → ئ
}


class _Run(NamedTuple):
    """A run ``_canonicalize_slow`` rewrote: its output start, the source
    span of each of its characters, and the offset from output to input
    after it, up to the next rewritten run."""

    start: int
    sources: tuple[int, ...]
    source_ends: tuple[int, ...]
    delta: int


@dataclass(frozen=True)
class Canonical:
    """Canonicalized text plus a map back to original offsets.

    Only the rewritten runs keep a source span per character; a copied
    character maps by the ``delta`` of the run before it, or by 0.  Each
    rewritten run ends at whitespace or at the end of the text, so a
    non-empty, whitespace-free span lies in the run that holds its start
    or in the copied text after it, and maps to the least start and the
    greatest end of its characters' source spans (``nota.pipeline`` sweeps
    its findings through ``runs`` in order).
    """

    text: str
    runs: tuple[_Run, ...]


# The first character of every rewrite trigger (listed in canonicalize):
# the scan opens with this class, so ``re`` skips to a candidate in C.  A
# candidate is a trigger if a Shadda follows it or it is itself rewritten:
# tatweel, a combining madda or hamza, or a presentation form.  Those are
# tested as two classes of at most two ranges each, which compile to range
# tests where one class of them all would compile to a bitmap of the BMP.
_TRIGGER_FIRST = char_class(_PRESENTATION_FORMS | {TATWEEL} | (ARABIC_MARKS - {SHADDA}))
_TRIGGER = re.compile(
    rf"[{_TRIGGER_FIRST}](?:\u0651|(?<=[\u0640\u0653-\u0655])|(?<=[\ufb50-\ufdff\ufe70-\ufeff]))"
)
_RUN_END = re.compile(r"\s|\Z")


def canonicalize(text: str) -> Canonical:
    """Fold input to the single canonical byte form.

    No rewrite of ``_canonicalize_slow`` reaches across whitespace: no
    pair composes with it and it ends every mark run.  So each
    whitespace-delimited run is folded on its own.  A run is copied as it
    is unless it holds a trigger: a presentation form, tatweel, a
    combining madda or hamza (U+0653..U+0655), or an Arabic mark other
    than Shadda right before a Shadda.  The scan finds the next trigger
    with ``_TRIGGER``, steps back to the start of its run (never past the
    end of the run rewritten before), and hands the run to
    ``_canonicalize_slow``; the text between runs is copied.  Each
    character is scanned once and stepped back over at most once.
    Idempotent: canonicalize(canonicalize(x).text).text == canonicalize(x).text.
    """
    out: list[str] = []
    runs: list[_Run] = []
    pos = delta = 0
    while (m := _TRIGGER.search(text, pos)) is not None:
        start = m.start()
        while start > pos and not text[start - 1].isspace():
            start -= 1
        end = _RUN_END.search(text, m.end()).start()
        out.append(text[pos:start])
        run_chars, sources, source_ends = _canonicalize_slow(text[start:end], start)
        out += run_chars
        out_start = start - delta
        delta = end - out_start - len(run_chars)
        runs.append(_Run(out_start, tuple(sources), tuple(source_ends), delta))
        pos = end
    out.append(text[pos:])
    return Canonical("".join(out), tuple(runs))


def _canonicalize_slow(text: str, offset: int) -> tuple[list[str], list[int], list[int]]:
    """Canonicalize ``text`` one character at a time.

    Returns the characters and the start and end of each one's source
    span, shifted by ``offset``.

    Each input character is folded from its presentation form (NFKC),
    dropped if it is tatweel, composed with the previous character if
    the two make a hamza/madda pair, and otherwise placed: a Shadda goes
    after the Shaddas leading the current mark run, every other character
    at the end.
    """
    chars: list[str] = []
    starts: list[int] = []
    ends: list[int] = []
    shadda_at = 0  # where the next Shadda of the current mark run goes
    for i, raw in enumerate(text, offset):
        for ch in unicodedata.normalize("NFKC", raw) if raw in _PRESENTATION_FORMS else raw:
            if ch == TATWEEL:
                continue
            merged = _COMPOSE_PAIRS.get((chars[-1], ch)) if chars else None
            if merged is not None:
                chars[-1] = merged
                ends[-1] = i + 1
            elif ch == SHADDA:
                chars.insert(shadda_at, ch)
                starts.insert(shadda_at, i)
                ends.insert(shadda_at, i + 1)
                shadda_at += 1
            else:
                chars.append(ch)
                starts.append(i)
                ends.append(i + 1)
                if ch not in ARABIC_MARKS:
                    shadda_at = len(chars)
    return chars, starts, ends
