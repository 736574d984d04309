"""Character inventory for the NOTA orthography of Tunisian Arabic.

The inventory is the standard Arabic letters plus three Perso-Arabic
letters (پ ڤ ڨ for /p v g/), four short-vowel diacritics (Fatha,
Zwarakay, Damma, Kasra for /a ɛ u i/), Shadda and Sukun.  Everything
here is table-driven and pure: classification is a total function over
code points, and canonicalization maps arbitrary Arabic-script input to
one deterministic byte form (presentation forms folded, hamza/madda
combining pairs composed, tatweel dropped, marks ordered Shadda-first
inside each letter cluster).
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from enum import Enum, auto

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

    @property
    def mark(self) -> str:
        return self.value


VOWEL_OF_MARK = {v.value: v for v in Vowel}
VOWEL_MARKS = frozenset(VOWEL_OF_MARK)
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


@dataclass(frozen=True)
class Letter:
    """One base letter with its broad phoneme label."""

    char: str
    ipa: str
    emphatic: bool = False
    supplemental: bool = False


def _letters() -> dict[str, Letter]:
    rows: list[tuple[str, str, bool, bool]] = [
        ("ء", "ʔ", False, False),   # ء
        ("آ", "ʔaː", False, False),  # آ  (madda carries its own long /a/)
        ("أ", "ʔ", False, False),   # أ
        ("ؤ", "ʔ", False, False),   # ؤ
        ("إ", "ʔ", False, False),   # إ
        ("ئ", "ʔ", False, False),   # ئ
        ("ا", "aː", False, False),  # ا  (mater; label used as fallback)
        ("ب", "b", False, False),   # ب
        ("ة", "a", False, False),   # ة  (word-final /a/)
        ("ت", "t", False, False),   # ت
        ("ث", "θ", False, False),   # ث
        ("ج", "ʒ", False, False),   # ج
        ("ح", "ħ", False, False),   # ح
        ("خ", "x", False, False),   # خ
        ("د", "d", False, False),   # د
        ("ذ", "ð", False, False),   # ذ
        ("ر", "r", False, False),   # ر
        ("ز", "z", False, False),   # ز
        ("س", "s", False, False),   # س
        ("ش", "ʃ", False, False),   # ش
        ("ص", "sˤ", True, False),   # ص
        ("ض", "ðˤ", True, False),   # ض  (merged with ظ)
        ("ط", "tˤ", True, False),   # ط
        ("ظ", "ðˤ", True, False),   # ظ  (merged with ض)
        ("ع", "ʕ", False, False),   # ع
        ("غ", "ɣ", False, False),   # غ
        ("ف", "f", False, False),   # ف
        ("ق", "q", False, False),   # ق
        ("ك", "k", False, False),   # ك
        ("ل", "l", False, False),   # ل
        ("م", "m", False, False),   # م
        ("ن", "n", False, False),   # ن
        ("ه", "h", False, False),   # ه
        ("و", "w", False, False),   # و
        ("ى", "aː", False, False),  # ى  (final mater)
        ("ي", "j", False, False),   # ي
        (PEH, "p", False, True),         # پ
        (VEH, "v", False, True),         # ڤ
        (GAF, "g", False, True),         # ڨ
    ]
    return {c: Letter(c, ipa, emph, sup) for c, ipa, emph, sup in rows}


LETTERS: dict[str, Letter] = _letters()
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
        # Arabic-script letters outside the inventory (e.g. گ) are not
        # "foreign"; they are unknown to the orthography and left for the
        # consonant rule to repair.
        return CharClass.UNKNOWN if in_arabic_block(ch) else CharClass.FOREIGN
    return CharClass.UNKNOWN


def is_arabic_mark(ch: str) -> bool:
    """True for any combining mark of the Arabic blocks, canonical or not."""
    return ch in NOTA_MARKS or (
        in_arabic_block(ch) and unicodedata.combining(ch) > 0
    )


def is_word_char(ch: str) -> bool:
    """True if the character belongs inside a Word token.

    Besides the inventory this keeps stray Arabic-script material
    (variant letters, non-canonical marks, tatweel) attached to the word
    so that the rules can see and repair it.
    """
    c = classify(ch)
    if c in (CharClass.LETTER, CharClass.VOWEL, CharClass.SHADDA, CharClass.SUKUN):
        return True
    return in_arabic_block(ch) and unicodedata.category(ch) in ("Lo", "Lm", "Mn")


def strip_diacritics(text: str) -> str:
    """Remove exactly the inventory diacritics (vowels, Shadda, Sukun)."""
    return "".join(ch for ch in text if ch not in NOTA_MARKS)


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
    """Fold input to the single canonical byte form.

    Steps: fold Arabic presentation forms to base letters, compose the
    hamza/madda combining pairs, drop tatweel, and order marks within
    each cluster (Shadda first, remaining marks in input order).
    Idempotent: canonicalize(canonicalize(x).text).text == canonicalize(x).text.
    """
    tagged: list[tuple[str, int, int]] = []
    for i, ch in enumerate(text):
        if _is_presentation(ch):
            for folded in unicodedata.normalize("NFKC", ch):
                tagged.append((folded, i, i + 1))
        else:
            tagged.append((ch, i, i + 1))

    composed: list[tuple[str, int, int]] = []
    for ch, s, e in tagged:
        if composed:
            prev = composed[-1]
            merged = _COMPOSE_PAIRS.get((prev[0], ch))
            if merged is not None:
                composed[-1] = (merged, prev[1], e)
                continue
        composed.append((ch, s, e))

    kept = [(ch, s, e) for ch, s, e in composed if ch != TATWEEL]

    out: list[tuple[str, int, int]] = []
    run: list[tuple[str, int, int]] = []

    def flush() -> None:
        if run:
            run.sort(key=lambda t: 0 if t[0] == SHADDA else 1)  # stable
            out.extend(run)
            run.clear()

    for ch, s, e in kept:
        if is_arabic_mark(ch):
            run.append((ch, s, e))
        else:
            flush()
            out.append((ch, s, e))
    flush()

    return Canonical("".join(ch for ch, _, _ in out), tuple((s, e) for _, s, e in out))


# --- cluster view --------------------------------------------------------


@dataclass(frozen=True)
class Cluster:
    """A base character with its trailing marks, by offsets into the word.

    Never raises, so the rules can inspect arbitrary word tokens; the
    strict grapheme parser validates on top of it.  ``base`` is None for
    a run of marks with no preceding base character.
    """

    start: int
    end: int
    base: str | None
    marks: str


def iter_clusters(word: str) -> list[Cluster]:
    """Split a word into base+marks clusters without validating it."""
    clusters: list[Cluster] = []
    i = 0
    n = len(word)
    while i < n:
        if is_arabic_mark(word[i]):
            j = i
            while j < n and is_arabic_mark(word[j]):
                j += 1
            clusters.append(Cluster(i, j, None, word[i:j]))
            i = j
            continue
        base = word[i]
        j = i + 1
        while j < n and is_arabic_mark(word[j]):
            j += 1
        clusters.append(Cluster(i, j, base, word[i + 1 : j]))
        i = j
    return clusters
