"""Broad phonemic Latin transcription of inventory words.

Two modes. ``diacritized`` reads the vowel marks: diacritic + matching
mater is a long vowel, Shadda doubles its consonant, a word-final bare
consonant is tolerated (implicit sukun).  ``bare`` transcribes the
consonant skeleton with ``·`` placeholders where a mater letter marks a
vowel slot of unknown quality.

The transcription is broad: allophones collapse onto /a ɛ i u/ and the
merged ض/ظ share one label.
"""

from __future__ import annotations

from .graphemes import Grapheme, GraphemeError, parse_graphemes
from .script import (
    ALEF,
    ALEF_MADDA,
    ALEF_MAQSURA,
    HAMZA_LETTERS,
    LETTERS,
    TEH_MARBUTA,
    WAW,
    WORD_CHARS,
    YEH,
    Vowel,
    canonicalize,
)

PLACEHOLDER = "·"  # ·

VOWEL_IPA = {Vowel.A: "a", Vowel.E: "ɛ", Vowel.U: "u", Vowel.I: "i"}
LONG = "ː"  # ː
GLOTTAL = "ʔ"  # ʔ

# Which preceding short vowels each mater letter lengthens.
_MATER_OF = {
    ALEF: (Vowel.A, Vowel.E),
    ALEF_MAQSURA: (Vowel.A, Vowel.E),
    WAW: (Vowel.U,),
    YEH: (Vowel.I,),
}

# Letters that carry their own vowel and may stay unmarked mid-word.
_SELF_VOWELED = {ALEF, ALEF_MADDA, ALEF_MAQSURA}


class RomanizeError(ValueError):
    pass


class NotAWordError(RomanizeError):
    pass


class MissingDiacriticsError(RomanizeError):
    pass


def _check_word(word: str) -> tuple[Grapheme, ...]:
    canon = canonicalize(word).text
    if not canon or not WORD_CHARS.issuperset(canon):
        raise NotAWordError(f"not a single word: {word!r}")
    try:
        return parse_graphemes(canon)
    except GraphemeError as exc:
        raise NotAWordError(str(exc)) from exc


def _romanize_diacritized(graphemes: tuple[Grapheme, ...]) -> list[str]:
    segments: list[str] = []
    prev_vowel: Vowel | None = None
    for idx, g in enumerate(graphemes):
        base = g.base
        is_last = idx == len(graphemes) - 1

        # Mater lectionis: an unmarked vowel letter lengthening the previous vowel.
        if (
            g == Grapheme(base)
            and prev_vowel is not None
            and base in _MATER_OF
            and prev_vowel in _MATER_OF[base]
        ):
            segments[-1] += LONG
            prev_vowel = None
            continue

        if base == TEH_MARBUTA and is_last:
            # Feminine ending; its /a/ is the preceding Fatha when present.
            if prev_vowel is not Vowel.A:
                segments.append("a")
            prev_vowel = None
            continue

        if base == ALEF:
            label = GLOTTAL if idx == 0 else "a" + LONG
        else:
            label = LETTERS[base]
        segments.append(label)
        if g.shadda:
            segments.append(label)
        if g.vowel is not None:
            segments.append(VOWEL_IPA[g.vowel])
            prev_vowel = g.vowel
            continue
        prev_vowel = None
        if g.sukun or is_last or base in _SELF_VOWELED:
            continue
        raise MissingDiacriticsError(f"bare consonant {base!r} in diacritized mode")
    return segments


def _romanize_bare(graphemes: tuple[Grapheme, ...]) -> list[str]:
    segments: list[str] = []
    for idx, g in enumerate(graphemes):
        base = g.base  # the marks are ignored
        is_first = idx == 0
        is_last = idx == len(graphemes) - 1
        if base == TEH_MARBUTA and is_last:
            segments.append("a")
        elif base in HAMZA_LETTERS or base == ALEF_MADDA:
            segments.append(LETTERS[base])
        elif base in (ALEF, ALEF_MAQSURA):
            # Interior alef is a vowel slot; word-initially it is an onset.
            segments.append(GLOTTAL if is_first else PLACEHOLDER)
        elif base in (WAW, YEH):
            segments.append(LETTERS[base] if is_first else PLACEHOLDER)
        else:
            segments.append(LETTERS[base])
    return segments


def romanize_segments(word: str, mode: str = "diacritized") -> tuple[str, ...]:
    """Transcribe one word; returns the phoneme segments."""
    graphemes = _check_word(word)
    if mode == "diacritized":
        return tuple(_romanize_diacritized(graphemes))
    if mode == "bare":
        return tuple(_romanize_bare(graphemes))
    raise ValueError(f"unknown mode {mode!r}")


def romanize(word: str, mode: str = "diacritized") -> str:
    """Transcribe one word to a broad phonemic string."""
    return "".join(romanize_segments(word, mode))
