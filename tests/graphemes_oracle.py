"""The per-character grapheme parser, kept as the oracle for ``nota.graphemes``.

The package parses words on top of ``script.iter_clusters``; this is the
state machine it replaced, unchanged, so ``test_graphemes`` can compare
the two on every input it generates.
"""

from __future__ import annotations

from nota.graphemes import (
    DuplicateVowelError,
    Grapheme,
    LeadingDiacriticError,
    UnsupportedCharacterError,
    VowelWithSukunError,
)
from nota.script import VOWEL_OF_MARK, CharClass, Vowel, classify


def parse_graphemes(word: str) -> tuple[Grapheme, ...]:
    """Parse a word into graphemes, attaching marks to the preceding base.

    Raises LeadingDiacriticError, DuplicateVowelError or
    VowelWithSukunError for the three structural faults, and
    UnsupportedCharacterError for anything outside the inventory.
    """
    out: list[Grapheme] = []
    base: str | None = None
    shadda = False
    sukun = False
    vowel: Vowel | None = None

    def push() -> None:
        nonlocal base, shadda, sukun, vowel
        if base is not None:
            out.append(Grapheme(base, shadda=shadda, sukun=sukun, vowel=vowel))
        base, shadda, sukun, vowel = None, False, False, None

    for i, ch in enumerate(word):
        cls = classify(ch)
        if cls is CharClass.LETTER:
            push()
            base = ch
        elif cls is CharClass.VOWEL:
            if base is None:
                raise LeadingDiacriticError("vowel mark with no base letter", i)
            if vowel is not None:
                raise DuplicateVowelError("second vowel mark on one letter", i)
            if sukun:
                raise VowelWithSukunError("vowel mark on a sukun letter", i)
            vowel = VOWEL_OF_MARK[ch]
        elif cls is CharClass.SHADDA:
            if base is None:
                raise LeadingDiacriticError("shadda with no base letter", i)
            shadda = True
        elif cls is CharClass.SUKUN:
            if base is None:
                raise LeadingDiacriticError("sukun with no base letter", i)
            if vowel is not None:
                raise VowelWithSukunError("sukun on a voweled letter", i)
            sukun = True
        else:
            raise UnsupportedCharacterError(f"character {ch!r} outside the inventory", i)
    push()
    return tuple(out)
