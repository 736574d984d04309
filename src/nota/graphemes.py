"""Strict grapheme model: a base letter plus its attached marks.

``parse_graphemes`` accepts marks in any order and canonicalizes them;
``render_graphemes`` always emits the canonical order (Shadda before the
vowel or Sukun), so render∘parse normalizes a word in one pass and
parse∘render is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .script import ARABIC_MARKS, LETTER_SET, NOTA_MARKS, SHADDA, SUKUN, Vowel


class GraphemeError(ValueError):
    """Structural error in a word's diacritic layout."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at index {position})")
        self.position = position


class LeadingDiacriticError(GraphemeError):
    pass


class DuplicateVowelError(GraphemeError):
    pass


class VowelWithSukunError(GraphemeError):
    pass


class UnsupportedCharacterError(GraphemeError):
    pass


@dataclass(frozen=True)
class Grapheme:
    base: str
    shadda: bool = False
    sukun: bool = False
    vowel: Vowel | None = None


_LEADING_NAMES = {SHADDA: "shadda", SUKUN: "sukun"}  # the rest are vowel marks


def parse_graphemes(word: str) -> tuple[Grapheme, ...]:
    """Parse a word into graphemes, attaching marks to the preceding base.

    Raises LeadingDiacriticError, DuplicateVowelError or
    VowelWithSukunError for the three structural faults, and
    UnsupportedCharacterError for anything outside the inventory; the
    error's position is the first offending index.
    """
    out: list[Grapheme] = []
    base: str | None = None  # the letter the marks read so far attach to
    shadda = sukun = False
    vowel: Vowel | None = None
    for i, ch in enumerate(word):
        if ch not in ARABIC_MARKS:
            if ch not in LETTER_SET:
                raise UnsupportedCharacterError(f"character {ch!r} outside the inventory", i)
            if base is not None:
                out.append(Grapheme(base, shadda, sukun, vowel))
            base, shadda, sukun, vowel = ch, False, False, None
        elif ch not in NOTA_MARKS:
            raise UnsupportedCharacterError(f"character {ch!r} outside the inventory", i)
        elif base is None:
            name = _LEADING_NAMES.get(ch, "vowel mark")
            raise LeadingDiacriticError(f"{name} with no base letter", i)
        elif ch == SHADDA:
            shadda = True
        elif ch == SUKUN:
            if vowel is not None:
                raise VowelWithSukunError("sukun on a voweled letter", i)
            sukun = True
        else:
            if vowel is not None:
                raise DuplicateVowelError("second vowel mark on one letter", i)
            if sukun:
                raise VowelWithSukunError("vowel mark on a sukun letter", i)
            vowel = Vowel(ch)
    if base is not None:
        out.append(Grapheme(base, shadda, sukun, vowel))
    return tuple(out)


def render_graphemes(graphemes: tuple[Grapheme, ...] | list[Grapheme]) -> str:
    """Render graphemes to canonical text (Shadda, then vowel or Sukun)."""
    parts: list[str] = []
    for g in graphemes:
        if g.base not in LETTER_SET:
            raise ValueError(f"not an inventory letter: {g.base!r}")
        if g.vowel is not None and g.sukun:
            raise ValueError("vowel and sukun are mutually exclusive")
        parts.append(g.base)
        if g.shadda:
            parts.append(SHADDA)
        if g.vowel is not None:
            parts.append(g.vowel.value)
        elif g.sukun:
            parts.append(SUKUN)
    return "".join(parts)
