"""Loanword transliterator: phonemic input to NOTA Arabic spelling.

Input is one word per line, space-separated IPA segments; ``.`` marks a
syllable boundary and ``ˈ`` (or an ASCII apostrophe) prefixes the first
segment of a stressed syllable::

    b y ˈr o

Foreign vowels assimilate to the four native qualities and are written
long (diacritic plus mater lectionis) except in stressed syllables,
where they stay short; a word-final vowel always keeps its mater, since
Arabic spelling cannot end a word on a bare short vowel.  In the default
undiacritized output short vowels disappear entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .script import ALEF, ALEF_HAMZA, GAF, PEH, VEH, Vowel, WAW, YEH

STRESS_MARKS = ("ˈ", "'")


class TranslitError(ValueError):
    pass


class UnknownPhonemeError(TranslitError):
    pass


class EmptyInputError(TranslitError):
    pass


# Consonants of the foreign-phoneme alphabet. /p v g/ take the
# supplemental letters; French /ʁ/ merges with /r/.
CONSONANTS: Mapping[str, str] = {
    "b": "ب",
    "p": PEH,
    "t": "ت",
    "d": "د",
    "k": "ك",
    "g": GAF,
    "ɡ": GAF,  # ɡ (IPA glyph)
    "q": "ق",
    "f": "ف",
    "v": VEH,
    "s": "س",
    "z": "ز",
    "ʃ": "ش",  # ʃ
    "ʒ": "ج",  # ʒ
    "x": "خ",
    "ɣ": "غ",  # ɣ
    "ʁ": "ر",  # ʁ
    "r": "ر",
    "l": "ل",
    "m": "م",
    "n": "ن",
    "w": WAW,
    "j": YEH,
    "h": "ه",
    "ħ": "ح",  # ħ
    "ʔ": "ء",  # ʔ
    "θ": "ث",  # θ
    "ð": "ذ",  # ð
}

# Foreign vowel → nearest native quality. [y]→/i/ and [ə]→/u/ are fixed;
# the rounded front vowels œ/ø group with ə (loanword /œʁ/ finals come
# out as /uːr/), the rest map by height and backness.
DEFAULT_VOWEL_SIMILARITY: Mapping[str, str] = {
    "i": "I",
    "y": "I",
    "e": "E",
    "ɛ": "E",  # ɛ
    "a": "A",
    "ɑ": "A",  # ɑ
    "o": "U",
    "ɔ": "U",  # ɔ
    "u": "U",
    "ə": "U",  # ə
    "œ": "U",  # œ
    "ø": "U",  # ø
}

_MATER = {Vowel.A: ALEF, Vowel.E: ALEF, Vowel.U: WAW, Vowel.I: YEH}


@dataclass(frozen=True)
class PhonemicWord:
    syllables: tuple[tuple[str, ...], ...]
    stressed: frozenset[int]

    @property
    def segments(self) -> tuple[str, ...]:
        return tuple(s for syl in self.syllables for s in syl)


def parse_phonemic_line(line: str) -> PhonemicWord:
    syllables: list[list[str]] = [[]]
    stressed: set[int] = set()
    for token in line.split():
        if token == ".":
            if syllables[-1]:
                syllables.append([])
            continue
        while token and token[0] in STRESS_MARKS:
            if syllables[-1]:
                syllables.append([])
            stressed.add(len(syllables) - 1)
            token = token[1:]
        if token:
            syllables[-1].append(token)
    if not syllables[-1]:
        syllables.pop()
    if not syllables:
        raise EmptyInputError("no segments in input line")
    return PhonemicWord(
        syllables=tuple(tuple(s) for s in syllables),
        stressed=frozenset(stressed),
    )


def assimilate_vowel(label: str, similarity: Mapping[str, str] | None = None) -> Vowel:
    """Map a foreign vowel onto one of the four native qualities."""
    table = similarity if similarity and label in similarity else DEFAULT_VOWEL_SIMILARITY
    quality = table.get(label)
    if quality is None:
        raise UnknownPhonemeError(f"no vowel mapping for {label!r}")
    return Vowel[quality]


def transliterate_loanword(
    word: PhonemicWord,
    diacritized: bool = False,
    similarity: Mapping[str, str] | None = None,
) -> str:
    """Spell a phonemically annotated loanword in the Arabic inventory."""
    segments = word.segments
    if not segments:
        raise EmptyInputError("empty phonemic word")
    last_index = len(segments) - 1

    out: list[str] = []
    carrier = False  # last emitted letter can take a vowel mark
    index = 0
    for si, syllable in enumerate(word.syllables):
        stressed = si in word.stressed
        for seg in syllable:
            if seg in CONSONANTS:
                out.append(CONSONANTS[seg])
                carrier = True
            else:
                vowel = assimilate_vowel(seg, similarity)
                long = (not stressed) or index == last_index
                if not carrier:
                    # word-initial (or hiatus) vowel rides an alef seat;
                    # /u o/-quality takes the hamza seat as in أوردينتور
                    out.append(ALEF_HAMZA if vowel is Vowel.U else ALEF)
                if diacritized:
                    out.append(vowel.value)
                if long:
                    out.append(_MATER[vowel])
                carrier = False
            index += 1
    return "".join(out)


def transliterate_line(
    line: str,
    diacritized: bool = False,
    similarity: Mapping[str, str] | None = None,
) -> str:
    return transliterate_loanword(
        parse_phonemic_line(line), diacritized=diacritized, similarity=similarity
    )
