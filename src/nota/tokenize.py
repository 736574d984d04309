"""Lossless tokenizer: typed spans that concatenate back to the input.

One compiled regex, ``([WORD_CHARS]+)|(\\s+)|(\\d+)|([^WORD_CHARS\\s\\d]+)``,
splits the text into maximal runs of word characters, whitespace (what
``str.isspace`` accepts), decimal digits (category Nd) and everything
else.  Only the runs of everything else, punctuation and foreign text,
are split further, by each character's category, into PUNCT (categories
P and S) and FOREIGN.
"""

from __future__ import annotations

import re
import unicodedata
from enum import Enum, auto
from itertools import groupby
from typing import NamedTuple

from .script import WORD_CHARS, char_class


class TokenKind(Enum):
    WORD = auto()
    SPACE = auto()
    PUNCT = auto()
    FOREIGN = auto()
    DIGITS = auto()


class Token(NamedTuple):
    kind: TokenKind
    text: str
    start: int
    end: int


# Punctuation and symbols.  A character that is no word character,
# whitespace or digit is PUNCT in one of these categories, else FOREIGN.
_PUNCT_CATEGORIES = frozenset({"Pc", "Pd", "Ps", "Pe", "Pi", "Pf", "Po", "Sm", "Sc", "Sk", "So"})
_WORD = char_class(WORD_CHARS)
_RUNS = re.compile(rf"([{_WORD}]+)|(\s+)|(\d+)|([^{_WORD}\s\d]+)")
# The kind of each group of _RUNS; the last one is split by category.
_GROUP_KINDS = (None, TokenKind.WORD, TokenKind.SPACE, TokenKind.DIGITS, None)


def tokenize(text: str) -> list[Token]:
    """Split text into maximal same-kind runs covering the input exactly.

    Mixed-script runs split at the script boundary: a Latin letter never
    joins an Arabic word token.
    """
    tokens: list[Token] = []
    for m in _RUNS.finditer(text):
        kind = _GROUP_KINDS[m.lastindex]
        if kind is not None:
            tokens.append(Token(kind, m.group(), m.start(), m.end()))
            continue
        i = m.start()
        categories = map(unicodedata.category, m.group())
        for punct, run in groupby(categories, _PUNCT_CATEGORIES.__contains__):
            j = i + len(list(run))
            tokens.append(Token(TokenKind.PUNCT if punct else TokenKind.FOREIGN, text[i:j], i, j))
            i = j
    return tokens
