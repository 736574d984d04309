"""Lossless tokenizer: typed spans that concatenate back to the input.

One compiled regex, ``([WORD_CHARS]+)|(\\s+)|([^WORD_CHARS\\s]+)``, splits
the text into maximal runs of word characters (WORD), whitespace as
``str.isspace`` reads it (SPACE) and everything else (OTHER): digits,
punctuation and foreign text alike, since the rules read only words and
the spaces between them.
"""

from __future__ import annotations

import re
from enum import Enum, auto
from typing import NamedTuple

from .script import WORD_CHARS, char_class


class TokenKind(Enum):
    WORD = auto()
    SPACE = auto()
    OTHER = auto()


class Token(NamedTuple):
    kind: TokenKind
    text: str
    start: int
    end: int


_WORD = char_class(WORD_CHARS)
_RUNS = re.compile(rf"([{_WORD}]+)|(\s+)|([^{_WORD}\s]+)")
# The kind of each group of _RUNS, by group number.
_GROUP_KINDS = (None, TokenKind.WORD, TokenKind.SPACE, TokenKind.OTHER)


def tokenize(text: str) -> list[Token]:
    """Split text into maximal same-kind runs covering the input exactly.

    Mixed-script runs split at the script boundary: a Latin letter never
    joins an Arabic word token.
    """
    return [
        Token(_GROUP_KINDS[m.lastindex], m.group(), m.start(), m.end())
        for m in _RUNS.finditer(text)
    ]


# ``[gap, word, gap, …, word, gap]``: the WORD token texts of ``tokenize``
# at the odd indices, and the text around and between them, which joins
# back to the input; only the first and last gap can be empty.
split_words = re.compile(f"([{_WORD}]+)").split
