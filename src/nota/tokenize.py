"""Lossless tokenizer: typed spans that concatenate back to the input.

One compiled regex, ``[WORD_CHARS]+|\\s+|[^WORD_CHARS\\s]+``, splits the
text into maximal runs of word characters (WORD), whitespace as
``str.isspace`` reads it (SPACE) and everything else (OTHER): digits,
punctuation and foreign text alike, since the rules read only words and
the spaces between them.

``tokenize`` takes no Python step per token: ``findall`` gives the run
texts, ``accumulate`` over their lengths the offsets, a fixed table the
kind of each run's first character, and ``tuple.__new__`` the tokens,
each in a C-level pass over the runs.
"""

from __future__ import annotations

import re
from enum import Enum, auto
from functools import partial
from itertools import accumulate, repeat
from operator import itemgetter
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
_RUNS = re.compile(rf"[{_WORD}]+|\s+|[^{_WORD}\s]+")
# Every character that ``str.isspace``, and so ``\s``, accepts; a test
# checks the list against every code point.
_SPACE_CHARS = (
    "\t\n\v\f\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005"
    "\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)
# The kind of a run by its first character, any one not listed being OTHER:
# a fixed table, so no input adds to it.
_KIND_OF = {
    **dict.fromkeys(WORD_CHARS, TokenKind.WORD),
    **dict.fromkeys(_SPACE_CHARS, TokenKind.SPACE),
}
_FIRST = itemgetter(0)
# A NamedTuple's own ``__new__`` is a Python function; ``tuple.__new__`` is not.
_make_token = partial(tuple.__new__, Token)


def tokenize(text: str) -> list[Token]:
    """Split text into maximal same-kind runs covering the input exactly.

    Mixed-script runs split at the script boundary: a Latin letter never
    joins an Arabic word token.
    """
    runs = _RUNS.findall(text)
    kinds = map(_KIND_OF.get, map(_FIRST, runs), repeat(TokenKind.OTHER))
    bounds = list(accumulate(map(len, runs), initial=0))
    return list(map(_make_token, zip(kinds, runs, bounds, bounds[1:])))


# ``[gap, word, gap, …, word, gap]``: the WORD token texts of ``tokenize``
# at the odd indices, and the text around and between them, which joins
# back to the input; only the first and last gap can be empty.
split_words = re.compile(f"([{_WORD}]+)").split
