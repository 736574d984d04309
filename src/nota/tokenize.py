"""Lossless tokenizer: typed spans that concatenate back to the input.

One compiled regex, ``[WORD_CHARS]+|\\s+|[^WORD_CHARS\\s]+``, splits the
text into maximal runs of word characters (WORD), whitespace as
``str.isspace`` reads it (SPACE) and everything else (OTHER): digits,
punctuation and foreign text alike, since the rules read only words and
the spaces between them.

``tokenize`` gives a ``Tokens``: the ``split_words`` parts of the text and
their ends, which is all the rules read, and a view of the typed runs.
The runs are built on first use, once: ``findall`` gives the run texts,
``accumulate`` over their lengths the offsets, a fixed table the kind of
each run's first character, and ``tuple.__new__`` the tokens, each in a
C-level pass over the runs.  No path of the lint core reads them or
builds a Token, so it makes no object per run that the cyclic GC tracks.
"""

from __future__ import annotations

import re
from enum import Enum, auto
from functools import cached_property, partial
from itertools import accumulate, repeat
from operator import itemgetter
from typing import Iterator, NamedTuple

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

# ``[gap, word, gap, …, word, gap]``: the WORD token texts of ``tokenize``
# at the odd indices, and the text around and between them, which joins
# back to the input; only the first and last gap can be empty.
split_words = re.compile(f"([{_WORD}]+)").split


def _typed_runs(text: str) -> list[Token]:
    """The maximal same-kind runs of ``text``, as tokens."""
    runs = _RUNS.findall(text)
    kinds = map(_KIND_OF.get, map(_FIRST, runs), repeat(TokenKind.OTHER))
    bounds = list(accumulate(map(len, runs), initial=0))
    return list(map(_make_token, zip(kinds, runs, bounds, bounds[1:])))


class Tokens:
    """The tokens of one text.

    ``parts`` is its ``split_words`` list and ``ends[i]`` the offset where
    ``parts[i]`` ends.  As a sequence, it is the list of the text's typed
    runs, ``runs``, built when first read: it has a length, indexing and
    slicing, iteration, ``repr`` and ``==`` with a list of tokens.
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self.parts = split_words(text)
        self.ends = list(accumulate(map(len, self.parts)))

    @cached_property
    def runs(self) -> list[Token]:
        return _typed_runs(self.text)

    def __len__(self) -> int:
        return len(self.runs)

    def __getitem__(self, index):
        return self.runs[index]

    def __iter__(self) -> Iterator[Token]:
        return iter(self.runs)

    def __eq__(self, other: object) -> bool:
        return self.runs == other

    def __repr__(self) -> str:
        return repr(self.runs)


def tokenize(text: str) -> Tokens:
    """Split text into maximal same-kind runs covering the input exactly.

    Mixed-script runs split at the script boundary: a Latin letter never
    joins an Arabic word token.
    """
    return Tokens(text)
