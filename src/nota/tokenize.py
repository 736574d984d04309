"""Lossless tokenizer: typed spans that concatenate back to the input.

One compiled regex,
``(?P<WORD>[WORD_CHARS]+)|(?P<SPACE>\\s+)|(?P<OTHER>[^WORD_CHARS\\s]+)``,
splits the text into maximal runs of word characters (WORD), whitespace
as ``str.isspace`` reads it (SPACE) and everything else (OTHER): digits,
punctuation and foreign text alike, since the rules read only words and
the spaces between them.  The group that matched a run names its kind.

``tokenize`` gives a ``Tokens``: the ``split_words`` parts of the text and
their ends, which is all the rules read, and a view of the typed runs,
built on first use, once.  No path of the lint core reads them or builds
a Token, so it makes no object per run that the cyclic GC tracks.
"""

from __future__ import annotations

import re
from enum import Enum, auto
from functools import cached_property
from itertools import accumulate
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
# Each group is named after a ``TokenKind``: ``_typed_runs`` reads a run's
# kind off the group that matched it.
_RUNS = re.compile(rf"(?P<WORD>[{_WORD}]+)|(?P<SPACE>\s+)|(?P<OTHER>[^{_WORD}\s]+)")

# ``[gap, word, gap, …, word, gap]``: the WORD token texts of ``tokenize``
# at the odd indices, and the text around and between them, which joins
# back to the input; only the first and last gap can be empty.
split_words = re.compile(f"([{_WORD}]+)").split


def _typed_runs(text: str) -> list[Token]:
    """The maximal same-kind runs of ``text``, as tokens."""
    return [Token(TokenKind[m.lastgroup], m[0], *m.span()) for m in _RUNS.finditer(text)]


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
