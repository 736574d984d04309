"""Lossless tokenizer: typed spans that concatenate back to the input."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto

from .script import WORD_CHARS, CharClass, classify


class TokenKind(Enum):
    WORD = auto()
    SPACE = auto()
    PUNCT = auto()
    FOREIGN = auto()
    DIGITS = auto()


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    start: int
    end: int


def _kind_of(ch: str) -> TokenKind:
    if ch in WORD_CHARS:
        return TokenKind.WORD
    cls = classify(ch)
    if cls is CharClass.SPACE:
        return TokenKind.SPACE
    if cls is CharClass.DIGIT:
        return TokenKind.DIGITS
    if cls is CharClass.PUNCT:
        return TokenKind.PUNCT
    return TokenKind.FOREIGN


def tokenize(text: str) -> list[Token]:
    """Split text into maximal same-kind runs covering the input exactly.

    Mixed-script runs split at the script boundary: a Latin letter never
    joins an Arabic word token.
    """
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        kind = _kind_of(text[i])
        j = i + 1
        while j < n and _kind_of(text[j]) is kind:
            j += 1
        tokens.append(Token(kind, text[i:j], i, j))
        i = j
    return tokens
