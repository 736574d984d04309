"""The per-character tokenizer.

Kept as the oracle for ``nota.tokenize.tokenize``, which splits the text
with one compiled regex.  The walk is the implementation it replaced:
every character is classified by ``_kind_of`` through
``nota.script.classify``, whose digit, punctuation and foreign classes
all read as OTHER.
"""

from __future__ import annotations

from nota.script import WORD_CHARS, CharClass, classify
from nota.tokenize import Token, TokenKind


def _kind_of(ch: str) -> TokenKind:
    if ch in WORD_CHARS:
        return TokenKind.WORD
    if classify(ch) is CharClass.SPACE:
        return TokenKind.SPACE
    return TokenKind.OTHER


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
