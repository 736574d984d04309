"""The rule loop, the windows and the fix choice as they were first written.

Kept as the oracle for ``nota.rules.run_rules``, ``nota.rules.windows``
and ``nota.pipeline._select_nonoverlapping``: every enabled rule runs on
every window, each word's neighbours are found by scanning over the
space tokens around it, and each candidate fix is tested against every
chosen one.  The code is the implementation they replaced, unchanged
except that ``_select_nonoverlapping`` lost its leading underscore here.
"""

from __future__ import annotations

from typing import Mapping

from nota.lexicon import Lexicon
from nota.pipeline import _PRIORITY_INDEX
from nota.rules import _RULES, DEFAULT_FUSED_PREPOSITIONS, RULE_PRIORITY, Diagnostic, RuleWindow
from nota.tokenize import Token, TokenKind


def windows(tokens: list[Token]) -> list[RuleWindow]:
    """Word tokens paired with their word neighbours across spaces only."""
    out: list[RuleWindow] = []
    for i, tok in enumerate(tokens):
        if tok.kind is not TokenKind.WORD:
            continue
        prev_word = None
        j = i - 1
        while j >= 0 and tokens[j].kind is TokenKind.SPACE:
            j -= 1
        if j >= 0 and tokens[j].kind is TokenKind.WORD:
            prev_word = tokens[j]
        next_word = None
        j = i + 1
        while j < len(tokens) and tokens[j].kind is TokenKind.SPACE:
            j += 1
        if j < len(tokens) and tokens[j].kind is TokenKind.WORD:
            next_word = tokens[j]
        out.append(RuleWindow(tok, prev_word, next_word))
    return out


def run_rules(
    tokens: list[Token],
    lex: Lexicon,
    enabled: Mapping[str, bool] | None = None,
    fused_prepositions: Mapping[str, str] | None = None,
) -> list[Diagnostic]:
    """Run the enabled rules over all word windows, in deterministic order."""
    fused = DEFAULT_FUSED_PREPOSITIONS if fused_prepositions is None else fused_prepositions
    active = [
        rid for rid in RULE_PRIORITY if enabled is None or enabled.get(rid, True)
    ]
    out: list[Diagnostic] = []
    for window in windows(tokens):
        for rid in active:
            out.extend(_RULES[rid](window, lex, fused))
    out.sort(key=lambda d: (d.start, d.rule))
    return out


def select_nonoverlapping(diags: list[Diagnostic]) -> list[Diagnostic]:
    """Greedy pick by rule priority then position; overlaps wait a pass."""
    chosen: list[Diagnostic] = []
    for d in sorted(diags, key=lambda d: (_PRIORITY_INDEX[d.rule], d.start, d.end)):
        if all(d.end <= c.start or d.start >= c.end for c in chosen):
            chosen.append(d)
    return chosen
