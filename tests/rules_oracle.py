"""The rule loop and the fix choice without the word memo or the bisect.

Kept as the oracle for ``nota.rules.run_rules`` and
``nota.pipeline._select_nonoverlapping``: every enabled rule runs on
every window, and each candidate fix is tested against every chosen one.
The code is the implementation they replaced, unchanged except that
``_select_nonoverlapping`` lost its leading underscore here.
"""

from __future__ import annotations

from typing import Mapping

from nota.lexicon import Lexicon
from nota.pipeline import _PRIORITY_INDEX
from nota.rules import _RULES, DEFAULT_FUSED_PREPOSITIONS, RULE_PRIORITY, Diagnostic, windows
from nota.tokenize import Token


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
