"""The fix loop as it was before it re-linted only the neighbourhood of
each fix.

Kept as the oracle for ``nota.pipeline.normalize``: every pass after
the first re-tokenizes and re-lints the whole rewritten text.  The code
is the implementation it replaced, except that it calls
``validate_setup`` first, which ``_lint`` no longer does, re-lints
through ``tokenize`` and ``run_rules`` itself, and chooses each pass's
fixes over the whole text with the all-pairs greedy of ``rules_oracle``,
so that it shares no fix-choice code with the program, and maps each
finding to the input alone with ``script_oracle.to_original``.
"""

from __future__ import annotations

from nota.config import Config, DEFAULT_CONFIG
from nota.lexicon import Lexicon
from nota.pipeline import (
    FixEvent,
    Mode,
    PassCapExceededError,
    RunResult,
    _lint,
    validate_setup,
)
from nota.rules import Diagnostic, Severity, run_rules
from nota.tokenize import tokenize

from rules_oracle import select_nonoverlapping
from script_oracle import to_original


def _fixable(diag: Diagnostic) -> bool:
    return diag.replacement is not None and diag.severity in (Severity.ERROR, Severity.WARNING)


def normalize(
    text: str,
    lex: Lexicon,
    config: Config = DEFAULT_CONFIG,
    mode: Mode = Mode.CHECK,
) -> RunResult:
    """Run the full pipeline over one document."""
    validate_setup(lex, config)
    canon, _, first_pass = _lint(text, lex, config)
    reported = []
    for d in first_pass:
        start, end = to_original(canon, d.start, d.end)
        reported.append(Diagnostic(d.rule, start, end, d.severity, d.message, d.replacement))
    reported = tuple(reported)

    if mode is not Mode.FIX:
        return RunResult(output=text, diagnostics=reported, fixes=(), passes_used=1)

    current = canon.text
    fixes: list[FixEvent] = []
    passes = 0
    diags = first_pass
    while True:
        passes += 1
        applicable = [d for d in diags if _fixable(d)]
        if not applicable:
            break
        if passes > config.max_passes:
            raise PassCapExceededError(
                f"fixes still applicable after {config.max_passes} passes"
            )
        chosen = sorted(select_nonoverlapping(applicable), key=lambda d: d.start)
        pieces = []
        pos = 0
        for d in chosen:
            pieces += (current[pos : d.start], d.replacement or "")
            pos = d.end
        pieces.append(current[pos:])
        current = "".join(pieces)
        fixes.extend(
            FixEvent(d.rule, passes, d.start, d.end, d.replacement or "") for d in reversed(chosen)
        )
        diags = run_rules(
            tokenize(current), lex, enabled=config.rules, fused_prepositions=config.fused_prepositions
        )

    return RunResult(
        output=current,
        diagnostics=reported,
        fixes=tuple(fixes),
        passes_used=passes,
    )
