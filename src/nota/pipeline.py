"""Orchestration: tokenize → rules → rewrite, with fixpoint guarantees.

Check mode never touches the text. Fix mode canonicalizes the input,
then repeats rule passes, applying Error fixes and lexicon-backed
Warning fixes until a pass finds nothing more to do; the result is a
fixpoint of the enabled rules.  Diagnostics always carry spans into the
original input; the applied rewrites are recorded in a fix trace.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum, auto

from .config import Config, ConfigError, DEFAULT_CONFIG
from .lexicon import Lexicon
from .rules import Diagnostic, RULE_PRIORITY, Severity, run_rules
from .script import Canonical, canonicalize
from .tokenize import Token, tokenize


class Mode(Enum):
    CHECK = auto()   # report only
    FIX = auto()     # apply Error + lexicon-backed Warning fixes
    STRICT = auto()  # report only; any diagnostic fails the run


class PassCapExceededError(RuntimeError):
    """Fixes kept applying past the pass cap: a rule interaction bug."""


@dataclass(frozen=True)
class FixEvent:
    rule: str
    pass_index: int
    start: int          # span into that pass's text, not the original
    end: int
    replacement: str


@dataclass(frozen=True)
class RunResult:
    output: str
    diagnostics: tuple[Diagnostic, ...]  # spans into the original input
    fixes: tuple[FixEvent, ...]
    passes_used: int


_PRIORITY_INDEX = {rid: i for i, rid in enumerate(RULE_PRIORITY)}


def validate_setup(lex: Lexicon, config: Config) -> None:
    """Reject configurations the rules cannot honour."""
    if config.rule_enabled("R-SEP") and not lex.prepositions:
        raise ConfigError("R-SEP is enabled but the preposition list is empty")


def _fixable(diag: Diagnostic) -> bool:
    if diag.replacement is None:
        return False
    return diag.severity in (Severity.ERROR, Severity.WARNING)


def _select_nonoverlapping(diags: list[Diagnostic]) -> list[Diagnostic]:
    """Greedy pick by rule priority then position; overlaps wait a pass."""
    chosen: list[Diagnostic] = []
    for d in sorted(diags, key=lambda d: (_PRIORITY_INDEX[d.rule], d.start, d.end)):
        if all(d.end <= c.start or d.start >= c.end for c in chosen):
            chosen.append(d)
    return chosen


def _lint_canonical(
    text: str, lex: Lexicon, config: Config
) -> tuple[list[Token], list[Diagnostic]]:
    """Tokenize already canonical text and run the enabled rules over it."""
    tokens = tokenize(text)
    return tokens, run_rules(
        tokens, lex, enabled=config.rules, fused_prepositions=config.fused_prepositions
    )


def _lint(
    text: str, lex: Lexicon, config: Config
) -> tuple[Canonical, list[Token], list[Diagnostic]]:
    """The lint core: validate the setup, canonicalize, tokenize, run the rules.

    Token and diagnostic spans point into ``canon.text``.
    """
    validate_setup(lex, config)
    canon = canonicalize(text)
    return (canon, *_lint_canonical(canon.text, lex, config))


def normalize(
    text: str,
    lex: Lexicon,
    config: Config = DEFAULT_CONFIG,
    mode: Mode = Mode.CHECK,
) -> RunResult:
    """Run the full pipeline over one document."""
    canon, _, first_pass = _lint(text, lex, config)
    reported = []
    for d in first_pass:
        start, end = canon.to_original(d.start, d.end)
        reported.append(replace(d, start=start, end=end))
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
        chosen = _select_nonoverlapping(applicable)
        for d in sorted(chosen, key=lambda d: d.start, reverse=True):
            current = current[: d.start] + (d.replacement or "") + current[d.end :]
            fixes.append(FixEvent(d.rule, passes, d.start, d.end, d.replacement or ""))
        _, diags = _lint_canonical(current, lex, config)

    return RunResult(
        output=current,
        diagnostics=reported,
        fixes=tuple(fixes),
        passes_used=passes,
    )
