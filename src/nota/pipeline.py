"""Orchestration: tokenize → rules → rewrite, with fixpoint guarantees.

Check mode never touches the text. Fix mode canonicalizes the input,
then repeats rule passes, applying Error fixes and lexicon-backed
Warning fixes until a pass finds nothing more to do; the result is a
fixpoint of the enabled rules.  Diagnostics always carry spans into the
original input; the applied rewrites are recorded in a fix trace.

Only the first pass lints the whole text.  No token crosses whitespace
and a rule window reaches one non-space token on each side, so a fix
can change the findings of the whitespace-delimited runs it touches and
of one run on each side of them, no others.  After each rewrite only
those runs are re-linted, with one more run on each side as context
(Wagner & Graham, "Efficient and Flexible Incremental Parsing", TOPLAS
1998).  Nothing found before carries over: the fix choice is maximal,
so each fixable finding of a pass overlaps a chosen fix, in a run the
pass rewrote, and a finding anywhere else would have been there, and
been chosen, the pass before.
"""

from __future__ import annotations

import re
from bisect import bisect_left, insort
from dataclasses import dataclass
from enum import Enum, auto

from .config import Config, ConfigError, DEFAULT_CONFIG
from .lexicon import Lexicon
from .rules import Diagnostic, RULE_PRIORITY, Severity, run_rules
from .script import Canonical, canonicalize
from .tokenize import Token, tokenize


class Mode(Enum):
    CHECK = auto()  # report only
    FIX = auto()    # apply Error + lexicon-backed Warning fixes


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
    """Greedy pick by rule priority then position; overlaps wait a pass.

    Two spans overlap when each starts before the other ends.  The chosen
    spans are kept sorted by (start, end); pairwise non-overlapping, their
    ends then never decrease, so the last one starting before a candidate's
    end is the only one that can reach past its start.
    """
    chosen: list[Diagnostic] = []
    spans: list[tuple[int, int]] = []
    for d in sorted(diags, key=lambda d: (_PRIORITY_INDEX[d.rule], d.start, d.end)):
        i = bisect_left(spans, (d.end,))
        if i == 0 or spans[i - 1][1] <= d.start:
            chosen.append(d)
            insort(spans, (d.start, d.end))
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
    reported = tuple(
        Diagnostic(d.rule, *canon.to_original(d.start, d.end), d.severity, d.message, d.replacement)
        for d in first_pass
    )

    if mode is not Mode.FIX:
        return RunResult(output=text, diagnostics=reported, fixes=(), passes_used=1)

    current = canon.text
    fixes: list[FixEvent] = []
    passes = 0
    pending = [d for d in first_pass if _fixable(d)]
    while True:
        passes += 1
        if not pending:
            break
        if passes > config.max_passes:
            raise PassCapExceededError(
                f"fixes still applicable after {config.max_passes} passes"
            )
        chosen = sorted(_select_nonoverlapping(pending), key=lambda d: d.start)
        pieces = []
        spans = []  # each replacement's span in the rewritten text
        pos = shift = 0
        for d in chosen:
            pieces += (current[pos : d.start], d.replacement)
            spans.append((d.start + shift, d.start + shift + len(d.replacement)))
            shift += len(d.replacement) - (d.end - d.start)
            pos = d.end
        pieces.append(current[pos:])
        current = "".join(pieces)
        fixes.extend(
            FixEvent(d.rule, passes, d.start, d.end, d.replacement) for d in reversed(chosen)
        )
        pending = []
        for lo, keep_lo, keep_hi, hi in _zones(current, spans):
            _, found = _lint_canonical(current[lo:hi], lex, config)
            pending += (
                Diagnostic(d.rule, d.start + lo, d.end + lo, d.severity, d.message, d.replacement)
                for d in found
                if _fixable(d) and keep_lo <= d.start + lo < keep_hi
            )

    return RunResult(
        output=current,
        diagnostics=reported,
        fixes=tuple(fixes),
        passes_used=passes,
    )


# The rest of a run of non-space characters, and the spaces after a run
# with the run that follows them.
_RUN_REST = re.compile(r"\S*")
_NEXT_RUN = re.compile(r"\s*\S*")


def _back(text: str, pos: int, floor: int, space: bool) -> int:
    """Step left from ``pos`` over spaces (or over non-spaces), not below ``floor``."""
    while pos > floor and text[pos - 1].isspace() is space:
        pos -= 1
    return pos


def _zones(text: str, spans: list[tuple[int, int]]) -> list[list[int]]:
    """The ``[ctx_lo, keep_lo, keep_hi, ctx_hi]`` zones to re-lint around ``spans``.

    A span, sorted and pairwise disjoint, damages the runs of non-space
    characters it touches, none if it deleted a whole run.  The keep zone
    adds one run on each side; the context zone one more.  A zone whose
    context touches or overlaps the previous one's merges with it, and the
    scan left from a span stops at the previous context, so no run is
    scanned twice.
    """
    zones: list[list[int]] = []
    hi = -1  # the end of the last zone's damaged runs
    for a, b in spans:
        if not zones or a > zones[-1][3]:
            floor = zones[-1][3] if zones else 0
            lo = _back(text, a, floor, False)  # where the damaged runs start
            keep_lo = _back(text, _back(text, lo, floor, True), floor, False)
            ctx_lo = _back(text, _back(text, keep_lo, floor, True), floor, False)
            if not zones or _back(text, ctx_lo, floor, True) > floor:
                zones.append([ctx_lo, keep_lo, 0, 0])
                hi = -1
        if b > hi:
            zone = zones[-1]
            hi = _RUN_REST.match(text, b).end()
            zone[2] = _NEXT_RUN.match(text, hi).end()
            zone[3] = _NEXT_RUN.match(text, zone[2]).end()
    return zones
