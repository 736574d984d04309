"""Orchestration: tokenize → rules → rewrite, with fixpoint guarantees.

Check mode never touches the text. Fix mode canonicalizes the input,
then repeats rule passes, applying Error fixes and lexicon-backed
Warning fixes until a pass finds nothing more to do; the result is a
fixpoint of the enabled rules.  Diagnostics always carry spans into the
original input; the applied rewrites are recorded in a fix trace.

Only the first pass tokenizes and lints the whole text.  Every finding
lies inside one word, so a pass rewrites words and nothing between them,
and a rule reads at most its word and the word next to it, across spaces,
on either side.  So a rewrite changes the windows of the words it made (an
R-SEP split gives two, a deleted lone mark none) and of the unchanged word
across spaces on either side of them.  The loop re-lints exactly those
words, each once per pass, with every enabled rule, through the rule memo
(Wagner & Graham, "Efficient and Flexible Incremental Parsing", TOPLAS
1998).  That suffices because the fix choice is maximal: each fixable
finding of a pass overlaps a chosen fix, so a word the pass did not
rewrite, in a window that did not change, holds no fixable finding.

The loop keeps the text as ``split_words`` gives it, ``[gap, word, gap,
…, word, gap]``.  A pass bisects the part ends to find each fix's word,
and puts the split of what the word became in its place, the split's
edge gaps joining the gaps beside it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum, auto
from itertools import accumulate
from operator import attrgetter

from .config import Config, ConfigError, DEFAULT_CONFIG
from .lexicon import Lexicon
from .rules import (
    Diagnostic,
    RULE_PRIORITY,
    RuleWindow,
    Severity,
    _remember,
    _RuleSet,
    run_rules,
)
from .script import Canonical, canonicalize
from .tokenize import Token, TokenKind, split_words, tokenize


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
_START = attrgetter("start")


def validate_setup(lex: Lexicon, config: Config) -> None:
    """Reject configurations the rules cannot honour."""
    if config.rule_enabled("R-SEP") and not lex.prepositions:
        raise ConfigError("R-SEP is enabled but the preposition list is empty")


def _fixable(diag: Diagnostic) -> bool:
    return diag.replacement is not None and diag.severity in (Severity.ERROR, Severity.WARNING)


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
            spans.insert(i, (d.start, d.end))
    return chosen


def _lint(
    text: str, lex: Lexicon, config: Config
) -> tuple[Canonical, list[Token], list[Diagnostic]]:
    """The lint core: canonicalize, tokenize, run the rules.

    Token and diagnostic spans point into ``canon.text``.
    """
    canon = canonicalize(text)
    tokens = tokenize(canon.text)
    return canon, tokens, run_rules(
        tokens, lex, enabled=config.rules, fused_prepositions=config.fused_prepositions
    )


def normalize(
    text: str,
    lex: Lexicon,
    config: Config = DEFAULT_CONFIG,
    mode: Mode = Mode.CHECK,
) -> RunResult:
    """Run the full pipeline over one document."""
    validate_setup(lex, config)
    # Not the token list: the fix loop reads the text as split_words gives it.
    canon, first_pass = _lint(text, lex, config)[::2]
    reported = tuple(
        Diagnostic(d.rule, *canon.to_original(d.start, d.end), d.severity, d.message, d.replacement)
        for d in first_pass
    )

    if mode is not Mode.FIX:
        return RunResult(output=text, diagnostics=reported, fixes=(), passes_used=1)

    fixes: list[FixEvent] = []
    passes = 0
    rules = _RuleSet(lex, config.rules, config.fused_prepositions)
    splits: dict[str, tuple[str, ...]] = {}  # the split of each text a word became
    pending = [d for d in first_pass if _fixable(d)]
    parts = split_words(canon.text) if pending else []
    ends = list(accumulate(map(len, parts)))
    while True:
        passes += 1
        if not pending:
            break
        if passes > config.max_passes:
            raise PassCapExceededError(
                f"fixes still applicable after {config.max_passes} passes"
            )
        chosen = sorted(_select_nonoverlapping(pending), key=_START)
        parts, ends, pending = _rewrite(parts, ends, chosen, lex, rules, splits)
        fixes.extend(
            FixEvent(d.rule, passes, d.start, d.end, d.replacement) for d in reversed(chosen)
        )

    return RunResult(
        output="".join(parts) if fixes else canon.text,
        diagnostics=reported,
        fixes=tuple(fixes),
        passes_used=passes,
    )


def _rewrite(
    parts: list[str],
    ends: list[int],
    chosen: list[Diagnostic],
    lex: Lexicon,
    rules: _RuleSet,
    splits: dict[str, tuple[str, ...]],
) -> tuple[list[str], list[int], list[Diagnostic]]:
    """Apply ``chosen``, sorted and each in one word of ``parts`` (which end
    at ``ends``); return the new parts, their ends, and the fixable findings
    of the new words and of the unchanged words beside them."""
    out = [""]
    # The pieces that join the open gap out[-1] once a word closes it; joined
    # once, so that a chain of deleted words stays linear.
    more: list[str] = []
    # Each word whose window changed, by index in ``out``, once.
    jobs: list[int] = []
    copied = i = 0
    while i < len(chosen):
        k = bisect_right(ends, chosen[i].start, copied)
        start, word = ends[k - 1], parts[k]
        new, cut = "", 0
        while i < len(chosen) and (d := chosen[i]).start < ends[k]:
            new += word[cut : d.start - start] + d.replacement
            cut = d.end - start
            i += 1
        new += word[cut:]
        sub = splits.get(new)
        if sub is None:
            sub = splits[new] = tuple(split_words(new))
        # The parts up to the word, then the split of what it became, each
        # ``[gap, word, …, gap]`` with its first gap joining the open one.
        for run in (parts[copied:k], sub):
            if run[0]:
                more.append(run[0])
            if len(run) > 1:
                if more:
                    out[-1] += "".join(more)
                    more = []
                out += run[1:]
        at = len(out) - len(sub)  # the index of the gap before the word
        # The new words, with the unchanged word across spaces on either
        # side: the one before unless it was rewritten too or is taken
        # already as the one after the previous fix's word, and the one
        # after unless the next fix is in it.
        lo, hi = at + 1, len(out)
        if copied < k - 1 and parts[k - 1].isspace() and at - 1 not in jobs[-1:]:
            lo = at - 1
        if k + 2 < len(parts) and parts[k + 1].isspace():
            if i == len(chosen) or chosen[i].start >= ends[k + 2]:
                hi += 2
        jobs += range(lo, hi, 2)
        copied = k + 1
    out[-1] += "".join(more) + parts[copied]
    out += parts[copied + 1 :]
    ends = list(accumulate(map(len, out)))
    found: list[Diagnostic] = []
    for i in jobs:
        entry = rules.memo.get(out[i])
        if entry is None:
            entry = _remember(out[i], lex, rules)
        if not entry:  # a clean word
            continue
        word_found, gated = entry
        if word_found:
            s = ends[i - 1]
            found += [
                Diagnostic(f.rule, f.start + s, f.end + s, f.severity, f.message, f.replacement)
                for f in word_found
                if _fixable(f)
            ]
        if gated:  # the neighbour either side is two parts away, across spaces only
            prev = nxt = None
            if i > 1 and out[i - 1].isspace():
                prev = Token(TokenKind.WORD, out[i - 2], ends[i - 3], ends[i - 2])
            if i + 2 < len(out) and out[i + 1].isspace():
                nxt = Token(TokenKind.WORD, out[i + 2], ends[i + 1], ends[i + 2])
            window = RuleWindow(Token(TokenKind.WORD, out[i], ends[i - 1], ends[i]), prev, nxt)
            for rule in gated:
                found += filter(_fixable, rule.body(window, lex, rules.fused))
    return out, ends, found
