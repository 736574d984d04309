"""Orchestration: tokenize → rules → rewrite, with fixpoint guarantees.

Check mode never touches the text. Fix mode canonicalizes the input,
then repeats rule passes, applying Error fixes and lexicon-backed
Warning fixes until a pass finds nothing more to do; the result is a
fixpoint of the enabled rules.  Diagnostics always carry spans into the
original input; the applied rewrites are recorded in a fix trace.  The
first pass's findings, sorted by start, are mapped onto the input in one
sweep over the runs canonicalization rewrote; a finding whose span does
not move is reported as the same object.

Only the first pass lints the whole text: ``run_rules`` looks every word
of the text's ``split_words`` parts up in the rule memo.  No path of the
lint core builds a ``Token``: a rule gets the texts of its word and of
the words next to it, and finds its spans at offset 0 in its word.
Every finding lies inside one word, so findings of two words never
overlap, and the greedy choice over a pass's findings runs
apart on each word, and within a word only on clusters of findings that
overlap.  A pass rewrites words and nothing between them, and a rule
reads at most its word and the word next to it, across spaces, on either
side; so a pass can change only the windows of the words it made, those
that a fix's new span touches (an R-SEP split gives two, a deleted lone
mark none), and of the word on either side of each rewritten one.  The
loop re-lints those, each once per pass, with every enabled rule, through
the same ``_RuleSet.lint_words`` as the first pass (Wagner & Graham,
"Efficient and Flexible Incremental Parsing", TOPLAS 1998).
That suffices because the choice is maximal: each fixable finding of a
pass overlaps a chosen fix, so a word the pass did not rewrite, in a
window that did not change, holds no fixable finding.  A pass's pending
fixes are its ``FixEvent``s, one per fixable finding, and the fix trace
keeps those chosen: after the first pass no ``Diagnostic`` is built.

A pass applies its fixes in one join of the text's slices and their
replacements, splits the new text with ``split_words``, and finds the
words to re-lint by bisecting the new parts' ends at each fix's new span.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum, auto
from itertools import accumulate
from operator import attrgetter

from .config import Config, ConfigError, DEFAULT_CONFIG
from .lexicon import Lexicon
from .rules import Diagnostic, RULE_PRIORITY, Severity, _RuleSet, run_rules
from .script import Canonical, canonicalize
from .tokenize import Tokens, split_words, tokenize


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


def _select_nonoverlapping(pending: list[FixEvent]) -> list[FixEvent]:
    """Greedy pick by rule priority then position; overlaps wait a pass.
    The chosen fixes come back by start.  It runs once per pass, over all
    of the pass's pending fixes.

    Two spans overlap when each starts before the other ends.  Whether the
    greedy takes a span depends only on the spans it overlaps, so it runs
    apart on each cluster of spans that overlap transitively, found in one
    sweep by start; a span alone in its cluster is taken.
    """
    chosen: list[FixEvent] = []
    cluster: list[FixEvent] = []
    reach = 0  # the greatest end in the cluster
    for d in sorted(pending, key=_START):
        if d.start >= reach:
            chosen += cluster if len(cluster) < 2 else _greedy(cluster)
            cluster.clear()
        cluster.append(d)
        reach = max(reach, d.end)
    chosen += cluster if len(cluster) < 2 else _greedy(cluster)
    return chosen


def _greedy(cluster: list[FixEvent]) -> list[FixEvent]:
    """The greedy choice among ``cluster``, by start.

    Pairwise non-overlapping, the chosen spans have ends that never
    decrease with their starts, so the last one starting before a
    candidate's end is the only one that can reach past its start.
    """
    chosen: list[FixEvent] = []
    for d in sorted(cluster, key=lambda d: (_PRIORITY_INDEX[d.rule], d.start, d.end)):
        i = bisect_left(chosen, d.end, key=_START)
        if i == 0 or chosen[i - 1].end <= d.start:
            chosen.insert(i, d)
    return chosen


def _lint(
    text: str, lex: Lexicon, config: Config
) -> tuple[Canonical, Tokens, list[Diagnostic]]:
    """The lint core: canonicalize, split the text into words, run the rules
    on every word.  Neither this nor its callers read the typed runs.

    The parts' ends and the diagnostic spans point into ``canon.text``.
    """
    canon = canonicalize(text)
    tokens = tokenize(canon.text)
    return canon, tokens, run_rules(
        tokens, lex, enabled=config.rules, fused_prepositions=config.fused_prepositions
    )


def _to_original(canon: Canonical, found: list[Diagnostic]) -> tuple[Diagnostic, ...]:
    """``found``, sorted by start, with each span mapped from ``canon.text``
    onto the input, as ``nota.script.Canonical`` describes, in one forward
    sweep over ``canon.runs``.  A finding whose span does not move is
    reported as it is."""
    runs = canon.runs
    if not runs:
        return tuple(found)
    out: list[Diagnostic] = []
    k = -1  # the last run that starts at or before the finding
    following = runs[0].start  # where the run after it starts, or the text's end
    for d in found:
        start, end = d.start, d.end
        while start >= following:
            k += 1
            following = runs[k + 1].start if k + 1 < len(runs) else len(canon.text)
        if k >= 0:
            run = runs[k]
            lo = start - run.start
            if lo < len(run.sources):
                hi = end - run.start
                start, end = min(run.sources[lo:hi]), max(run.source_ends[lo:hi])
            else:
                start += run.delta
                end += run.delta
            if start != d.start or end != d.end:
                d = Diagnostic(d.rule, start, end, d.severity, d.message, d.replacement)
        out.append(d)
    return tuple(out)


def normalize(
    text: str,
    lex: Lexicon,
    config: Config = DEFAULT_CONFIG,
    mode: Mode = Mode.CHECK,
) -> RunResult:
    """Run the full pipeline over one document."""
    validate_setup(lex, config)
    # Not the token list: each fix pass splits its own text.
    canon, first_pass = _lint(text, lex, config)[::2]
    reported = _to_original(canon, first_pass)

    if mode is not Mode.FIX:
        return RunResult(output=text, diagnostics=reported, fixes=(), passes_used=1)

    fixes: list[FixEvent] = []
    passes = 1
    rules = _RuleSet.of(lex, config.rules, config.fused_prepositions)  # the first pass's
    fixed = canon.text
    linted = [(0, first_pass)]  # (offset, findings) pairs; the first pass's are placed
    while pending := [
        FixEvent(d.rule, passes, d.start + base, d.end + base, d.replacement)
        for base, found in linted for d in found if _fixable(d)
    ]:
        if passes > config.max_passes:
            raise PassCapExceededError(
                f"fixes still applicable after {config.max_passes} passes"
            )
        fixed, parts, ends, jobs, chosen = _rewrite(fixed, pending)
        fixes += reversed(chosen)
        passes += 1
        linted = rules.lint_words(parts, ends, jobs)

    return RunResult(
        output=fixed,
        diagnostics=reported,
        fixes=tuple(fixes),
        passes_used=passes,
    )


def _rewrite(
    text: str, pending: list[FixEvent]
) -> tuple[str, list[str], list[int], list[int], list[FixEvent]]:
    """Apply the fixes chosen among ``pending`` to ``text``.  Return the new
    text, its ``split_words`` parts and their ends, the index of each word
    that a fix's new span touches and of the word on either side, ascending
    and once, and the fixes chosen, by start."""
    chosen = _select_nonoverlapping(pending)
    pieces: list[str] = []
    cut = 0
    for d in chosen:
        pieces += text[cut : d.start], d.replacement
        cut = d.end
    pieces.append(text[cut:])
    fixed = "".join(pieces)
    parts = split_words(fixed)
    ends = list(accumulate(map(len, parts)))
    jobs: list[int] = []
    shift = 0  # how far the fixes so far moved the text after them
    for d in chosen:
        lo = bisect_left(ends, d.start + shift)  # the first part that ends at or past the span
        shift += len(d.replacement) - (d.end - d.start)
        hi = bisect_right(ends, d.end + shift)  # the first part that ends past it
        # The words from the one before part lo to the one after part hi:
        # words sit at the odd indices, and the last part is a gap.
        jobs += range(max(lo - 2, 0) | 1, min(hi + 3, len(parts) - 1), 2)
    return fixed, parts, ends, list(dict.fromkeys(jobs)), chosen
