"""Orchestration: tokenize → rules → rewrite, with fixpoint guarantees.

Check mode never touches the text. Fix mode canonicalizes the input,
then repeats rule passes, applying Error fixes and lexicon-backed
Warning fixes until a pass finds nothing more to do; the result is a
fixpoint of the enabled rules.  Diagnostics always carry spans into the
original input; the applied rewrites are recorded in a fix trace.

Only the first pass tokenizes and lints the whole text.  Every finding
lies inside one word, so a pass rewrites words and nothing between them,
and each rule reads its word and at most the one neighbouring word, across
spaces, that its declared reach in ``nota.rules`` names.  So after a
rewrite the loop re-lints, through the rule memo, only the words that came
out of the rewritten ones (an R-SEP split gives two, a deleted lone mark
none) and, on the unchanged word on either side of them, the rules whose
reach is that side, where the word passes their gate (Wagner & Graham,
"Efficient and Flexible Incremental Parsing", TOPLAS 1998).  Every other
rule sees the window it saw before, so finds what it found; and none of
that is fixable, for the fix choice is maximal: each fixable finding of a
pass overlaps a chosen fix, so lies in a word the pass rewrote.

The loop never tokenizes the whole text again.  It keeps the text as one
token list, ``_Tokens``, and each pass puts the tokens of what each
rewritten word became in place of that word's token.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from enum import Enum, auto
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
from .tokenize import Token, TokenKind, tokenize


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
_TEXT = attrgetter("text")
_SPACE, _WORDS = TokenKind.SPACE, TokenKind.WORD


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
    canon, tokens, first_pass = _lint(text, lex, config)
    reported = tuple(
        Diagnostic(d.rule, *canon.to_original(d.start, d.end), d.severity, d.message, d.replacement)
        for d in first_pass
    )

    if mode is not Mode.FIX:
        return RunResult(output=text, diagnostics=reported, fixes=(), passes_used=1)

    fixes: list[FixEvent] = []
    passes = 0
    fixing = _Tokens(tokens, lex, _RuleSet(lex, config.rules, config.fused_prepositions))
    pending = [d for d in first_pass if _fixable(d)]
    while True:
        passes += 1
        if not pending:
            break
        if passes > config.max_passes:
            raise PassCapExceededError(
                f"fixes still applicable after {config.max_passes} passes"
            )
        chosen = sorted(_select_nonoverlapping(pending), key=_START)
        pending = fixing.apply(chosen)
        fixes.extend(
            FixEvent(d.rule, passes, d.start, d.end, d.replacement) for d in reversed(chosen)
        )

    return RunResult(
        output="".join(map(_TEXT, fixing.tokens)) if fixes else canon.text,
        diagnostics=reported,
        fixes=tuple(fixes),
        passes_used=passes,
    )


def _join(tokens: list[Token], more: list[Token], glued: dict[int, list[str]]) -> int:
    """Extend ``tokens`` by ``more``, joining the runs where they meet if of
    one kind, as ``tokenize`` would; 1 if joined.  A joined token's texts
    wait in ``glued``, by its index, so that a chain of joins stays linear."""
    if more and tokens and tokens[-1].kind is more[0].kind:
        glued.setdefault(len(tokens) - 1, [tokens[-1].text]).append(more[0].text)
        tokens += more[1:]
        return 1
    tokens += more
    return 0


class _Tokens:
    """The text being fixed, as one list of tokens: kinds and texts as
    ``tokenize`` gives them for the whole text, so no two runs of one kind
    meet and a word's neighbour is at most one SPACE token away, and starts
    stale after the first pass.  Nothing reads those: each pending finding
    carries the index and the start of its word token instead."""

    def __init__(self, tokens: list[Token], lex: Lexicon, rules: _RuleSet) -> None:
        self.tokens, self.lex, self.rules = tokens, lex, rules
        # By each text a word became: its tokens; whether they start and end
        # with a word, so that no token around them joins them; and its words.
        self.regions: dict[str, tuple[list[Token], bool, list[tuple[int, str, int]]]] = {}
        self.at: dict[int, int] = {}  # the token index of each pending finding, by its start
        self.starts: dict[int, int] = {}  # the start of each of those tokens, by index

    def apply(self, chosen: list[Diagnostic]) -> list[Diagnostic]:
        """Apply ``chosen``, sorted and each inside one word, and return the
        fixable findings of the new text: those of the rewritten words, and
        those of the context rules on the words next to them whose reach
        changed."""
        tokens, at, starts, regions = self.tokens, self.at, self.starts, self.regions
        lex, rules = self.lex, self.rules
        if not at:  # the first pass, whose tokens' starts are current
            starts = list(map(_START, tokens))
            for d in chosen:
                at[d.start] = bisect_right(starts, d.start) - 1
        self.at = next_at = {}
        self.starts = next_starts = {}
        found: list[Diagnostic] = []
        out: list[Token] = []
        # The words to run context rules on once ``out`` is whole: each one's
        # index, its start, and the reach of the rules to run, None for all;
        # flat, so that the collector tracks fewer objects.
        jobs: list = []
        glued: dict[int, list[str]] = {}
        copied = shift = i = 0
        ragged = False  # the last region did not end with a word
        while i < len(chosen):
            d = chosen[i]
            index = at[d.start]
            start = starts[index]
            word = tokens[index].text
            new, cut = word[: d.start - start] + d.replacement, d.end - start
            i += 1
            while i < len(chosen) and (d := chosen[i]).start < start + len(word):
                new += word[cut : d.start - start] + d.replacement
                cut = d.end - start
                i += 1
            new += word[cut:]
            start += shift
            entry = regions.get(new)
            if entry is None:
                region = tokenize(new)
                plain = bool(region) and region[0].kind is region[-1].kind is _WORDS
                words = [(w, t.text, t.start) for w, t in enumerate(region) if t.kind is _WORDS]
                entry = regions[new] = region, plain, words
            region, plain, words = entry
            if ragged:
                _join(out, tokens[copied:index], glued)
            else:
                out += tokens[copied:index]
            # The unchanged word across spaces before, unless it was rewritten too.
            if index > 1 and tokens[index - 1].kind is _SPACE and tokens[index - 2].kind is _WORDS:
                if copied != index - 1:
                    gap = len(tokens[index - 1].text) + len(tokens[index - 2].text)
                    jobs += len(out) - 2, start - gap, "next_word"
            base = len(out)
            if plain:
                out += region
            else:
                base -= _join(out, region, glued)
            ragged = not plain
            for w, text, offset in words:
                word_found, gated = rules.memo.get(text) or _remember(text, lex, rules)
                s = start + offset
                for f in word_found:
                    if _fixable(f):
                        found.append(
                            Diagnostic(f.rule, f.start + s, f.end + s, f.severity, f.message, f.replacement)
                        )
                        next_at[f.start + s] = base + w
                        next_starts[base + w] = s
                if gated:
                    jobs += base + w, s, None
            # And the one after: the space joins the last token here if that is one.
            if index + 2 < len(tokens) and tokens[index + 1].kind is _SPACE and tokens[index + 2].kind is _WORDS:
                if i == len(chosen) or at[chosen[i].start] != index + 2:
                    after = len(out) + (not out or out[-1].kind is not _SPACE)
                    jobs += after, start + len(new) + len(tokens[index + 1].text), "prev_word"
            copied = index + 1
            shift += len(new) - len(word)
        _join(out, tokens[copied:], glued)
        for i, texts in glued.items():
            out[i] = Token(out[i].kind, "".join(texts), 0, 0)
        self.tokens = out
        for i, start, side in zip(*[iter(jobs)] * 3):
            gated = (rules.memo.get(out[i].text) or _remember(out[i].text, lex, rules))[1]
            if side and gated:  # on an unchanged word, only those whose reach changed
                gated = [rule for rule in gated if rule.reach == side]
            if gated:
                self._run(i, start, gated, found)
        return found

    def _run(self, i: int, start: int, todo: tuple | list, found: list[Diagnostic]) -> None:
        """Run the rules ``todo`` on the window of the word ``i``, which
        starts at ``start``, keeping their fixable findings in ``found``."""
        tokens = self.tokens
        text = tokens[i].text
        end = start + len(text)
        prev = nxt = None
        if i > 1 and tokens[i - 1].kind is _SPACE and tokens[i - 2].kind is _WORDS:
            edge = start - len(tokens[i - 1].text)
            prev = Token(_WORDS, tokens[i - 2].text, edge - len(tokens[i - 2].text), edge)
        if i + 2 < len(tokens) and tokens[i + 1].kind is _SPACE and tokens[i + 2].kind is _WORDS:
            edge = end + len(tokens[i + 1].text)
            nxt = Token(_WORDS, tokens[i + 2].text, edge, edge + len(tokens[i + 2].text))
        window = RuleWindow(Token(_WORDS, text, start, end), prev, nxt)
        for rule in todo:
            for d in rule.body(window, self.lex, self.rules.fused):
                if _fixable(d):
                    found.append(d)
                    self.at[d.start] = i
                    self.starts[i] = start
