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

The loop never tokenizes the whole text again: ``_Chain`` finds the
words and their neighbours from the first pass's tokens and, for each
rewritten word token, the tokens of the text it became.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
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

    current = canon.text
    fixes: list[FixEvent] = []
    passes = 0
    chain = _Chain(tokens, lex, _RuleSet(lex, config.rules, config.fused_prepositions))
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
        current, pending = chain.apply(current, chosen)
        fixes.extend(
            FixEvent(d.rule, passes, d.start, d.end, d.replacement) for d in reversed(chosen)
        )

    return RunResult(
        output=current,
        diagnostics=reported,
        fixes=tuple(fixes),
        passes_used=passes,
    )


class _Layout:
    """The words of a region's text, each with its offset, and where
    whitespace alone separates them: ``links`` for each word and the next,
    ``head`` and ``tail`` for the first and the last word and the words
    around the region.  In a region without words both tell whether it
    passes those words through to each other."""

    __slots__ = ("words", "links", "head", "tail")

    def __init__(self, text: str) -> None:
        self.words: list[tuple[int, str]] = []
        self.links: list[bool] = []
        blank = True  # no OTHER run since the last word
        for kind, word, start, _ in tokenize(text):
            if kind is _WORDS:
                if self.words:
                    self.links.append(blank)
                else:
                    self.head = blank
                self.words.append((start, word))
                blank = True
            elif kind is TokenKind.OTHER:
                blank = False
        self.tail = blank
        if not self.words:
            self.head = blank


# A word of the text being fixed: the first-pass token whose region holds
# it, and its index among the words of that region.
_WordAt = tuple[int, int]


class _Chain:
    """The words of the text being fixed, found through the first pass's
    tokens and the regions that the rewritten word tokens became.

    Every fix lies inside one word, so what a word token becomes, its
    region, never merges with another; two words are neighbours across the
    spaces between their regions, or through regions that became blank.
    A region starts where its token did, shifted by the growth of the
    rewritten regions before it.
    """

    def __init__(self, tokens: list[Token], lex: Lexicon, rules: _RuleSet) -> None:
        self.tokens = tokens
        self.lex = lex
        self.rules = rules
        self.texts: dict[int, str] = {}  # the text of each rewritten region, by token
        self.order: list[int] = []  # the rewritten regions, in order
        self.growth: list[int] = []  # how much those up to each one grew, in all
        self.layouts: dict[str, _Layout] = {}
        self.owners: dict[int, int] = {}  # the region of each pending finding, by its start

    def offset(self, index: int) -> int:
        """The offset of region ``index`` in the current text."""
        k = bisect_left(self.order, index)
        return self.tokens[index].start + (self.growth[k - 1] if k else 0)

    def layout(self, index: int) -> _Layout:
        text = self.texts.get(index, self.tokens[index].text)
        layout = self.layouts.get(text)
        if layout is None:
            layout = self.layouts[text] = _Layout(text)
        return layout

    def token(self, at: _WordAt | None) -> Token | None:
        if at is None:
            return None
        offset, text = self.layout(at[0]).words[at[1]]
        start = self.offset(at[0]) + offset
        return Token(_WORDS, text, start, start + len(text))

    def near(self, index: int, step: int) -> _WordAt | None:
        """The word across spaces only before region ``index`` (``step`` -2)
        or after it (``step`` 2), if there is one."""
        tokens = self.tokens
        while 0 <= index + step < len(tokens) and tokens[index + step // 2].kind is _SPACE:
            index += step
            if tokens[index].kind is not _WORDS:
                return None
            if index not in self.texts:
                return index, 0
            layout = self.layout(index)
            if layout.words:
                if not (layout.tail if step < 0 else layout.head):
                    return None
                return index, len(layout.words) - 1 if step < 0 else 0
            if not layout.head:
                return None
        return None

    def window(self, at: _WordAt) -> RuleWindow:
        index, k = at
        layout = self.layout(index)
        if k:
            prev = (index, k - 1) if layout.links[k - 1] else None
        else:
            prev = self.near(index, -2) if layout.head else None
        if k < len(layout.links):
            nxt = (index, k + 1) if layout.links[k] else None
        else:
            nxt = self.near(index, 2) if layout.tail else None
        return RuleWindow(self.token(at), self.token(prev), self.token(nxt))

    def apply(self, text: str, chosen: list[Diagnostic]) -> tuple[str, list[Diagnostic]]:
        """Apply ``chosen``, sorted and each inside one word, to ``text``.

        Returns the new text and its fixable findings, which lie in the
        rewritten regions and in the words next to them.
        """
        tokens, texts = self.tokens, self.texts
        if texts:  # a later pass: the re-lint noted the region of each finding
            owners = self.owners
            regions = [owners[d.start] for d in chosen]
        else:
            starts = list(map(_START, tokens))
            regions = [bisect_right(starts, d.start) - 1 for d in chosen]
        pieces = []
        rewritten: list[int] = []
        bounds: list[int] = []  # where each rewritten region starts and ends in the new text
        pos = shift = 0
        for index, d in zip(regions, chosen):
            if not rewritten or rewritten[-1] != index:
                at = self.offset(index)
                rewritten.append(index)
                bounds += (at + shift, at + len(texts.get(index, tokens[index].text)) + shift)
            pieces.append(text[pos : d.start])
            pieces.append(d.replacement)
            pos = d.end
            delta = len(d.replacement) - (d.end - d.start)
            shift += delta
            bounds[-1] += delta
        pieces.append(text[pos:])
        text = "".join(pieces)
        for k, index in enumerate(rewritten):
            texts[index] = text[bounds[2 * k] : bounds[2 * k + 1]]
        self.order = order = sorted(texts)
        self.growth = list(accumulate(len(texts[i]) - len(tokens[i].text) for i in order))
        return text, self._relint(rewritten, bounds[::2])

    def _relint(self, rewritten: list[int], starts: list[int]) -> list[Diagnostic]:
        """The fixable findings in the ``rewritten`` regions, which start at
        ``starts``, and those of the context rules whose reach is one of
        those regions on the words next to it."""
        lex, rules, tokens, texts = self.lex, self.rules, self.tokens, self.texts
        memo = rules.memo
        self.owners = owners = {}
        found: list[Diagnostic] = []
        done = set(rewritten)
        for index, start in zip(rewritten, starts):
            for k, (offset, text) in enumerate(self.layout(index).words):
                word_found, gated = memo.get(text) or _remember(text, lex, rules)
                at = start + offset
                for d in word_found:
                    if _fixable(d):
                        found.append(
                            Diagnostic(d.rule, d.start + at, d.end + at, d.severity, d.message, d.replacement)
                        )
                        owners[d.start + at] = index
                if gated:
                    self._run((index, k), gated, found)
            for step, side in ((-2, "next_word"), (2, "prev_word")):
                j = index + step
                if not (
                    0 <= j < len(tokens)
                    and tokens[index + step // 2].kind is _SPACE
                    and tokens[j].kind is _WORDS
                ):
                    continue  # no word across spaces on this side
                if j in done:
                    continue  # re-linted whole above; if it became blank, it reaches past itself
                if j not in texts:
                    near, text = (j, 0), tokens[j].text
                else:
                    near = self.near(index, step)
                    if near is None or near[0] in done:
                        continue
                    text = self.layout(near[0]).words[near[1]][1]
                gated = (memo.get(text) or _remember(text, lex, rules))[1]
                if gated:
                    todo = [rule for rule, _, reach in rules.context_rules if reach == side and rule in gated]
                    if todo:
                        self._run(near, todo, found)
        return found

    def _run(self, at: _WordAt, todo: tuple | list, found: list[Diagnostic]) -> None:
        """Run the rules ``todo`` on the window of the word ``at``, keeping
        their fixable findings in ``found``."""
        window = self.window(at)
        for rule in todo:
            for d in rule(window, self.lex, self.rules.fused):
                if _fixable(d):
                    found.append(d)
                    self.owners[d.start] = at[0]
