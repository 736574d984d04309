"""The NOTA rules as independent detectors producing span diagnostics.

Rule ids are stable public strings. Each rule is a pure function of its
window, the text of a word and the texts of its neighbours, the lexicon
and the rule tables; replacements converge: re-running a rule on its own
replacement yields nothing. Every finding is a non-empty span at offset
0 in its word, so it holds no whitespace.  ``_RuleSet.lint_words`` yields
a word's findings with the word's offset, and each caller moves them there
in its own record: ``run_rules`` a ``Diagnostic``, the fix loop a
``FixEvent``.  The map of findings back to the input in ``nota.pipeline``
and ``corpus.file_stats`` rely on each finding lying inside one word.

Six rules are word-local: R-VOW, R-CONS, R-ART, R-AMQ, R-IMP and R-SEP
read only the window's word, never its neighbours. R-FUT reads the next
word and R-PRON the previous one, but each can fire only on a word whose
skeleton passes its gate.  The rule set of a configuration, ``_RuleSet``,
kept on the Lexicon, is the memo of the rules by word text: a word's
entry holds the word rules' findings and the context rules to run on its
window.  ``_RuleSet.lint_words`` looks words up there: over every word of
the text's ``split_words`` parts in the first pass (``run_rules``), and
over the words each fix pass may have changed; it takes a window's texts
from the parts around its word.

``_RULES`` is the one table of the rules: by id, in priority order, each
rule's body and, for a context rule, its gate.  Declaring a rule takes
its body, named ``rule_`` and its id's suffix in lower case, one
``_RULES`` entry and one row of README's rule table; ``RULE_PRIORITY``,
``RULE_IDS`` and the rule sets that ``run_rules`` and the fix loop use
are derived from the table.

The word rules share one gate, ``_word_gate``, on a word's text and
skeleton: a non-NOTA mark or Kasra before Alef, a marked article, a
variant letter or a listed /g/ word, a final ا or ى, a listed irregular
imperative, or a proper suffix that is a known word.  Every word-rule
finding implies it, so on a memo miss a word where it is false gets no
window and no rule call; tests/test_rules.py pins that soundness
against the rules and their oracle.

Severities drive fix mode: Error fixes are always safe to apply,
Warning fixes carry lexicon evidence, Info is a suggestion only (the
pronoun rule flags a genuinely ambiguous reading and is never applied).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum, auto
from functools import partial
from itertools import compress
from operator import attrgetter
from typing import Callable, Collection, Iterator, Mapping, NamedTuple, Sequence

from .lexicon import Lexicon
from .script import (
    ALEF,
    ALEF_MAQSURA,
    KASRA,
    LAM,
    ARABIC_MARKS,
    NOTA_MARKS,
    TEH,
    WAW,
    ZWARAKAY,
    char_class,
    skeleton,
)
from .tokenize import Tokens

# Fused preposition+article spellings expanded to two tokens.  The
# single-letter proclitics ب and ل stay attached.
DEFAULT_FUSED_PREPOSITIONS: Mapping[str, str] = {
    "فال": "في ال",
    "عال": "على ال",
    "مال": "من ال",
}


class Severity(Enum):
    ERROR = auto()    # safe auto-fix
    WARNING = auto()  # lexicon-backed fix
    INFO = auto()     # suggestion only, never applied


@dataclass(frozen=True)
class Diagnostic:
    rule: str
    start: int
    end: int
    severity: Severity
    message: str
    replacement: str | None = None


class RuleWindow(NamedTuple):
    """A word's text with the texts of its neighbouring words (across spaces
    only)."""

    word: str
    prev_word: str | None = None
    next_word: str | None = None


_MARK_CHARS = "".join(sorted(ARABIC_MARKS))
_MARKS = char_class(ARABIC_MARKS)
# R-VOW's findings, one character each: a Kasra before Alef, or a mark
# NOTA does not use.
_BAD_VOWEL = re.compile(f"{KASRA}(?={ALEF})|[{char_class(ARABIC_MARKS - NOTA_MARKS)}]")
# ال at the start of a word, each letter with whatever marks follow it.
_ARTICLE = re.compile(f"{ALEF}[{_MARKS}]*{LAM}[{_MARKS}]*")


def _respell(word_text: str, bare_to: str) -> str:
    """Apply a bare respelling to a word, keeping its marks in place."""
    out = []
    k = 0
    for ch in word_text:
        if ch in ARABIC_MARKS:
            out.append(ch)
        else:
            out.append(bare_to[k] if k < len(bare_to) else ch)
            k += 1
    return "".join(out)


# --- rules ----------------------------------------------------------------


def rule_cons(window: RuleWindow, lex: Lexicon, fused: Mapping[str, str]) -> list[Diagnostic]:
    """R-CONS: canonical spellings for /p v g/.

    Regional variant letters rewrite unconditionally; ق→ڨ only for the
    words the lexicon lists with a /g/ reading.
    """
    word = window.word
    out: list[Diagnostic] = []
    # Variant letters are rare: a C-speed test skips the walk on most words.
    if not lex.variant_map.keys().isdisjoint(word):
        for i, ch in enumerate(word):
            canonical = lex.variant_map.get(ch)
            if canonical:
                out.append(
                    Diagnostic(
                        "R-CONS",
                        i,
                        i + 1,
                        Severity.ERROR,
                        f"variant letter {ch}; the canonical letter is {canonical}",
                        canonical,
                    )
                )
    if not out:
        bare = skeleton(word)
        respelled = lex.gaf_words.get(bare)
        if respelled and respelled != bare:
            out.append(
                Diagnostic(
                    "R-CONS",
                    0,
                    len(word),
                    Severity.WARNING,
                    "word is pronounced with /g/; spell it with ڨ",
                    _respell(word, respelled),
                )
            )
    return out


def rule_vow(window: RuleWindow, lex: Lexicon, fused: Mapping[str, str]) -> list[Diagnostic]:
    """R-VOW: long /ɛ/ is Zwarakay+Alef, and only the four vowel marks exist."""
    out: list[Diagnostic] = []
    for m in _BAD_VOWEL.finditer(window.word):
        ch, i = m.group(), m.start()
        if ch == KASRA:
            message, replacement = "long /ɛ/ written Kasra+Alef; use Zwarakay+Alef", ZWARAKAY
        else:
            message, replacement = f"non-NOTA diacritic U+{ord(ch):04X}", ""
        out.append(Diagnostic("R-VOW", i, i + 1, Severity.ERROR, message, replacement))
    return out


def rule_art(window: RuleWindow, lex: Lexicon, fused: Mapping[str, str]) -> list[Diagnostic]:
    """R-ART: the definite article ال carries no diacritics."""
    m = _ARTICLE.match(window.word)
    if m is None or m.end() == 2:
        return []
    return [
        Diagnostic(
            "R-ART",
            0,
            m.end(),
            Severity.ERROR,
            "definite article is written without diacritics",
            ALEF + LAM,
        )
    ]


def rule_amq(window: RuleWindow, lex: Lexicon, fused: Mapping[str, str]) -> list[Diagnostic]:
    """R-AMQ: final ى iff the verb's present 3sg ends in long /i/, else ا."""
    word = window.word
    bare = skeleton(word)
    if not bare or bare[-1] not in (ALEF, ALEF_MAQSURA):
        return []
    entry = lex.lookup_citation_folded(bare)
    if entry is not None:
        expected = ALEF_MAQSURA if entry.present_ends_long_i else ALEF
        if bare[-1] == expected:
            return []
        why = "ends in long /i/" if entry.present_ends_long_i else "does not end in long /i/"
        message = f"present form {entry.present_3sg} {why}; final letter should be {expected}"
        finding = (Severity.WARNING, message, expected)
    elif bare in lex.known_words:
        return []
    elif (listed := lex.known_spelling_for(bare)) is not None and listed != bare:
        finding = (Severity.WARNING, f"listed spelling is {listed}", listed[-1])
    else:
        finding = (Severity.INFO, "final-vowel spelling unverified (word not in lexicon)", None)
    pos = len(word.rstrip(_MARK_CHARS)) - 1
    return [Diagnostic("R-AMQ", pos, pos + 1, *finding)]


def rule_imp(window: RuleWindow, lex: Lexicon, fused: Mapping[str, str]) -> list[Diagnostic]:
    """R-IMP: irregular imperatives regularize to 2sg-present minus ت."""
    word = window.word
    entry = lex.lookup_irregular_imperative(word)
    if entry is None or not entry.present_2sg or not entry.present_2sg.startswith(TEH):
        return []
    regular = entry.present_2sg[1:]
    if regular == skeleton(word):
        return []
    return [
        Diagnostic(
            "R-IMP",
            0,
            len(word),
            Severity.WARNING,
            f"irregular imperative; the regular form is {regular}",
            regular,
        )
    ]


def _fut_gate(bare: str) -> bool:
    return bare == "باش"


def _pron_gate(bare: str) -> bool:
    return bare.endswith("وش")


def rule_fut(window: RuleWindow, lex: Lexicon, fused: Mapping[str, str]) -> list[Diagnostic]:
    """R-FUT: باش before an imperfective verb is the future marker بش."""
    word, nxt = window.word, window.next_word
    if not _fut_gate(skeleton(word)) or nxt is None or not lex.matches_imperfective(nxt):
        return []
    return [
        Diagnostic(
            "R-FUT",
            0,
            len(word),
            Severity.WARNING,
            "future marker before a verb is written بش (باش means 'with what')",
            "بش",
        )
    ]


def rule_pron(window: RuleWindow, lex: Lexicon, fused: Mapping[str, str]) -> list[Diagnostic]:
    """R-PRON: negated verb + وش may hide an object pronoun; suggest هو.

    The sentence is genuinely ambiguous, so this is informational only.
    """
    word = window.word
    bare = skeleton(word)
    # Each candidate below is ``bare`` or its tail, so ends as ``bare`` does.
    if not _pron_gate(bare):
        return []
    prev = window.prev_word
    prev_bare = skeleton(prev) if prev is not None else None

    candidates: list[tuple[str, str]] = []
    if prev_bare in ("ما", "م"):
        candidates.append((bare, ""))
    if bare.startswith("م") and len(bare) > 1:
        candidates.append((bare[1:], "م"))

    for cand, prefix in candidates:
        if len(cand) > 2 and lex.is_citation(cand[:-2]):
            suggestion = prefix + cand[:-2] + "هوش"
            return [
                Diagnostic(
                    "R-PRON",
                    0,
                    len(word),
                    Severity.INFO,
                    "negated verb may hide an object pronoun; هو makes it explicit",
                    suggestion,
                )
            ]
    return []


def rule_sep(window: RuleWindow, lex: Lexicon, fused: Mapping[str, str]) -> list[Diagnostic]:
    """R-SEP: prepositions and the conjunction و stay separate words."""
    word = window.word
    bare = skeleton(word)
    known = lex.known_words
    if len(bare) < 2 or bare in known or bare in lex.prepositions:
        return []
    # A word has one prefix of each length, so looking its prefixes up,
    # longest first, finds the longest listed form that applies.  What
    # follows the prefix must be a known word, bare or after ال, so only
    # rests of a known word's length, or two more, are tried, shortest
    # first, each looked up before the prefix is sliced: on a long word
    # that keeps the walks from slicing the word once per letter.
    size = len(bare)
    lengths = lex._known_lengths
    for r in lengths:
        if r >= size:
            break
        if bare[-r:] in known and (head := bare[:-r]) in fused:
            expanded = fused[head]
            return _split(word, size - r, f"fused preposition; write {expanded} separately", expanded)
    for r in sorted({*lengths, *(r + 2 for r in lengths)}):
        if r >= size:
            break
        rest = bare[-r:]
        if not (rest in known or r > 2 and rest.startswith(ALEF + LAM) and rest[2:] in known):
            continue
        head = bare[:-r]
        if len(head) > 1 and head in lex.prepositions:
            return _split(word, size - r, f"preposition {head} is written separate from the noun")
        if head == WAW:
            return _split(word, 1, "the conjunction و is written separate from the following word")
    return []


def _split(word: str, n_letters: int, message: str, head: str | None = None) -> list[Diagnostic]:
    """R-SEP's finding: a space after the word's first ``n_letters`` letters,
    or those letters replaced by ``head``; marks stay with their letter."""
    k = [i for i, ch in enumerate(word) if ch not in ARABIC_MARKS][n_letters]
    replacement = (word[:k] + " " if head is None else head) + word[k:]
    return [Diagnostic("R-SEP", 0, len(word), Severity.WARNING, message, replacement)]


class _Rule(NamedTuple):
    """A rule: its body and, for a context rule, its gate, on the skeleton
    of the window's word: where it is false the rule finds nothing,
    whatever the neighbours.  A rule without a gate is a word rule: it
    reads the window's word alone."""

    body: Callable[[RuleWindow, Lexicon, Mapping[str, str]], list[Diagnostic]]
    gate: Callable[[str], bool] | None = None


# Priority order: character-level fixes, then word-level, then splits.
_RULES: Mapping[str, _Rule] = {
    "R-VOW": _Rule(rule_vow),
    "R-CONS": _Rule(rule_cons),
    "R-ART": _Rule(rule_art),
    "R-AMQ": _Rule(rule_amq),
    "R-IMP": _Rule(rule_imp),
    "R-FUT": _Rule(rule_fut, _fut_gate),
    "R-PRON": _Rule(rule_pron, _pron_gate),
    "R-SEP": _Rule(rule_sep),
}
RULE_PRIORITY = tuple(_RULES)
RULE_IDS = frozenset(_RULES)


def _word_gate(text: str, bare: str, lex: Lexicon) -> bool:
    """Whether a word rule can find anything in the word ``text`` with
    skeleton ``bare``: false means that all six return []."""
    if (
        _BAD_VOWEL.search(text)  # R-VOW
        or (m := _ARTICLE.match(text)) and m.end() > 2  # R-ART
        or not lex.variant_map.keys().isdisjoint(text)  # R-CONS
        or bare in lex.gaf_words
        or bare.endswith((ALEF, ALEF_MAQSURA))  # R-AMQ
        or bare in lex._irregulars  # R-IMP
    ):
        return True
    # R-SEP: what follows its split is a known word, bare or after ال, so
    # a proper suffix of the word is one.
    known = lex.known_words
    for r in lex._known_lengths:
        if r >= len(bare):
            break
        if bare[-r:] in known:
            return True
    return False


# Distinct words a rule set holds before it is emptied.
_WORD_MEMO_CAP = 4096


# A NamedTuple's own ``__new__`` is a Python function.
_new_window = partial(tuple.__new__, RuleWindow)


def _part_window(parts: list[str], i: int) -> RuleWindow:
    """The window of the word ``parts[i]`` in a ``split_words`` list: the
    word next to it across spaces only is two parts away, past a gap of
    spaces."""
    prev = parts[i - 2] if i > 1 and parts[i - 1].isspace() else None
    nxt = parts[i + 2] if i + 2 < len(parts) and parts[i + 1].isspace() else None
    return _new_window((parts[i], prev, nxt))


def windows(tokens: Tokens) -> list[RuleWindow]:
    """The words of ``tokens`` paired with their word neighbours across
    spaces only.

    Punctuation or foreign material breaks adjacency, so a sentence-final
    باش never sees a verb on the other side of a full stop.  The windows
    are those the rules get: ``_part_window`` of each word of
    ``tokens.parts``.
    """
    parts = tokens.parts
    return [_part_window(parts, i) for i in range(1, len(parts), 2)]


class _RuleSet(dict):
    """The enabled rules of one configuration, as the memo of their
    findings per word text: ``rules[text]`` is ``(found, gated)``, the
    word rules' findings at offset 0 and the context rules whose gate the
    word's skeleton passes, or ``()`` for a clean word, one with neither.
    A miss lints the word; the memo holds at most ``_WORD_MEMO_CAP`` words.

    ``of`` gives the rule set that ``lex`` keeps for a configuration; one
    of another configuration takes its place.  The rule set and its
    lexicon hold each other, a reference cycle that the cyclic GC frees.
    """

    __slots__ = ("lex", "word_rules", "context_rules", "fused")

    @classmethod
    def of(
        cls,
        lex: Lexicon,
        enabled: Mapping[str, bool] | None,
        fused_prepositions: Mapping[str, str] | None,
    ) -> _RuleSet:
        fused = DEFAULT_FUSED_PREPOSITIONS if fused_prepositions is None else fused_prepositions
        active = {rid: rule for rid, rule in _RULES.items() if enabled is None or enabled.get(rid, True)}
        config_key = (tuple(active), frozenset(fused.items()))
        rules = lex._rule_memo.get(config_key)
        if rules is None:
            lex._rule_memo.clear()
            rules = lex._rule_memo[config_key] = cls(lex, active.values(), dict(fused))
        return rules

    def __init__(self, lex: Lexicon, active: Collection[_Rule], fused: Mapping[str, str]) -> None:
        self.lex, self.fused = lex, fused
        self.word_rules = [rule.body for rule in active if rule.gate is None]
        self.context_rules = [rule for rule in active if rule.gate]

    def __missing__(self, text: str) -> tuple:
        lex = self.lex
        bare = skeleton(text)
        found: tuple[Diagnostic, ...] = ()
        if self.word_rules and _word_gate(text, bare, lex):
            alone = RuleWindow(text)
            found = tuple(d for rule in self.word_rules for d in rule(alone, lex, self.fused))
        gated: tuple = ()
        for rule in self.context_rules:
            if rule.gate(bare):
                gated += (rule,)
        if len(self) >= _WORD_MEMO_CAP:
            self.clear()
        entry = self[text] = (found, gated) if found or gated else ()
        return entry

    def lint_words(
        self, parts: list[str], ends: list[int], jobs: Sequence[int]
    ) -> Iterator[tuple[int, tuple[Diagnostic, ...]]]:
        """Yield ``(offset, found)`` for each word ``parts[i]`` with work,
        ``i`` in ``jobs``, of a ``split_words`` list whose parts end at
        ``ends``, in that order: the word's findings at offset 0, and the
        offset where it starts in the text.  It lints the first pass, every
        word, and each fix pass's words; each caller builds its own records
        at ``offset``.

        The words are looked up in the memo in C-level passes, where a miss
        lints the word once, so a clean word takes no Python step: the loop
        runs only for words with work.  A window is built only for a word
        with a context rule to run.
        """
        entries = list(map(self.__getitem__, map(parts.__getitem__, jobs)))
        for i, (found, gated) in compress(zip(jobs, entries), entries):
            if gated:
                window = _part_window(parts, i)
                for rule in gated:
                    found += tuple(rule.body(window, self.lex, self.fused))
            yield ends[i - 1], found


def run_rules(
    tokens: Tokens,
    lex: Lexicon,
    enabled: Mapping[str, bool] | None = None,
    fused_prepositions: Mapping[str, str] | None = None,
) -> list[Diagnostic]:
    """Run the enabled rules over all word windows, in deterministic order.

    That is ``lint_words`` of the rule set over every word of
    ``tokens.parts``, each finding a ``Diagnostic`` at its word's offset;
    the typed runs are never read.
    """
    parts = tokens.parts
    rules = _RuleSet.of(lex, enabled, fused_prepositions)
    out = [
        Diagnostic(d.rule, d.start + base, d.end + base, d.severity, d.message, d.replacement)
        for base, found in rules.lint_words(parts, tokens.ends, range(1, len(parts), 2))
        for d in found
    ]
    # Each rule's findings lie inside its window's word, so this order does
    # not depend on the order the rules ran in.
    out.sort(key=attrgetter("start", "rule"))
    return out
