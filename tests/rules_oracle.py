"""The rule loop, the windows, the fix choice and five rule bodies as they
were first written, on windows of word tokens.

Kept as the oracle for ``nota.rules.run_rules``, ``nota.rules.windows``
and ``nota.pipeline._select_nonoverlapping``: every enabled rule runs on
every window, each word's neighbours are found by scanning over the
space tokens around it, and each candidate fix is tested against every
chosen one.  It is also the oracle for ``rule_vow``, ``rule_art``,
``rule_amq``, ``rule_pron`` and ``rule_sep``, which walked their word one
character or one cluster at a time and sorted the fused map on every
call.  The code is the implementation they replaced, unchanged except
that ``_select_nonoverlapping`` lost its leading underscore here, and
that ``rule_sep`` sorts the prepositions on every call, as it did
before the Lexicon kept them sorted, that the window of tokens they read
is ``TokenWindow`` here, and that ``run_rules`` calls the rule bodies of
``nota.rules``, which read the texts of a window and find their spans
at offset 0 in its word, and moves their findings to the word's token.
``iter_clusters``, which ``rule_art`` walked, is a verbatim copy of the
one ``nota.script`` had.
``rule_fut`` is R-FUT as it was before its test on the word moved into
a gate that ``run_rules`` shares, except that it hands
``matches_imperfective`` the next word's skeleton, as the Lexicon's
lookups now take skeletons; with ``rule_pron`` it is what the
context-rule gates are checked against.  ``word_gate`` is the word
rules' gate as ``nota.rules`` ran it on each memo miss before it linted
a call's misses as one batch; it is the oracle of that batch's gate.
``text_window`` and ``token_window`` turn one window into the other.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, NamedTuple

from nota.lexicon import Lexicon
from nota.pipeline import _PRIORITY_INDEX
from nota.rules import (
    _ARTICLE,
    _BAD_VOWEL,
    _RULES,
    DEFAULT_FUSED_PREPOSITIONS,
    RULE_PRIORITY,
    Diagnostic,
    RuleWindow,
    Severity,
)
from nota.script import (
    ALEF,
    ALEF_MAQSURA,
    ARABIC_MARKS,
    KASRA,
    LAM,
    NOTA_MARKS,
    WAW,
    ZWARAKAY,
    skeleton,
)
from nota.tokenize import Token, TokenKind


class TokenWindow(NamedTuple):
    """A word token with its neighbouring word tokens (across spaces only)."""

    word: Token
    prev_word: Token | None = None
    next_word: Token | None = None


def text_window(window: TokenWindow) -> RuleWindow:
    """The window the rules of ``nota.rules`` get: the tokens' texts, and
    the word's skeleton by ``skeleton``."""
    word, prev, nxt = window
    return RuleWindow(word.text, skeleton(word.text), prev and prev.text, nxt and nxt.text)


def token_window(window: RuleWindow) -> TokenWindow:
    """A window of ``nota.rules`` as the bodies here read it, each text a
    word token at offset 0; the bodies here take the skeleton themselves."""
    texts = (window.word, window.prev_word, window.next_word)
    return TokenWindow(
        *(None if text is None else Token(TokenKind.WORD, text, 0, len(text)) for text in texts)
    )


def word_gate(text: str, bare: str, lex: Lexicon) -> bool:
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


def windows(tokens: list[Token]) -> list[TokenWindow]:
    """Word tokens paired with their word neighbours across spaces only."""
    out: list[TokenWindow] = []
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
        out.append(TokenWindow(tok, prev_word, next_word))
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
        at = window.word.start
        for rid in active:
            for d in _RULES[rid].body(text_window(window), lex, fused):
                out.append(replace(d, start=d.start + at, end=d.end + at))
    out.sort(key=lambda d: (d.start, d.rule))
    return out


def select_nonoverlapping(diags: list[Diagnostic]) -> list[Diagnostic]:
    """Greedy pick by rule priority then position; overlaps wait a pass."""
    chosen: list[Diagnostic] = []
    for d in sorted(diags, key=lambda d: (_PRIORITY_INDEX[d.rule], d.start, d.end)):
        if all(d.end <= c.start or d.start >= c.end for c in chosen):
            chosen.append(d)
    return chosen


# --- rule bodies ---------------------------------------------------------


@dataclass(frozen=True)
class Cluster:
    """A base character with its trailing marks, by offsets into the word.

    Never raises, so the rules can inspect arbitrary word tokens; the
    strict grapheme parser validates on top of it.  ``base`` is None for
    a run of marks with no preceding base character.
    """

    start: int
    end: int
    base: str | None
    marks: str


def iter_clusters(word: str) -> list[Cluster]:
    """Split a word into base+marks clusters without validating it."""
    clusters: list[Cluster] = []
    i = 0
    n = len(word)
    while i < n:
        base = None if word[i] in ARABIC_MARKS else word[i]
        j = marks_start = i if base is None else i + 1
        while j < n and word[j] in ARABIC_MARKS:
            j += 1
        clusters.append(Cluster(i, j, base, word[marks_start:j]))
        i = j
    return clusters


def _letter_offsets(text: str) -> list[int]:
    return [i for i, ch in enumerate(text) if ch not in ARABIC_MARKS]


def rule_vow(window: TokenWindow, lex: Lexicon, fused: Mapping[str, str]) -> list[Diagnostic]:
    """R-VOW: long /ɛ/ is Zwarakay+Alef, and only the four vowel marks exist."""
    word = window.word
    out: list[Diagnostic] = []
    text = word.text
    for i, ch in enumerate(text):
        if ch == KASRA and i + 1 < len(text) and text[i + 1] == ALEF:
            out.append(
                Diagnostic(
                    "R-VOW",
                    word.start + i,
                    word.start + i + 1,
                    Severity.ERROR,
                    "long /ɛ/ written Kasra+Alef; use Zwarakay+Alef",
                    ZWARAKAY,
                )
            )
        elif ch in ARABIC_MARKS and ch not in NOTA_MARKS:
            out.append(
                Diagnostic(
                    "R-VOW",
                    word.start + i,
                    word.start + i + 1,
                    Severity.ERROR,
                    f"non-NOTA diacritic U+{ord(ch):04X}",
                    "",
                )
            )
    return out


def rule_art(window: TokenWindow, lex: Lexicon, fused: Mapping[str, str]) -> list[Diagnostic]:
    """R-ART: the definite article ال carries no diacritics."""
    word = window.word
    clusters = iter_clusters(word.text)
    if len(clusters) < 2:
        return []
    first, second = clusters[0], clusters[1]
    if first.base != ALEF or second.base != LAM:
        return []
    if not first.marks and not second.marks:
        return []
    return [
        Diagnostic(
            "R-ART",
            word.start,
            word.start + second.end,
            Severity.ERROR,
            "definite article is written without diacritics",
            ALEF + LAM,
        )
    ]


def rule_amq(window: TokenWindow, lex: Lexicon, fused: Mapping[str, str]) -> list[Diagnostic]:
    """R-AMQ: final ى iff the verb's present 3sg ends in long /i/, else ا."""
    word = window.word
    bare = skeleton(word.text)
    if not bare or bare[-1] not in (ALEF, ALEF_MAQSURA):
        return []
    pos = _letter_offsets(word.text)[-1]
    span = (word.start + pos, word.start + pos + 1)
    entry = lex.lookup_citation_folded(bare)
    if entry is not None:
        expected = ALEF_MAQSURA if entry.present_ends_long_i else ALEF
        if bare[-1] == expected:
            return []
        why = "ends in long /i/" if entry.present_ends_long_i else "does not end in long /i/"
        return [
            Diagnostic(
                "R-AMQ",
                *span,
                Severity.WARNING,
                f"present form {entry.present_3sg} {why}; final letter should be {expected}",
                expected,
            )
        ]
    if bare in lex.known_words:
        return []
    listed = lex.known_spelling_for(bare)
    if listed is not None and listed != bare:
        return [
            Diagnostic(
                "R-AMQ",
                *span,
                Severity.WARNING,
                f"listed spelling is {listed}",
                listed[-1],
            )
        ]
    return [
        Diagnostic(
            "R-AMQ",
            *span,
            Severity.INFO,
            "final-vowel spelling unverified (word not in lexicon)",
            None,
        )
    ]


def rule_pron(window: TokenWindow, lex: Lexicon, fused: Mapping[str, str]) -> list[Diagnostic]:
    """R-PRON: negated verb + وش may hide an object pronoun; suggest هو.

    The sentence is genuinely ambiguous, so this is informational only.
    """
    word = window.word
    bare = skeleton(word.text)
    prev = window.prev_word
    prev_bare = skeleton(prev.text) if prev is not None else None

    candidates: list[tuple[str, str]] = []
    if prev_bare in ("ما", "م"):
        candidates.append((bare, ""))
    if bare.startswith("م") and len(bare) > 1:
        candidates.append((bare[1:], "م"))

    for cand, prefix in candidates:
        if len(cand) > 2 and cand.endswith("وش") and lex.is_citation(cand[:-2]):
            suggestion = prefix + cand[:-2] + "هوش"
            return [
                Diagnostic(
                    "R-PRON",
                    word.start,
                    word.end,
                    Severity.INFO,
                    "negated verb may hide an object pronoun; هو makes it explicit",
                    suggestion,
                )
            ]
    return []


def rule_fut(window: TokenWindow, lex: Lexicon, fused: Mapping[str, str]) -> list[Diagnostic]:
    """R-FUT: باش before an imperfective verb is the future marker بش."""
    word = window.word
    if skeleton(word.text) != "باش":
        return []
    nxt = window.next_word
    if nxt is None or not lex.matches_imperfective(skeleton(nxt.text)):
        return []
    return [
        Diagnostic(
            "R-FUT",
            word.start,
            word.end,
            Severity.WARNING,
            "future marker before a verb is written بش (باش means 'with what')",
            "بش",
        )
    ]


def rule_sep(window: TokenWindow, lex: Lexicon, fused: Mapping[str, str]) -> list[Diagnostic]:
    """R-SEP: prepositions and the conjunction و stay separate words."""
    word = window.word
    bare = skeleton(word.text)
    if len(bare) < 2 or bare in lex.known_words or bare in lex.prepositions:
        return []

    def known_or_definite(s: str) -> bool:
        if s in lex.known_words:
            return True
        return len(s) > 2 and s.startswith(ALEF + LAM) and s[2:] in lex.known_words

    offsets = _letter_offsets(word.text)

    def split_after(n_letters: int) -> str:
        k = offsets[n_letters]
        return word.text[:k] + " " + word.text[k:]

    def diag(message: str, replacement: str) -> list[Diagnostic]:
        return [
            Diagnostic("R-SEP", word.start, word.end, Severity.WARNING, message, replacement)
        ]

    for fused_form in sorted(fused, key=len, reverse=True):
        if bare.startswith(fused_form) and len(bare) > len(fused_form):
            rest = bare[len(fused_form):]
            if rest in lex.known_words:
                k = offsets[len(fused_form)]
                return diag(
                    f"fused preposition; write {fused[fused_form]} separately",
                    fused[fused_form] + word.text[k:],
                )
    for prep in sorted(lex.prepositions, key=lambda w: (-len(w), w)):
        if len(prep) >= 2 and bare.startswith(prep) and len(bare) > len(prep):
            if known_or_definite(bare[len(prep):]):
                return diag(
                    f"preposition {prep} is written separate from the noun",
                    split_after(len(prep)),
                )
    if bare[0] == WAW and known_or_definite(bare[1:]):
        return diag(
            "the conjunction و is written separate from the following word",
            split_after(1),
        )
    return []
