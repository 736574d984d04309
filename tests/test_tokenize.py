from __future__ import annotations

import random
import sys
import time
from itertools import accumulate

import pytest
from hypothesis import given
from hypothesis import strategies as st

import nota.rules
import nota.tokenize
import rules_oracle
import tokenize_oracle
from gen import HOSTILE_DOCS, lexicon_word_pool, random_text, wide_text
from nota.corpus import collect_stats
from nota.lexicon import default_lexicon
from nota.pipeline import Mode, normalize
from nota.rules import RULE_IDS, windows
from nota.script import WORD_CHARS, skeleton
from nota.tokenize import TokenKind, split_words, tokenize

any_text = st.text(max_size=80)
mixed_text = st.text(
    alphabet=list("باشنميَِّ abz12.،٣"),
    max_size=60,
)


def test_sentence_example():
    tokens = tokenize("باش نمشي.")
    assert [(t.kind, t.text) for t in tokens] == [
        (TokenKind.WORD, "باش"),
        (TokenKind.SPACE, " "),
        (TokenKind.WORD, "نمشي"),
        (TokenKind.OTHER, "."),
    ]


def test_empty():
    assert tokenize("") == []


def test_digits_token():
    tokens = tokenize("ڨاوري 2024")
    assert [t.kind for t in tokens] == [TokenKind.WORD, TokenKind.SPACE, TokenKind.OTHER]


def test_mixed_script_splits():
    tokens = tokenize("abcباش")
    assert [t.kind for t in tokens] == [TokenKind.OTHER, TokenKind.WORD]


def test_non_inventory_arabic_stays_in_word():
    tokens = tokenize("گاوري")
    assert [t.kind for t in tokens] == [TokenKind.WORD]


def test_arabic_indic_digits():
    tokens = tokenize("٠١٢")
    assert [t.kind for t in tokens] == [TokenKind.OTHER]


@given(any_text)
def test_lossless_cover(text):
    tokens = tokenize(text)
    assert "".join(t.text for t in tokens) == text
    pos = 0
    for t in tokens:
        assert t.start == pos
        assert t.end > t.start
        assert text[t.start : t.end] == t.text
        pos = t.end
    assert pos == len(text)


@given(mixed_text)
def test_maximal_munch(text):
    tokens = tokenize(text)
    for a, b in zip(tokens, tokens[1:]):
        assert a.kind is not b.kind


@given(mixed_text)
def test_word_count_stable_under_stripping(text):
    words = [t for t in tokenize(text) if t.kind is TokenKind.WORD]
    if any(not skeleton(t.text) for t in words):
        return  # a mark-only word has no bare counterpart
    bare_words = [t for t in tokenize(skeleton(text)) if t.kind is TokenKind.WORD]
    assert len(bare_words) == len(words)


def test_tokens_and_windows_match_oracles_on_every_code_point():
    # Each code point once, in order.  Kinds do not depend on context, so
    # equal tokens here mean an equal kind for every one-character string.
    text = "".join(map(chr, range(0x110000)))
    tokens = tokenize(text)
    assert tokens == tokenize_oracle.tokenize(text)
    assert windows(tokens) == list(map(rules_oracle.text_window, rules_oracle.windows(tokens)))


def test_tokenize_keeps_no_per_character_state():
    """Tokenizing every code point, surrogates included, each at the start
    of a run, leaves almost no memory block allocated once the results are
    dropped: no table grows with the characters it has seen.  Blocks are
    counted rather than traced, since tracemalloc slows each of the
    millions of allocations here several times over."""
    # A word character follows a full stop, any other character a word
    # character, so each starts a run; in slices, to keep the token lists small.
    text = "".join(("." if ch in WORD_CHARS else "ب") + ch for ch in map(chr, range(0x110000)))
    tokenize(text[:100])  # so that nothing allocated once, on a first call, counts
    before = sys.getallocatedblocks()
    for i in range(0, len(text), 1 << 14):
        tokenize(text[i : i + (1 << 14)])
    assert sys.getallocatedblocks() - before < 1000


@given(st.one_of(st.text(), mixed_text, wide_text))
def test_tokens_and_windows_match_oracles(text):
    tokens = tokenize(text)
    assert tokens == tokenize_oracle.tokenize(text)
    assert windows(tokens) == list(map(rules_oracle.text_window, rules_oracle.windows(tokens)))


@given(st.one_of(st.text(), mixed_text, wide_text))
def test_tokenize_splits_at_whitespace(text):
    """Cut anywhere next to whitespace, the two sides tokenize on their own.

    That is, ``tokenize`` is local at whitespace cuts, which a lint of the
    text in whitespace-aligned chunks (ROADMAP item J) relies on.
    """
    tokens = tokenize(text)
    for cut in range(1, len(text)):
        if not (text[cut - 1].isspace() or text[cut].isspace()):
            continue
        left = list(tokenize(text[:cut]))
        right = [t._replace(start=t.start + cut, end=t.end + cut) for t in tokenize(text[cut:])]
        if left[-1].kind is right[0].kind is TokenKind.SPACE:
            joined = left.pop()
            right[0] = right[0]._replace(text=joined.text + right[0].text, start=joined.start)
        assert left + right == tokens, (text, cut)


@pytest.mark.parametrize("name", HOSTILE_DOCS)
def test_linear_on_hostile_sizes(name):
    text = HOSTILE_DOCS[name]
    start = time.perf_counter()
    tokens = tokenize(text)
    assert time.perf_counter() - start < 5.0
    assert "".join(t.text for t in tokens) == text


def _check_split_words(text: str) -> None:
    parts = split_words(text)
    assert "".join(parts) == text
    assert len(parts) % 2 == 1
    assert parts[1::2] == [t.text for t in tokenize(text) if t.kind is TokenKind.WORD]
    assert all(parts[2:-1:2])  # every gap but the first and the last


POOL = lexicon_word_pool(default_lexicon())
TEXTS = st.one_of(
    st.text(),
    wide_text,
    st.integers(0, 2**32 - 1).map(lambda seed: random_text(random.Random(seed), POOL)),
)


@given(TEXTS)
def test_split_words_matches_tokenize(text):
    _check_split_words(text)


@pytest.mark.parametrize("name", HOSTILE_DOCS)
def test_split_words_matches_tokenize_on_hostile_docs(name):
    _check_split_words(HOSTILE_DOCS[name])


@given(TEXTS)
def test_tokens_hold_the_parts_and_view_the_runs(text):
    tokens = tokenize(text)
    assert tokens.parts == split_words(text)
    assert tokens.ends == list(accumulate(map(len, tokens.parts)))
    runs = tokenize_oracle.tokenize(text)
    assert tokens == runs
    assert list(tokens) == runs and len(tokens) == len(runs)
    assert tokens[1:] == runs[1:] and repr(tokens) == repr(runs)


def test_lint_core_builds_no_typed_runs(monkeypatch, tmp_path):
    """``normalize`` in both modes and ``collect_stats`` read only the
    parts: none of them builds the typed runs, and every rule gets a window
    of strings that carries its word's skeleton.  Each run has a fresh
    lexicon, so that no rule memo keeps a rule from running."""
    def refuse(text):
        raise AssertionError("the typed runs were built")

    ran: set[str] = set()

    def strings_only(rid, body):
        def run(window, lex, fused):
            assert type(window.word) is str, (rid, window)
            assert all(t is None or type(t) is str for t in window[1:]), (rid, window)
            assert window.bare == skeleton(window.word), (rid, window)
            ran.add(rid)
            return body(window, lex, fused)
        return run

    monkeypatch.setattr(nota.tokenize, "_typed_runs", refuse)
    for rid, rule in nota.rules._RULES.items():
        monkeypatch.setitem(nota.rules._RULES, rid, rule._replace(body=strings_only(rid, rule.body)))
    text = "باش نمشي. گاوريٌ اَلدار\nوالدار 2024 abc"
    pron = "ما كلموش"  # R-PRON's gate passes on its second word
    for mode in Mode:
        assert normalize(text, default_lexicon(), mode=mode).diagnostics
        normalize(pron, default_lexicon(), mode=mode)
        assert ran == RULE_IDS, mode
        ran.clear()
    (tmp_path / "a.txt").write_text(text, encoding="utf-8")
    (tmp_path / "b.txt").write_text("كتاب", encoding="utf-8")
    assert collect_stats(tmp_path, default_lexicon()).word_tokens == 6
    (tmp_path / "c.txt").write_text(pron, encoding="utf-8")
    assert collect_stats(tmp_path, default_lexicon()).word_tokens == 8
    assert ran == RULE_IDS
