from __future__ import annotations

import time
import unicodedata
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

import script_oracle
from gen import HOSTILE_DOCS, wide_text
from nota.pipeline import _to_original
from nota.rules import Diagnostic, Severity
from nota.script import (
    _PRESENTATION_FORMS,
    ALEF,
    ARABIC_MARKS,
    FATHA,
    KASRA,
    LETTERS,
    SHADDA,
    SUKUN,
    TATWEEL,
    WORD_CHARS,
    ZWARAKAY,
    CharClass,
    Vowel,
    canonicalize,
    classify,
    skeleton,
)

arabic_soup = st.text(
    alphabet=list(LETTERS) + [FATHA, KASRA, SHADDA, SUKUN, ZWARAKAY, TATWEEL]
    + list("abc 123.،ًٰگﺑ") + ["\u0653", "\u0654", "\u0655"],
    max_size=40,
)


def test_supplemental_letters_are_base_letters():
    for ch, ipa in (("پ", "p"), ("ڤ", "v"), ("ڨ", "g")):
        assert classify(ch) is CharClass.LETTER
        assert LETTERS[ch] == ipa


def test_emphatic_flags_and_merged_label():
    # ض and ظ share one phoneme label while staying distinct letters.
    assert LETTERS["ض"] == LETTERS["ظ"]
    assert "ض" != "ظ"


def test_vowel_ids_map_to_their_marks():
    assert Vowel.A.value == "َ"
    assert Vowel.E.value == "ٙ"
    assert Vowel.U.value == "ُ"
    assert Vowel.I.value == "ِ"
    assert len(Vowel) == 4


@pytest.mark.parametrize(
    "ch,expected",
    [
        ("پ", CharClass.LETTER),
        ("ٙ", CharClass.VOWEL),
        ("A", CharClass.FOREIGN),
        ("ّ", CharClass.SHADDA),
        ("ْ", CharClass.SUKUN),
        ("3", CharClass.DIGIT),
        ("٣", CharClass.DIGIT),
        (" ", CharClass.SPACE),
        (".", CharClass.PUNCT),
        ("؟", CharClass.PUNCT),
        ("ً", CharClass.UNKNOWN),  # tanwin is not a NOTA mark
        ("گ", CharClass.UNKNOWN),  # گ is outside the inventory
        ("é", CharClass.FOREIGN),
    ],
)
def test_classification_examples(ch, expected):
    assert classify(ch) is expected


@given(st.integers(min_value=0, max_value=0x10FFFF))
def test_classify_is_total_and_deterministic(cp):
    if 0xD800 <= cp <= 0xDFFF:
        return
    ch = chr(cp)
    assert classify(ch) is classify(ch)
    assert isinstance(classify(ch), CharClass)


def test_skeleton_examples():
    assert skeleton("بَاش") == "باش"
    assert skeleton("باش") == "باش"
    assert skeleton("abc") == "abc"


@given(st.text(max_size=64))
def test_skeleton_idempotent_and_monotone(text):
    once = skeleton(text)
    assert skeleton(once) == once
    assert len(once) <= len(text)


def test_canonicalize_folds_presentation_forms():
    # ﺑﺎﺵ → باش
    assert canonicalize("ﺑﺎﺵ").text == "باش"


def test_canonicalize_composes_hamza_pairs():
    assert canonicalize("آ").text == "آ"
    assert canonicalize("أ").text == "أ"
    assert canonicalize("ؤ").text == "ؤ"


def test_canonicalize_strips_tatweel_and_orders_marks():
    assert canonicalize("ك" + TATWEEL + "ب").text == "كب"
    # Fatha typed before Shadda comes out Shadda-first.
    assert canonicalize("دَّ").text == "دَّ"


def test_canonicalize_span_mapping():
    canon = canonicalize("x" + TATWEEL + "ب")
    assert canon.text == "xب"
    assert script_oracle.to_original(canon, 1, 2) == (2, 3)


def test_canonicalize_drops_tatweel_before_composing():
    assert canonicalize("ا" + TATWEEL + "\u0653").text == "آ"
    assert canonicalize("ا" + TATWEEL + "\u0654").text == "أ"
    assert canonicalize("و" + TATWEEL + "\u0654").text == "ؤ"


@given(arabic_soup)
def test_canonicalize_idempotent(text):
    once = canonicalize(text).text
    assert canonicalize(once).text == once


@given(wide_text)
def test_canonicalize_idempotent_on_wide_alphabet(text):
    once = canonicalize(text).text
    assert canonicalize(once).text == once


def test_tables_match_oracle_predicates_on_the_bmp():
    for cp in range(0x10000):
        ch = chr(cp)
        assert (ch in ARABIC_MARKS) == script_oracle.is_arabic_mark(ch), hex(cp)
        assert (ch in WORD_CHARS) == script_oracle.is_word_char(ch), hex(cp)
        assert (ch in _PRESENTATION_FORMS) == script_oracle._is_presentation(ch), hex(cp)
        assert classify(ch) is script_oracle.classify(ch), hex(cp)


# Letters that compose with hamza/madda, marks (NOTA, combining hamza and
# madda, tatweel, tanwin), presentation forms that fold to several
# characters (ﻻ, and ﳲ/ﹱ which carry tatweel and marks), Latin, space.
CANON_ALPHABET = (
    "اويبل" + "\u064e\u0651\u0652\u0653\u0654\u0655" + TATWEEL + "\u064b" + "ﻻﳲﹱx "
)


def _char_spans(canon) -> list[tuple[int, int]]:
    """The source span ``canon`` maps each of its characters to, through the
    pipeline's sweep."""
    chars = [Diagnostic("R-VOW", i, i + 1, Severity.ERROR, "", None) for i in range(len(canon.text))]
    return [(d.start, d.end) for d in _to_original(canon, chars)]


def _assert_maps_like(canon, dense, what) -> None:
    """``canon`` has ``dense``'s text and maps each character as the dense
    oracle does: character i to ``spans[i]``.  A longer whitespace-free
    span maps to the least start and the greatest end of its characters'
    spans, which the next test checks."""
    assert canon.text == dense.text, what
    assert _char_spans(canon) == list(dense.spans), what


# Presentation forms whose NFKC is more than one character: ligatures of
# letters, of a letter and its marks, and of a space and a mark.
LIGATURES = sorted(ch for ch in _PRESENTATION_FORMS if len(unicodedata.normalize("NFKC", ch)) > 1)
ligature_soup = st.text(
    alphabet=st.one_of(st.sampled_from(LIGATURES), st.sampled_from(CANON_ALPHABET)), max_size=24
)


def _findings(text: str) -> list[tuple[int, int]]:
    """Every non-empty, whitespace-free span of ``text``: what a finding
    can be."""
    spans = []
    for i in range(len(text)):
        for j in range(i + 1, len(text) + 1):
            if text[j - 1].isspace():
                break
            spans.append((i, j))
    return spans


@given(st.one_of(wide_text, arabic_soup, ligature_soup))
def test_to_original_matches_dense_oracle_on_every_span(text):
    canon, dense = canonicalize(text), script_oracle.canonicalize(text)
    assert canon.text == dense.text
    for i, j in _findings(canon.text):
        assert script_oracle.to_original(canon, i, j) == dense.to_original(i, j), (ascii(text), i, j)


@given(st.data(), st.one_of(wide_text, arabic_soup, ligature_soup))
def test_sweep_matches_per_span_oracle(data, text):
    """The pipeline's one sweep maps findings sorted by start, equal starts
    with ends in any order, as the per-span oracle maps each: every
    non-empty, whitespace-free span at once, and a sample of them with
    repeats.  A finding whose span does not move comes back as the same
    object."""
    canon = canonicalize(text)
    spans = _findings(canon.text)
    picked = data.draw(st.lists(st.sampled_from(spans), max_size=30)) if spans else []
    picked.sort(key=lambda span: span[0])
    for group in (spans, picked):
        found = [Diagnostic("R-VOW", i, j, Severity.ERROR, "m", "r") for i, j in group]
        mapped = _to_original(canon, found)
        assert [(d.start, d.end) for d in mapped] == [
            script_oracle.to_original(canon, i, j) for i, j in group
        ], ascii(text)
        for d, m in zip(found, mapped):
            assert (m is d) == ((m.start, m.end) == (d.start, d.end))
            assert (m.rule, m.severity, m.message, m.replacement) == ("R-VOW", Severity.ERROR, "m", "r")


def test_canonicalize_matches_oracle_exhaustively():
    assert len(set(CANON_ALPHABET)) == len(CANON_ALPHABET) == 18
    for n in range(5):
        for chars in product(CANON_ALPHABET, repeat=n):
            text = "".join(chars)
            _assert_maps_like(canonicalize(text), script_oracle.canonicalize(text), ascii(text))


WHITESPACE = [ch for ch in map(chr, range(0x10000)) if ch.isspace()]
any_soup = st.one_of(st.text(), arabic_soup, wide_text)


@given(a=any_soup, ws=st.text(st.sampled_from(WHITESPACE), min_size=1, max_size=3), b=any_soup)
def test_canonicalize_folds_each_side_of_whitespace_alone(a, ws, b):
    """What lets canonicalize copy the runs it need not rewrite."""
    left, right = canonicalize(a), canonicalize(b)
    shift = len(a) + len(ws)
    whole = canonicalize(a + ws + b)
    sides = script_oracle.Canonical(
        left.text + ws + right.text,
        tuple(_char_spans(left))
        + tuple((i, i + 1) for i in range(len(a), shift))
        + tuple((s + shift, e + shift) for s, e in _char_spans(right)),
    )
    _assert_maps_like(whole, sides, "sides")
    _assert_maps_like(whole, script_oracle.canonicalize(a + ws + b), "whole")


# Alef and the marks canonicalize moves, composes or drops, among
# whitespace and the ligatures whose NFKC holds a space (ﷺ) or starts
# with one (ﹰ: space + Fathatan).
CANON_SPACE_ALPHABET = ALEF + FATHA + SHADDA + "\u0654" + TATWEEL + " \n\u00a0\ufdfa\ufe70"


def test_canonicalize_matches_oracle_around_whitespace_exhaustively():
    assert len(set(CANON_SPACE_ALPHABET)) == len(CANON_SPACE_ALPHABET) == 10
    for n in range(5):
        for chars in product(CANON_SPACE_ALPHABET, repeat=n):
            text = "".join(chars)
            _assert_maps_like(canonicalize(text), script_oracle.canonicalize(text), ascii(text))


@pytest.mark.parametrize("name", HOSTILE_DOCS)
def test_canonicalize_linear_on_hostile_sizes(name):
    text = HOSTILE_DOCS[name]
    start = time.perf_counter()
    canon = canonicalize(text)
    assert time.perf_counter() - start < 5.0
    _assert_maps_like(canon, script_oracle.canonicalize_by_runs(text), name)
