from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nota.script import (
    ALEF,
    FATHA,
    KASRA,
    LETTERS,
    SHADDA,
    SUKUN,
    TATWEEL,
    ZWARAKAY,
    CharClass,
    Vowel,
    canonicalize,
    classify,
    iter_clusters,
    strip_diacritics,
)

arabic_soup = st.text(
    alphabet=list(LETTERS) + [FATHA, KASRA, SHADDA, SUKUN, ZWARAKAY, TATWEEL]
    + list("abc 123.،ًٰگﺑ"),
    max_size=40,
)


def test_supplemental_letters_are_base_letters():
    for ch, ipa in (("پ", "p"), ("ڤ", "v"), ("ڨ", "g")):
        assert classify(ch) is CharClass.LETTER
        assert LETTERS[ch].ipa == ipa
        assert LETTERS[ch].supplemental


def test_emphatic_flags_and_merged_label():
    for ch in "صضطظ":  # ص ض ط ظ
        assert LETTERS[ch].emphatic
    assert not LETTERS["س"].emphatic
    # ض and ظ share one phoneme label while staying distinct letters.
    assert LETTERS["ض"].ipa == LETTERS["ظ"].ipa
    assert "ض" != "ظ"


def test_vowel_ids_map_to_their_marks():
    assert Vowel.A.mark == "َ"
    assert Vowel.E.mark == "ٙ"
    assert Vowel.U.mark == "ُ"
    assert Vowel.I.mark == "ِ"
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


def test_strip_diacritics_examples():
    assert strip_diacritics("بَاش") == "باش"
    assert strip_diacritics("باش") == "باش"
    assert strip_diacritics("abc") == "abc"


@given(st.text(max_size=64))
def test_strip_diacritics_idempotent_and_monotone(text):
    once = strip_diacritics(text)
    assert strip_diacritics(once) == once
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
    assert canon.to_original(1, 2) == (2, 3)


@given(arabic_soup)
def test_canonicalize_idempotent(text):
    once = canonicalize(text).text
    assert canonicalize(once).text == once


def test_iter_clusters_attaches_marks():
    clusters = iter_clusters("بَاش")
    assert [(c.base, c.marks) for c in clusters] == [
        ("ب", "َ"),
        ("ا", ""),
        ("ش", ""),
    ]


def test_iter_clusters_leading_mark():
    clusters = iter_clusters("َب")
    assert clusters[0].base is None
    assert clusters[0].marks == "َ"
