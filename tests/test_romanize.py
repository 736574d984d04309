from __future__ import annotations

import random

import pytest

from nota.romanize import (
    PLACEHOLDER,
    MissingDiacriticsError,
    NotAWordError,
    romanize,
    romanize_segments,
)
from nota.script import LETTERS, Vowel, skeleton


def test_baash():
    assert romanize("بَاش") == "baːʃ"  # baːʃ


def test_single_gaf():
    assert romanize("ڨ") == "g"
    assert romanize("ڨ", "bare") == "g"


def test_dagla():
    # دَڨْلَة
    word = "دَڨْلَة"
    assert romanize(word) == "dagla"


def test_shadda_doubles_even_finally():
    assert romanize("حَبّ") == "ħabb"  # ħabb


def test_long_vowels():
    # بِيرُو biːruː
    assert romanize("بِيرُو") == "biːruː"


def test_zwarakay_long_e():
    # بٙات → bɛːt
    assert romanize("بٙات") == "bɛːt"


def test_merger_and_distinctions():
    assert romanize("ض", "bare") == romanize("ظ", "bare")
    assert romanize("پ", "bare") != romanize("ب", "bare")
    assert romanize("ڤ", "bare") != romanize("ف", "bare")
    assert romanize("ڨ", "bare") != romanize("ق", "bare")


def test_totality_over_inventory():
    for ch in LETTERS:
        assert romanize(ch, "bare")
        assert romanize(ch, "diacritized")


def test_bare_placeholders():
    assert romanize("باش", "bare") == f"b{PLACEHOLDER}ʃ"
    assert romanize("نمشي", "bare") == f"nmʃ{PLACEHOLDER}"


def test_bare_initial_waw_is_consonant():
    assert romanize("ولد", "bare") == "wld"


def test_taa_marbuta_final():
    assert romanize("بقرة", "bare") == "bqra"


def test_missing_diacritics_error():
    with pytest.raises(MissingDiacriticsError):
        romanize("بتَك")  # bare ب mid-word


def test_not_a_word():
    with pytest.raises(NotAWordError):
        romanize("abc")
    with pytest.raises(NotAWordError):
        romanize("با ش")
    with pytest.raises(NotAWordError):
        romanize("كتابً")  # tanwin
    # Structural faults the grapheme parser rejects, in either mode.
    for word in ("بَِ", "بَْ"):
        for mode in ("diacritized", "bare"):
            with pytest.raises(NotAWordError):
                romanize(word, mode)


def test_bare_equals_diacritized_with_placeholders():
    # Restricted equivalence: long-vowel-only words over plain consonants.
    rng = random.Random(5)
    plain = [c for c in "بتثجحخدذرزسشصضطظعغفقكلمنهپڤڨ"]
    maters = {Vowel.A: "ا", Vowel.E: "ا", Vowel.U: "و", Vowel.I: "ي"}
    vowel_ipa = {Vowel.A: "a", Vowel.E: "ɛ", Vowel.U: "u", Vowel.I: "i"}
    for _ in range(200):
        word = ""
        for _ in range(rng.randint(1, 4)):
            v = rng.choice(list(Vowel))
            word += rng.choice(plain) + v.value + maters[v]
        segments = romanize_segments(word, "diacritized")
        expected = tuple(
            PLACEHOLDER if s.rstrip("ː") in vowel_ipa.values() else s
            for s in segments
        )
        assert romanize_segments(skeleton(word), "bare") == expected
