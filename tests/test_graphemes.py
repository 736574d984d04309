from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

import graphemes_oracle
from nota.graphemes import (
    DuplicateVowelError,
    Grapheme,
    GraphemeError,
    LeadingDiacriticError,
    UnsupportedCharacterError,
    VowelWithSukunError,
    parse_graphemes,
    render_graphemes,
)
from nota.script import LETTERS, Vowel

graphemes = st.lists(
    st.builds(
        Grapheme,
        base=st.sampled_from(sorted(LETTERS)),
        shadda=st.booleans(),
        sukun=st.booleans(),
        vowel=st.one_of(st.none(), st.sampled_from(list(Vowel))),
    ).filter(lambda g: not (g.vowel is not None and g.sukun)),
    max_size=8,
)


def test_parse_baash():
    got = parse_graphemes("بَاش")
    assert got == (
        Grapheme("ب", vowel=Vowel.A),
        Grapheme("ا"),
        Grapheme("ش"),
    )


def test_parse_empty():
    assert parse_graphemes("") == ()


def test_parse_leading_diacritic():
    with pytest.raises(LeadingDiacriticError):
        parse_graphemes("َب")


def test_parse_duplicate_vowel():
    with pytest.raises(DuplicateVowelError):
        parse_graphemes("بَِ")


def test_parse_vowel_with_sukun():
    with pytest.raises(VowelWithSukunError):
        parse_graphemes("بَْ")
    with pytest.raises(VowelWithSukunError):
        parse_graphemes("بَْ")


def test_parse_rejects_foreign():
    with pytest.raises(UnsupportedCharacterError):
        parse_graphemes("xب")


def test_render_shadda_before_vowel():
    assert render_graphemes([Grapheme("د", shadda=True, vowel=Vowel.A)]) == (
        "دَّ"
    )


def test_render_empty():
    assert render_graphemes([]) == ""


def test_render_rejects_malformed():
    with pytest.raises(ValueError):
        render_graphemes([Grapheme("x")])
    with pytest.raises(ValueError):
        render_graphemes([Grapheme("ب", sukun=True, vowel=Vowel.A)])


@given(graphemes)
def test_roundtrip_parse_of_render(gs):
    assert parse_graphemes(render_graphemes(gs)) == tuple(gs)


@given(graphemes)
def test_render_stays_inside_the_inventory(gs):
    from nota.script import CharClass, classify

    for ch in render_graphemes(gs):
        assert classify(ch) is not CharClass.UNKNOWN


@given(graphemes)
def test_render_of_parse_is_canonical_normalization(gs):
    # Scramble the mark order: vowel before shadda still parses, and one
    # render pass reaches the canonical fixed point.
    scrambled = "".join(
        g.base
        + (g.vowel.value if g.vowel else "")
        + ("ّ" if g.shadda else "")
        + ("ْ" if g.sukun else "")
        for g in gs
    )
    parsed = parse_graphemes(scrambled)
    canonical = render_graphemes(parsed)
    assert parse_graphemes(canonical) == parsed
    assert render_graphemes(parse_graphemes(canonical)) == canonical


# Base letters, the six inventory marks, two Arabic marks outside it
# (tanwin, madda above), and four non-inventory characters: a Latin
# letter, a space, a Latin combining accent and tatweel.
ORACLE_ALPHABET = "بال" + "َِٙ" + "ُّْ" + "ًٓ" + "x \u0301ـ"


def _outcome(parse, word):
    try:
        return parse(word)
    except GraphemeError as exc:
        return (type(exc), str(exc), exc.position)


def test_parser_matches_oracle_exhaustively():
    assert len(set(ORACLE_ALPHABET)) == len(ORACLE_ALPHABET) == 15
    inputs = [chr(cp) for cp in range(0x10000)]
    for n in range(5):
        inputs.extend("".join(chars) for chars in product(ORACLE_ALPHABET, repeat=n))
    for word in inputs:
        assert _outcome(parse_graphemes, word) == _outcome(
            graphemes_oracle.parse_graphemes, word
        ), ascii(word)
