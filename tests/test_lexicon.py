from __future__ import annotations

import pytest

from nota.lexicon import (
    DuplicateEntryError,
    InvalidScriptError,
    LexiconParseError,
    default_lexicon,
    fold_final_alef,
    load_lexicon,
)
from nota.script import strip_diacritics
from nota.tokenize import TokenKind, tokenize


def test_default_lexicon_loads(lex):
    assert len(lex.verbs) >= 10
    assert "في" in lex.prepositions  # في
    assert "دار" in lex.known_words  # دار
    assert lex.variant_map["گ"] == "ڨ"  # گ → ڨ
    assert lex.gaf_words["بقرة"] == "بڨرة"


def test_every_stored_form_is_one_word_token(lex):
    for entry in lex.verbs.values():
        for form in (entry.citation, entry.present_3sg, entry.present_2sg,
                     entry.irregular_imperative):
            if not form:
                continue
            tokens = tokenize(form)
            assert len(tokens) == 1 and tokens[0].kind is TokenKind.WORD
            assert strip_diacritics(form) == form


def test_flag_matches_present_form(lex):
    for entry in lex.verbs.values():
        assert entry.present_ends_long_i == entry.present_3sg.endswith("ي")


def test_parse_example_line():
    lex = load_lexicon({"verbs": ["مشى\tيمشي\t1\tتمشي\t"]})
    entry = lex.verbs["مشى"]
    assert entry.present_ends_long_i
    assert entry.present_2sg == "تمشي"
    assert entry.irregular_imperative is None


def test_duplicate_citation_rejected():
    line = "مشى\tيمشي\t1"
    with pytest.raises(DuplicateEntryError):
        load_lexicon({"verbs": [line, line]})


def test_flag_mismatch_rejected():
    with pytest.raises(LexiconParseError):
        load_lexicon({"verbs": ["مشى\tيمشي\t0"]})


def test_bad_flag_rejected():
    with pytest.raises(LexiconParseError):
        load_lexicon({"verbs": ["مشى\tيمشي\tx"]})


def test_foreign_field_rejected():
    with pytest.raises(InvalidScriptError):
        load_lexicon({"verbs": ["abc\tيمشي\t1"]})


def test_diacritized_field_rejected():
    with pytest.raises(InvalidScriptError):
        load_lexicon({"known_words": ["بَاب"]})


def test_variant_map_target_constrained():
    with pytest.raises(InvalidScriptError):
        load_lexicon({"variant_map": ["گ\tق"]})  # ق is not supplemental


def test_gaf_respelling_constrained():
    with pytest.raises(InvalidScriptError):
        load_lexicon({"gaf_words": ["بقرة\tبقره"]})


def test_unknown_role_rejected():
    with pytest.raises(Exception):
        load_lexicon({"nouns": []})


def test_loading_is_deterministic():
    assert default_lexicon() == default_lexicon()


def test_fold_final_alef():
    assert fold_final_alef("مشى") == "مشا"
    assert fold_final_alef("مشا") == "مشا"
    assert fold_final_alef("") == ""


def test_citation_folded_lookup(lex):
    entry = lex.lookup_citation_folded("مشا")  # مشا
    assert entry is not None and entry.citation == "مشى"
    entry = lex.lookup_citation_folded("قرى")  # قرى
    assert entry is not None and entry.citation == "قرا"


def test_matches_imperfective(lex):
    assert lex.matches_imperfective("يمشي")   # يمشي
    assert lex.matches_imperfective("نمشي")   # نمشي
    assert lex.matches_imperfective("تمشي")   # تمشي
    assert lex.matches_imperfective("نمشيو")  # نمشيو
    assert not lex.matches_imperfective("مشي")     # مشي
    assert not lex.matches_imperfective("ولد")     # ولد
