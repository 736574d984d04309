from __future__ import annotations

import sys
from dataclasses import fields, replace

import pytest

from nota.lexicon import (
    ROLES,
    DuplicateEntryError,
    InvalidScriptError,
    Lexicon,
    LexiconError,
    LexiconParseError,
    _require_word,
    default_lexicon,
    fold_final_alef,
    load_lexicon,
    resolve_lexicon_paths,
)
from nota.script import skeleton
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
            assert skeleton(form) == form


def test_word_check_agrees_with_the_tokenizer():
    # A field passes the word check exactly when it tokenizes to one WORD
    # token: for every code point, and for a few longer or empty fields.
    texts = [chr(cp) for cp in range(sys.maxunicode + 1)]
    texts += ["", "كتاب", "كتاب كتاب", "كتاب.", "كتابa", "ab", "١٢", "ـكتاب", " كتاب"]
    for text in texts:
        toks = tokenize(text)
        one_word = len(toks) == 1 and toks[0].kind is TokenKind.WORD
        try:
            _require_word(text, "test", 1, "word")
            passed = True
        except InvalidScriptError as exc:
            passed = "is not a single word" not in str(exc)
        assert passed == one_word, repr(text)


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


def test_field_with_non_nota_mark_rejected():
    with pytest.raises(InvalidScriptError):
        load_lexicon({"known_words": ["كتاب\u064b"]})  # tanwin could never match


def test_variant_map_target_constrained():
    with pytest.raises(InvalidScriptError):
        load_lexicon({"variant_map": ["گ\tق"]})  # ق is not supplemental


# Variant keys that are not one Arabic letter: a Fatha, a space, an ASCII
# and an Arabic-Indic digit, a Latin letter, tatweel and a presentation form.
NOT_LETTERS = ["\u064e", " ", "1", "\u0663", "a", "\u0640", "\ufe8f"]


@pytest.mark.parametrize("rows", [
    ["ڨ\tڨ"], ["ڤ\tڨ", "ڨ\tڤ"], ["پ\tڤ"], *([key + "\tڨ"] for key in NOT_LETTERS),
])
def test_variant_map_source_not_canonical(rows):
    # A variant that is itself پ/ڤ/ڨ would rewrite forever, or onto itself;
    # one that is not a letter would rewrite a mark, or never be read.
    with pytest.raises(InvalidScriptError):
        load_lexicon({"variant_map": rows})


def test_config_variant_map_source_not_canonical():
    with pytest.raises(InvalidScriptError):
        default_lexicon(variant_map={"ڨ": "ڨ"})


@pytest.mark.parametrize("key", NOT_LETTERS)
def test_config_variant_map_key_not_a_letter(key):
    with pytest.raises(InvalidScriptError):
        default_lexicon(variant_map={key: "ڨ"})


def test_gaf_respelling_constrained():
    with pytest.raises(InvalidScriptError):
        load_lexicon({"gaf_words": ["بقرة\tبقره"]})


def test_unknown_role_rejected():
    with pytest.raises(Exception):
        load_lexicon({"nouns": []})


def test_directory_without_role_files_rejected(tmp_path):
    (tmp_path / "verbs.txt").write_text("", encoding="utf-8")
    (tmp_path / "known_words.tsv").mkdir()
    with pytest.raises(LexiconError, match="no lexicon files in"):
        resolve_lexicon_paths([tmp_path])
    (tmp_path / "prepositions.tsv").write_text("في\n", encoding="utf-8")
    assert resolve_lexicon_paths([tmp_path]) == {"prepositions": tmp_path / "prepositions.tsv"}


@pytest.mark.parametrize("name", ["no_such_dir", "verbs.tsv"])
def test_missing_path_rejected_as_missing(tmp_path, name):
    with pytest.raises(LexiconError, match="no such lexicon file or directory"):
        resolve_lexicon_paths([tmp_path / name])


@pytest.mark.parametrize("role, data, error", [
    ("known_words", "باش\u2028نمشي\n", "known_words:1: "),  # one line, not two words
    ("verbs", "\x0c\nمشى\tيمشي\n", "verbs:2: "),  # a form feed ends no line
    ("known_words", "باش\rنمشي\n", "known_words:1: "),  # nor does a lone CR
])
def test_role_file_lines_end_at_line_feeds_only(tmp_path, role, data, error):
    path = tmp_path / f"{role}.tsv"
    path.write_bytes(data.encode("utf-8"))
    with pytest.raises(LexiconError, match=error):
        default_lexicon(overrides={role: path})


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_role_file_comment_holds_its_whole_line(tmp_path, newline):
    """The tail of a comment after U+0085 is comment, not data; LF and
    CRLF files load alike."""
    path = tmp_path / "known_words.tsv"
    path.write_bytes(newline.join(["# note\x85tail", "", "باش", "نمشي", ""]).encode("utf-8"))
    assert default_lexicon(overrides={"known_words": path}).known_words == {"باش", "نمشي"}


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


def test_lexicon_fields_are_the_five_resources(lex):
    assert [f.name for f in fields(Lexicon)] == list(ROLES)
    resources = {role: getattr(lex, role) for role in ROLES}
    with pytest.raises(TypeError):
        Lexicon(**resources, _known_folded={})
    # A copy is equal but starts with its own, empty rule memo.
    original = Lexicon(**resources)
    original._rule_memo[()] = {}
    copy = replace(original)
    assert copy == original == lex
    assert copy._rule_memo == {}
    assert replace(original, known_words=frozenset()) != original
