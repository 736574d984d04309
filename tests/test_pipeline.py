from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import lexicon_word_pool, random_text
from nota import Config, ConfigError, Mode, normalize
from nota.config import DEFAULT_CONFIG
from nota.lexicon import Lexicon, load_lexicon
from nota.pipeline import PassCapExceededError
from nota.rules import RULE_PRIORITY, Severity
from nota.script import strip_diacritics
from nota.tokenize import TokenKind, tokenize

soup = st.text(
    alphabet=list(
        "باشنميولدرقة"
        "ًَِّْٙگ abz12.،"
    ),
    max_size=50,
)


def test_check_reports_without_mutating(lex):
    result = normalize("باش نمشي", lex, mode=Mode.CHECK)
    assert result.output == "باش نمشي"
    assert [d.rule for d in result.diagnostics] == ["R-FUT"]
    assert result.fixes == ()


def test_fix_composes_rules(lex):
    result = normalize(
        "اَلدار والدار",
        lex,
        mode=Mode.FIX,
    )
    assert result.output == "الدار و الدار"
    assert len(result.fixes) == 2
    assert {f.rule for f in result.fixes} == {"R-ART", "R-SEP"}


def test_fix_on_canonical_is_identity(lex):
    text = "بش نمشي في الدار"
    result = normalize(text, lex, mode=Mode.FIX)
    assert result.output == text
    assert result.passes_used == 1
    assert result.diagnostics == ()


def test_fix_needs_two_passes_for_nested_fix(lex):
    # R-SEP splits first; the marked article surfaces in pass 2.
    word = "واَلدار"  # واَلدار
    result = normalize(word, lex, mode=Mode.FIX)
    assert result.output == "و الدار"
    assert result.passes_used == 3


def test_pass_cap_raises(lex):
    word = "واَلدار"
    with pytest.raises(PassCapExceededError):
        normalize(word, lex, Config(max_passes=1), mode=Mode.FIX)


def test_fix_trace_spans_are_pass_local(lex):
    result = normalize("اَلدار", lex, mode=Mode.FIX)
    assert result.fixes[0].pass_index == 1
    assert result.fixes[0].rule == "R-ART"


def test_diagnostics_map_to_original_offsets(lex):
    # A tatweel before the flagged letter shifts canonical offsets.
    text = "كــگب"  # كـــگب with tatweel
    result = normalize(text, lex, mode=Mode.CHECK)
    spans = [(d.rule, d.start, d.end) for d in result.diagnostics]
    assert ("R-CONS", 3, 4) in spans


def test_info_is_never_applied(lex):
    text = "ما كلموش"
    result = normalize(text, lex, mode=Mode.FIX)
    assert result.output == text
    assert [d.severity for d in result.diagnostics] == [Severity.INFO]


def test_strict_mode_reports_only(lex):
    text = "اَلدار"
    result = normalize(text, lex, mode=Mode.STRICT)
    assert result.output == text
    assert result.diagnostics


def test_empty_prepositions_rejected_when_sep_enabled(lex):
    empty = load_lexicon({})
    with pytest.raises(ConfigError):
        normalize("باش", empty, mode=Mode.CHECK)
    cfg = Config(rules={"R-SEP": False})
    assert normalize("باش", empty, cfg, mode=Mode.CHECK).diagnostics == ()


def test_non_word_bytes_preserved(lex):
    text = "abc اَلدار 123."
    result = normalize(text, lex, mode=Mode.FIX)
    assert result.output == "abc الدار 123."


def test_non_word_token_sequence_survives_fixing(lex):
    rng = random.Random(406)
    pool = lexicon_word_pool(lex)
    keep = {TokenKind.PUNCT, TokenKind.FOREIGN, TokenKind.DIGITS}

    def skeleton(text):
        return [(t.kind, t.text) for t in tokenize(text) if t.kind in keep]

    for _ in range(200):
        text = random_text(rng, pool)
        fixed = normalize(text, lex, mode=Mode.FIX).output
        assert skeleton(fixed) == skeleton(text)


@settings(max_examples=150, deadline=None)
@given(soup)
def test_fix_idempotent(lex, text):
    once = normalize(text, lex, mode=Mode.FIX).output
    twice = normalize(once, lex, mode=Mode.FIX).output
    assert twice == once


@settings(max_examples=150, deadline=None)
@given(soup)
def test_check_never_alters(lex, text):
    assert normalize(text, lex, mode=Mode.CHECK).output == text


def test_seeded_mixed_corpus_idempotent(lex):
    rng = random.Random(404)
    pool = lexicon_word_pool(lex)
    for _ in range(300):
        text = random_text(rng, pool)
        once = normalize(text, lex, mode=Mode.FIX).output
        assert normalize(once, lex, mode=Mode.FIX).output == once


# Rules that target diacritics themselves; excluded when comparing
# fix results across the diacritized/undiacritized modes.
_DIACRITIC_RULES = ("R-VOW", "R-ART")


def normalize_equals_on_bare(text: str, lex: Lexicon, config: Config = DEFAULT_CONFIG) -> bool:
    """Do fixes commute with diacritic stripping (diacritic rules aside)?"""
    reduced = replace(
        config,
        rules={**{rid: config.rule_enabled(rid) for rid in RULE_PRIORITY},
               **{rid: False for rid in _DIACRITIC_RULES}},
    )
    fixed_then_bare = strip_diacritics(normalize(text, lex, reduced, Mode.FIX).output)
    bare_then_fixed = normalize(strip_diacritics(text), lex, reduced, Mode.FIX).output
    return fixed_then_bare == bare_then_fixed


def test_equals_on_bare_helper(lex):
    assert normalize_equals_on_bare("بش نمشي", lex)
    assert normalize_equals_on_bare("بَاش نمشي", lex)
    # R-VOW-only input is vacuously true: the rule is excluded.
    assert normalize_equals_on_bare("بِات", lex)


def test_fixpoint_has_no_fixable_diagnostics(lex):
    rng = random.Random(405)
    pool = lexicon_word_pool(lex)
    for _ in range(100):
        out = normalize(random_text(rng, pool), lex, mode=Mode.FIX).output
        residue = normalize(out, lex, mode=Mode.CHECK).diagnostics
        assert not [
            d for d in residue
            if d.severity in (Severity.ERROR, Severity.WARNING) and d.replacement is not None
        ]
