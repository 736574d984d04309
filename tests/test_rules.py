from __future__ import annotations

import pytest

from nota.rules import (
    RULE_PRIORITY,
    NotSecondPersonError,
    Severity,
    derive_imperative,
    run_rules,
)
from nota.tokenize import tokenize

# Convenience glyph names for readability.
BAASH = "باش"          # باش
BSH = "بش"                  # بش
NIMSHI = "نمشي"   # نمشي
DAR_DEF = "الدار"  # الدار


def diags(text, lex, only=None):
    enabled = None
    if only is not None:
        enabled = {rid: rid == only for rid in RULE_PRIORITY}
    return run_rules(tokenize(text), lex, enabled=enabled)


def apply_all(text, found):
    for d in sorted(found, key=lambda d: d.start, reverse=True):
        assert d.replacement is not None
        text = text[: d.start] + d.replacement + text[d.end :]
    return text


# --- R-CONS ---------------------------------------------------------------


def test_cons_variant_letter(lex):
    found = diags("گاوري", lex, only="R-CONS")
    assert [(d.severity, d.replacement) for d in found] == [(Severity.ERROR, "ڨ")]
    assert (found[0].start, found[0].end) == (0, 1)


def test_cons_canonical_word_clean(lex):
    assert diags("ڨاوري", lex, only="R-CONS") == []


def test_cons_listed_gaf_word(lex):
    found = diags("بقرة", lex, only="R-CONS")
    assert len(found) == 1
    assert found[0].severity is Severity.WARNING
    assert found[0].replacement == "بڨرة"


def test_cons_gaf_respelling_keeps_marks(lex):
    found = diags("بَقرة", lex, only="R-CONS")
    assert found[0].replacement == "بَڨرة"


def test_cons_unlisted_qaf_untouched(lex):
    assert diags("دقلة", lex, only="R-CONS") == []  # دقلة keeps ق


# --- R-VOW ----------------------------------------------------------------


def test_vow_kasra_alef(lex):
    word = "بِات"  # بِات
    found = diags(word, lex, only="R-VOW")
    assert [(d.start, d.end, d.replacement) for d in found] == [(1, 2, "ٙ")]
    assert apply_all(word, found) == "بٙات"


def test_vow_fatha_alef_clean(lex):
    assert diags("بَاب", lex, only="R-VOW") == []


def test_vow_non_nota_diacritic(lex):
    found = diags("كتابً", lex, only="R-VOW")
    assert len(found) == 1
    assert found[0].severity is Severity.ERROR
    assert found[0].replacement == ""


def test_vow_bare_word_noop(lex):
    assert diags("بات", lex, only="R-VOW") == []


# --- R-ART ----------------------------------------------------------------


def test_art_strips_article_diacritic(lex):
    word = "اَلدار"  # اَلدار
    found = diags(word, lex, only="R-ART")
    assert [(d.start, d.end, d.replacement) for d in found] == [(0, 3, "ال")]
    assert apply_all(word, found) == DAR_DEF


def test_art_clean(lex):
    assert diags(DAR_DEF, lex, only="R-ART") == []


def test_art_keeps_stem_marks(lex):
    word = "اِلْكِتاب"  # اِلْكِتاب
    found = diags(word, lex, only="R-ART")
    fixed = apply_all(word, found)
    assert fixed == "الكِتاب"  # stem kasra kept


def test_art_only_first_two_letters(lex):
    # Shadda on the stem's first letter is not the article's business.
    assert diags("اللّيل", lex, only="R-ART") == []


# --- R-AMQ ----------------------------------------------------------------


def test_amq_alef_to_maqsura(lex):
    word = "مشا"  # مشا
    found = diags(word, lex, only="R-AMQ")
    assert len(found) == 1
    assert found[0].severity is Severity.WARNING
    assert apply_all(word, found) == "مشى"


def test_amq_maqsura_to_alef(lex):
    word = "قرى"  # قرى
    found = diags(word, lex, only="R-AMQ")
    assert apply_all(word, found) == "قرا"


def test_amq_correct_spelling_clean(lex):
    assert diags("جى", lex, only="R-AMQ") == []  # جى (present يجي)
    assert diags("قرا", lex, only="R-AMQ") == []


def test_amq_known_word_clean(lex):
    assert diags("دنيا", lex, only="R-AMQ") == []  # دنيا


def test_amq_known_word_respelled(lex):
    found = diags("عشى", lex, only="R-AMQ")  # عشى, listed عشا
    assert len(found) == 1 and found[0].severity is Severity.WARNING
    assert apply_all("عشى", found) == "عشا"


def test_amq_unknown_word_info(lex):
    found = diags("سبسا", lex, only="R-AMQ")
    assert [d.severity for d in found] == [Severity.INFO]
    assert found[0].replacement is None


def test_amq_ignores_other_finals(lex):
    assert diags(BAASH, lex, only="R-AMQ") == []


# --- R-IMP / derive_imperative ---------------------------------------------


def test_derive_imperative():
    assert derive_imperative("تاكل") == "اكل"
    assert derive_imperative("تمشي") == "مشي"


def test_derive_imperative_requires_teh():
    with pytest.raises(NotSecondPersonError):
        derive_imperative("كول")


def test_imp_irregular_flagged(lex):
    word = "كول"  # كول
    found = diags(word, lex, only="R-IMP")
    assert len(found) == 1 and found[0].severity is Severity.WARNING
    assert found[0].replacement == "اكل"


def test_imp_regular_clean(lex):
    assert diags("اكل", lex, only="R-IMP") == []
    assert diags("امشي", lex, only="R-IMP") == []


# --- R-FUT ----------------------------------------------------------------


def test_fut_before_verb(lex):
    found = diags(f"{BAASH} {NIMSHI}", lex, only="R-FUT")
    assert [(d.start, d.end, d.replacement) for d in found] == [(0, 3, BSH)]


def test_fut_canonical_clean(lex):
    assert diags(f"{BSH} {NIMSHI}", lex, only="R-FUT") == []


def test_fut_sentence_final_clean(lex):
    assert diags(BAASH, lex, only="R-FUT") == []


def test_fut_before_noun_clean(lex):
    assert diags(f"{BAASH} ولد", lex, only="R-FUT") == []


def test_fut_punctuation_breaks_window(lex):
    assert diags(f"{BAASH}. {NIMSHI}", lex, only="R-FUT") == []


def test_fut_diacritics_ignored(lex):
    found = diags(f"بَاش {NIMSHI}", lex, only="R-FUT")
    assert len(found) == 1


def test_fut_and_imp_ignore_non_nota_marks(lex):
    # Tanwin is not a NOTA mark, but the lexicon still sees the verb.
    assert len(diags(f"{BAASH} {NIMSHI}\u064b", lex, only="R-FUT")) == 1
    found = diags("كول\u064b", lex, only="R-IMP")
    assert [d.replacement for d in found] == ["اكل"]


# --- R-PRON ---------------------------------------------------------------


def test_pron_after_negator(lex):
    text = "ما كلموش"  # ما كلموش
    found = diags(text, lex, only="R-PRON")
    assert [(d.severity, d.replacement) for d in found] == [
        (Severity.INFO, "كلمهوش")
    ]


def test_pron_explicit_clean(lex):
    text = "ما كلمهوش"  # ما كلمهوش
    assert diags(text, lex, only="R-PRON") == []


def test_pron_lexicon_gated(lex):
    text = "ما حبوش"  # ما حبوش, no حب entry
    assert diags(text, lex, only="R-PRON") == []


def test_pron_needs_negation_context(lex):
    assert diags("كلموش", lex, only="R-PRON") == []


def test_pron_fused_negator(lex):
    found = diags("مكلموش", lex, only="R-PRON")
    assert [d.replacement for d in found] == ["مكلمهوش"]


# --- R-SEP ----------------------------------------------------------------


def test_sep_conjunction(lex):
    word = "والدار"  # والدار
    found = diags(word, lex, only="R-SEP")
    assert apply_all(word, found) == f"و {DAR_DEF}"


def test_sep_known_word_priority(lex):
    assert diags("ورقة", lex, only="R-SEP") == []  # ورقة


def test_sep_fused_preposition(lex):
    word = "فالدار"  # فالدار
    found = diags(word, lex, only="R-SEP")
    assert apply_all(word, found) == f"في {DAR_DEF}"


def test_sep_plain_preposition(lex):
    word = "فيالدار"  # فيالدار
    found = diags(word, lex, only="R-SEP")
    assert apply_all(word, found) == f"في {DAR_DEF}"


def test_sep_keeps_marks_on_split(lex):
    word = "وَالدار"  # وَالدار
    found = diags(word, lex, only="R-SEP")
    assert apply_all(word, found) == f"وَ {DAR_DEF}"


def test_sep_lexicon_gated(lex):
    assert diags("وسبس", lex, only="R-SEP") == []


def test_sep_preposition_alone_clean(lex):
    assert diags("في", lex, only="R-SEP") == []


# --- run_rules ---------------------------------------------------------------


def test_all_rules_disabled(lex):
    enabled = {rid: False for rid in RULE_PRIORITY}
    text = "اَلدار گاوري"
    assert run_rules(tokenize(text), lex, enabled=enabled) == []


def test_full_engine_single_diagnostic(lex):
    text = f"{BAASH} {NIMSHI} في {DAR_DEF}"
    found = run_rules(tokenize(text), lex)
    assert [d.rule for d in found] == ["R-FUT"]


def test_diagnostics_sorted_by_span_then_rule(lex):
    text = "اَلدار والدار"
    found = run_rules(tokenize(text), lex)
    assert [d.rule for d in found] == ["R-ART", "R-SEP"]
    assert found[0].start < found[1].start


def test_rules_are_pure(lex):
    text = f"{BAASH} {NIMSHI}"
    tokens = tokenize(text)
    assert run_rules(tokens, lex) == run_rules(tokens, lex)


def test_rule_diagnostics_stay_in_window(lex):
    text = "اَلدار والدار"
    tokens = tokenize(text)
    words = {(t.start, t.end) for t in tokens if t.kind.name == "WORD"}
    for d in run_rules(tokens, lex):
        assert any(d.start >= s and d.end <= e for s, e in words)


def test_no_overlap_within_one_rule_and_clean_replacements(lex):
    import random

    from gen import lexicon_word_pool, random_text
    from nota.tokenize import TokenKind

    rng = random.Random(99)
    pool = lexicon_word_pool(lex)
    for _ in range(200):
        found = run_rules(tokenize(random_text(rng, pool)), lex)
        by_rule: dict[str, list] = {}
        for d in found:
            by_rule.setdefault(d.rule, []).append(d)
            if d.replacement:
                kinds = {t.kind for t in tokenize(d.replacement)}
                assert kinds <= {TokenKind.WORD, TokenKind.SPACE}, d
        for same in by_rule.values():
            same.sort(key=lambda d: d.start)
            for a, b in zip(same, same[1:]):
                assert a.end <= b.start, (a, b)
