from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import replace
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nota.rules
import rules_oracle
from gen import (
    DIRTY_WORDS,
    HOSTILE_DOCS,
    lexicon_word_pool,
    random_text,
    random_word,
    synthetic_lexicon,
    wide_text,
)
from nota.lexicon import Lexicon, VerbEntry, default_lexicon
from nota.pipeline import Mode, normalize
from nota.rules import (
    _RULES,
    _WORD_MEMO_CAP,
    _word_gate,
    DEFAULT_FUSED_PREPOSITIONS,
    RULE_IDS,
    RULE_PRIORITY,
    RuleWindow,
    Severity,
    rule_cons,
    rule_sep,
    run_rules,
    windows,
)
from nota.script import ARABIC_MARKS, FATHA, SHADDA, SUKUN, WAW, canonicalize, skeleton
from nota.tokenize import TokenKind, split_words, tokenize

# Convenience glyph names for readability.
BAASH = "باش"          # باش
BSH = "بش"                  # بش
NIMSHI = "نمشي"   # نمشي
DAR_DEF = "الدار"  # الدار

# The bodies of the rules that read only their window's word, by id.
WORD_RULES = {rid: rule.body for rid, rule in _RULES.items() if rule.gate is None}


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


# --- R-IMP ----------------------------------------------------------------


def test_imp_needs_a_2sg_present_with_teh(lex):
    # The regular imperative is the 2sg present minus its leading ت; an
    # entry whose 2sg present has none gives no finding.
    for present_2sg, expected in (("تاكل", ["اكل"]), ("ناكل", []), (None, [])):
        entry = VerbEntry("كلا", "ياكل", False, present_2sg, "كول")
        found = diags("كول", replace(lex, verbs={"كلا": entry}), only="R-IMP")
        assert [d.replacement for d in found] == expected


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


# --- the word memo in run_rules ------------------------------------------------

# One synthetic lexicon shared by every example, so its memo carries over
# from one document and one configuration to the next.
SYNTHETIC = synthetic_lexicon(random.Random(7))

FUSED_MAPS = [
    None,
    {},
    {"فال": "في ال"},
    {"مال": "من ال", "عال": "على ال", "فال": "في ال"},
]

enabled_maps = st.none() | st.dictionaries(st.sampled_from(RULE_PRIORITY), st.booleans())


def _document(rng: random.Random, lex, wide: str) -> str:
    pool = lexicon_word_pool(lex)
    lines = [random_text(rng, pool) for _ in range(rng.randint(1, 4))]
    # Repeat lines so that later words hit the memo within the document.
    return canonicalize("\n".join(lines + [wide] + rng.sample(lines, 1) + [wide])).text


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    wide=wide_text,
    synthetic=st.booleans(),
    enabled=enabled_maps,
    fused=st.sampled_from(FUSED_MAPS),
)
def test_run_rules_matches_oracle(lex, seed, wide, synthetic, enabled, fused):
    lexicon = SYNTHETIC if synthetic else lex
    tokens = tokenize(_document(random.Random(seed), lexicon, wide))
    expected = rules_oracle.run_rules(tokens, lexicon, enabled, fused)
    assert run_rules(tokens, lexicon, enabled, fused) == expected
    assert run_rules(tokens, lexicon, enabled, fused) == expected


def _hostile(name, synthetic=False, fused=None):
    """An example of the test below with a hostile document as its wide text."""
    return example(seed=0, wide=HOSTILE_DOCS[name], synthetic=synthetic, enabled=None, fused=fused)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    wide=wide_text,
    synthetic=st.booleans(),
    enabled=enabled_maps,
    fused=st.sampled_from(FUSED_MAPS),
)
@example(seed=0, wide="اَلدار والدار", synthetic=False, enabled=None, fused=None)
@_hostile("no whitespace, a fix in every cluster")
@_hostile("no whitespace, a rewrite in every cluster", synthetic=True)
@_hostile("no whitespace, a fused preposition repeated", fused={})
@_hostile("no whitespace, already canonical", synthetic=True)
@_hostile("latin only")
def test_rule_diagnostics_stay_in_window(lex, seed, wide, synthetic, enabled, fused):
    """Every finding is a non-empty span inside exactly one word token, so
    it holds no whitespace: what Canonical.to_original and
    corpus.file_stats rely on."""
    lexicon = SYNTHETIC if synthetic else lex
    text = _document(random.Random(seed), lexicon, wide)
    tokens = tokenize(text)
    words = [t for t in tokens if t.kind is TokenKind.WORD]
    starts = [w.start for w in words]
    for d in run_rules(tokens, lexicon, enabled, fused):
        assert d.start < d.end, d
        assert not any(ch.isspace() for ch in text[d.start : d.end]), d
        # Word tokens are disjoint, so the one that holds the start is the
        # only one that can hold the span.
        i = bisect_right(starts, d.start) - 1
        assert i >= 0 and d.end <= words[i].end, d


def test_rule_memo_stays_within_cap():
    lexicon = synthetic_lexicon(random.Random(11))
    rng = random.Random(5)
    words: set[str] = set()
    while len(words) < _WORD_MEMO_CAP + 1000:
        words.add(random_word(rng, 2, 7))
    tokens = tokenize(" ".join(sorted(words)))
    expected = rules_oracle.run_rules(tokens, lexicon)
    for _ in range(2):
        assert run_rules(tokens, lexicon) == expected
        assert sum(len(memo) for memo in lexicon._rule_memo.values()) <= _WORD_MEMO_CAP


def test_rules_run_once_per_distinct_word(monkeypatch):
    """However often a word recurs, its rules run once per memo, clean or
    not: in ``run_rules`` and in the fix loop's re-lint of the words next
    to each fix.  Outputs alone cannot show this: a clean word's memo
    entry taken for a miss would re-run its rules on every occurrence and
    find the same nothing."""
    seen: list[str] = []
    missing = nota.rules._RuleSet.__missing__

    def counted(rules, text):
        seen.append(text)
        return missing(rules, text)

    def words(text):
        return {t.text for t in tokenize(text) if t.kind is TokenKind.WORD}

    monkeypatch.setattr(nota.rules._RuleSet, "__missing__", counted)
    # A fix on each line, between clean words.
    text = "اَلدار قدام الحومة ما نمشي\n" * 20
    run_rules(tokenize(text), default_lexicon())
    assert sorted(seen) == sorted(words(text))
    seen.clear()
    result = normalize(text, default_lexicon(), mode=Mode.FIX)
    assert len(result.fixes) == 20
    assert sorted(seen) == sorted(words(text) | words(result.output))


def test_rule_memo_follows_lexicon_and_config(lex):
    def found(text, lexicon=lex, **kwargs):
        return [(d.rule, d.replacement) for d in run_rules(tokenize(text), lexicon, **kwargs)]

    assert found("گاوري") == [("R-CONS", "ڨ")]
    assert found("گاوري", replace(lex, variant_map={})) == []
    assert found("گاوري", enabled={"R-CONS": False}) == []
    assert found("گاوري") == [("R-CONS", "ڨ")]
    assert found("فالدار") == [("R-SEP", "في الدار")]
    assert found("فالدار", fused_prepositions={}) == []
    assert found("فالدار", fused_prepositions={"فال": "فِي ال"}) == [("R-SEP", "فِي الدار")]
    assert found("فالدار") == [("R-SEP", "في الدار")]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), wide=wide_text, synthetic=st.booleans(), fused=st.sampled_from(FUSED_MAPS[1:]))
@example(seed=0, wide="باش نمشي ما كلموش", synthetic=False, fused={})
def test_word_rules_ignore_neighbours(lex, seed, wide, synthetic, fused):
    """A word rule must not read a neighbour, or the memo goes wrong."""
    lexicon = SYNTHETIC if synthetic else lex
    rng = random.Random(seed)
    text = _document(rng, lexicon, wide)
    words = [t.text for t in tokenize(text) if t.kind is TokenKind.WORD]
    neighbours = [None, *words, *(tokenize(w)[0].text for w in DIRTY_WORDS)]
    for window in windows(tokenize(text)):
        alone = RuleWindow(window.word)
        other = RuleWindow(window.word, rng.choice(neighbours), rng.choice(neighbours))
        for rid, rule in WORD_RULES.items():
            expected = rule(alone, lexicon, fused)
            assert rule(window, lexicon, fused) == expected, rid
            assert rule(other, lexicon, fused) == expected, rid


# --- the rule table and what each rule reads -----------------------------------

ORACLE_CONTEXT_RULES = {"R-FUT": rules_oracle.rule_fut, "R-PRON": rules_oracle.rule_pron}


def test_word_rules_are_the_rules_without_context():
    assert set(WORD_RULES) | {"R-FUT", "R-PRON"} == RULE_IDS
    assert not set(WORD_RULES) & {"R-FUT", "R-PRON"}


def test_gates_cover_the_context_rules():
    """A rule has a gate iff it reads a neighbour."""
    gated = {rid for rid, rule in _RULES.items() if rule.gate is not None}
    assert gated == set(ORACLE_CONTEXT_RULES) == RULE_IDS - set(WORD_RULES)


# --- the gates of the context rules -------------------------------------------


@pytest.mark.parametrize("rid", sorted(ORACLE_CONTEXT_RULES))
def test_context_rule_finds_nothing_where_its_gate_fails(lex, rid):
    """What lets run_rules skip the window of a word whose gate fails."""
    (rule, gate), oracle = _RULES[rid], ORACLE_CONTEXT_RULES[rid]
    fused = DEFAULT_FUSED_PREPOSITIONS
    rng = random.Random(rid)
    for lexicon in (lex, SYNTHETIC):
        texts = [*DIRTY_WORDS, *lexicon_word_pool(lexicon), *(random_word(rng) for _ in range(40))]
        for text in texts:
            if gate(skeleton(text)):
                continue
            for neighbour in [None, *texts]:
                window = RuleWindow(text, neighbour, neighbour)
                found = oracle(rules_oracle.token_window(window), lexicon, fused)
                assert rule(window, lexicon, fused) == [] == found, window


# --- the rule bodies against their oracle ------------------------------------

ORACLE_RULES = {
    "R-VOW": rules_oracle.rule_vow,
    "R-ART": rules_oracle.rule_art,
    "R-AMQ": rules_oracle.rule_amq,
    "R-PRON": rules_oracle.rule_pron,
    "R-SEP": rules_oracle.rule_sep,
}

# Fused maps that order R-SEP's choice: forms of equal length, a form that
# is a prefix of another (in both orders), an empty form, diacritized forms.
ORACLE_FUSED_MAPS = [
    DEFAULT_FUSED_PREPOSITIONS,
    {},
    {"فال": "في ال", "مال": "من ال", "عال": "على ال", "وال": "و ال"},
    {"ف": "في ", "فال": "في ال"},
    {"فال": "في ال", "ف": "في "},
    {"": "ال", "فال": "في ال"},
    {"فَال": "فِي ال", "فال": "فِي ال", "فِي": "في"},
]

# Words whose letters the five rules read at an edge.
ODD_WORDS = [
    "َب",          # a leading mark
    "ًٌ",          # marks only
    "بِ",          # Kasra at the end
    "اَلْ",        # the article alone, with marks
    "ال",          # the article alone, bare
    "الدار",       # the article, bare
    "اًّلُّدار",    # two marks on each letter of the article
    "اِ",          # Alef and a mark, no Lam
    "اًلٍا",       # non-NOTA marks on the article
    "ِا",          # Kasra before Alef with no base
    "ما",
    "وش",
    "موش",
]


def _bait(rng: random.Random, lex) -> str:
    """A word built to reach deep into R-ART, R-SEP or R-PRON for this lexicon."""
    known = sorted(lex.known_words)
    citation = rng.choice(sorted(lex.verbs))
    return rng.choice([
        rng.choice(["فال", "مال", "عال", "ف", "وال", "فَال"]) + rng.choice(known),
        rng.choice(sorted(lex.prepositions)) + rng.choice(["", "ال"]) + rng.choice(known),
        "و" + rng.choice(["", "َ", "ال"]) + rng.choice(known),
        "ا" + rng.choice(["", "َ", "ًّ"]) + "ل" + rng.choice(["", "ْ", "ُّ"]) + rng.choice(known),
        "ما " + citation + "وش",
        "م" + citation + "وش",
        "م" + citation + "ُوشْ",
    ])


def _assert_rules_match_oracle(text: str, lexicon, fused) -> None:
    for window in windows(tokenize(text)):
        tokens = rules_oracle.token_window(window)
        for rid, oracle in ORACLE_RULES.items():
            assert _RULES[rid].body(window, lexicon, fused) == oracle(tokens, lexicon, fused), (rid, window)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    wide=wide_text,
    synthetic=st.booleans(),
    fused=st.sampled_from(ORACLE_FUSED_MAPS),
)
def test_rules_match_oracle(lex, seed, wide, synthetic, fused):
    lexicon = SYNTHETIC if synthetic else lex
    rng = random.Random(seed)
    pool = lexicon_word_pool(lexicon)
    words = [random_text(rng, pool), wide, *(_bait(rng, lexicon) for _ in range(3))]
    _assert_rules_match_oracle(" ".join(words), lexicon, fused)


@pytest.mark.parametrize("word", ODD_WORDS)
@pytest.mark.parametrize("fused", ORACLE_FUSED_MAPS)
def test_rules_match_oracle_on_odd_words(lex, word, fused):
    for lexicon in (lex, SYNTHETIC):
        for prev in ("", "ما ", "مَا "):
            _assert_rules_match_oracle(prev + word, lexicon, fused)


@pytest.mark.parametrize("variant_map", [
    None,                                   # the packaged map
    {},
    {"ق": "ڨ"},
    {"گ": "ڨ", "ڥ": "ڤ", "ف": "ڤ", "ب": "پ"},
])
def test_cons_flags_every_variant_letter(lex, variant_map):
    lexicon = lex if variant_map is None else default_lexicon(variant_map=variant_map)
    # Variant letters bare, carrying marks, doubled, at either end and in
    # listed /g/ words.
    text = " ".join([
        "گاوري", "گَاوري", "گّاوري", "ڥيلا", "ڥِيلا", "بقرة", "بَقَرة", "ققق", "ببب",
        "اگ", "گ", "گً", "بڥگ", "ڨاوري", "قرى",
    ])
    for window in windows(tokenize(text)):
        word = window.word
        found = rule_cons(window, lexicon, DEFAULT_FUSED_PREPOSITIONS)
        assert [(d.start, d.replacement) for d in found if d.severity is Severity.ERROR] == [
            (i, lexicon.variant_map[ch]) for i, ch in enumerate(word) if ch in lexicon.variant_map
        ], word


def test_rules_match_oracle_on_every_mark(lex):
    # Each Arabic mark after each letter of ال, in the middle and at the end.
    text = " ".join(f"ا{m}ل{m}ب{m}ا{m}" for m in sorted(ARABIC_MARKS))
    for fused in ORACLE_FUSED_MAPS[:2]:
        _assert_rules_match_oracle(text, lex, fused)


# --- R-SEP against its oracle on random lexicons -------------------------------

# Few letters, so that prepositions, fused forms, known words and ال
# overlap often.  The mark after a letter may be one NOTA does not use.
_SEP_LETTERS = "ولامنفي"
_SEP_MARKS = [FATHA, SHADDA, SUKUN, "\u064b"]
_sep_stems = st.text(alphabet=_SEP_LETTERS, min_size=1, max_size=3)


@st.composite
def _sep_case(draw):
    """A random lexicon and fused map, and words built to split against them."""
    preps = draw(st.lists(_sep_stems, max_size=6))
    if draw(st.booleans()):
        preps.append(WAW)
    known = draw(st.sets(st.text(alphabet=_SEP_LETTERS, min_size=1, max_size=4),
                         min_size=1, max_size=8))
    fused_keys = draw(st.lists(
        _sep_stems | st.just("") | st.sampled_from(["فَال", "ف" + SHADDA, *preps, WAW]),
        max_size=4,
    ))
    # Forms extended by the letter that also extends a known word: a split
    # one letter earlier leaves a known word too, and the longer form wins.
    letter, tail = draw(st.sampled_from(_SEP_LETTERS)), draw(st.sampled_from(sorted(known)))
    known.add(letter + tail)
    traps = []
    for forms in (preps, fused_keys):
        if forms:
            forms.append(draw(st.sampled_from(forms)) + letter)
            traps.append(forms[-1] + tail)
    fused = {key: draw(st.sampled_from(["في ال", "فِي ال", "و "])) for key in fused_keys}
    heads = sorted({*preps, *fused_keys, WAW, ""})
    words = []
    for _ in range(draw(st.integers(1, 20))):
        bare = draw(st.sampled_from(traps + [""])) or (
            draw(st.sampled_from(heads)) + draw(st.sampled_from(["", "ال"]))
            + draw(st.sampled_from(sorted(known)) | _sep_stems)
        )
        marks = draw(st.lists(st.sampled_from(["", "", *_SEP_MARKS]),
                              min_size=len(bare), max_size=len(bare)))
        words.append("".join(ch + m for ch, m in zip(bare, marks)))
    lexicon = Lexicon(verbs={}, prepositions=frozenset(preps), known_words=frozenset(known),
                      variant_map={}, gaf_words={})
    return lexicon, fused, words


@settings(max_examples=300, deadline=None)
@given(case=_sep_case())
def test_sep_matches_oracle_on_random_lexicons(case):
    lexicon, fused, words = case
    for text in words:
        window = RuleWindow(text)
        expected = rules_oracle.rule_sep(rules_oracle.token_window(window), lexicon, fused)
        assert rule_sep(window, lexicon, fused) == expected, text


# Known words that make the longest one 12 letters.  The test words put a
# head before one, bare or after ال, so what follows the head is as long
# as R-SEP's walks reach; the same words after 16 more letters make the
# walks stop well short of the head.
LONG_KNOWN = ["مستشفيات", "كتابكتابكتاب"]


@pytest.mark.parametrize("fused", ORACLE_FUSED_MAPS)
def test_sep_matches_oracle_on_long_words(lex, fused):
    lexicon = replace(lex, known_words=lex.known_words | set(LONG_KNOWN))
    heads = ["", "فال", "مال", "عال", "ف", "وال", "فَال", "فِي", "في", "على", "و", "من", "ب"]
    words = [head + al + word for head in heads for al in ("", "ال") for word in LONG_KNOWN]
    text = " ".join(words + ["كتاب" * 4 + word for word in words])
    for window in windows(tokenize(text)):
        expected = rules_oracle.rule_sep(rules_oracle.token_window(window), lexicon, fused)
        assert rule_sep(window, lexicon, fused) == expected, window.word


# --- the word gate in run_rules --------------------------------------------------

# Lexicons for the gate: the default one, a synthetic one, one with long
# known words, and one whose variant map makes common letters variants.
_DEFAULT = default_lexicon()
GATE_LEXICONS = {
    "default": _DEFAULT,
    "synthetic": SYNTHETIC,
    "long known": replace(_DEFAULT, known_words=_DEFAULT.known_words | set(LONG_KNOWN)),
    "variant map": default_lexicon(variant_map={"گ": "ڨ", "ڥ": "ڤ", "ف": "ڤ", "ب": "پ"}),
}


class _Read(Exception):
    pass


class _Unreadable:
    """A lexicon or fused map that raises when read."""

    def _read(self, *args):
        raise _Read

    __getattr__ = __getitem__ = __iter__ = __len__ = __contains__ = _read


@cache
def _table_free(rid: str, window: rules_oracle.TokenWindow) -> list | None:
    """What the oracle of ``rid`` finds in ``window`` if it reads neither the
    lexicon nor the fused map, and so finds under every one; else None.
    The oracles are slow on a long word, and the gate tests run them on the
    same words under each table."""
    try:
        return ORACLE_RULES[rid](window, _Unreadable(), _Unreadable())
    except _Read:
        return None


def _assert_rules_find_nothing_where_the_gate_fails(texts, lexicon, fused_maps) -> int:
    """Every word rule and its oracle find nothing, under each of
    ``fused_maps``, in a word of ``texts`` whose gate is false; returns how
    many such words there were."""
    fused_maps = [DEFAULT_FUSED_PREPOSITIONS if f is None else f for f in fused_maps]
    closed = 0
    for text in texts:
        for word in tokenize(text):
            if word.kind is not TokenKind.WORD or _word_gate(word.text, skeleton(word.text), lexicon):
                continue
            closed += 1
            window = RuleWindow(word.text)
            tokens = rules_oracle.token_window(window)
            for rid, rule in WORD_RULES.items():
                for fused in fused_maps:
                    assert rule(window, lexicon, fused) == [], (rid, word.text)
                if rid in ORACLE_RULES:
                    found = _table_free(rid, tokens)
                    if found is None:
                        found = [d for f in fused_maps for d in ORACLE_RULES[rid](tokens, lexicon, f)]
                    assert found == [], (rid, word.text)
    return closed


@pytest.mark.parametrize("fused", FUSED_MAPS)
@pytest.mark.parametrize("name", sorted(GATE_LEXICONS))
def test_word_rules_find_nothing_where_the_word_gate_fails(name, fused):
    """What lets run_rules skip every word rule on a word whose gate fails."""
    lexicon = GATE_LEXICONS[name]
    rng = random.Random(name)
    texts = [
        *DIRTY_WORDS,
        *lexicon_word_pool(lexicon),
        *ODD_WORDS,
        *(_bait(rng, lexicon) for _ in range(50)),
        *(random_word(rng) for _ in range(300)),
    ]
    # The gate closes on some words, so the test is not vacuous.
    assert _assert_rules_find_nothing_where_the_gate_fails(texts, lexicon, [fused]) > 0


@cache
def _hostile_words() -> list[str]:
    """The distinct words of HOSTILE_DOCS, which repeat a few words many
    times; whitespace ends every token, so the distinct runs between it
    hold them all."""
    runs = {run for doc in HOSTILE_DOCS.values() for run in doc.split()}
    return sorted({t.text for run in runs for t in tokenize(run) if t.kind is TokenKind.WORD})


@pytest.mark.parametrize("name", sorted(GATE_LEXICONS))
def test_word_gate_on_hostile_docs(name):
    _assert_rules_find_nothing_where_the_gate_fails(_hostile_words(), GATE_LEXICONS[name], FUSED_MAPS)


@settings(max_examples=200, deadline=None)
@given(wide=wide_text, name=st.sampled_from(sorted(GATE_LEXICONS)), fused=st.sampled_from(FUSED_MAPS))
def test_word_gate_on_wide_text(wide, name, fused):
    texts = [wide, canonicalize(wide).text]
    _assert_rules_find_nothing_where_the_gate_fails(texts, GATE_LEXICONS[name], [fused])


# --- the offset-0 contract that the one shift of lint_words' callers relies on


def _with_hostile_docs(test):
    """Examples of the test below with each hostile document as its wide text."""
    for doc in HOSTILE_DOCS.values():
        test = example(seed=0, wide=doc, neighbours=[None, ""], synthetic=False, fused=None)(test)
    return test


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    wide=wide_text,
    neighbours=st.lists(st.none() | st.text() | st.sampled_from(DIRTY_WORDS), min_size=1, max_size=4),
    synthetic=st.booleans(),
    fused=st.sampled_from(FUSED_MAPS),
)
@example(seed=0, wide="باش نمشي ما كلموش", neighbours=[None], synthetic=False, fused=None)
@_with_hostile_docs
def test_findings_lie_in_their_word_at_offset_0(lex, seed, wide, neighbours, synthetic, fused):
    """Every rule finds non-empty spans inside its window's word, counted
    from the word's start, and free of whitespace, whatever the
    neighbours: so a caller of ``lint_words`` places a word's findings in
    the text by one shift, the offset where the word starts."""
    lexicon = SYNTHETIC if synthetic else lex
    fused = DEFAULT_FUSED_PREPOSITIONS if fused is None else fused
    rng = random.Random(seed)
    texts = [random_text(rng, lexicon_word_pool(lexicon)), _bait(rng, lexicon), wide]
    texts.append(canonicalize(wide).text)
    words = list(dict.fromkeys(w for text in texts for w in split_words(text)[1::2]))
    for word in words:
        window = RuleWindow(word, rng.choice(neighbours + words), rng.choice(neighbours + words))
        for rid, rule in _RULES.items():
            for d in rule.body(window, lexicon, fused):
                assert 0 <= d.start < d.end <= len(word), (rid, window, d)
                assert not any(ch.isspace() for ch in word[d.start : d.end]), (rid, window, d)
