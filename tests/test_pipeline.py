from __future__ import annotations

import random
import time
from dataclasses import replace
from operator import attrgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nota.pipeline
import nota.rules
import pipeline_oracle
import rules_oracle
from gen import (
    DIRTY_WORDS,
    HOSTILE_DOCS,
    lexicon_word_pool,
    random_text,
    synthetic_lexicon,
    wide_text,
)
from nota import Config, ConfigError, FixEvent, Mode, default_lexicon, normalize
from nota.config import DEFAULT_CONFIG
from nota.lexicon import Lexicon, load_lexicon
from nota.pipeline import PassCapExceededError, _select_nonoverlapping
from nota.rules import DEFAULT_FUSED_PREPOSITIONS, RULE_PRIORITY, Diagnostic, Severity
from nota.script import canonicalize, skeleton
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
    keep = {TokenKind.OTHER}

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


@settings(max_examples=200, deadline=None)
@given(wide_text)
def test_wide_alphabet_fix_idempotent(lex, text):
    once = normalize(text, lex, mode=Mode.FIX).output
    assert normalize(once, lex, mode=Mode.FIX).output == once


@settings(max_examples=200, deadline=None)
@given(wide_text)
def test_wide_alphabet_check_unchanged_and_spans_inside(lex, text):
    result = normalize(text, lex, mode=Mode.CHECK)
    assert result.output == text
    assert all(0 <= d.start <= d.end <= len(text) for d in result.diagnostics)


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
    fixed_then_bare = skeleton(normalize(text, lex, reduced, Mode.FIX).output)
    bare_then_fixed = normalize(skeleton(text), lex, reduced, Mode.FIX).output
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


# Small offsets so that equal, nested, touching and empty spans are common.
candidate_fixes = st.lists(
    st.builds(
        lambda rule, start, width: Diagnostic(rule, start, start + width, Severity.ERROR, "", "x"),
        st.sampled_from(RULE_PRIORITY),
        st.integers(0, 12),
        st.integers(0, 4),
    ),
    max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(candidate_fixes)
def test_select_nonoverlapping_matches_oracle(diags):
    chosen = _select_nonoverlapping(diags)
    # The oracle lists its choice by priority, the program by start.
    assert [d.start for d in chosen] == sorted(d.start for d in chosen)
    by_span = attrgetter("start", "end", "rule")
    assert sorted(chosen, key=by_span) == sorted(rules_oracle.select_nonoverlapping(diags), key=by_span)
    # The choice is maximal: the fix loop re-lints only around the chosen
    # fixes, and relies on every finding left out overlapping one of them.
    for d in diags:
        assert any(c.start < d.end and d.start < c.end for c in chosen) or d in chosen


# --- the fix loop against its whole-text oracle -------------------------------

# Words that each take a fix on their own under the default lexicon, so a
# chain of them puts a fix in every word; the lone mark is deleted whole.
FIXED_WORDS = [
    "اَلدار", "والدار", "فالدار", "كول", "مشا", "قرى", "گاوري", "بِات", "بقرة",
    "كتابٌ", "ً", "باش نمشي",
]
SYNTHETIC = synthetic_lexicon(random.Random(9))
FUSED_MAPS = [
    DEFAULT_FUSED_PREPOSITIONS,
    {},
    {"فال": "في ال"},
    {"ف": "في ", "فال": "في ال", "وال": "و ال"},
]


def _run(text: str, lexicon: Lexicon, config: Config, normalize_fn=normalize):
    """The RunResult of a FIX run, or the type of the error it raised."""
    try:
        return normalize_fn(text, lexicon, config, Mode.FIX)
    except PassCapExceededError as exc:
        return type(exc)


def _fix_document(rng: random.Random, lexicon: Lexicon, wide: str) -> str:
    """Random text, a chain of dirty words or a fix in every word, with ``wide`` mixed in."""
    pool = lexicon_word_pool(lexicon)
    pieces = rng.choice([
        lambda: [random_text(rng, pool) for _ in range(rng.randint(1, 4))],
        lambda: rng.choices(DIRTY_WORDS, k=rng.randint(1, 30)),
        lambda: rng.choices(FIXED_WORDS, k=rng.randint(1, 30)),
    ])()
    pieces.insert(rng.randint(0, len(pieces)), wide)
    return rng.choice([" ", "\n", "", " . "]).join(pieces)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    wide=wide_text,
    synthetic=st.booleans(),
    enabled=st.dictionaries(st.sampled_from(RULE_PRIORITY), st.booleans()),
    fused=st.sampled_from(FUSED_MAPS),
    max_passes=st.integers(1, 4),
)
@example(seed=0, wide="باش ً نمشي", synthetic=False, enabled={}, fused={}, max_passes=4)
def test_fix_loop_matches_oracle(lex, seed, wide, synthetic, enabled, fused, max_passes):
    lexicon = SYNTHETIC if synthetic else lex
    text = _fix_document(random.Random(seed), lexicon, wide)
    config = Config(rules=enabled, max_passes=max_passes, fused_prepositions=fused)
    assert _run(text, lexicon, config) == _run(text, lexicon, config, pipeline_oracle.normalize)


# The default lexicon with باش also listed as a known word, so that R-SEP
# splits وباش and the new second word can take R-FUT in the next pass.
BAASH_KNOWN = replace(default_lexicon(), known_words=default_lexicon().known_words | {"باش"})
# A verb that a /g/ respelling makes, one pass after R-VOW has cleared the
# mark its span overlaps: the باش before it then takes R-FUT a pass later
# still, inside a word that an earlier pass split off.
QAF_VERB_LEXICON = load_lexicon({
    "verbs": ["ڨال\tيڨول\t0\tتڨول"],
    "prepositions": ["في"],
    "known_words": ["باش"],
    "gaf_words": ["يقول\tيڨول"],
})
EDGE_LEXICONS = {
    "وباش نمشي": BAASH_KNOWN,
    "وباش. نمشي": BAASH_KNOWN,
    "وباش يقولٌ": QAF_VERB_LEXICON,
    "وباش ً يقولٌ": QAF_VERB_LEXICON,
}


@pytest.mark.parametrize("text", [
    "باش ً نمشي",       # a lone mark deleted whole joins باش to the verb
    "باش ً ً نمشي",
    "ً باش نمشي",       # fixes at the start and at the end of the text
    "باش نمشي ً",
    "فالدار",
    "كتابٌ" * 50,        # a fix in every cluster of one whitespace-free run
    " ".join(FIXED_WORDS * 5),
    "\n".join(FIXED_WORDS * 5),
    "".join(FIXED_WORDS * 5),
    "باٌش نمشي",         # an R-VOW fix makes باش, which takes R-FUT next pass
    "ٌباش نمشي",
    "باٌش. نمشي",        # the full stop keeps the verb out of باش's window
    "وباش نمشي",         # an R-SEP split whose second word takes R-FUT next pass
    "وباش. نمشي",
    "والدار",            # a fix in the last word, with no newline after it
    "فالدار باش نمشي",   # two rules fixed in one pass
    "اَلدار باٌش نمشي",   # a fix that shortens the text before a fix next pass
    "وباش يقولٌ",         # R-FUT in pass 3, on a word that pass 1 made
    "وباش ً يقولٌ",
])
@pytest.mark.parametrize("max_passes", [1, 2, 4])
def test_fix_loop_matches_oracle_on_edges(lex, text, max_passes):
    lexicon = EDGE_LEXICONS.get(text, lex)
    config = Config(max_passes=max_passes)
    assert _run(text, lexicon, config) == _run(text, lexicon, config, pipeline_oracle.normalize)


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("text", ["", "فالدار اَلدار"])
def test_fix_loop_matches_oracle_without_prepositions(lex, mode, text):
    """Both raise ConfigError while R-SEP is on, and agree once it is off."""
    lexicon = replace(lex, prepositions=frozenset())
    for fn in (normalize, pipeline_oracle.normalize):
        with pytest.raises(ConfigError, match="preposition list is empty"):
            fn(text, lexicon, DEFAULT_CONFIG, mode)
    config = Config(rules={"R-SEP": False})
    assert normalize(text, lexicon, config, mode) == pipeline_oracle.normalize(text, lexicon, config, mode)


@pytest.mark.parametrize("text, rules, passes", [
    ("باٌش نمشي", ["R-VOW", "R-FUT"], 3),
    ("ٌباش نمشي", ["R-VOW", "R-FUT"], 3),
    ("باٌش. نمشي", ["R-VOW"], 2),
    ("وباش نمشي", ["R-SEP", "R-FUT"], 3),
    ("وباش. نمشي", ["R-SEP"], 2),
    ("والدار", ["R-SEP"], 2),
    ("فالدار باش نمشي", ["R-FUT", "R-SEP"], 2),
    ("وباش يقولٌ", ["R-VOW", "R-SEP", "R-CONS", "R-FUT"], 4),
])
def test_fix_loop_edges_take_the_fixes_named(lex, text, rules, passes):
    """What each edge above is there for: the fixes and passes it takes."""
    result = normalize(text, EDGE_LEXICONS.get(text, lex), mode=Mode.FIX)
    assert [f.rule for f in result.fixes] == rules
    assert result.passes_used == passes


def test_fix_loop_relints_no_more_than_the_first_pass_as_text_grows(monkeypatch, lex):
    """Passes after the first read only a bounded neighbourhood of each fix:
    with one fix on line 1 of N, ``split_words`` runs once per pass that
    rewrites, on the whole text the pass made, and the words the loop looks
    up in the rule memo after the first pass add up to a part that does not
    grow with N."""
    split_texts: list[str] = []
    looked_up: list[int] = []
    split_words = nota.pipeline.split_words

    def counted_split(text):
        split_texts.append(text)
        return split_words(text)

    class CountedRuleSet(nota.rules._RuleSet):
        __slots__ = ()

        def __getitem__(self, text):
            if split_texts:  # past the first pass, which runs before the text is split
                looked_up.append(len(text))
            return super().__getitem__(text)

    monkeypatch.setattr(nota.pipeline, "split_words", counted_split)
    # The lexicon keeps one rule set per configuration: put the counted one there.
    lexicon = replace(lex)
    counted = CountedRuleSet.of(lexicon, DEFAULT_CONFIG.rules, DEFAULT_CONFIG.fused_prepositions)
    for lines in (10, 100, 1000):
        text = "اَلدار قدام الحومة\n" + "بش نمشي في الدار\n" * (lines - 1)
        split_texts.clear()
        looked_up.clear()
        result = normalize(text, lexicon, mode=Mode.FIX)
        assert [f.rule for f in result.fixes] == ["R-ART"]
        assert list(lexicon._rule_memo.values()) == [counted]
        assert split_texts == [result.output]  # the one pass that rewrites
        assert looked_up and sum(looked_up) <= 100, lines


# A verb spelled with ڨ, so that a fix inside a word can make it a verb
# and give the باش before it a fix of its own in the next pass.
GAF_VERB_LEXICON = load_lexicon({
    "verbs": ["ڨال\tيڨول\t0\tتڨول"],
    "prepositions": ["في"],
    "variant_map": ["گ\tڨ"],
})


@pytest.mark.parametrize("text", ["باش يگول", "يگول باش يگول\nباش  يگول", "باش يگولٌ باش"])
def test_fix_inside_a_word_relints_the_word_before(text):
    config = Config()
    result = _run(text, GAF_VERB_LEXICON, config)
    assert result == _run(text, GAF_VERB_LEXICON, config, pipeline_oracle.normalize)
    assert "R-FUT" in {f.rule for f in result.fixes}


def test_fix_loop_lints_each_word_once_per_pass(monkeypatch):
    """باش lies between two words that pass 1 rewrites, R-ART's and
    R-CONS's; it is the word after the one and before the other, and is
    re-linted once: its R-FUT finding comes back from the pass once, at
    its word's offset.  The first recorded call is the first pass, which
    lints every word."""
    text = "اَلدار باش يگول"
    returned = []
    lint_words = nota.rules._RuleSet.lint_words

    def recording(*args):
        returned.append(list(lint_words(*args)))
        return returned[-1]

    monkeypatch.setattr(nota.rules._RuleSet, "lint_words", recording)
    result = _run(text, GAF_VERB_LEXICON, Config())
    assert [f.rule for f in result.fixes if f.pass_index == 1] == ["R-CONS", "R-ART"]
    assert [(d.rule, offset + d.start) for offset, found in returned[1] for d in found] == [
        ("R-FUT", 6)
    ]
    assert result == _run(text, GAF_VERB_LEXICON, Config(), pipeline_oracle.normalize)


def test_fix_passes_build_no_diagnostic(monkeypatch, lex):
    """After the first pass, a fixable finding becomes one ``FixEvent`` of
    the pass that applies it, and a chosen one goes into the fix trace as
    it is; no finding of a later pass becomes a ``Diagnostic``.  Pass 1
    re-lints the first line's زززا, the word after a fix, and gets back
    its Info R-AMQ finding from the memo, which CHECK warmed."""
    text = "اَلدار زززا\nالدار زززا\n"
    normalize(text, lex, mode=Mode.CHECK)
    built = [0]
    received: list[list] = []
    init, rewrite = Diagnostic.__init__, nota.pipeline._rewrite

    def counting(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    def recording(text, pending):
        received.append(list(pending))
        return rewrite(text, pending)

    monkeypatch.setattr(Diagnostic, "__init__", counting)
    monkeypatch.setattr(nota.pipeline, "_rewrite", recording)
    result = normalize(text, lex, mode=Mode.FIX)
    assert [d.rule for d in result.diagnostics] == ["R-ART", "R-AMQ", "R-AMQ"]
    assert built[0] == len(result.diagnostics)
    assert received and all(
        type(f) is FixEvent and f.pass_index == index
        for index, pending in enumerate(received, start=1)
        for f in pending
    )
    given = {id(f) for pending in received for f in pending}
    assert result.fixes and all(id(f) in given for f in result.fixes)


# R-PRON is the only rule that reads the previous word, and it is Info, so
# nothing it finds is fixed.  The tests below raise it to a Warning to
# reach the fix loop's previous-word side: ما كلموش then takes كلمهوش.
def _warning_pron(window, lex, fused):
    return [replace(d, severity=Severity.WARNING) for d in nota.rules.rule_pron(window, lex, fused)]


def _patch_body(mp, rid, body):
    """Give the rule ``rid`` the body ``body`` in the rule table."""
    mp.setitem(nota.rules._RULES, rid, nota.rules._RULES[rid]._replace(body=body))


def _split_lexicon() -> Lexicon:
    """A fresh lexicon, so that no memo holds the Info rule, with كلموش
    and نمشي known, so that R-SEP splits a prefix off them."""
    base = default_lexicon()
    return replace(base, known_words=base.known_words | {"كلموش", "نمشي"})


PRON_WORDS = ["ما", "م", "ماٌ", "وما", "كلموش", "كلموشٌ", "وكلموش", "ماكلموش", "مكلموش", "ً", "باش", "نمشي"]
PRON_FUSED = [DEFAULT_FUSED_PREPOSITIONS, {"ما": "ما "}, {"ما": "ما."}, {"و": "."}, {"و": ". "}]


@pytest.mark.parametrize("text, fused, rules", [
    ("وما كلموش", DEFAULT_FUSED_PREPOSITIONS, ["R-SEP", "R-PRON"]),  # the word after a split
    ("ما ً كلموش", DEFAULT_FUSED_PREPOSITIONS, ["R-VOW", "R-PRON"]),  # across a deleted word
    ("ماكلموش", {"ما": "ما "}, ["R-SEP", "R-PRON"]),  # inside a split, across its space
    ("ماكلموش", {"ما": "ما."}, ["R-SEP"]),  # inside a split, across a full stop
    ("ما وكلموش", {"و": "."}, ["R-SEP"]),  # a split that starts with a full stop
    ("بنمشي", {"ب": "باش "}, ["R-SEP", "R-FUT"]),  # R-FUT inside a split, across its space
    ("بنمشي", {"ب": "باش."}, ["R-SEP"]),  # and across a full stop
])
def test_fix_loop_relints_the_words_next_to_a_fix(text, fused, rules):
    config = Config(fused_prepositions=fused)
    with pytest.MonkeyPatch.context() as mp:
        _patch_body(mp, "R-PRON", _warning_pron)
        result = _run(text, _split_lexicon(), config)
        assert result == _run(text, _split_lexicon(), config, pipeline_oracle.normalize)
    assert [f.rule for f in result.fixes] == rules


@settings(max_examples=200, deadline=None)
@given(
    words=st.lists(st.sampled_from(PRON_WORDS), min_size=1, max_size=12),
    gaps=st.lists(st.sampled_from([" ", "  ", "\n", ".", " . ", ""]), min_size=12, max_size=12),
    fused=st.sampled_from(PRON_FUSED),
    max_passes=st.integers(1, 4),
)
def test_fix_loop_matches_oracle_with_a_fixable_previous_word_rule(words, gaps, fused, max_passes):
    text = "".join(w + g for w, g in zip(words, gaps))
    config = Config(max_passes=max_passes, fused_prepositions=fused)
    with pytest.MonkeyPatch.context() as mp:
        _patch_body(mp, "R-PRON", _warning_pron)
        assert _run(text, _split_lexicon(), config) == _run(
            text, _split_lexicon(), config, pipeline_oracle.normalize
        )


@pytest.mark.parametrize("text, fused, rules", [
    ("ما ً كلموش ما", DEFAULT_FUSED_PREPOSITIONS, ["R-VOW", "R-PRON"]),  # a deleted word's spaces joined
    ("ما  ً   كلموش ما", DEFAULT_FUSED_PREPOSITIONS, ["R-VOW", "R-PRON"]),
    ("ما ً ً كلموش ما", DEFAULT_FUSED_PREPOSITIONS, ["R-VOW", "R-VOW", "R-PRON"]),
    ("ما وكلموش ما", {"و": " "}, ["R-SEP", "R-PRON"]),  # a split that starts with a space
    ("ما. وكلموش", {"و": "."}, ["R-SEP"]),  # and one that starts with a full stop
])
def test_fix_loop_relints_across_joined_runs(text, fused, rules):
    config = Config(fused_prepositions=fused)
    with pytest.MonkeyPatch.context() as mp:
        _patch_body(mp, "R-PRON", _warning_pron)
        result = _run(text, _split_lexicon(), config)
        assert result == _run(text, _split_lexicon(), config, pipeline_oracle.normalize)
    assert [f.rule for f in result.fixes] == rules


@settings(max_examples=200, deadline=None)
@given(
    words=st.lists(st.sampled_from(PRON_WORDS), min_size=1, max_size=12),
    gaps=st.lists(st.sampled_from([" ", "  ", "\n", ".", " . ", ""]), min_size=12, max_size=12),
    fused=st.sampled_from([*PRON_FUSED, {"و": " "}]),
    wide=wide_text,
    place=st.integers(0, 12),
)
@example(words=["ما", "ً", "كلموش"], gaps=["  ", "\n"] + [" "] * 10, fused={}, wide="", place=3)
def test_fix_loop_builds_the_windows_tokenize_would(words, gaps, fused, wide, place):
    """Every window a context rule gets is the one ``windows(tokenize(t))``
    gives its word, ``t`` being the text that pass works on, rebuilt from
    the pass-local fix spans; the word is found by where it starts in the
    parts that ``_part_window`` builds its window from.  A wrong neighbour
    or a stale start shows here even where no output does, as in an Info
    finding."""
    pieces = [w + g for w, g in zip(words, gaps)]
    pieces.insert(min(place, len(pieces)), wide)
    text = "".join(pieces)
    # (start, window) of each window the context rules got; None where a
    # pass rewrote the text.
    seen: list = []
    starts: list[int] = []  # where the word of each window built starts
    rewrite = nota.pipeline._rewrite
    part_window = nota.rules._part_window

    def placed(parts, i):
        starts.append(sum(map(len, parts[:i])))
        return part_window(parts, i)

    def recording(rule):
        def run(window, lex, fused):
            seen.append((starts[-1], window))
            return rule(window, lex, fused)
        return run

    def marked(*args):
        seen.append(None)
        return rewrite(*args)

    with pytest.MonkeyPatch.context() as mp:
        _patch_body(mp, "R-PRON", recording(_warning_pron))
        _patch_body(mp, "R-FUT", recording(nota.rules.rule_fut))
        mp.setattr(nota.pipeline, "_rewrite", marked)
        mp.setattr(nota.rules, "_part_window", placed)
        result = normalize(text, _split_lexicon(), Config(fused_prepositions=fused), Mode.FIX)
    texts = [canonicalize(text).text]
    for index in range(1, result.passes_used):
        current = texts[-1]
        for f in result.fixes:  # each pass's fixes come last one first
            if f.pass_index == index:
                current = current[: f.start] + f.replacement + current[f.end :]
        texts.append(current)
    assert result.output == texts[-1]
    index = 0
    for got in seen:
        if got is None:
            index += 1
        else:
            start, window = got
            expected = {w.word.start: w for w in rules_oracle.windows(tokenize(texts[index]))}
            assert start in expected, index
            assert window == rules_oracle.text_window(expected[start]), index


# --- hostile sizes -------------------------------------------------------------


@pytest.mark.parametrize("mode", [Mode.CHECK, Mode.FIX])
@pytest.mark.parametrize("name", HOSTILE_DOCS)
def test_normalize_linear_on_hostile_sizes(name, mode):
    # A fresh lexicon, so that no word memo from an earlier run hides the cost.
    lexicon = default_lexicon()
    start = time.perf_counter()
    normalize(HOSTILE_DOCS[name], lexicon, mode=mode)
    assert time.perf_counter() - start < 5.0


# Words that carry two fixable findings each (كتابٌ one), and clean words.
CHOICE_WORDS = ["اَلدارٌ", "گاوريٌ", "بِاتٌ", "كتابٌ", "بش", "نمشي", "في", "الدار"]


def _seconds_in(monkeypatch, lex, name: str, small: str, large: str) -> list[float]:
    """The time spent in ``nota.pipeline``'s function ``name`` in FIX on
    ``small`` and on ``large``, best of 3.  The runs alternate, so that a
    change in the host's speed weighs on both sizes alike."""
    step = getattr(nota.pipeline, name)
    spent = [0.0]

    def timed(*args):
        start = time.perf_counter()
        out = step(*args)
        spent[0] += time.perf_counter() - start
        return out

    monkeypatch.setattr(nota.pipeline, name, timed)
    best = [float("inf")] * 2
    for _ in range(3):
        for k, text in enumerate((small, large)):
            spent[0] = 0.0
            normalize(text, lex, mode=Mode.FIX)
            best[k] = min(best[k], spent[0])
    return best


def _choice_lines(lines: int) -> str:
    rng = random.Random(0)
    return "".join(" ".join(rng.choices(CHOICE_WORDS, k=4)) + "\n" for _ in range(lines))


def test_fix_choice_grows_linearly(monkeypatch, lex):
    """The time spent choosing fixes in FIX, best of 3, grows about as the
    text does: 16 times the lines may take at most 32 times as long.  A
    choice over the whole text that inserts each fix into one sorted list
    takes about 57 times as long here."""
    best = _seconds_in(
        monkeypatch, lex, "_select_nonoverlapping", _choice_lines(1000), _choice_lines(16000)
    )
    assert best[1] <= 32 * best[0], best


def test_fix_choice_grows_linearly_in_one_word(monkeypatch, lex):
    """One word with an R-CONS and an R-VOW fix in every cluster, none
    overlapping: 16 times the clusters may take at most 32 times as long.
    A choice that inserts each of the word's fixes into one sorted list
    takes about 70 times as long here."""
    best = _seconds_in(monkeypatch, lex, "_select_nonoverlapping", "گٌ" * 2500, "گٌ" * 40000)
    assert best[1] <= 32 * best[0], best


def test_fix_pass_grows_linearly(monkeypatch, lex):
    """The time spent in the fix passes, applying the chosen fixes and
    splitting the new text, best of 3: 16 times the lines may take at most
    32 times as long.  A pass that applies each fix by slicing the whole
    text takes about 200 times as long here."""
    best = _seconds_in(monkeypatch, lex, "_rewrite", _choice_lines(1000), _choice_lines(16000))
    assert best[1] <= 32 * best[0], best
