"""Seeded generators shared by the unit and acceptance suites."""

from __future__ import annotations

import random
import string

from hypothesis import strategies as st

from nota.lexicon import Lexicon, VerbEntry
from nota.script import (
    _ARABIC_RANGES,
    LETTERS,
    SHADDA,
    SUKUN,
    TATWEEL,
    Vowel,
)

# Plain consonants: no matres, no hamza seats, no ة. Safe for stems.
SAFE_CONSONANTS = [
    ch
    for ch in LETTERS
    if ch not in "اىويةآ"
    and ch not in "ءأؤإئ"
]

ALL_LETTERS = list(LETTERS)
VOWELS = [v.value for v in Vowel]

LATIN_NOISE = ["abc", "Xy", "hello", "NLP", "a1"]
DIGIT_NOISE = ["123", "2024", "٢٠٢٤"]
PUNCT_NOISE = [".", ",", "،", "؟", "!", "(", ")"]

# Words that exercise each rule, mixed into fuzz corpora.
DIRTY_WORDS = [
    "باش",                    # باش
    "اَلدار",  # اَلدار
    "والدار",  # والدار
    "فالدار",  # فالدار
    "كول",                    # كول
    "مشا",                    # مشا
    "قرى",                    # قرى
    "ما",                          # ما
    "كلموش",        # كلموش
    "گاوري",        # گاوري
    "بِات",              # بِات
    "بقرة",              # بقرة
    "نمشي",              # نمشي
    "كتابٌ",        # كتابٌ (tanwin)
    "ك" + TATWEEL + "تاب",  # tatweel inside كتاب
    "ﺑﺎﺵ",                    # باش in presentation forms
]


# Hostile input for the character layer: anything in the five Arabic
# ranges, ZWJ/ZWNJ/BOM, the ﷲ and ﷺ ligatures, tatweel with the combining
# madda/hamza, and plain whitespace, Latin letters and digits.
wide_text = st.text(
    alphabet=st.one_of(
        *(st.characters(min_codepoint=lo, max_codepoint=hi) for lo, hi in _ARABIC_RANGES),
        st.sampled_from(
            ["\u200d", "\u200c", "\ufeff", "\ufdf2", "\ufdfa",
             TATWEEL, "\u0653", "\u0654", "\u0655", " ", "\n"]
        ),
        st.sampled_from(string.ascii_letters + string.digits),
    ),
    max_size=40,
)

# 200k-character documents that a quadratic scan of one whitespace-free
# run, or of all words against all findings, cannot finish in seconds.
HOSTILE_SIZE = 200_000
HOSTILE_DOCS = {
    "no whitespace, already canonical": ("كتاب" * HOSTILE_SIZE)[:HOSTILE_SIZE],
    "no whitespace, a rewrite in every cluster": ("بَّ" * HOSTILE_SIZE)[:HOSTILE_SIZE],
    "latin only": (string.ascii_letters * HOSTILE_SIZE)[:HOSTILE_SIZE],
    "no whitespace, a fused preposition repeated": ("فالدار" * HOSTILE_SIZE)[:HOSTILE_SIZE],
    "no whitespace, a fix in every cluster": ("بٌ" * HOSTILE_SIZE)[:HOSTILE_SIZE],
    "lone marks between spaces": ("ً " * HOSTILE_SIZE)[:HOSTILE_SIZE],
    "no whitespace, one trigger at the end": ("كتاب" * HOSTILE_SIZE)[: HOSTILE_SIZE - 1] + TATWEEL,
}


def random_word(rng: random.Random, min_len: int = 1, max_len: int = 6,
                letters: list[str] | None = None, with_marks: bool = True) -> str:
    pool = letters or ALL_LETTERS
    parts: list[str] = []
    for _ in range(rng.randint(min_len, max_len)):
        parts.append(rng.choice(pool))
        if with_marks and rng.random() < 0.4:
            if rng.random() < 0.25:
                parts.append(SHADDA)
            roll = rng.random()
            if roll < 0.6:
                parts.append(rng.choice(VOWELS))
            elif roll < 0.75:
                parts.append(SUKUN)
    return "".join(parts)


def random_stem(rng: random.Random, used: set[str], min_len: int = 3, max_len: int = 5) -> str:
    while True:
        stem = "".join(rng.choice(SAFE_CONSONANTS) for _ in range(rng.randint(min_len, max_len)))
        if stem not in used:
            used.add(stem)
            return stem


def random_text(rng: random.Random, lexicon_words: list[str]) -> str:
    pieces: list[str] = []
    for _ in range(rng.randint(0, 8)):
        roll = rng.random()
        if roll < 0.35:
            pieces.append(rng.choice(DIRTY_WORDS))
        elif roll < 0.55:
            pieces.append(rng.choice(lexicon_words))
        elif roll < 0.8:
            pieces.append(random_word(rng))
        elif roll < 0.88:
            pieces.append(rng.choice(LATIN_NOISE))
        elif roll < 0.94:
            pieces.append(rng.choice(DIGIT_NOISE))
        else:
            pieces.append(rng.choice(PUNCT_NOISE))
    sep_roll = rng.random()
    if sep_roll < 0.8:
        return " ".join(pieces)
    if sep_roll < 0.9:
        return rng.choice(PUNCT_NOISE).join(pieces)
    return "".join(pieces)


def vocabulary_text(rng: random.Random, size: int) -> str:
    """A document of ``size`` distinct random words, each twice, in a
    seeded order, eight to a line."""
    words: set[str] = set()
    while len(words) < size:
        words.add(random_word(rng, 2, 7))
    doc = sorted(words) * 2
    rng.shuffle(doc)
    return "".join(w + ("\n" if i % 8 == 7 else " ") for i, w in enumerate(doc))


def lexicon_word_pool(lex: Lexicon) -> list[str]:
    words = set(lex.known_words) | set(lex.prepositions)
    for entry in lex.verbs.values():
        words.update(f for f in (entry.citation, entry.present_3sg,
                                 entry.present_2sg, entry.irregular_imperative) if f)
    return sorted(words)


def synthetic_lexicon(rng: random.Random, n_verbs: int = 60, n_known: int = 60) -> Lexicon:
    """A randomized but internally consistent lexicon for rule fuzzing."""
    used: set[str] = set()
    verbs: dict[str, VerbEntry] = {}
    for i in range(n_verbs):
        stem = random_stem(rng, used)
        if i % 3 == 0:
            citation = stem + "ى"
            present = "ي" + stem + "ي"
            flag = True
        else:
            citation = stem + "ا" if i % 3 == 1 else stem
            present = "ي" + stem
            flag = False
        irregular = None
        if i % 4 == 0:
            irregular = random_stem(rng, used)
        verbs[citation] = VerbEntry(
            citation=citation,
            present_3sg=present,
            present_ends_long_i=flag,
            present_2sg="ت" + stem,
            irregular_imperative=irregular,
        )
    known = frozenset(random_stem(rng, used) for _ in range(n_known))
    gaf: dict[str, str] = {}
    for _ in range(12):
        stem = random_stem(rng, used)
        word = stem + "ق" + rng.choice(SAFE_CONSONANTS)
        gaf[word] = word.replace("ق", "ڨ")
    return Lexicon(
        verbs=verbs,
        prepositions=frozenset({"في", "على", "من"}),
        known_words=known,
        variant_map={"گ": "ڨ", "ڭ": "ڨ", "ݣ": "ڨ", "ڥ": "ڤ"},
        gaf_words=gaf,
    )
