"""Seeded inputs for the benchmark workloads.

Pure standard library; nothing here imports ``nota``, so the inputs do
not move when the program, its lexicon or its tests change.  The word
and line tables are frozen copies made for the benchmark.

Every workload draws from a fixed pool of ``STRATA * PER_STRATUM``
operations.  Pool item ``(s, m)`` is generated from its own seed, so its
bytes never depend on the run seed, and its output digest can be
recorded once (``digests.json``).  Stratum ``s`` fixes the size of the
item: the strata split the workload's size range evenly on a log
scale.  The run seed only orders the pool: ops come in blocks of
``STRATA`` items, one from each stratum in a seeded order, so any whole
number of blocks has the same size mix whatever the seed.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("check-zipf", "fix-dense", "stats-corpus")
STRATA = 15
PER_STRATUM = 64

FATHA, DAMMA, KASRA, ZWARAKAY = "َ", "ُ", "ِ", "ٙ"
SHADDA, SUKUN, TANWIN = "ّ", "ْ", "ٌ"
VOWELS = (FATHA, DAMMA, KASRA, ZWARAKAY)

# The NOTA base-letter inventory, and the plain consonants among it
# (no matres, no hamza seats, no ة), which make neutral stems.
LETTERS = "ءآأؤإئابةتثجحخدذرزسشصضطظعغفقكلمنهوىيپڤڨ"
CONSONANTS = "".join(ch for ch in LETTERS if ch not in "اىويةآءأؤإئ")

# Words the default lexicon lists: known words, prepositions, verb forms.
LEXICON_WORDS = (
    "دار", "كتاب", "ورقة", "بقرة", "دقلة", "قهوة", "بلاد", "ولد", "بنت", "سوق",
    "حومة", "كلب", "نهار", "ليل", "ما", "شنوة", "برشة", "باهي", "دنيا", "عشا",
    "في", "على", "من", "مع", "عند", "تحت", "فوق", "قدام", "وراء", "بين",
    "مشى", "يمشي", "تمشي", "جى", "يجي", "تجي", "كلى", "ياكل", "تاكل", "قرا",
    "يقرا", "تقرا", "كلم", "يكلم", "تكلم", "عمل", "يعمل", "تعمل", "خدم", "يخدم",
    "تخدم", "شرب", "يشرب", "تشرب", "سمع", "يسمع", "تسمع", "كتب", "يكتب", "تكتب",
    "شاف", "يشوف", "تشوف", "هز", "يهز", "تهز", "نمشي", "الدار", "الكتاب", "البلاد",
)

# Words that trip a rule: each of the eight rules fires on at least one.
DIRTY_WORDS = (
    "باش",                        # R-FUT before a verb
    "ا" + FATHA + "لدار",         # R-ART
    "والدار",                     # R-SEP (conjunction)
    "فالدار",                     # R-SEP (fused preposition)
    "كول",                        # R-IMP
    "مشا",                        # R-AMQ
    "قرى",                        # R-AMQ
    "كلموش",                      # R-PRON after ما
    "گاوري",                      # R-CONS variant letter
    "ب" + KASRA + "ات",           # R-VOW Kasra+Alef
    "كتاب" + TANWIN,              # R-VOW non-NOTA mark
    "ك" + "ـ" + "تاب",       # tatweel, dropped by canonicalize
)

# Two-word entries of the check-zipf vocabulary for the rules that look
# at a neighbour.
DIRTY_PHRASES = ("باش نمشي", "باش يخدم", "ما كلموش", "ما شربوش")

# Presentation forms, folded to base letters by canonicalize.
PRESENTATION_WORDS = ("ﺑﺎﺵ", "ﺍﻟﺪﺍﺭ", "ﻛﺘﺎﺏ", "ﻧﻤﺸﻲ")

LATIN_NOISE = ("abc", "Xy", "hello", "NLP", "a1", "ok")
DIGIT_NOISE = ("123", "2024", "٢٠٢٤", "7")
PUNCT_NOISE = (".", ",", "،", "؟", "!", "(", ")", ":")

# fix-dense: every line has at least one applied fix, and the fixed line
# is written out by hand.  No line ends in باش or ما and none starts with
# a word that a rule on the previous line could look at, so lines fix
# independently (the worker checks every ordered pair).
FIX_TABLE = (
    ("باش نمشي للسوق", "بش نمشي للسوق"),
    ("باش يخدم غدوة", "بش يخدم غدوة"),
    ("ﺑﺎﺵ نمشي", "بش نمشي"),
    ("ا" + FATHA + "لدار قدام الحومة", "الدار قدام الحومة"),
    ("ا" + KASRA + "لكتاب هوني", "الكتاب هوني"),
    ("والدار والكتاب", "و الدار و الكتاب"),
    ("فالدار برشة ورقة", "في الدار برشة ورقة"),
    ("عالكتاب برك", "على الكتاب برك"),
    ("مالسوق جبت خبز", "من السوق جبت خبز"),
    ("كول في الدار", "اكل في الدار"),
    ("مشا ولد البلاد", "مشى ولد البلاد"),
    ("جا الليل", "جى الليل"),
    ("قرى الكتاب", "قرا الكتاب"),
    ("گاوري يخدم في السوق", "ڨاوري يخدم في السوق"),
    ("ڭاطو باهي", "ڨاطو باهي"),
    ("ڥيلو جديد", "ڤيلو جديد"),
    ("بقرة في البلاد", "بڨرة في البلاد"),
    ("كتاب" + TANWIN + " قديم", "كتاب قديم"),
    ("ب" + KASRA + "اب الدار", "ب" + ZWARAKAY + "اب الدار"),
    ("معالبنت", "مع البنت"),
    ("تحتالكلب نام", "تحت الكلب نام"),
    ("وبنت قدام الدار", "و بنت قدام الدار"),
    ("وبقرة في السوق", "و بڨرة في السوق"),
    ("والكتاب" + TANWIN + " هوني", "و الكتاب هوني"),
    ("ما كلموش باش يمشي", "ما كلموش بش يمشي"),
    ("ك" + "ـ" + "تاب" + TANWIN + " فالدار", "كتاب في الدار"),
)


@dataclass(frozen=True)
class Spec:
    lo: int          # smallest item size (lines, or files per shard)
    hi: int          # largest item size
    mode: str        # "check", "fix" or "stats"


SPECS = {
    "check-zipf": Spec(20, 400, "check"),
    "fix-dense": Spec(10, 600, "fix"),
    "stats-corpus": Spec(8, 12, "stats"),
}


def pool_key(stratum: int, member: int) -> str:
    return f"s{stratum:02d}-{member:02d}"


def _item_rng(workload: str, stratum: int, member: int) -> random.Random:
    return random.Random(f"{workload}/{pool_key(stratum, member)}")


def size(workload: str, stratum: int) -> int:
    """Item size of a stratum: the middle of its slice of [lo, hi] on a log scale."""
    spec = SPECS[workload]
    lo, hi = math.log(spec.lo), math.log(spec.hi)
    return round(math.exp(lo + (hi - lo) * (stratum + 0.5) / STRATA))


def sequence(seed: int) -> list[tuple[int, int]]:
    """The run's op order: PER_STRATUM blocks, each one item per stratum."""
    rng = random.Random(seed)
    members = []
    for _ in range(STRATA):
        perm = list(range(PER_STRATUM))
        rng.shuffle(perm)
        members.append(perm)
    order: list[tuple[int, int]] = []
    for block in range(PER_STRATUM):
        strata = list(range(STRATA))
        rng.shuffle(strata)
        order.extend((s, members[s][block]) for s in strata)
    return order


# --- check-zipf -------------------------------------------------------------


def _random_word(rng: random.Random, min_len: int, max_len: int) -> str:
    parts: list[str] = []
    for _ in range(rng.randint(min_len, max_len)):
        parts.append(rng.choice(LETTERS))
        if rng.random() < 0.4:
            if rng.random() < 0.25:
                parts.append(SHADDA)
            parts.append(rng.choice(VOWELS) if rng.random() < 0.8 else SUKUN)
    return "".join(parts)


@functools.cache
def _zipf_vocabulary() -> tuple[list[str], list[float]]:
    """Words by rank with Zipf weights 1/rank.

    3000 random diacritized words, with the lexicon, rule-tripping and
    presentation-form words and phrases placed at random among the first
    300 ranks, so every rule fires in a document of a few hundred lines.
    """
    rng = random.Random("check-zipf/vocabulary")
    words = [_random_word(rng, 2, 7) for _ in range(3000)]
    for word in LEXICON_WORDS + DIRTY_WORDS + DIRTY_PHRASES + PRESENTATION_WORDS:
        words.insert(rng.randrange(300), word)
    cum, total = [], 0.0
    for rank in range(1, len(words) + 1):
        total += 1.0 / rank
        cum.append(total)
    return words, cum


def _check_line(rng: random.Random, words: list[str], cum: list[float], index: int) -> str:
    # Line i has 3 + i % 8 words and every third line ends in punctuation,
    # so documents of one stratum differ in their words, not their shape.
    pieces = rng.choices(words, cum_weights=cum, k=3 + index % 8)
    for i in range(len(pieces)):
        roll = rng.random()
        if roll < 0.04:
            pieces[i] = rng.choice(LATIN_NOISE)
        elif roll < 0.07:
            pieces[i] = rng.choice(DIGIT_NOISE)
    line = " ".join(pieces)
    if index % 3 == 2:
        line += rng.choice(PUNCT_NOISE)
    return line


def check_document(stratum: int, member: int) -> str:
    words, cum = _zipf_vocabulary()
    rng = _item_rng("check-zipf", stratum, member)
    n = size("check-zipf", stratum)
    return "".join(_check_line(rng, words, cum, i) + "\n" for i in range(n))


# --- fix-dense --------------------------------------------------------------


def fix_document(stratum: int, member: int) -> str:
    # Each table line appears n // len(FIX_TABLE) times or once more, in a
    # seeded order, so documents of one stratum differ in order, not mix.
    rng = _item_rng("fix-dense", stratum, member)
    n = size("fix-dense", stratum)
    lines: list[str] = []
    while len(lines) < n:
        table = [line for line, _ in FIX_TABLE]
        rng.shuffle(table)
        lines.extend(table)
    del lines[n:]
    rng.shuffle(lines)
    return "".join(line + "\n" for line in lines)


def expected_fix(text: str) -> str:
    """The hand-written fix of a fix-dense document, line by line."""
    table = dict(FIX_TABLE)
    return "".join(table[line] + "\n" for line in text.splitlines())


# --- stats-corpus -----------------------------------------------------------


# A stem letter carries a vowel mark three times in ten.
_STEM_MARKS = ("",) + VOWELS
_STEM_MARK_WEIGHTS = (0.7, 0.775, 0.85, 0.925, 1.0)


def _stem(rng: random.Random) -> str:
    n = rng.randint(4, 7)
    letters = rng.choices(CONSONANTS, k=n)
    marks = rng.choices(_STEM_MARKS, cum_weights=_STEM_MARK_WEIGHTS, k=n)
    return "".join(map(str.__add__, letters, marks))


def stats_shard(stratum: int, member: int) -> dict[str, bytes]:
    """File name -> bytes.  Most words are fresh stems; ~3% of files are not UTF-8."""
    rng = _item_rng("stats-corpus", stratum, member)
    n_files = size("stats-corpus", stratum)
    shared = LEXICON_WORDS + DIRTY_WORDS
    files: dict[str, bytes] = {}
    for f in range(n_files):
        lines = []
        for _ in range(rng.randint(2, 8)):
            words = [
                rng.choice(shared) if rng.random() < 0.1 else _stem(rng)
                for _ in range(rng.randint(4, 10))
            ]
            lines.append(" ".join(words))
        data = ("\n".join(lines) + "\n").encode("utf-8")
        if rng.random() < 0.03:
            cut = rng.randrange(len(data))
            data = data[:cut] + b"\xff" + data[cut:]
        files[f"{f:02d}.txt" if f % 3 else f"sub/{f:02d}.txt"] = data
    return files


def shard_chars(files: dict[str, bytes]) -> int:
    """Code points in the shard's readable (valid UTF-8) files."""
    total = 0
    for data in files.values():
        try:
            total += len(data.decode("utf-8"))
        except UnicodeDecodeError:
            pass
    return total


def write_shard(root: Path, files: dict[str, bytes]) -> None:
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
