"""Lexical resources backing the lexicon-gated rules.

Five TSV resources (UTF-8, no header, '#' comments), one per role:

  verbs.tsv        citation, present-3sg, ends-long-i (0/1),
                   present-2sg (optional), irregular-imperative (optional)
  prepositions.tsv one preposition per line
  known_words.tsv  one undiacritized word per line
  variant_map.tsv  variant letter (not پ/ڤ/ڨ), canonical letter (پ/ڤ/ڨ)
  gaf_words.tsv    word spelled with ق, respelling with ڨ

Loading validates everything up front; a loaded Lexicon is immutable and
safe to share. Its fields are the five resources; the indexes its
queries use are cached properties, built on first use. One of them,
``_known_lengths`` (the distinct lengths of the known words), tells
R-SEP and the rules' word gate which suffixes of a word to look up. Its
one mutable part, ``_rule_memo``, keeps the rule set of the last
configuration linted with it, which is the bounded memo of the rules'
findings per word (``rules._RuleSet``); a new Lexicon, including one made
by ``dataclasses.replace``, starts without one.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, replace
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .script import ALEF, ALEF_MAQSURA, GAF, PEH, QAF, TEH, VEH, WORD_CHARS, YEH, canonicalize, skeleton

ROLES = ("verbs", "prepositions", "known_words", "variant_map", "gaf_words")

_IMPERFECTIVE_PREFIXES = ("ي", "ت", "ن")  # ي ت ن
_PLURAL_SUFFIXES = ("وا", "و")  # وا و


class LexiconError(Exception):
    pass


class LexiconParseError(LexiconError):
    def __init__(self, source: str, line: int, reason: str):
        super().__init__(f"{source}:{line}: {reason}")


class DuplicateEntryError(LexiconError):
    pass


class InvalidScriptError(LexiconError):
    pass


@dataclass(frozen=True)
class VerbEntry:
    citation: str
    present_3sg: str
    present_ends_long_i: bool
    present_2sg: str | None = None
    irregular_imperative: str | None = None


def fold_final_alef(word: str) -> str:
    """Collapse final ى to ا so both spellings of a verb hit one entry."""
    if word and word[-1] == ALEF_MAQSURA:
        return word[:-1] + ALEF
    return word


@dataclass(frozen=True)
class Lexicon:
    verbs: Mapping[str, VerbEntry]
    prepositions: frozenset[str]
    known_words: frozenset[str]
    variant_map: Mapping[str, str]
    gaf_words: Mapping[str, str]

    # --- indexes derived from the resources, built on first use ---------

    @cached_property
    def _citation_folded(self) -> dict[str, VerbEntry]:
        folded: dict[str, VerbEntry] = {}
        for entry in self.verbs.values():
            folded.setdefault(fold_final_alef(entry.citation), entry)
        return folded

    @cached_property
    def _present_forms(self) -> frozenset[str]:
        presents = {e.present_3sg for e in self.verbs.values()}
        presents.update(e.present_2sg for e in self.verbs.values() if e.present_2sg)
        return frozenset(presents)

    @cached_property
    def _present_stems(self) -> frozenset[str]:
        stems = set()
        for entry in self.verbs.values():
            if entry.present_3sg.startswith(_IMPERFECTIVE_PREFIXES):
                stems.add(entry.present_3sg[1:])
            if entry.present_2sg and entry.present_2sg.startswith(TEH):
                stems.add(entry.present_2sg[1:])
        return frozenset(stems)

    @cached_property
    def _irregulars(self) -> dict[str, VerbEntry]:
        return {e.irregular_imperative: e for e in self.verbs.values() if e.irregular_imperative}

    @cached_property
    def _known_folded(self) -> dict[str, str]:
        folded: dict[str, str] = {}
        for w in sorted(self.known_words):
            folded.setdefault(fold_final_alef(w), w)
        return folded

    @cached_property
    def _known_lengths(self) -> tuple[int, ...]:
        """The distinct lengths of the known words, shortest first."""
        return tuple(sorted(set(map(len, self.known_words))))

    @cached_property
    def _rule_memo(self) -> dict:
        """{config key: rules._RuleSet}, the rule set and word memo of one configuration."""
        return {}

    # --- queries (all take skeletons: a rule window carries its word's) --

    def lookup_citation_folded(self, bare: str) -> VerbEntry | None:
        return self._citation_folded.get(fold_final_alef(bare))

    def lookup_irregular_imperative(self, bare: str) -> VerbEntry | None:
        return self._irregulars.get(bare)

    def known_spelling_for(self, bare: str) -> str | None:
        """Listed spelling matching the word up to its final ا/ى letter."""
        return self._known_folded.get(fold_final_alef(bare))

    def is_citation(self, bare: str) -> bool:
        return bare in self.verbs

    def matches_imperfective(self, bare: str) -> bool:
        """True if the word looks like a present-tense form of a listed verb.

        The stored 2sg/3sg forms match directly; other persons match by
        folding the person prefix (ي/ت/ن) and an optional plural suffix
        (و/وا) onto the stored present stem.
        """
        if bare in self._present_forms:
            return True
        if len(bare) < 2 or bare[0] not in "".join(_IMPERFECTIVE_PREFIXES):
            return False
        rest = bare[1:]
        candidates = {rest}
        for suf in _PLURAL_SUFFIXES:
            if rest.endswith(suf) and len(rest) > len(suf):
                candidates.add(rest[: -len(suf)])
        return any(c in self._present_stems for c in candidates)


# --- loading --------------------------------------------------------------


def _clean_lines(lines: Iterable[str]) -> Iterable[tuple[int, str]]:
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").removesuffix("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        yield lineno, line


def _rows(
    lines: Iterable[str], source: str, widths: range, expected: str
) -> Iterator[tuple[int, list[str]]]:
    """The tab-separated fields of each row, padded with "" to the widest
    of ``widths``, with its line number.

    A row whose field count is not in ``widths`` is an error, reported as
    ``expected`` with ``{got}`` standing for the count.
    """
    for lineno, line in _clean_lines(lines):
        cols = line.split("\t")
        if len(cols) not in widths:
            raise LexiconParseError(source, lineno, expected.format(got=len(cols)))
        yield lineno, cols + [""] * (widths[-1] - len(cols))


def _require_word(field_text: str, source: str, line: int, what: str) -> str:
    # One word token, as the tokenizer would read it.
    if not field_text or not WORD_CHARS.issuperset(field_text):
        raise InvalidScriptError(f"{source}:{line}: {what} is not a single word: {field_text!r}")
    if skeleton(field_text) != field_text:
        raise InvalidScriptError(f"{source}:{line}: {what} must be undiacritized: {field_text!r}")
    return field_text


def _parse_verbs(lines: Iterable[str], source: str) -> dict[str, VerbEntry]:
    verbs: dict[str, VerbEntry] = {}
    for lineno, cols in _rows(lines, source, range(3, 6), "expected 3-5 columns, got {got}"):
        citation = _require_word(cols[0], source, lineno, "citation form")
        present = _require_word(cols[1], source, lineno, "present form")
        if cols[2] not in ("0", "1"):
            raise LexiconParseError(source, lineno, f"ends-long-i flag must be 0 or 1, got {cols[2]!r}")
        ends_long_i = cols[2] == "1"
        if ends_long_i != present.endswith(YEH):
            raise LexiconParseError(
                source, lineno,
                f"ends-long-i flag contradicts present form {present!r}",
            )
        p2sg = _require_word(cols[3], source, lineno, "present-2sg") if cols[3] else None
        irregular = _require_word(cols[4], source, lineno, "irregular imperative") if cols[4] else None
        if citation in verbs:
            raise DuplicateEntryError(f"{source}:{lineno}: duplicate citation form {citation!r}")
        verbs[citation] = VerbEntry(citation, present, ends_long_i, p2sg, irregular)
    return verbs


def _parse_word_list(lines: Iterable[str], source: str) -> frozenset[str]:
    words = set()
    for lineno, line in _clean_lines(lines):
        words.add(_require_word(line, source, lineno, "word"))
    return frozenset(words)


def _check_variant(variant: str, canonical: str, where: str) -> None:
    """One variant_map row, from a TSV file or the config: one Arabic letter
    other than پ/ڤ/ڨ onto one of them, so that a rewrite never makes a variant."""
    if (
        variant not in WORD_CHARS  # a space, a digit, another script, not one character
        or unicodedata.category(variant) != "Lo"  # a mark, tatweel
        or canonicalize(variant).text != variant  # a presentation form
        or variant in (PEH, VEH, GAF)
    ):
        raise InvalidScriptError(
            f"{where}: variant must be one Arabic letter other than پ ڤ ڨ, got {variant!r}"
        )
    if canonical not in (PEH, VEH, GAF):
        raise InvalidScriptError(
            f"{where}: canonical letter must be one of پ ڤ ڨ, got {canonical!r}"
        )


def _parse_variant_map(lines: Iterable[str], source: str) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for lineno, cols in _rows(lines, source, range(2, 3), "expected 2 columns: variant, canonical"):
        variant, canonical = cols
        _check_variant(variant, canonical, f"{source}:{lineno}")
        if variant in mapping:
            raise DuplicateEntryError(f"{source}:{lineno}: duplicate variant {variant!r}")
        mapping[variant] = canonical
    return mapping


def _parse_gaf_words(lines: Iterable[str], source: str) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for lineno, cols in _rows(lines, source, range(2, 3), "expected 2 columns: word, respelling"):
        word = _require_word(cols[0], source, lineno, "word")
        respelled = _require_word(cols[1], source, lineno, "respelling")
        if len(word) != len(respelled) or any(
            a != b and not (a == QAF and b == GAF) for a, b in zip(word, respelled)
        ):
            raise InvalidScriptError(
                f"{source}:{lineno}: respelling must differ only by ق→ڨ: {word!r} → {respelled!r}"
            )
        if word in mapping:
            raise DuplicateEntryError(f"{source}:{lineno}: duplicate word {word!r}")
        mapping[word] = respelled
    return mapping


_PARSERS = {
    "verbs": _parse_verbs,
    "prepositions": _parse_word_list,
    "known_words": _parse_word_list,
    "variant_map": _parse_variant_map,
    "gaf_words": _parse_gaf_words,
}


def load_lexicon(sources: Mapping[str, Iterable[str]]) -> Lexicon:
    """Build a Lexicon from named line streams; order of roles is irrelevant.

    ``sources`` maps role names (see ROLES) to line iterables. Missing
    roles load as empty resources.
    """
    unknown = set(sources) - set(ROLES)
    if unknown:
        raise LexiconError(f"unknown lexicon roles: {sorted(unknown)}")
    return Lexicon(**{role: _PARSERS[role](sources.get(role, ()), role) for role in ROLES})


def resolve_lexicon_paths(paths: Iterable[Path]) -> dict[str, Path]:
    """Map existing file or directory paths onto lexicon roles by file
    stem; a directory must hold at least one ``<role>.tsv`` file."""
    role_paths: dict[str, Path] = {}
    for p in paths:
        if p.is_dir():
            found = {role: path for role in ROLES if (path := p / f"{role}.tsv").is_file()}
            if not found:
                raise LexiconError(
                    f"no lexicon files in {p}: expected one of"
                    f" {', '.join(role + '.tsv' for role in ROLES)}"
                )
            role_paths.update(found)
        elif not p.exists():
            raise LexiconError(f"no such lexicon file or directory: {p}")
        elif p.stem in ROLES:
            role_paths[p.stem] = p
        else:
            raise LexiconError(
                f"cannot infer lexicon role from {p}: name one of {', '.join(ROLES)}"
            )
    return role_paths


def _read_lines(source: Path | resources.abc.Traversable) -> list[str]:
    """The lines of one role file, on disk or packaged, cut at line feeds
    only: ``str.splitlines`` also cuts at U+2028, U+0085 or a form feed."""
    try:
        return source.read_bytes().decode("utf-8").split("\n")
    except OSError as exc:
        raise LexiconError(f"cannot read {source}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise LexiconError(f"{source} is not valid UTF-8: {exc}") from exc


def default_lexicon(overrides: Mapping[str, Path] | None = None,
                    variant_map: Mapping[str, str] | None = None) -> Lexicon:
    """The packaged default resources, with optional per-role path overrides."""
    data = resources.files("nota").joinpath("data")
    overrides = overrides or {}
    lex = load_lexicon({
        role: _read_lines(Path(overrides[role]) if role in overrides else data / f"{role}.tsv")
        for role in ROLES
    })
    if variant_map is not None:
        for variant, canonical in variant_map.items():
            _check_variant(variant, canonical, "tables.variant_map")
        lex = replace(lex, variant_map=dict(variant_map))
    return lex
