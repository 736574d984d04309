"""Lexical resources backing the lexicon-gated rules.

Four TSV resources (UTF-8, no header, '#' comments):

  verbs.tsv        citation, present-3sg, ends-long-i (0/1),
                   present-2sg (optional), irregular-imperative (optional)
  prepositions.tsv one preposition per line
  known_words.tsv  one undiacritized word per line
  variant_map.tsv  variant letter, canonical letter (must be پ/ڤ/ڨ)
  gaf_words.tsv    word spelled with ق, respelling with ڨ

Loading validates everything up front; a loaded Lexicon is immutable and
safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping

from .script import ALEF, ALEF_MAQSURA, GAF, PEH, QAF, TEH, VEH, YEH, strip_diacritics
from .tokenize import TokenKind, tokenize

ROLES = ("verbs", "prepositions", "known_words", "variant_map", "gaf_words")

_IMPERFECTIVE_PREFIXES = ("ي", "ت", "ن")  # ي ت ن
_PLURAL_SUFFIXES = ("وا", "و")  # وا و


class LexiconError(Exception):
    pass


class LexiconParseError(LexiconError):
    def __init__(self, source: str, line: int, reason: str):
        super().__init__(f"{source}:{line}: {reason}")
        self.source = source
        self.line = line
        self.reason = reason


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

    # Derived indexes, built once at construction.
    _citation_folded: dict[str, VerbEntry] = field(default_factory=dict, repr=False)
    _present_stems: frozenset[str] = field(default=frozenset(), repr=False)
    _present_forms: frozenset[str] = field(default=frozenset(), repr=False)
    _irregulars: dict[str, VerbEntry] = field(default_factory=dict, repr=False)
    _known_folded: dict[str, str] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        folded: dict[str, VerbEntry] = {}
        stems: set[str] = set()
        presents: set[str] = set()
        irregulars: dict[str, VerbEntry] = {}
        for entry in self.verbs.values():
            folded.setdefault(fold_final_alef(entry.citation), entry)
            presents.add(entry.present_3sg)
            if entry.present_3sg.startswith(_IMPERFECTIVE_PREFIXES):
                stems.add(entry.present_3sg[1:])
            if entry.present_2sg:
                presents.add(entry.present_2sg)
                if entry.present_2sg.startswith(TEH):
                    stems.add(entry.present_2sg[1:])
            if entry.irregular_imperative:
                irregulars[entry.irregular_imperative] = entry
        known_folded = {}
        for w in sorted(self.known_words):
            known_folded.setdefault(fold_final_alef(w), w)
        object.__setattr__(self, "_citation_folded", folded)
        object.__setattr__(self, "_present_stems", frozenset(stems))
        object.__setattr__(self, "_present_forms", frozenset(presents))
        object.__setattr__(self, "_irregulars", irregulars)
        object.__setattr__(self, "_known_folded", known_folded)

    # --- queries (all take surface words, diacritics tolerated) ---------

    def lookup_citation_folded(self, word: str) -> VerbEntry | None:
        return self._citation_folded.get(fold_final_alef(strip_diacritics(word)))

    def lookup_irregular_imperative(self, word: str) -> VerbEntry | None:
        return self._irregulars.get(strip_diacritics(word))

    def known_spelling_for(self, word: str) -> str | None:
        """Listed spelling matching the word up to its final ا/ى letter."""
        return self._known_folded.get(fold_final_alef(strip_diacritics(word)))

    def is_citation(self, word: str) -> bool:
        return strip_diacritics(word) in self.verbs

    def matches_imperfective(self, word: str) -> bool:
        """True if the word looks like a present-tense form of a listed verb.

        The stored 2sg/3sg forms match directly; other persons match by
        folding the person prefix (ي/ت/ن) and an optional plural suffix
        (و/وا) onto the stored present stem.
        """
        bare = strip_diacritics(word)
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
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        yield lineno, line


def _require_word(field_text: str, source: str, line: int, what: str) -> str:
    toks = tokenize(field_text)
    if len(toks) != 1 or toks[0].kind is not TokenKind.WORD:
        raise InvalidScriptError(f"{source}:{line}: {what} is not a single word: {field_text!r}")
    if strip_diacritics(field_text) != field_text:
        raise InvalidScriptError(f"{source}:{line}: {what} must be undiacritized: {field_text!r}")
    return field_text


def _parse_verbs(lines: Iterable[str], source: str) -> dict[str, VerbEntry]:
    verbs: dict[str, VerbEntry] = {}
    for lineno, line in _clean_lines(lines):
        cols = line.split("\t")
        if not 3 <= len(cols) <= 5:
            raise LexiconParseError(source, lineno, f"expected 3-5 columns, got {len(cols)}")
        cols += [""] * (5 - len(cols))
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
        words.add(_require_word(line.strip(), source, lineno, "word"))
    return frozenset(words)


def _parse_variant_map(lines: Iterable[str], source: str) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for lineno, line in _clean_lines(lines):
        cols = line.split("\t")
        if len(cols) != 2:
            raise LexiconParseError(source, lineno, "expected 2 columns: variant, canonical")
        variant, canonical = cols[0].strip(), cols[1].strip()
        if len(variant) != 1:
            raise LexiconParseError(source, lineno, f"variant must be one letter, got {variant!r}")
        if canonical not in (PEH, VEH, GAF):
            raise InvalidScriptError(
                f"{source}:{lineno}: canonical letter must be one of پ ڤ ڨ, got {canonical!r}"
            )
        if variant in mapping:
            raise DuplicateEntryError(f"{source}:{lineno}: duplicate variant {variant!r}")
        mapping[variant] = canonical
    return mapping


def _parse_gaf_words(lines: Iterable[str], source: str) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for lineno, line in _clean_lines(lines):
        cols = line.split("\t")
        if len(cols) != 2:
            raise LexiconParseError(source, lineno, "expected 2 columns: word, respelling")
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
    parsed = {
        role: _PARSERS[role](sources[role], role) if role in sources else _PARSERS[role]((), role)
        for role in ROLES
    }
    return Lexicon(
        verbs=parsed["verbs"],
        prepositions=parsed["prepositions"],
        known_words=parsed["known_words"],
        variant_map=parsed["variant_map"],
        gaf_words=parsed["gaf_words"],
    )


def resolve_lexicon_paths(paths: Iterable[Path]) -> dict[str, Path]:
    """Map file or directory paths onto lexicon roles by file stem."""
    role_paths: dict[str, Path] = {}
    for p in paths:
        p = Path(p)
        if p.is_dir():
            for role in ROLES:
                candidate = p / f"{role}.tsv"
                if candidate.is_file():
                    role_paths[role] = candidate
        elif p.stem in ROLES:
            role_paths[p.stem] = p
        else:
            raise LexiconError(
                f"cannot infer lexicon role from {p}: name one of {', '.join(ROLES)}"
            )
    return role_paths


def _read_lines(source: Path | resources.abc.Traversable) -> list[str]:
    """The lines of one role file, on disk or packaged."""
    try:
        return source.read_text(encoding="utf-8").splitlines()
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
        lex = replace(lex, variant_map=dict(variant_map))
    return lex
