"""Corpus statistics: lint a directory of text files into one report.

The report is deterministic regardless of traversal order: files are
keyed and sorted by their path relative to the corpus root, and totals
are computed from the per-file rows.  Unreadable or non-UTF-8 files are
recorded in their row, never fatal.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from pathlib import Path

from .config import Config, DEFAULT_CONFIG
from .lexicon import Lexicon
from .pipeline import _lint
from .tokenize import TokenKind

# Unused here, but bench/tracer.py rebinds these names on this module.
from .rules import run_rules  # noqa: F401
from .script import canonicalize  # noqa: F401
from .tokenize import tokenize  # noqa: F401


@dataclass(frozen=True)
class FileStats:
    file: str
    word_tokens: int
    clean_words: int
    diagnostics_per_rule: dict[str, int]
    error: str | None = None


@dataclass(frozen=True)
class CorpusReport:
    files: int
    word_tokens: int
    clean_words: int
    clean_word_ratio: float
    diagnostics_per_rule: dict[str, int]
    per_file: tuple[FileStats, ...]


def file_stats(name: str, text: str, lex: Lexicon, config: Config) -> FileStats:
    _, tokens, diagnostics = _lint(text, lex, config)
    words = [t for t in tokens if t.kind is TokenKind.WORD]
    # A word is dirty when a diagnostic overlaps it (each starts before the
    # other ends).  The words are disjoint and in order, so those a span
    # overlaps are one index range, found by bisection.
    starts = [w.start for w in words]
    ends = [w.end for w in words]
    dirty: set[int] = set()
    per_rule: dict[str, int] = {}
    for d in diagnostics:
        per_rule[d.rule] = per_rule.get(d.rule, 0) + 1
        dirty.update(range(bisect_right(ends, d.start), bisect_left(starts, d.end)))
    return FileStats(
        file=name,
        word_tokens=len(words),
        clean_words=len(words) - len(dirty),
        diagnostics_per_rule=per_rule,
    )


def collect_stats(root: Path, lex: Lexicon, config: Config = DEFAULT_CONFIG) -> CorpusReport:
    root = Path(root)
    if not root.is_dir():
        raise NotADirectoryError(f"not a directory: {root}")
    paths = sorted(
        (p for p in root.rglob("*") if p.is_file()),
        key=lambda p: p.relative_to(root).as_posix(),
    )
    rows: list[FileStats] = []
    for path in paths:
        # A name's bytes that are not UTF-8 are written as escapes, so the
        # report stays valid UTF-8.
        name = os.fsencode(path.relative_to(root).as_posix()).decode("utf-8", "backslashreplace")
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            rows.append(FileStats(name, 0, 0, {}, error=str(exc)))
            continue
        rows.append(file_stats(name, text, lex, config))

    total_words = sum(r.word_tokens for r in rows)
    total_clean = sum(r.clean_words for r in rows)
    per_rule: dict[str, int] = {}
    for r in rows:
        for rule, n in r.diagnostics_per_rule.items():
            per_rule[rule] = per_rule.get(rule, 0) + n
    ratio = total_clean / total_words if total_words else 1.0
    return CorpusReport(
        files=len(rows),
        word_tokens=total_words,
        clean_words=total_clean,
        clean_word_ratio=ratio,
        diagnostics_per_rule=per_rule,
        per_file=tuple(rows),
    )


def report_to_json(report: CorpusReport) -> str:
    # vars, not dataclasses.asdict, which deep-copies every row.
    doc = {**vars(report), "per_file": [vars(r) for r in report.per_file]}
    return json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=2) + "\n"
