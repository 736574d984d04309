"""Corpus statistics: lint a directory of text files into one report.

The report is deterministic regardless of traversal order: files are
keyed and sorted by their path relative to the corpus root, and totals
are computed from the per-file rows.  Unreadable or non-UTF-8 files are
recorded in their row, never fatal.
"""

from __future__ import annotations

import json
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
    per_rule: dict[str, int] = {}
    for d in diagnostics:
        per_rule[d.rule] = per_rule.get(d.rule, 0) + 1
    clean = sum(
        1
        for w in words
        if not any(d.start < w.end and d.end > w.start for d in diagnostics)
    )
    return FileStats(
        file=name,
        word_tokens=len(words),
        clean_words=clean,
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
        name = path.relative_to(root).as_posix()
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
    doc = {
        "files": report.files,
        "word_tokens": report.word_tokens,
        "clean_words": report.clean_words,
        "clean_word_ratio": report.clean_word_ratio,
        "diagnostics_per_rule": report.diagnostics_per_rule,
        "per_file": [
            {
                "file": r.file,
                "word_tokens": r.word_tokens,
                "clean_words": r.clean_words,
                "diagnostics_per_rule": r.diagnostics_per_rule,
                "error": r.error,
            }
            for r in report.per_file
        ],
    }
    return json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=2) + "\n"
