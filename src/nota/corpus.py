"""Corpus statistics: lint a directory of text files into one report.

The report is deterministic regardless of traversal order: files are
keyed and sorted by their path relative to the corpus root, and totals
are computed from the per-file rows.  Unreadable or non-UTF-8 files are
recorded in their row, never fatal.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_right
from collections import Counter
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
    starts = [t.start for t in tokens if t.kind is TokenKind.WORD]
    # A word is dirty when it holds a finding's start: every finding lies
    # inside one word (see ``nota.rules``).
    dirty = {bisect_right(starts, d.start) for d in diagnostics}
    return FileStats(
        file=name,
        word_tokens=len(starts),
        clean_words=len(starts) - len(dirty),
        diagnostics_per_rule=dict(Counter(d.rule for d in diagnostics)),
    )


def collect_stats(root: Path, lex: Lexicon, config: Config = DEFAULT_CONFIG) -> CorpusReport:
    root = Path(root)
    if not root.is_dir():
        raise NotADirectoryError(f"not a directory: {root}")
    # Each file's POSIX path relative to root, by an explicit stack, since
    # Path.rglob and os.walk recurse.  Symlinked files count, symlinked
    # directories are not entered, unlistable directories are skipped.
    found: list[str] = []
    stack = [""]
    while stack:
        prefix = stack.pop()
        try:
            with os.scandir(root / prefix) as it:
                entries = list(it)
        except OSError:
            continue
        for entry in entries:
            try:
                if entry.is_dir(follow_symlinks=False):
                    stack.append(prefix + entry.name + "/")
                elif entry.is_file():
                    found.append(prefix + entry.name)
            except OSError:  # a symlink loop, say: not a file
                pass
    rows: list[FileStats] = []
    for rel in sorted(found):
        # A name's bytes that are not UTF-8 are written as escapes, so the
        # report stays valid UTF-8; a backslash is doubled first, so that
        # no name reads as another's escape.
        name = os.fsencode(rel).replace(b"\\", b"\\\\").decode("utf-8", "backslashreplace")
        try:
            text = (root / rel).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            rows.append(FileStats(name, 0, 0, {}, error=str(exc)))
            continue
        rows.append(file_stats(name, text, lex, config))

    total_words = sum(r.word_tokens for r in rows)
    total_clean = sum(r.clean_words for r in rows)
    per_rule: Counter[str] = Counter()
    for r in rows:
        per_rule.update(r.diagnostics_per_rule)
    ratio = total_clean / total_words if total_words else 1.0
    return CorpusReport(
        files=len(rows),
        word_tokens=total_words,
        clean_words=total_clean,
        clean_word_ratio=ratio,
        diagnostics_per_rule=dict(per_rule),
        per_file=tuple(rows),
    )


def report_to_json(report: CorpusReport) -> str:
    # vars, not dataclasses.asdict, which deep-copies every row.
    doc = {**vars(report), "per_file": [vars(r) for r in report.per_file]}
    return json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=2) + "\n"
