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
from functools import partial
from operator import itemgetter
from pathlib import Path
from typing import Iterator

from .config import Config, DEFAULT_CONFIG, _display_name
from .lexicon import Lexicon
from .pipeline import _lint, validate_setup

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
    # Each word starts where the gap before it ends; the last gap has no
    # word after it.  A word is dirty when it holds a finding's start:
    # every finding lies inside one word (see ``nota.rules``).
    starts = tokens.ends[:-1:2]
    dirty = {bisect_right(starts, d.start) for d in diagnostics}
    return FileStats(
        file=name,
        word_tokens=len(starts),
        clean_words=len(starts) - len(dirty),
        diagnostics_per_rule=dict(Counter(d.rule for d in diagnostics)),
    )


_DIR_FLAGS = os.O_RDONLY | os.O_DIRECTORY


def _listing(fd: int) -> tuple[list[str], list[str]]:
    """The names of the subdirectories and of the files in the directory
    open as ``fd``; none if it cannot be listed.  Symlinked files count,
    symlinked directories do not."""
    subdirs: list[str] = []
    files: list[str] = []
    try:
        with os.scandir(fd) as it:
            entries = list(it)
    except OSError:
        return subdirs, files
    for entry in entries:
        try:
            if entry.is_dir(follow_symlinks=False):
                subdirs.append(entry.name)
            elif entry.is_file():
                files.append(entry.name)
        except OSError:  # a symlink loop, say: not a file
            pass
    return subdirs, files


def _walk(root: Path) -> Iterator[tuple[str, int, str]]:
    """``(rel, dir_fd, name)`` for each file under ``root``: its POSIX path
    relative to root, a descriptor of its directory, open until the next
    item, and its name there.

    Each directory is opened by its name from its parent's descriptor, so
    no path length stops the walk, and by an explicit stack, since
    Path.rglob, os.walk and os.fwalk recurse (os.fwalk also holds a
    descriptor per level).  Unlistable directories are skipped.  A
    directory moved away while the walk is inside it raises OSError.
    """
    try:
        fd = os.open(root, _DIR_FLAGS)
    except OSError:
        return
    subdirs, files = _listing(fd)
    # The directories from root down to the one being walked, each as
    # [prefix, subdirectories not yet entered, descriptor].  Only the
    # deepest two keep their descriptor, so a deep tree does not use up
    # descriptors; one given up is opened again by ".." from its child,
    # which allows that lookup, as it let a child of its own be opened.
    path: list[list] = [["", subdirs, fd]]
    try:
        for name in files:
            yield name, fd, name
        while path:
            prefix, subdirs, fd = path[-1]
            if not subdirs:
                if len(path) > 1 and path[-2][2] is None:
                    path[-2][2] = os.open("..", _DIR_FLAGS, dir_fd=fd)
                path.pop()
                os.close(fd)
                continue
            name = subdirs.pop()
            try:
                child = os.open(name, _DIR_FLAGS | os.O_NOFOLLOW, dir_fd=fd)
            except OSError:
                continue
            if len(path) > 1 and path[-2][2] is not None:
                os.close(path[-2][2])
                path[-2][2] = None
            prefix += name + "/"
            subdirs, files = _listing(child)
            path.append([prefix, subdirs, child])
            for name in files:
                yield prefix + name, child, name
    finally:
        for _, _, fd in path:
            if fd is not None:
                os.close(fd)


def collect_stats(root: Path, lex: Lexicon, config: Config = DEFAULT_CONFIG) -> CorpusReport:
    validate_setup(lex, config)
    root = Path(root)
    if not root.is_dir():
        raise NotADirectoryError(f"not a directory: {root}")
    found: list[tuple[str, FileStats]] = []
    for rel, dir_fd, file_name in _walk(root):
        name = _display_name(rel)
        try:
            with open(file_name, encoding="utf-8", opener=partial(os.open, dir_fd=dir_fd)) as f:
                text = f.read()
        except (OSError, UnicodeDecodeError) as exc:
            if isinstance(exc, OSError):
                exc.filename = str(root / rel)  # the whole path, not one name
            found.append((rel, FileStats(name, 0, 0, {}, error=str(exc))))
            continue
        found.append((rel, file_stats(name, text, lex, config)))
    found.sort(key=itemgetter(0))
    rows = [row for _, row in found]

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
