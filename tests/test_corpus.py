from __future__ import annotations

import json
import os
import random
import sys
import time

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from gen import HOSTILE_SIZE, lexicon_word_pool, random_text, wide_text
from nota.corpus import collect_stats, file_stats, report_to_json
from nota.pipeline import _lint
from nota.tokenize import TokenKind


def test_empty_directory(lex, config, tmp_path):
    report = collect_stats(tmp_path, lex, config)
    assert report.files == 0
    assert report.word_tokens == 0
    assert report.clean_word_ratio == 1.0
    assert report.diagnostics_per_rule == {}


def test_duplicate_golden_counts(lex, config, tmp_path):
    for name in ("a.txt", "b.txt"):
        (tmp_path / name).write_text("باش نمشي", encoding="utf-8")
    report = collect_stats(tmp_path, lex, config)
    assert report.diagnostics_per_rule == {"R-FUT": 2}
    assert report.files == 2
    assert report.word_tokens == 4
    assert report.clean_words == 2


def test_totals_equal_per_file_sums(lex, config, tmp_path):
    texts = [
        "اَلدار والدار",
        "بش نمشي",
        "abc 123",
    ]
    for i, text in enumerate(texts):
        (tmp_path / f"f{i}.txt").write_text(text, encoding="utf-8")
    report = collect_stats(tmp_path, lex, config)
    assert report.word_tokens == sum(r.word_tokens for r in report.per_file)
    assert report.clean_words == sum(r.clean_words for r in report.per_file)
    merged: dict[str, int] = {}
    for r in report.per_file:
        for rule, n in r.diagnostics_per_rule.items():
            merged[rule] = merged.get(rule, 0) + n
    assert merged == report.diagnostics_per_rule


def test_malformed_file_reported_not_fatal(lex, config, tmp_path):
    (tmp_path / "good.txt").write_text("بش", encoding="utf-8")
    (tmp_path / "bad.txt").write_bytes(b"\xff\xfe\xff")
    report = collect_stats(tmp_path, lex, config)
    assert report.files == 2
    rows = {r.file: r for r in report.per_file}
    assert rows["bad.txt"].error is not None
    assert rows["good.txt"].error is None


def test_report_json_sorted_and_stable(lex, config, tmp_path):
    (tmp_path / "a.txt").write_text("باش نمشي", encoding="utf-8")
    one = report_to_json(collect_stats(tmp_path, lex, config))
    two = report_to_json(collect_stats(tmp_path, lex, config))
    assert one == two
    doc = json.loads(one)
    assert list(doc) == sorted(doc)


def test_deep_tree_is_walked_without_recursion(lex, config, tmp_path):
    depth = sys.getrecursionlimit() + 100
    # Built and removed one level at a time: Path.mkdir(parents=True) and
    # shutil.rmtree recurse too.
    dirs = [str(tmp_path / "deep")]
    dirs += (dirs[0] + "/d" * k for k in range(1, depth + 1))
    leaf = dirs[-1] + "/a.txt"
    for d in dirs:
        os.mkdir(d)
    try:
        with open(leaf, "w", encoding="utf-8") as f:
            f.write("باش نمشي")
        report = collect_stats(tmp_path, lex, config)
        assert [r.file for r in report.per_file] == ["deep/" + "d/" * depth + "a.txt"]
        assert report.per_file[0].diagnostics_per_rule == {"R-FUT": 1}
    finally:
        if os.path.exists(leaf):
            os.remove(leaf)
        for d in reversed(dirs):
            os.rmdir(d)


def test_tree_longer_than_path_max_is_walked(lex, config, tmp_path):
    # 21 levels of 200-letter names: the deepest directory's path is
    # longer than Linux's PATH_MAX of 4096 bytes, so it is built, filled
    # and removed by directory descriptors.
    name, depth = "d" * 200, 4096 // 200 + 1
    fds = [os.open(tmp_path, os.O_RDONLY | os.O_DIRECTORY)]
    try:
        for _ in range(depth):
            os.mkdir(name, dir_fd=fds[-1])
            fds.append(os.open(name, os.O_RDONLY | os.O_DIRECTORY, dir_fd=fds[-1]))
        for fd in (fds[0], fds[-1]):
            f = os.open("a.txt", os.O_WRONLY | os.O_CREAT, dir_fd=fd)
            os.write(f, "باش نمشي".encode("utf-8"))
            os.close(f)
        report = collect_stats(tmp_path, lex, config)
        assert report.files == 2
        assert [r.file for r in report.per_file] == ["a.txt", (name + "/") * depth + "a.txt"]
        assert [r.diagnostics_per_rule for r in report.per_file] == [{"R-FUT": 1}] * 2
    finally:
        for i in range(len(fds) - 1, 0, -1):
            if i == len(fds) - 1 and "a.txt" in os.listdir(fds[i]):
                os.unlink("a.txt", dir_fd=fds[i])
            os.close(fds[i])
            os.rmdir(name, dir_fd=fds[i - 1])
        os.close(fds[0])


def test_escaped_name_differs_from_a_literal_backslash(lex, config, tmp_path):
    try:
        with open(os.path.join(os.fsencode(tmp_path), b"\xff.txt"), "wb") as f:
            f.write("بش".encode("utf-8"))
    except OSError:
        pytest.skip("the file system refuses a name that is not UTF-8")
    (tmp_path / "\\xff.txt").write_text("بش", encoding="utf-8")
    report = collect_stats(tmp_path, lex, config)
    # The literal backslash is doubled; the byte 0xFF is escaped.
    assert [r.file for r in report.per_file] == ["\\\\xff.txt", "\\xff.txt"]


def test_clean_word_counting(lex, config):
    row = file_stats("x", "باش نمشي", lex, config)
    assert row.word_tokens == 2
    assert row.clean_words == 1  # باش is flagged, نمشي is clean


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), wide=wide_text)
def test_clean_words_match_the_pairwise_count(lex, config, seed, wide):
    rng = random.Random(seed)
    pool = lexicon_word_pool(lex)
    text = "\n".join([random_text(rng, pool), wide, random_text(rng, pool)])
    _, tokens, diagnostics = _lint(text, lex, config)
    words = [t for t in tokens if t.kind is TokenKind.WORD]
    expected = sum(
        1 for w in words if not any(d.start < w.end and d.end > w.start for d in diagnostics)
    )
    assert file_stats("x", text, lex, config).clean_words == expected


def test_clean_words_linear_on_hostile_sizes(lex, config):
    n = HOSTILE_SIZE // len("كتابٌ ")
    start = time.perf_counter()
    row = file_stats("x", "كتابٌ " * n, lex, config)
    assert time.perf_counter() - start < 5.0
    assert (row.word_tokens, row.clean_words) == (n, 0)
