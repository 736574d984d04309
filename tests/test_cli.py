from __future__ import annotations

import io
import json
import sys

import pytest

from nota.cli import main

DIRTY = "اَلدار"     # اَلدار
CLEAN = "الدار"           # الدار
INFO_ONLY = "ما كلموش"  # ما كلموش


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fix_writes_output_and_exits_1(tmp_path, capsys):
    path = tmp_path / "in.txt"
    path.write_text(DIRTY, encoding="utf-8")
    code, out, _ = run(capsys, "normalize", "--fix", str(path))
    assert out == CLEAN
    assert code == 1


def test_check_clean_file_silent_exit_0(tmp_path, capsys):
    path = tmp_path / "in.txt"
    path.write_text(CLEAN, encoding="utf-8")
    code, out, _ = run(capsys, "normalize", "--check", str(path))
    assert out == ""
    assert code == 0


def test_check_reports_diagnostics(tmp_path, capsys):
    path = tmp_path / "in.txt"
    path.write_text(DIRTY, encoding="utf-8")
    code, out, _ = run(capsys, "normalize", "--check", str(path))
    assert "R-ART" in out
    assert code == 1


def _stdin_bytes(monkeypatch, data: bytes) -> None:
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))


def test_stdin_dash(monkeypatch, capsys):
    _stdin_bytes(monkeypatch, DIRTY.encode("utf-8"))
    code, out, _ = run(capsys, "normalize", "--fix", "-")
    assert out == CLEAN
    assert code == 1


def test_strict_fails_on_info_check_does_not(tmp_path, capsys):
    path = tmp_path / "in.txt"
    path.write_text(INFO_ONLY, encoding="utf-8")
    code, _, _ = run(capsys, "normalize", "--check", str(path))
    assert code == 0
    code, _, _ = run(capsys, "normalize", "--strict", str(path))
    assert code == 1


def test_json_schema_and_stability(tmp_path, capsys):
    path = tmp_path / "in.txt"
    path.write_text(DIRTY, encoding="utf-8")
    code, out1, _ = run(capsys, "normalize", "--check", "--format", "json", str(path))
    assert code == 1
    _, out2, _ = run(capsys, "normalize", "--check", "--format", "json", str(path))
    assert out1 == out2
    rows = json.loads(out1)
    assert rows and set(rows[0]) == {
        "file", "rule", "severity", "start", "end", "message", "replacement",
    }
    assert rows[0]["rule"] == "R-ART"
    assert rows[0]["severity"] == "error"


def test_unreadable_file_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "normalize", "--check", str(tmp_path / "missing.txt"))
    assert code == 2
    assert "error" in err


def test_bad_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"bogus": 1}', encoding="utf-8")
    src = tmp_path / "in.txt"
    src.write_text(CLEAN, encoding="utf-8")
    code, _, err = run(capsys, "normalize", "--check", "--config", str(cfg), str(src))
    assert code == 2
    assert "bogus" in err


def test_config_disables_rule(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"rules": {"R-ART": false}}', encoding="utf-8")
    src = tmp_path / "in.txt"
    src.write_text(DIRTY, encoding="utf-8")
    code, out, _ = run(capsys, "normalize", "--check", "--config", str(cfg), str(src))
    assert code == 0
    assert out == ""


def test_stats_report(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.txt").write_text("باش نمشي", encoding="utf-8")
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "stats", str(corpus), "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["diagnostics_per_rule"] == {"R-FUT": 1}


def test_stats_missing_dir_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "stats", str(tmp_path / "nope"))
    assert code == 2
    assert "directory" in err


def test_lexicon_validate_default(capsys):
    code, out, _ = run(capsys, "lexicon", "validate")
    assert code == 0
    assert out.startswith("ok:")


def test_lexicon_validate_broken_file(tmp_path, capsys):
    bad = tmp_path / "verbs.tsv"
    bad.write_text("مشى\tيمشي\t0\n", encoding="utf-8")
    code, _, err = run(capsys, "lexicon", "validate", str(bad))
    assert code == 2
    assert "verbs" in err


def test_translit_command(tmp_path, capsys):
    src = tmp_path / "words.txt"
    src.write_text("f r i k . s a j\n", encoding="utf-8")
    code, out, _ = run(capsys, "translit", str(src))
    assert code == 0
    assert out == "فريكساي\n"


def test_translit_bad_phoneme_exit_2(tmp_path, capsys):
    src = tmp_path / "words.txt"
    src.write_text("b ʊ\n", encoding="utf-8")
    code, _, err = run(capsys, "translit", str(src))
    assert code == 2
    assert "line 1" in err


def test_romanize_command(tmp_path, capsys):
    src = tmp_path / "words.txt"
    src.write_text("ڨ\nبَاش\n", encoding="utf-8")
    code, out, _ = run(capsys, "romanize", str(src))
    assert code == 0
    assert out == "g\nbaːʃ\n"


def test_romanize_bad_word_exit_2(tmp_path, capsys):
    src = tmp_path / "words.txt"
    src.write_text("abc\n", encoding="utf-8")
    code, _, err = run(capsys, "romanize", str(src))
    assert code == 2
    assert "line 1" in err


def test_lexicon_override_flag(tmp_path, capsys):
    # A custom known-words file changes R-SEP behaviour.
    known = tmp_path / "known_words.tsv"
    known.write_text("سبس\n", encoding="utf-8")
    src = tmp_path / "in.txt"
    src.write_text("وسبس", encoding="utf-8")
    code, out, _ = run(capsys, "normalize", "--fix", "--lexicon", str(known), str(src))
    assert out == "و سبس"
    assert code == 1


def _file(path, data: bytes):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return str(path)


def _no_prepositions(tmp):
    return _file(tmp / "lex" / "prepositions.tsv", b"# none\n")


def _corpus(tmp):
    _file(tmp / "corpus" / "a.txt", CLEAN.encode())
    return str(tmp / "corpus")


# One row per failure class: (stdin bytes, argv built under tmp_path).
FAILURES = {
    "missing --lexicon file": (None, lambda tmp: [
        "normalize", "--lexicon", str(tmp / "missing" / "verbs.tsv"),
        _file(tmp / "in.txt", CLEAN.encode()),
    ]),
    "non-UTF-8 --lexicon file": (None, lambda tmp: [
        "normalize", "--lexicon", _file(tmp / "verbs.tsv", b"\xff\xfe\n"),
        _file(tmp / "in.txt", CLEAN.encode()),
    ]),
    "missing lexicon path in --config": (None, lambda tmp: [
        "normalize", "--config", _file(tmp / "cfg.json", b'{"lexicon": {"verbs": "nope.tsv"}}'),
        _file(tmp / "in.txt", CLEAN.encode()),
    ]),
    "lexicon validate non-UTF-8": (None, lambda tmp: [
        "lexicon", "validate", _file(tmp / "known_words.tsv", b"\xc3\x28\n"),
    ]),
    "R-SEP without prepositions, normalize": (None, lambda tmp: [
        "normalize", "--lexicon", _no_prepositions(tmp), _file(tmp / "in.txt", CLEAN.encode()),
    ]),
    "R-SEP without prepositions, stats": (None, lambda tmp: [
        "stats", _corpus(tmp), "--lexicon", _no_prepositions(tmp),
    ]),
    "unwritable --out": (None, lambda tmp: [
        "stats", _corpus(tmp), "--out", str(tmp / "no" / "such" / "dir" / "r.json"),
    ]),
    "invalid UTF-8 on stdin": (b"\xd8\xa8\xff\xfe", lambda tmp: ["normalize", "--fix", "-"]),
    "unreadable second file under --fix": (None, lambda tmp: [
        "normalize", "--fix", _file(tmp / "a.txt", DIRTY.encode()), str(tmp / "missing.txt"),
    ]),
}


@pytest.mark.parametrize("case", FAILURES)
def test_failure_exits_2_with_one_error_line(case, tmp_path, monkeypatch, capsys):
    stdin, build_argv = FAILURES[case]
    argv = build_argv(tmp_path)
    if stdin is not None:
        _stdin_bytes(monkeypatch, stdin)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("nota: error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert out == ""
