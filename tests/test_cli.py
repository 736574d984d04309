from __future__ import annotations

import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_stats_escapes_a_non_utf8_file_name(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    try:
        (corpus / os.fsdecode(b"\xff.txt")).write_text(CLEAN, encoding="utf-8")
    except (OSError, UnicodeError):
        pytest.skip("the file system refuses a name that is not UTF-8")
    out_path = tmp_path / "report.json"
    code, _, err = run(capsys, "stats", str(corpus), "--out", str(out_path))
    assert (code, err) == (0, "")
    doc = json.loads(out_path.read_bytes().decode("utf-8"))
    assert [row["file"] for row in doc["per_file"]] == ["\\xff.txt"]


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


class _FailingStdout:
    """A stdout whose every write raises ``error``, over a file the test owns."""

    def __init__(self, fd: int, error: OSError):
        self._fd = fd
        self._error = error

    def write(self, text: str) -> int:
        raise self._error

    def flush(self) -> None:
        pass

    def fileno(self) -> int:
        return self._fd


@pytest.mark.parametrize("error", [
    BrokenPipeError(errno.EPIPE, "Broken pipe"),  # the reader went away
    OSError(errno.ENOSPC, "No space left on device"),
], ids=["EPIPE", "ENOSPC"])
@pytest.mark.parametrize("flag", ["--check", "--fix"])
def test_broken_pipe_exits_2_without_traceback(tmp_path, monkeypatch, capsys, error, flag):
    src = tmp_path / "in.txt"
    src.write_text(DIRTY, encoding="utf-8")
    with open(tmp_path / "sink", "wb") as sink:
        monkeypatch.setattr(sys, "stdout", _FailingStdout(sink.fileno(), error))
        code = main(["normalize", flag, str(src)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("nota: error: cannot write output: ") and err.count("\n") == 1


def _file(path, data: bytes):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return str(path)


def _no_prepositions(tmp):
    return _file(tmp / "lex" / "prepositions.tsv", b"# none\n")


def _no_role_files(tmp):
    """A directory holding a lexicon file under a name that is no ``<role>.tsv``."""
    _file(tmp / "lex" / "verbs.txt", "مشى\tيمشي\t0\tتمشي\n".encode())
    return str(tmp / "lex")


def _empty_dir(tmp):
    (tmp / "empty").mkdir()
    return str(tmp / "empty")


def _corpus(tmp):
    _file(tmp / "corpus" / "a.txt", CLEAN.encode())
    return str(tmp / "corpus")


# One row per failure class: (stdin bytes, argv built under tmp_path).
FAILURES = {
    "missing --lexicon file": (None, lambda tmp: [
        "normalize", "--lexicon", str(tmp / "missing" / "verbs.tsv"),
        _file(tmp / "in.txt", CLEAN.encode()),
    ]),
    "missing --lexicon directory": (b"", lambda tmp: [
        "normalize", "--lexicon", str(tmp / "no_such_dir"), "-",
    ]),
    "non-UTF-8 --lexicon file": (None, lambda tmp: [
        "normalize", "--lexicon", _file(tmp / "verbs.tsv", b"\xff\xfe\n"),
        _file(tmp / "in.txt", CLEAN.encode()),
    ]),
    "missing lexicon path in --config": (None, lambda tmp: [
        "normalize", "--config", _file(tmp / "cfg.json", b'{"lexicon": {"verbs": "nope.tsv"}}'),
        _file(tmp / "in.txt", CLEAN.encode()),
    ]),
    "--lexicon directory with no lexicon files": (None, lambda tmp: [
        "normalize", "--lexicon", _no_role_files(tmp), _file(tmp / "in.txt", CLEAN.encode()),
    ]),
    "lexicon validate a directory with no lexicon files": (None, lambda tmp: [
        "lexicon", "validate", _no_role_files(tmp),
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
    "R-SEP without prepositions, stats of an empty directory": (None, lambda tmp: [
        "stats", _empty_dir(tmp), "--lexicon", _no_prepositions(tmp),
    ]),
    "unwritable --out": (None, lambda tmp: [
        "stats", _corpus(tmp), "--out", str(tmp / "no" / "such" / "dir" / "r.json"),
    ]),
    "config variant_map onto a non-پ/ڤ/ڨ letter": (None, lambda tmp: [
        "normalize", "--fix",
        "--config", _file(tmp / "cfg.json", '{"tables": {"variant_map": {"ا": "ب"}}}'.encode()),
        _file(tmp / "in.txt", "باش الدار".encode()),
    ]),
    "config variant_map from a پ/ڤ/ڨ letter": (None, lambda tmp: [
        "normalize",
        "--config", _file(tmp / "cfg.json", '{"tables": {"variant_map": {"ڨ": "ڨ"}}}'.encode()),
        _file(tmp / "in.txt", "ڨاوري".encode()),
    ]),
    "lexicon validate a پ/ڤ/ڨ variant letter": (None, lambda tmp: [
        "lexicon", "validate", _file(tmp / "variant_map.tsv", "ڤ\tڨ\nڨ\tڤ\n".encode()),
    ]),
    "lexicon validate a mark as a variant letter": (None, lambda tmp: [
        "lexicon", "validate", _file(tmp / "variant_map.tsv", "\u064e\tڨ\n".encode()),
    ]),
    **{
        f"config fused_prepositions {table}": (None, lambda tmp, table=table: [
            "normalize", "--fix",
            "--config", _file(tmp / "cfg.json", json.dumps({"tables": {"fused_prepositions": table}}).encode()),
            _file(tmp / "in.txt", "فالدار".encode()),
        ])
        for table in ({"فال": "فال"}, {"فال": "x"}, {"فَال": "في ال"})
    },
    **{
        f"config {doc}": (None, lambda tmp, doc=doc: [
            "normalize", "--config", _file(tmp / "cfg.json", doc.encode()),
            _file(tmp / "in.txt", CLEAN.encode()),
        ])
        for doc in (
            '{"rules": ["R-SEP"]}',
            '{"rules": null}',
            '{"lexicon": ["verbs"]}',
            '{"lexicon": {"verbs": "a\\u0000b"}}',
            '{"pipeline": ["max_passes"]}',
            '{"pipeline": {"max_passes": true}}',
        )
    },
    **{
        f"config {name}": (None, lambda tmp, doc=doc: [
            "normalize", "--config", _file(tmp / "cfg.json", doc), _file(tmp / "in.txt", CLEAN.encode()),
        ])
        for name, doc in (
            ("not UTF-8", b"\xff\xfe{}"),
            ("nested past the recursion limit", b"[" * 100_000),
        )
    },
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


# --- fresh processes -----------------------------------------------------------
#
# The CLI and nota/__init__.py import a subcommand's modules only when it
# runs.  The tests above cannot see such an import gone missing or
# misplaced, since by then this process has imported everything; these
# start a new interpreter.

SRC = Path(__file__).resolve().parent.parent / "src"
# What neither `import nota` nor `import nota.cli` may load.
SUBCOMMAND_ONLY = ("nota.corpus", "nota.romanize", "nota.translit", "nota.graphemes", "json")


def _python(*args: str, cwd=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=cwd,
        capture_output=True, text=True, encoding="utf-8", timeout=60,
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["normalize", "--check", "{src}"],
    ["normalize", "--fix", "{src}"],
    ["--help"],
    ["normalize", "-h"],
], ids=["--check", "--fix", "--help", "normalize -h"])
def test_full_device_exits_2_with_one_error_line(tmp_path, argv, unbuffered):
    """A fresh process, so that the interpreter's own final flush is seen too;
    buffered, the write fails at the flush, unbuffered at the write."""
    src = tmp_path / "in.txt"
    src.write_text(DIRTY, encoding="utf-8")
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "nota.cli", *(a.format(src=src) for a in argv)],
            env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONUNBUFFERED": unbuffered},
            stdout=full, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    assert done.returncode == 2
    assert done.stderr.startswith("nota: error: cannot write output: ")
    assert done.stderr.count("\n") == 1


@pytest.mark.skipif(os.name != "posix", reason="closes a descriptor between fork and exec")
@pytest.mark.parametrize("fd, argv, error", [
    (1, ["normalize", "--check", "{src}"], "cannot write output: "),
    (1, ["normalize", "--fix", "{src}"], "cannot write output: "),
    (1, ["--help"], "cannot write output: "),
    (0, ["normalize", "-"], "cannot read <stdin>: "),
    (0, ["romanize"], "cannot read <stdin>: "),
    (0, ["translit"], "cannot read <stdin>: "),
], ids=["stdout --check", "stdout --fix", "stdout --help", "stdin normalize", "stdin romanize", "stdin translit"])
def test_closed_stream_exits_2_with_one_error_line(tmp_path, fd, argv, error):
    """A fresh process started with standard input or output closed, which
    Python then sets to None."""
    src = tmp_path / "in.txt"
    src.write_text(DIRTY, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "nota.cli", *(a.format(src=src) for a in argv)],
        env={**os.environ, "PYTHONPATH": str(SRC)}, preexec_fn=lambda: os.close(fd),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stderr.startswith("nota: error: " + error)
    assert done.stderr.count("\n") == 1


_NO_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")


@pytest.mark.skipif(os.name != "posix", reason="closes a descriptor between fork and exec")
@pytest.mark.parametrize("stderr", ["closed", pytest.param("full", marks=_NO_DEV_FULL)])
@pytest.mark.parametrize("argv, encoding", [
    (["normalize", "{missing}"], "utf-8"),
    (["normalize", "--fix", "{src}"], "ascii"),
], ids=["unreadable input", "output the encoding cannot hold"])
def test_closed_or_full_stderr_exits_2(tmp_path, stderr, argv, encoding):
    """A fresh process whose error line cannot be written, with standard
    error closed or on a full device: the exit code stays 2, also past the
    interpreter's final flush, and nothing reaches standard output."""
    src = tmp_path / "in.txt"
    src.write_text(DIRTY, encoding="utf-8")
    argv = [a.format(src=src, missing=tmp_path / "missing.txt") for a in argv]
    with open(os.devnull if stderr == "closed" else "/dev/full", "w") as sink:
        done = subprocess.run(
            [sys.executable, "-m", "nota.cli", *argv],
            env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONIOENCODING": encoding},
            stdout=subprocess.PIPE, stderr=sink, text=True, timeout=60,
            preexec_fn=(lambda: os.close(2)) if stderr == "closed" else None,
        )
    assert (done.returncode, done.stdout) == (2, "")


@pytest.mark.parametrize("argv", [
    ["normalize", "--fix", "-"],
    ["normalize", "--check", "-"],
], ids=["--fix", "--check"])
def test_output_the_encoding_cannot_hold_exits_2_with_one_error_line(argv):
    """A fresh process whose standard output is ASCII: the fixed text, or
    the report that quotes it, cannot be encoded."""
    done = subprocess.run(
        [sys.executable, "-m", "nota.cli", *argv], input=DIRTY.encode("utf-8"),
        env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONIOENCODING": "ascii"},
        capture_output=True, timeout=60,
    )
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr.startswith(b"nota: error: cannot write output: ")
    assert done.stderr.count(b"\n") == 1


@pytest.mark.parametrize("fmt, shown", [
    ("text", "\\xff\\\\.txt:0-3: "),
    ("json", '"\\\\xff\\\\\\\\.txt"'),
], ids=["text", "json"])
def test_file_name_not_utf8_is_escaped_on_strict_stdout(tmp_path, fmt, shown):
    """A name's bytes that are not UTF-8 reach ``sys.argv`` as lone
    surrogates, which a strict UTF-8 stdout, as a UTF-8 locale gives,
    cannot encode; the name is shown with escapes, as ``stats`` shows it."""
    name = b"\xff\\.txt"
    try:
        (tmp_path / os.fsdecode(name)).write_text(DIRTY, encoding="utf-8")
    except (OSError, UnicodeEncodeError):
        pytest.skip("the filesystem refuses a name that is not UTF-8")
    done = subprocess.run(
        [sys.executable, "-m", "nota.cli", "normalize", "--format", fmt, name],
        env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONIOENCODING": "utf-8:strict"},
        cwd=tmp_path, capture_output=True, text=True, encoding="utf-8", timeout=60,
    )
    assert (done.returncode, done.stderr) == (1, "")
    assert shown in done.stdout


@pytest.mark.parametrize("module", ["nota", "nota.cli"])
def test_import_loads_no_subcommand_module(module):
    proc = _python("-c", f"import sys, {module}; print(*sorted(sys.modules))")
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert module in loaded
    assert [name for name in SUBCOMMAND_ONLY if name in loaded] == []


def test_import_nota_loads_the_stats_reporter_on_first_use():
    proc = _python("-c", (
        "import sys, nota\n"
        "assert 'nota.corpus' not in sys.modules\n"
        "from nota import collect_stats\n"
        "assert collect_stats is sys.modules['nota.corpus'].collect_stats\n"
        "assert nota.report_to_json is sys.modules['nota.corpus'].report_to_json\n"
        "nota.normalize\n"
    ))
    assert (proc.returncode, proc.stderr) == (0, "")


# One row per subcommand path: (argv built under tmp_path, exit code, what
# stdout starts with, what stderr starts with).
FRESH = {
    "stats DIR": (lambda tmp: ["stats", _corpus(tmp)], 0, (
        '{\n  "clean_word_ratio": 1.0,\n  "clean_words": 1,\n  "diagnostics_per_rule": {},\n'
    ), ""),
    "translit": (lambda tmp: ["translit", _file(tmp / "w.txt", b"f r i k . s a j\n")],
                 0, "فريكساي\n", ""),
    "romanize": (lambda tmp: ["romanize", _file(tmp / "w.txt", "ڨ\nبَاش\n".encode())],
                 0, "g\nbaːʃ\n", ""),
    "lexicon validate": (lambda tmp: ["lexicon", "validate"], 0, "ok: ", ""),
    "normalize --format json": (lambda tmp: [
        "normalize", "--format", "json", _file(tmp / "in.txt", DIRTY.encode()),
    ], 1, '[\n  {\n    "end": ', ""),
    "normalize --config BAD.json": (lambda tmp: [
        "normalize", "--config", _file(tmp / "cfg.json", b"{"), _file(tmp / "in.txt", CLEAN.encode()),
    ], 2, "", "nota: error: invalid JSON in "),
}


@pytest.mark.parametrize("case", FRESH)
def test_subcommand_in_a_fresh_process(case, tmp_path, capsys):
    build_argv, code, out_start, err_start = FRESH[case]
    argv = build_argv(tmp_path)
    proc = _python("-m", "nota.cli", *argv, cwd=tmp_path)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.startswith(out_start)
    assert proc.stderr.startswith(err_start) and proc.stderr.count("\n") == (1 if err_start else 0)
    # The same bytes as a run in this process, where everything is loaded.
    assert (main(argv), *capsys.readouterr()) == (proc.returncode, proc.stdout, proc.stderr)
