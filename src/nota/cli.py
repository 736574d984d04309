"""Command line interface.

Subcommands: ``normalize`` (check or fix), ``stats``, ``lexicon
validate``, ``translit``, ``romanize``.  Exit codes follow lint
conventions: 0 clean, 1 diagnostics found or fixes applied, 2 usage,
IO, config or lexicon errors; ``--strict`` makes a check fail on
info-level findings too.  ``-`` reads standard input.

Only the lint core is imported at module level; each other subcommand
imports its own modules, so that ``normalize`` starts without them.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Callable

from .config import Config, ConfigError, DEFAULT_CONFIG, _display_name, load_config
from .lexicon import (
    Lexicon,
    LexiconError,
    default_lexicon,
    resolve_lexicon_paths,
)
from .pipeline import Mode, PassCapExceededError, normalize
from .rules import Severity


class CliError(Exception):
    pass


class _OutputError(Exception):
    """Standard output could not be written: the reader went away, or the
    device is full."""


def _write(text: str) -> None:
    """Write to standard output; what stops it, text its encoding cannot
    hold too, raises ``_OutputError``.  Python sets ``sys.stdout`` to None
    when it starts with the descriptor closed."""
    if sys.stdout is None:
        raise _OutputError("standard output is closed")
    try:
        sys.stdout.write(text)
    except (OSError, UnicodeEncodeError) as exc:
        raise _OutputError(exc) from exc


def _flush() -> None:
    """Flush standard output, if open; what stops it raises ``_OutputError``."""
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        raise _OutputError(exc) from exc


def _error(message: str) -> int:
    """Report ``message`` as one error line on standard error and return 2.
    A closed or full standard error loses the line, not the exit code:
    Python writes standard error unbuffered, so its final flush at exit
    finds nothing left to write there."""
    try:
        if sys.stderr is not None:  # None: started with the descriptor closed
            print(f"nota: error: {message}", file=sys.stderr, flush=True)
    except (OSError, ValueError):
        pass
    return 2


class _Parser(argparse.ArgumentParser):
    """Prints help through ``_write``, flushed before argparse exits, so that
    a failed write is reported as any other; usage errors go to stderr."""

    def print_help(self, file: None = None) -> None:
        _write(self.format_help())
        _flush()


def _read_input(name: str) -> tuple[str, str]:
    """Read a file, or standard input for ``-``, as strict UTF-8."""
    display = "<stdin>" if name == "-" else _display_name(name)
    if name == "-" and sys.stdin is None:  # started with the descriptor closed
        raise CliError("cannot read <stdin>: standard input is closed")
    try:
        data = sys.stdin.buffer.read() if name == "-" else Path(name).read_bytes()
        return display, data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {display}: {exc}") from exc


def _load_config(args: argparse.Namespace) -> Config:
    return load_config(args.config) if args.config else DEFAULT_CONFIG


def _load_setup(args: argparse.Namespace) -> tuple[Lexicon, Config]:
    config = _load_config(args)
    overrides = dict(config.lexicon_paths)
    if args.lexicon:
        overrides.update(resolve_lexicon_paths([Path(p) for p in args.lexicon]))
    lex = default_lexicon(overrides=overrides or None, variant_map=config.variant_map)
    return lex, config


def _dump_json(obj: object) -> str:
    import json

    return json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


# --- normalize -------------------------------------------------------------


def _cmd_normalize(args: argparse.Namespace) -> int:
    lex, config = _load_setup(args)
    mode = Mode.FIX if args.fix else Mode.CHECK

    # Read every input first, so an unreadable file stops the run before
    # any output is written.
    inputs = [_read_input(name) for name in args.files or ["-"]]
    # A fix fails when it changes the text, a check on an Error or a
    # Warning, or with --strict on any finding.
    failed = False
    json_rows: list[dict[str, object]] = []

    for display, text in inputs:
        result = normalize(text, lex, config, mode)
        if mode is Mode.FIX:
            failed = failed or result.output != text
            _write(result.output)
            continue
        failed = failed or any(
            args.strict or d.severity is not Severity.INFO for d in result.diagnostics
        )
        for d in result.diagnostics:
            if args.format == "json":
                json_rows.append(
                    {
                        "file": display,
                        "rule": d.rule,
                        "severity": d.severity.name.lower(),
                        "start": d.start,
                        "end": d.end,
                        "message": d.message,
                        "replacement": d.replacement,
                    }
                )
            else:
                suffix = f" -> {d.replacement}" if d.replacement else ""
                _write(
                    f"{display}:{d.start}-{d.end}: {d.severity.name.lower()}"
                    f" {d.rule}: {d.message}{suffix}\n"
                )

    if mode is Mode.CHECK and args.format == "json":
        _write(_dump_json(json_rows))
    return 1 if failed else 0


# --- stats -----------------------------------------------------------------


def _cmd_stats(args: argparse.Namespace) -> int:
    from .corpus import collect_stats, report_to_json

    lex, config = _load_setup(args)
    try:
        report = collect_stats(Path(args.directory), lex, config)
    except OSError as exc:  # not a directory, or one moved away mid-walk
        raise CliError(str(exc)) from exc
    payload = report_to_json(report)
    if args.out == "-":
        _write(payload)
        return 0
    try:
        Path(args.out).write_text(payload, encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write {args.out}: {exc}") from exc
    return 0


# --- lexicon validate --------------------------------------------------------


def _cmd_lexicon_validate(args: argparse.Namespace) -> int:
    overrides = resolve_lexicon_paths([Path(p) for p in args.paths]) if args.paths else None
    lex = default_lexicon(overrides=overrides)
    _write(
        f"ok: {len(lex.verbs)} verbs, {len(lex.prepositions)} prepositions,"
        f" {len(lex.known_words)} known words, {len(lex.variant_map)} letter variants,"
        f" {len(lex.gaf_words)} listed /g/ words\n"
    )
    return 0


# --- translit / romanize -----------------------------------------------------


def _per_line(
    args: argparse.Namespace, convert: Callable[[str], str], error: type[Exception]
) -> int:
    """Write ``convert`` of each stripped input line; a blank line stays blank."""
    _, text = _read_input(args.file)
    out: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        word = line.strip()
        try:
            out.append(convert(word) if word else "")
        except error as exc:
            raise CliError(f"line {lineno}: {exc}") from exc
    _write("".join(w + "\n" for w in out))
    return 0


def _cmd_translit(args: argparse.Namespace) -> int:
    from .translit import TranslitError, transliterate_line

    similarity = _load_config(args).vowel_similarity
    return _per_line(
        args,
        lambda line: transliterate_line(line, diacritized=args.diacritics, similarity=similarity),
        TranslitError,
    )


def _cmd_romanize(args: argparse.Namespace) -> int:
    from .romanize import RomanizeError, romanize
    from .script import VOWEL_MARKS

    def convert(word: str) -> str:
        mode = args.mode
        if mode == "auto":
            mode = "diacritized" if any(m in word for m in VOWEL_MARKS) else "bare"
        return romanize(word, mode)

    return _per_line(args, convert, RomanizeError)


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nota",
        description="Normalize, lint and fix Tunisian Arabic text (NOTA orthography).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_setup_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file")
        p.add_argument(
            "--lexicon",
            action="append",
            metavar="PATH",
            help="lexicon TSV file or directory (repeatable; overrides defaults)",
        )

    p = sub.add_parser("normalize", help="check or fix text against the orthography rules")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--check", action="store_true", help="report diagnostics (default)")
    group.add_argument("--fix", action="store_true", help="write fixed text to stdout")
    group.add_argument(
        "--strict", action="store_true", help="like --check, but info-level findings also fail"
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    add_setup_options(p)
    p.add_argument("files", nargs="*", help="input files, or - for stdin (default)")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("stats", help="lint a corpus directory into a JSON report")
    p.add_argument("directory")
    p.add_argument("--out", default="-", metavar="PATH", help="report path (default stdout)")
    add_setup_options(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("lexicon", help="lexicon resource tools")
    lex_sub = p.add_subparsers(dest="lexicon_command", required=True)
    v = lex_sub.add_parser("validate", help="load and validate lexicon files")
    v.add_argument("paths", nargs="*", help="TSV files or directories (default: shipped data)")
    v.set_defaults(func=_cmd_lexicon_validate)

    p = sub.add_parser("translit", help="transliterate phonemic loanword lines")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--diacritics", action="store_true", help="emit vowel diacritics")
    p.add_argument("--config", help="JSON config file")
    p.set_defaults(func=_cmd_translit)

    p = sub.add_parser("romanize", help="phonemic Latin transcription, one word per line")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--mode", choices=("auto", "diacritized", "bare"), default="auto")
    p.set_defaults(func=_cmd_romanize)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        _flush()
        return code
    except (CliError, ConfigError, LexiconError, PassCapExceededError) as exc:
        return _error(str(exc))
    except _OutputError as exc:
        # Point stdout at devnull, so that the interpreter's final flush of
        # what is still buffered stays quiet.
        if sys.stdout is not None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _error(f"cannot write output: {exc}")


if __name__ == "__main__":
    sys.exit(main())
