"""Command line interface.

Subcommands: ``normalize`` (check/fix/strict), ``stats``, ``lexicon
validate``, ``translit``, ``romanize``.  Exit codes follow lint
conventions: 0 clean, 1 diagnostics found or fixes applied, 2 usage,
IO, config or lexicon errors.  ``-`` reads standard input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import Config, ConfigError, DEFAULT_CONFIG, load_config
from .corpus import collect_stats, report_to_json
from .lexicon import (
    Lexicon,
    LexiconError,
    default_lexicon,
    resolve_lexicon_paths,
)
from .pipeline import Mode, PassCapExceededError, normalize
from .romanize import RomanizeError, romanize
from .rules import Severity
from .script import VOWEL_MARKS
from .translit import TranslitError, transliterate_line

_SEVERITY_NAMES = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
    Severity.INFO: "info",
}


class CliError(Exception):
    pass


def _read_input(name: str) -> tuple[str, str]:
    """Read a file, or standard input for ``-``, as strict UTF-8."""
    display = "<stdin>" if name == "-" else name
    try:
        data = sys.stdin.buffer.read() if name == "-" else Path(name).read_bytes()
        return display, data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {display}: {exc}") from exc


def _load_setup(args: argparse.Namespace) -> tuple[Lexicon, Config]:
    config = DEFAULT_CONFIG
    if getattr(args, "config", None):
        config = load_config(args.config)
    overrides = dict(config.lexicon_paths)
    if getattr(args, "lexicon", None):
        overrides.update(resolve_lexicon_paths([Path(p) for p in args.lexicon]))
    lex = default_lexicon(overrides=overrides or None, variant_map=config.variant_map)
    return lex, config


def _dump_json(obj: object) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


# --- normalize -------------------------------------------------------------


def _cmd_normalize(args: argparse.Namespace) -> int:
    lex, config = _load_setup(args)
    if args.fix:
        mode = Mode.FIX
    elif args.strict:
        mode = Mode.STRICT
    else:
        mode = Mode.CHECK

    # Read every input first, so an unreadable file stops the run before
    # any output is written.
    inputs = [_read_input(name) for name in args.files or ["-"]]
    any_changed = False
    any_hard = False  # Error/Warning
    any_diag = False
    json_rows: list[dict[str, object]] = []

    for display, text in inputs:
        result = normalize(text, lex, config, mode)
        any_diag = any_diag or bool(result.diagnostics)
        any_hard = any_hard or any(
            d.severity in (Severity.ERROR, Severity.WARNING) for d in result.diagnostics
        )
        if mode is Mode.FIX:
            any_changed = any_changed or result.output != text
            sys.stdout.write(result.output)
            continue
        for d in result.diagnostics:
            if args.format == "json":
                json_rows.append(
                    {
                        "file": display,
                        "rule": d.rule,
                        "severity": _SEVERITY_NAMES[d.severity],
                        "start": d.start,
                        "end": d.end,
                        "message": d.message,
                        "replacement": d.replacement,
                    }
                )
            else:
                suffix = f" -> {d.replacement}" if d.replacement else ""
                print(
                    f"{display}:{d.start}-{d.end}: {_SEVERITY_NAMES[d.severity]}"
                    f" {d.rule}: {d.message}{suffix}"
                )

    if mode is not Mode.FIX and args.format == "json":
        sys.stdout.write(_dump_json(json_rows))

    if mode is Mode.FIX:
        return 1 if any_changed else 0
    if mode is Mode.STRICT:
        return 1 if any_diag else 0
    return 1 if any_hard else 0


# --- stats -----------------------------------------------------------------


def _cmd_stats(args: argparse.Namespace) -> int:
    lex, config = _load_setup(args)
    try:
        report = collect_stats(Path(args.directory), lex, config)
    except NotADirectoryError as exc:
        raise CliError(str(exc)) from exc
    payload = report_to_json(report)
    if args.out == "-":
        sys.stdout.write(payload)
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
    print(
        f"ok: {len(lex.verbs)} verbs, {len(lex.prepositions)} prepositions,"
        f" {len(lex.known_words)} known words, {len(lex.variant_map)} letter variants,"
        f" {len(lex.gaf_words)} listed /g/ words"
    )
    return 0


# --- translit / romanize -----------------------------------------------------


def _cmd_translit(args: argparse.Namespace) -> int:
    lex, config = _load_setup(args)
    _, text = _read_input(args.file)
    out: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            out.append("")
            continue
        try:
            out.append(
                transliterate_line(
                    line,
                    diacritized=args.diacritics,
                    similarity=config.vowel_similarity,
                )
            )
        except TranslitError as exc:
            raise CliError(f"line {lineno}: {exc}") from exc
    sys.stdout.write("".join(w + "\n" for w in out))
    return 0


def _cmd_romanize(args: argparse.Namespace) -> int:
    _, text = _read_input(args.file)
    out: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        word = line.strip()
        if not word:
            out.append("")
            continue
        mode = args.mode
        if mode == "auto":
            mode = "diacritized" if any(m in word for m in VOWEL_MARKS) else "bare"
        try:
            out.append(romanize(word, mode))
        except RomanizeError as exc:
            raise CliError(f"line {lineno}: {exc}") from exc
    sys.stdout.write("".join(w + "\n" for w in out))
    return 0


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    add_setup_options(p)
    p.set_defaults(func=_cmd_translit)

    p = sub.add_parser("romanize", help="phonemic Latin transcription, one word per line")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--mode", choices=("auto", "diacritized", "bare"), default="auto")
    p.set_defaults(func=_cmd_romanize)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ConfigError, LexiconError, PassCapExceededError) as exc:
        print(f"nota: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
