"""The top-level API is what the README documents, and nothing more."""

from __future__ import annotations

import re
from pathlib import Path

import nota

PUBLIC = {
    "Config",
    "ConfigError",
    "Diagnostic",
    "FixEvent",
    "Lexicon",
    "LexiconError",
    "Mode",
    "PassCapExceededError",
    "RunResult",
    "Severity",
    "collect_stats",
    "default_lexicon",
    "load_config",
    "normalize",
    "report_to_json",
}

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_all_is_pinned():
    assert set(nota.__all__) == PUBLIC
    assert all(hasattr(nota, name) for name in PUBLIC)


def test_every_public_name_is_documented():
    missing = [name for name in sorted(PUBLIC) if not re.search(rf"\b{name}\b", README)]
    assert missing == []
