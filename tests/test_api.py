"""The top-level API and the rule ids are what the README documents, and nothing more."""

from __future__ import annotations

import re
from pathlib import Path

import nota
from nota.rules import RULE_PRIORITY

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


def test_readme_rule_table_lists_every_rule_in_priority_order():
    section = README.split("## The rules", 1)[1].split("\n## ", 1)[0]
    assert tuple(re.findall(r"^\| (R-[A-Z]+) ", section, re.M)) == RULE_PRIORITY
