"""Run configuration: rule toggles, pass cap, overridable tables.

The config file is JSON with four optional sections; unknown keys are
errors::

    {
      "rules": {"R-SEP": false},
      "pipeline": {"max_passes": 4},
      "lexicon": {"verbs": "path/to/verbs.tsv"},
      "tables": {
        "variant_map": {"گ": "ڨ"},
        "fused_prepositions": {"فال": "في ال"},
        "vowel_similarity": {"œ": "U"}
      }
    }
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .lexicon import ROLES
from .rules import DEFAULT_FUSED_PREPOSITIONS, RULE_IDS
from .script import WORD_CHARS, skeleton


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class Config:
    rules: Mapping[str, bool] = field(default_factory=dict)
    max_passes: int = 4
    fused_prepositions: Mapping[str, str] = field(
        default_factory=lambda: dict(DEFAULT_FUSED_PREPOSITIONS)
    )
    vowel_similarity: Mapping[str, str] = field(default_factory=dict)
    variant_map: Mapping[str, str] | None = None
    lexicon_paths: Mapping[str, Path] = field(default_factory=dict)

    def rule_enabled(self, rule_id: str) -> bool:
        return self.rules.get(rule_id, True)


DEFAULT_CONFIG = Config()

_SECTIONS = {"rules", "pipeline", "lexicon", "tables"}
_TABLES = {"variant_map", "fused_prepositions", "vowel_similarity"}


def _require_str_mapping(obj: object, where: str) -> dict[str, str]:
    if not isinstance(obj, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in obj.items()
    ):
        raise ConfigError(f"{where} must be an object of strings")
    return dict(obj)


def parse_config(doc: object, base_dir: Path | None = None) -> Config:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    unknown = set(doc) - _SECTIONS
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    for name, section in doc.items():
        if not isinstance(section, dict):
            raise ConfigError(f"config section {name!r} must be an object")
    # What the document leaves out keeps the Config default.
    fields: dict[str, object] = {}

    rules: dict[str, bool] = {}
    for key, value in doc.get("rules", {}).items():
        if key not in RULE_IDS:
            raise ConfigError(f"unknown rule id in config: {key!r}")
        if not isinstance(value, bool):
            raise ConfigError(f"rules.{key} must be a boolean")
        rules[key] = value
    fields["rules"] = rules

    pipeline = doc.get("pipeline", {})
    unknown = set(pipeline) - {"max_passes"}
    if unknown:
        raise ConfigError(f"unknown pipeline keys: {sorted(unknown)}")
    if "max_passes" in pipeline:
        max_passes = fields["max_passes"] = pipeline["max_passes"]
        if isinstance(max_passes, bool) or not isinstance(max_passes, int) or max_passes < 1:
            raise ConfigError("pipeline.max_passes must be a positive integer")

    lexicon = doc.get("lexicon", {})
    unknown = set(lexicon) - set(ROLES)
    if unknown:
        raise ConfigError(f"unknown lexicon roles in config: {sorted(unknown)}")
    lexicon_paths = {}
    for role, value in lexicon.items():
        if not isinstance(value, str) or "\0" in value:
            raise ConfigError(f"lexicon.{role} must be a path string")
        path = Path(value)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        lexicon_paths[role] = path
    fields["lexicon_paths"] = lexicon_paths

    tables = doc.get("tables", {})
    unknown = set(tables) - _TABLES
    if unknown:
        raise ConfigError(f"unknown tables in config: {sorted(unknown)}")
    for name, table in tables.items():
        fields[name] = _require_str_mapping(table, f"tables.{name}")
    if not all(v in {"A", "E", "I", "U"} for v in tables.get("vowel_similarity", {}).values()):
        raise ConfigError("tables.vowel_similarity values must be A, E, I or U")
    # R-SEP matches a key on a word's skeleton and writes its value as words;
    # a word of a value that begins with a key would be split again, and
    # --fix would never reach a fixpoint.
    fused = tables.get("fused_prepositions", {})
    for head, expanded in fused.items():
        words = expanded.split(" ")
        if len(words) < 2 or not all(
            w and WORD_CHARS.issuperset(w) and skeleton(w) == w for w in (head, *words)
        ):
            raise ConfigError(
                "tables.fused_prepositions maps one undiacritized word onto two or more"
                f" joined by single spaces, not {head!r} onto {expanded!r}"
            )
        if any(w.startswith(tuple(fused)) for w in words):
            raise ConfigError(
                f"tables.fused_prepositions value {expanded!r} holds a word that begins"
                " with a key of the same map"
            )

    return Config(**fields)


def _display_name(path: str) -> str:
    """A file name as reports give it: its bytes that are not UTF-8 as
    escapes, so that the report stays valid UTF-8, each backslash doubled
    first, so that no name reads as another's escape."""
    return os.fsencode(path).replace(b"\\", b"\\\\").decode("utf-8", "backslashreplace")


def load_config(path: Path | str) -> Config:
    import json  # here, so that a run with no config file never loads it

    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"config {path} is nested too deeply") from exc
    return parse_config(doc, base_dir=path.parent)
