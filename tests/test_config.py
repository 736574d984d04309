from __future__ import annotations

import json
from pathlib import Path

import pytest

from nota.config import ConfigError, load_config, parse_config
from nota.rules import DEFAULT_FUSED_PREPOSITIONS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_minimal_config():
    cfg = parse_config({})
    assert cfg.max_passes == 4
    assert cfg.rule_enabled("R-SEP")


def test_rules_section():
    cfg = parse_config({"rules": {"R-SEP": False}})
    assert not cfg.rule_enabled("R-SEP")
    assert cfg.rule_enabled("R-ART")


def test_unknown_section_rejected():
    with pytest.raises(ConfigError):
        parse_config({"rulez": {}})


def test_unknown_rule_rejected():
    with pytest.raises(ConfigError):
        parse_config({"rules": {"R-NOPE": True}})


def test_non_boolean_rule_rejected():
    with pytest.raises(ConfigError):
        parse_config({"rules": {"R-SEP": "off"}})


def test_bad_max_passes():
    with pytest.raises(ConfigError):
        parse_config({"pipeline": {"max_passes": 0}})


def test_unknown_table_rejected():
    with pytest.raises(ConfigError):
        parse_config({"tables": {"consonants": {}}})


def test_bad_similarity_value():
    with pytest.raises(ConfigError):
        parse_config({"tables": {"vowel_similarity": {"e": "X"}}})


def test_tables_override():
    cfg = parse_config(
        {"tables": {"fused_prepositions": {"فال": "في ال"}}}
    )
    assert dict(cfg.fused_prepositions) == {"فال": "في ال"}


def test_default_and_readme_fused_prepositions_load():
    cfg = parse_config({"tables": {"fused_prepositions": dict(DEFAULT_FUSED_PREPOSITIONS)}})
    assert dict(cfg.fused_prepositions) == dict(DEFAULT_FUSED_PREPOSITIONS)
    example = README.split("## Config", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    assert parse_config(json.loads(example)).fused_prepositions == {"فال": "في ال"}


@pytest.mark.parametrize("table", [
    {"فال": "فال"},  # one word: the fix would apply again each pass
    {"فال": "x"},  # not Arabic script
    {"فَال": "في ال"},  # a marked key, which no skeleton matches
    {"فال": "في  ال"},  # two spaces
    {"فال": "في ال "},
    {"": "في ال"},
    {"فال": "في ً"},
    {"فال": "فالدار ال"},  # a word of the value begins with its own key
    {"فال": "في ال", "في": "ف ي"},  # or with another key of the map
])
def test_bad_fused_prepositions_rejected(table):
    with pytest.raises(ConfigError, match="fused_prepositions"):
        parse_config({"tables": {"fused_prepositions": table}})


def test_lexicon_paths_resolve_relative(tmp_path):
    (tmp_path / "verbs.tsv").write_text("", encoding="utf-8")
    path = tmp_path / "nota.json"
    path.write_text(json.dumps({"lexicon": {"verbs": "verbs.tsv"}}), encoding="utf-8")
    cfg = load_config(path)
    assert cfg.lexicon_paths["verbs"] == tmp_path / "verbs.tsv"


def test_unknown_lexicon_role_rejected():
    with pytest.raises(ConfigError):
        parse_config({"lexicon": {"nouns": "x.tsv"}})


def test_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)
