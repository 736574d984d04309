"""Normalizer, linter and auto-fixer for Tunisian Arabic in Arabic script."""

from .config import Config, ConfigError, load_config
from .corpus import collect_stats, report_to_json
from .lexicon import Lexicon, LexiconError, default_lexicon
from .pipeline import FixEvent, Mode, PassCapExceededError, RunResult, normalize
from .rules import Diagnostic, Severity

__version__ = "0.1.0"

__all__ = [
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
]
