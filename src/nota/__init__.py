"""Normalizer, linter and auto-fixer for Tunisian Arabic in Arabic script."""

from .config import Config, ConfigError, load_config
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


def __getattr__(name: str) -> object:
    """Load the stats reporter on first use of its two names, not at import."""
    if name in ("collect_stats", "report_to_json"):
        from . import corpus

        return getattr(corpus, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
