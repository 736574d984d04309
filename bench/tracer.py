"""Per-layer spans recorded from outside the program.

The traced run rebinds the public functions that the pipeline and the
corpus reporter call through their module globals (``canonicalize``,
``tokenize``, ``run_rules``, ``file_stats``), so each call records a
span: name, parent span, start and end.  Spans stay in memory for one
operation and are then folded into per-layer totals.  Per-rule numbers
come from replaying the public ``rule_*`` functions over the same
``windows(...)`` outside any span, so the replay adds nothing to the
spans it explains.
"""

from __future__ import annotations

import contextlib
import inspect
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import nota.corpus
import nota.pipeline
import nota.rules
from nota.rules import DEFAULT_FUSED_PREPOSITIONS, RULE_PRIORITY, Severity, windows
from nota.tokenize import TokenKind

# Module globals rebound while a traced call runs, and the span each records.
REBIND = (
    (nota.pipeline, "canonicalize", "script.canonicalize"),
    (nota.pipeline, "tokenize", "tokenize.tokenize"),
    (nota.pipeline, "run_rules", "rules.run_rules"),
    (nota.corpus, "file_stats", "corpus.file_stats"),
    (nota.corpus, "canonicalize", "script.canonicalize"),
    (nota.corpus, "tokenize", "tokenize.tokenize"),
    (nota.corpus, "run_rules", "rules.run_rules"),
)

# Spans each workload must produce; a missing one means the program no
# longer calls the layer where the benchmark looks for it.
EXPECTED_SPANS = {
    "check": ("pipeline.normalize", "script.canonicalize", "tokenize.tokenize", "rules.run_rules"),
    "fix": ("pipeline.normalize", "script.canonicalize", "tokenize.tokenize", "rules.run_rules"),
    "stats": (
        "corpus.collect_stats",
        "corpus.file_stats",
        "corpus.report_to_json",
        "script.canonicalize",
        "tokenize.tokenize",
        "rules.run_rules",
    ),
}

RULE_FUNCTIONS = {rid: getattr(nota.rules, "rule_" + rid[2:].lower()) for rid in RULE_PRIORITY}

# Documents up to SMALL_LINES lines, and from LARGE_LINES lines on, give
# the normalize self-time share at the two ends of the size range.
SMALL_LINES, LARGE_LINES = 50, 200

COUNTS = (
    "script.chars_in",
    "script.chars_out",
    "tokenize.tokens",
    "tokenize.word_tokens",
    "rules.windows",
    *(f"rules.{rid}_diags" for rid in RULE_PRIORITY),
    "pipeline.documents",
    "pipeline.passes",
    "pipeline.first_pass_windows",
    "pipeline.windows_linted",
    "pipeline.fixable_found",
    "pipeline.fixes_applied",
    "corpus.files",
    "corpus.bytes_read",
    "corpus.unreadable_files",
)
TIMES = (
    "script.canonicalize_s",
    "tokenize.tokenize_s",
    "rules.windows_s",
    "rules.run_rules_s",
    "rules.run_rules_self_s",
    *(f"rules.{rid}_s" for rid in RULE_PRIORITY),
    "pipeline.normalize_s",
    "pipeline.normalize_self_s",
    "corpus.collect_stats_self_s",
    "corpus.file_stats_self_s",
    "corpus.report_to_json_s",
)


class MissingSpanError(RuntimeError):
    """An expected layer span never fired, or a replay disagrees with the run."""


@dataclass
class Span:
    name: str
    parent: int          # index of the enclosing span, -1 at the top
    start: float
    end: float
    args: tuple
    kwargs: dict
    result: Any


_RUN_RULES_SIGNATURE = inspect.signature(nota.rules.run_rules)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.fired: set[str] = set()
        self.totals: Counter[str] = Counter()
        self._bucket_self: Counter[str] = Counter()
        self._bucket_total: Counter[str] = Counter()
        self._originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in REBIND]
        self._wrapped = [
            (mod, attr, self.wrap(span, original))
            for (mod, attr, span), (_, _, original) in zip(REBIND, self._originals)
        ]

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(Span(name, parent, 0.0, 0.0, args, kwargs, None))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                span = self.spans[index]
                span.start, span.end = start, end
            span.result = result
            return result

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Rebind the layer functions for the duration of one traced call."""
        for mod, attr, fn in self._wrapped:
            setattr(mod, attr, fn)
        try:
            yield
        finally:
            for mod, attr, fn in self._originals:
                setattr(mod, attr, fn)

    # --- folding one operation's spans into totals -------------------------

    def fold(self, lines: int = 0, bytes_read: int = 0) -> None:
        """Fold the current operation's spans into the totals and clear them."""
        spans, self.spans = self.spans, []
        child = [0.0] * len(spans)
        for sp in spans:
            if sp.parent >= 0:
                child[sp.parent] += sp.end - sp.start
        t = self.totals
        linted: set[int] = set()  # normalize spans whose first lint pass is counted
        for i, sp in enumerate(spans):
            self.fired.add(sp.name)
            duration = sp.end - sp.start
            own = duration - child[i]
            parent = spans[sp.parent].name if sp.parent >= 0 else None
            if sp.name == "script.canonicalize":
                t["script.canonicalize_s"] += duration
                t["script.chars_in"] += len(sp.args[0])
                t["script.chars_out"] += len(sp.result.text)
            elif sp.name == "tokenize.tokenize":
                t["tokenize.tokenize_s"] += duration
                t["tokenize.tokens"] += len(sp.result)
                t["tokenize.word_tokens"] += sum(tok.kind is TokenKind.WORD for tok in sp.result)
            elif sp.name == "rules.run_rules":
                t["rules.run_rules_s"] += duration
                n_windows = self._replay(sp)
                if parent == "pipeline.normalize":
                    t["pipeline.windows_linted"] += n_windows
                    t["pipeline.fixable_found"] += sum(
                        d.replacement is not None and d.severity is not Severity.INFO
                        for d in sp.result
                    )
                    if sp.parent not in linted:
                        linted.add(sp.parent)
                        t["pipeline.first_pass_windows"] += n_windows
            elif sp.name == "pipeline.normalize":
                t["pipeline.normalize_s"] += duration
                t["pipeline.normalize_self_s"] += own
                t["pipeline.documents"] += 1
                t["pipeline.passes"] += sp.result.passes_used
                t["pipeline.fixes_applied"] += len(sp.result.fixes)
                bucket = "small" if lines <= SMALL_LINES else "large" if lines >= LARGE_LINES else None
                if bucket:
                    self._bucket_self[bucket] += own
                    self._bucket_total[bucket] += duration
            elif sp.name == "corpus.collect_stats":
                t["corpus.collect_stats_self_s"] += own
                t["corpus.files"] += sp.result.files
                t["corpus.unreadable_files"] += sum(r.error is not None for r in sp.result.per_file)
                t["corpus.bytes_read"] += bytes_read
            elif sp.name == "corpus.file_stats":
                t["corpus.file_stats_self_s"] += own
            elif sp.name == "corpus.report_to_json":
                t["corpus.report_to_json_s"] += duration

    def _replay(self, sp: Span) -> int:
        """Time windows() and each rule_* over the call's tokens; check the counts."""
        bound = _RUN_RULES_SIGNATURE.bind(*sp.args, **sp.kwargs)
        bound.apply_defaults()
        tokens, lex = bound.arguments["tokens"], bound.arguments["lex"]
        enabled = bound.arguments["enabled"]
        fused = bound.arguments["fused_prepositions"]
        if fused is None:
            fused = DEFAULT_FUSED_PREPOSITIONS
        t = self.totals
        start = time.perf_counter()
        wins = windows(tokens)
        t["rules.windows_s"] += time.perf_counter() - start
        t["rules.windows"] += len(wins)
        seen = Counter(d.rule for d in sp.result)
        for rid in RULE_PRIORITY:
            if enabled is not None and not enabled.get(rid, True):
                continue
            rule = RULE_FUNCTIONS[rid]
            found = 0
            start = time.perf_counter()
            for w in wins:
                found += len(rule(w, lex, fused))
            t[f"rules.{rid}_s"] += time.perf_counter() - start
            t[f"rules.{rid}_diags"] += found
            if found != seen[rid]:
                raise MissingSpanError(
                    f"replay of {rid} found {found} diagnostics, run_rules reported {seen[rid]}"
                )
        return len(wins)

    # --- results -----------------------------------------------------------

    def check_fired(self, mode: str) -> None:
        missing = [name for name in EXPECTED_SPANS[mode] if name not in self.fired]
        if missing:
            raise MissingSpanError(f"expected spans never fired: {', '.join(missing)}")

    def metrics(self) -> dict[str, float]:
        t = self.totals
        out: dict[str, float] = {name: float(t[name]) for name in TIMES}
        out.update((name, int(t[name])) for name in COUNTS)
        out["rules.run_rules_self_s"] = t["rules.run_rules_s"] - t["rules.windows_s"] - sum(
            t[f"rules.{rid}_s"] for rid in RULE_PRIORITY
        )
        found = t["pipeline.fixable_found"]
        out["pipeline.fix_yield"] = t["pipeline.fixes_applied"] / found if found else 0.0
        for bucket in ("small", "large"):
            total = self._bucket_total[bucket]
            out[f"pipeline.self_share_{bucket}"] = self._bucket_self[bucket] / total if total else 0.0
        return out
