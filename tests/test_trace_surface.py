"""The names and signatures that the traced benchmark run binds.

``bench/tracer.py`` rebinds ``canonicalize``, ``tokenize``, ``run_rules``
and ``file_stats`` on the modules that call them, and replays
``windows(tokens)`` and every ``rule_<id>(window, lex, fused)`` with the
arguments it reads off each ``run_rules`` call, finding each rule by name
and in ``RULE_PRIORITY`` order.  Of what these return it reads the kind of
each token that ``tokenize`` gives, and counts the windows and each rule's
findings; it never reads a window's fields or a finding's offsets, so the
tests pin one window per word, not its shape.  A refactor that renames,
reshapes or stops calling any of them, or gives a rule in ``_RULES`` a
body of another name, breaks ``bench/run.py --trace 1``; these tests make
it fail the unit suite as well.  The untraced run imports
``bench/tracer.py`` too, so a name it binds at import time that goes
missing stops every benchmark run.
"""

from __future__ import annotations

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nota.corpus
import nota.pipeline
import nota.rules
import nota.script
import nota.tokenize
from gen import DIRTY_WORDS
from nota.pipeline import Mode, normalize
from nota.rules import RULE_PRIORITY, RuleWindow, windows
from nota.tokenize import TokenKind, tokenize

BENCH = Path(__file__).resolve().parent.parent / "bench"
LAYERS = {
    "canonicalize": nota.script.canonicalize,
    "tokenize": nota.tokenize.tokenize,
    "run_rules": nota.rules.run_rules,
}


def _params(fn) -> list[str]:
    return list(inspect.signature(fn).parameters)


def _counting(monkeypatch, module, name: str) -> list[int]:
    calls: list[int] = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("module", [nota.pipeline, nota.corpus])
@pytest.mark.parametrize("name", sorted(LAYERS))
def test_layer_functions_are_module_globals(module, name):
    assert getattr(module, name) is LAYERS[name]


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_normalize_calls_each_layer_through_pipeline(monkeypatch, lex, name):
    calls = _counting(monkeypatch, nota.pipeline, name)
    normalize("باش نمشي", lex, mode=Mode.FIX)
    assert calls


def test_collect_stats_calls_file_stats_through_corpus(monkeypatch, lex, tmp_path):
    (tmp_path / "a.txt").write_text("باش نمشي\n", encoding="utf-8")
    calls = _counting(monkeypatch, nota.corpus, "file_stats")
    nota.corpus.collect_stats(tmp_path, lex)
    assert calls


def test_run_rules_parameter_names():
    assert _params(nota.rules.run_rules) == ["tokens", "lex", "enabled", "fused_prepositions"]


def test_rule_priority_is_the_rule_table_order():
    assert RULE_PRIORITY == tuple(nota.rules._RULES)


@pytest.mark.parametrize("rid", RULE_PRIORITY)
def test_each_rule_has_a_rule_function(lex, rid):
    rule = getattr(nota.rules, "rule_" + rid[2:].lower())
    assert nota.rules._RULES[rid].body is rule
    assert _params(rule) == ["window", "lex", "fused"]
    found = rule(windows(tokenize("ما كلموش"))[-1], lex, nota.rules.DEFAULT_FUSED_PREPOSITIONS)
    assert isinstance(found, list)


def test_windows_takes_tokens():
    assert _params(windows) == ["tokens"]
    tokens = tokenize("باش نمشي.")
    assert [t.kind for t in tokens][:1] == [TokenKind.WORD]
    found = windows(tokens)
    assert all(isinstance(w, RuleWindow) for w in found)
    assert [w.word for w in found] == ["باش", "نمشي"]


def test_benchmark_modules_import():
    """``bench/run.py`` and the worker it starts, with the tracer the worker
    imports, load against this checkout's ``src``; ``-B`` writes no bytecode."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(BENCH.parent / "src"), str(BENCH)])}
    done = subprocess.run(
        [sys.executable, "-B", "-c", "import worker, run"],
        cwd=BENCH, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr


def test_traced_replay_agrees_with_run_rules(monkeypatch, lex, tmp_path):
    """The traced run replays each rule over the windows of every
    ``run_rules`` call and raises ``MissingSpanError`` where the counts
    differ, or where a layer the workload needs never ran."""
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer").Tracer()
    chain = " ".join(DIRTY_WORDS)
    # باش before a verb for R-FUT, and a word with two findings.
    text = f"{chain}\nباش نمشي گاوريٌ {' '.join(reversed(DIRTY_WORDS))}\n{chain}."
    for mode, name in ((Mode.CHECK, "check"), (Mode.FIX, "fix")):
        with tracer.installed():
            tracer.wrap("pipeline.normalize", normalize)(text, lex, mode=mode)
        tracer.fold(lines=3)
        tracer.check_fired(name)
    (tmp_path / "a.txt").write_text(chain, encoding="utf-8")
    (tmp_path / "b.txt").write_text(text, encoding="utf-8")
    with tracer.installed():
        report = tracer.wrap("corpus.collect_stats", nota.corpus.collect_stats)(tmp_path, lex)
        tracer.wrap("corpus.report_to_json", nota.corpus.report_to_json)(report)
    tracer.fold()
    tracer.check_fired("stats")
    metrics = tracer.metrics()
    assert [rid for rid in RULE_PRIORITY if not metrics[f"rules.{rid}_diags"]] == []
