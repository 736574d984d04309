"""nota uses only the standard library: every absolute import in its
source names a standard-library module or nota itself."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import nota

SOURCES = sorted(Path(nota.__file__).parent.glob("*.py"))


def test_every_import_is_stdlib_or_nota():
    assert SOURCES
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "nota" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno}: {name}")
    assert outside == []
