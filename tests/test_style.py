"""Source style: lines fit in 79 columns and every imported name is used."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent
                  / "src" / "aseries").glob("*.py"))
MAX_COLUMNS = 79


def unused_imports(source: str) -> list:
    """Names bound by an import statement that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_sources_found():
    assert SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_lines_fit(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    long = [i for i, line in enumerate(lines, 1) if len(line) > MAX_COLUMNS]
    assert not long, f"{path.name}: lines over {MAX_COLUMNS} columns: {long}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, f"{path.name}: imported but unused (line, name): " \
                       f"{unused}"


def test_scan_catches_unused_and_spares_used():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from dataclasses import dataclass, field\n"
              "import numpy as np\n"
              "x = np.zeros(1)\n"
              "y = os.path.join('a')\n"
              "@dataclass\n"
              "class A:\n"
              "    b: int = 0\n")
    assert unused_imports(source) == [(3, "field")]
