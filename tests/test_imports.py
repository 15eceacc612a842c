"""Every name a package module or test module imports is used in that module.

No linter is part of the toolchain, so this walks each file's syntax tree
with the standard library's ast. A name counts as used when it is read
anywhere in the module or listed in its __all__; `from __future__` imports
are directives, not names.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "risjam").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read | exported)


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


class TestScanner:
    def test_flags_an_unused_name_and_keeps_used_ones(self):
        source = (
            "from __future__ import annotations\n"
            "import os, sys as system\n"
            "import numpy.linalg\n"
            "from json import dumps, loads\n"
            "__all__ = ['loads']\n"
            "def f(x: system.X) -> None:\n"
            "    return numpy.linalg.norm(x)\n"
        )
        assert unused_imports(source) == [(2, "os"), (4, "dumps")]
