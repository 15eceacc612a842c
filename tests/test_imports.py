"""Every imported name is used, and every private package name is read.

No linter is part of the toolchain, so this walks each file's syntax tree
with the standard library's ast. An imported name counts as used when it
is read anywhere in its module or listed in its __all__; `from __future__`
imports are directives, not names. A module-level private name (a `_name`
function, class or constant) of the package counts as used when some
package module reads it outside its own definition.
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


def unread_private_names(sources: dict) -> list:
    """(module, name) of each module-level _name that no other top-level statement reads."""
    defined = []
    reads = []  # (module, statement index, names read there)
    for module, source in sources.items():
        for i, node in enumerate(ast.parse(source).body):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, i, n) for n in names if n.startswith("_") and not n.endswith("__")]
            read = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            read |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            reads.append((module, i, read))
    return sorted(
        (module, name) for module, i, name in defined
        if not any(name in read for m, j, read in reads if (m, j) != (module, i))
    )


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_no_unread_private_names():
    package = sorted((ROOT / "src" / "risjam").glob("*.py"))
    assert unread_private_names({p.name: p.read_text() for p in package}) == []


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

    def test_flags_a_private_name_read_only_by_itself(self):
        sources = {
            "a.py": (
                "_LIMIT = 3\n"
                "_dead: int = 0\n"
                "def _walk(n):\n"
                "    return _walk(n - 1) if n else _LIMIT\n"
                "class _Unused:\n"
                "    pass\n"
                "def __getattr__(name):\n"
                "    raise AttributeError(name)\n"
            ),
            "b.py": "from .a import _shared\n",
            "c.py": "def _shared():\n    return 1\n",
        }
        assert unread_private_names(sources) == [
            ("a.py", "_Unused"), ("a.py", "_dead"), ("a.py", "_walk"), ("c.py", "_shared"),
        ]
