"""Static check: every imported name in the package and the tests is used.

A deletion that leaves its import behind shows up here.  The check reads
the sources with :mod:`ast`: a name bound by an import statement must occur
as a name elsewhere in the module, or be listed in the module's
``__all__`` (a re-export).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "mhaf").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used | exported
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_sees_an_unused_import():
    source = "import os\nfrom json import dumps, loads\n__all__ = ['loads']\n"
    assert unused_imports(source) == ["line 1: os", "line 2: dumps"]
