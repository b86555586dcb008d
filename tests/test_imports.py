"""Static checks over the package, the tests and the demos: every imported
name is used, every name ``__all__`` lists is defined, and every private
top-level name of the package is read.

A deletion that leaves its import, its export or its helper behind shows up
here.  The checks read the sources with :mod:`ast`: a name bound by an
import statement must occur as a name elsewhere in the module, or be listed
in the module's ``__all__`` (a re-export); a name listed in ``__all__`` must
be bound at the module's top level; a private name (one leading underscore,
not a dunder) bound at a package module's top level must be loaded somewhere
in that module.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "mhaf").glob("*.py"))
SOURCES = PACKAGE + [
    path for folder in (ROOT / "tests", ROOT / "demos") for path in sorted(folder.glob("*.py"))
]


def exported(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= set(ast.literal_eval(node.value))
    return names


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
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used | exported(tree)
    ]


def top_level_bindings(tree: ast.Module) -> dict[str, int]:
    """{name: line} for every name a top-level statement binds."""
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            bound.setdefault(name, node.lineno)
    return bound


def undefined_exports(source: str) -> list[str]:
    """Names ``__all__`` lists that no top-level statement binds."""
    tree = ast.parse(source)
    return sorted(exported(tree) - set(top_level_bindings(tree)))


def unread_private_names(source: str) -> list[str]:
    """Private top-level names that nothing in the module loads."""
    tree = ast.parse(source)
    loaded = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return [
        f"line {line}: {name}"
        for name, line in sorted(top_level_bindings(tree).items(), key=lambda item: item[1])
        if name.startswith("_") and not name.startswith("__") and name not in loaded
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_all_names_are_defined(path):
    assert undefined_exports(path.read_text(encoding="utf-8")) == []


def test_check_sees_an_undefined_export():
    source = "import os\nX: int = 1\ndef f(): pass\n__all__ = ['os', 'X', 'f', 'gone']\n"
    assert undefined_exports(source) == ["gone"]


def test_check_sees_an_unused_import():
    source = "import os\nfrom json import dumps, loads\n__all__ = ['loads']\n"
    assert unused_imports(source) == ["line 1: os", "line 2: dumps"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unread_private_name(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []


def test_check_sees_an_unread_private_name():
    source = (
        "_USED = 1\n_LEFT: int = 2\n__dunder__ = 3\n"
        "def _helper(): return _USED\ndef _gone(): return _helper()\nclass _Old: pass\n"
    )
    assert unread_private_names(source) == ["line 2: _LEFT", "line 5: _gone", "line 6: _Old"]
