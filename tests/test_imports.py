"""Every name a package module imports is used in that module, and every
private top-level name it defines is used somewhere in the package.

Static checks with the standard library's ``ast``: they catch an import,
helper or constant left behind when the code that used it goes.  The
import check skips ``__init__``, since it imports names to re-export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qrs_sim"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


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
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """The private top-level functions, classes and constants of the
    ``{module: source}`` map that no module reads, by a name or an
    attribute, other than where they are defined."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]
            else:
                continue
            unread += [
                f"{module} line {node.lineno}: {name}"
                for name in names
                if name.startswith("_") and not name.startswith("__") and name not in read
            ]
    return unread


def test_modules_found():
    assert {path.stem for path in MODULES} >= {"linalg", "reference", "bell", "cli", "errors"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_catches_a_leftover_import():
    source = "from .linalg import _as_label_tuple, _check\n\n_check(True, ValueError, str)\n"
    assert unused_imports(source) == ["line 1: _as_label_tuple"]


def test_every_private_name_is_used():
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert unreferenced_privates(sources) == []


def test_catches_a_leftover_private_name():
    sources = {
        "cli": "_GATE = 1e-10\n_LEFT = 2\n\n\ndef _off_one(table):\n    return abs(table.sum() - 1.0)\n",
        "bell": "from . import cli\n\n\ndef _check(x):\n    return x < cli._GATE\n\n\ndef run(x):\n    return _check(x)\n",
    }
    assert unreferenced_privates(sources) == ["cli line 2: _LEFT", "cli line 5: _off_one"]
