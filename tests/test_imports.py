"""Every name a package module imports is used in that module.

A static check with the standard library's ``ast``: it catches an import
left behind when the code that used it goes.  ``__init__`` is skipped,
since it imports names to re-export them.
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


def test_modules_found():
    assert {path.stem for path in MODULES} >= {"linalg", "reference", "bell", "cli", "errors"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_catches_a_leftover_import():
    source = "from .linalg import _as_label_tuple, _check\n\n_check(True, ValueError, str)\n"
    assert unused_imports(source) == ["line 1: _as_label_tuple"]
