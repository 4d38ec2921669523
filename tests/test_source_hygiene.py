"""Source checks that need no linter, only the standard library's ast.

Every name a module under src/scenecomp imports is used in it (the
package's __init__.py re-exports names and is exempt), and no module
rebinds module-level state through a `global` statement.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "scenecomp"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def unused_imports(tree: ast.Module) -> list[str]:
    """The names the module's import statements bind and no expression reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def global_statements(tree: ast.Module) -> list[str]:
    return [
        f"global {', '.join(node.names)} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Global)
    ]


def test_checks_catch_what_they_look_for():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from dataclasses import dataclass, field\n"
        "import numpy as np\n"
        "COUNT = 0\n"
        "@dataclass\n"
        "class A:\n"
        "    x: np.ndarray\n"
        "def bump():\n"
        "    global COUNT\n"
        "    COUNT += 1\n"
    )
    assert unused_imports(tree) == ["os (line 2)", "field (line 3)"]
    assert global_statements(tree) == ["global COUNT (line 10)"]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.stem
)
def test_no_unused_imports(path):
    assert unused_imports(_tree(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_global_statements(path):
    assert global_statements(_tree(path)) == []
