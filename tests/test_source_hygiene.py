"""Source checks that need no linter, only the standard library's ast.

Every module under src/scenecomp parses with the grammar of the oldest
Python that pyproject.toml's requires-python admits, every name a module
imports is used in it (the package's __init__.py re-exports names and is
exempt), and no module rebinds module-level state through a `global`
statement.
"""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "scenecomp"
MODULES = sorted(SRC.glob("*.py"))


def oldest_python() -> tuple[int, int]:
    """The (major, minor) floor of pyproject.toml's `requires-python = ">=X.Y"`."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.MULTILINE)
    assert found, "pyproject.toml states no requires-python floor"
    return int(found[1]), int(found[2])


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
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_parses_with_oldest_supported_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=oldest_python())


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.stem
)
def test_no_unused_imports(path):
    assert unused_imports(_tree(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_global_statements(path):
    assert global_statements(_tree(path)) == []
