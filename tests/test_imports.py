"""Every name a library module imports is used there or re-exported by it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mssl"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """Names bound by an import that the module neither reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    bound = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        f"{name} (line {line})" for name, line in bound.items()
        if name not in used and name not in exported
    )


def test_the_check_sees_an_unused_import():
    source = (
        "from .core import LabeledSet, UnlabeledPool, spd_factor\n"
        "import numpy as np\n"
        "__all__ = ['spd_factor']\n"
        "def f(x: LabeledSet):\n"
        "    return np.asarray(x)\n"
    )
    assert _unused_imports(source) == ["UnlabeledPool (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_library_modules_use_what_they_import(path):
    assert _unused_imports(path.read_text()) == []
