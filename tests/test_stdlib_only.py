"""The package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "dispersal_mc").glob("*.py"))


def absolute_imports(path: Path) -> list[str]:
    """The top-level module name of every absolute import in ``path``,
    function-level imports included."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_sources_found():
    assert "cli.py" in [path.name for path in SOURCES]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_the_standard_library(path):
    outside = [name for name in absolute_imports(path) if name not in sys.stdlib_module_names]
    assert outside == []
