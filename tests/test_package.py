"""The package stays pure stdlib: no runtime dependency beyond Python itself."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "vcshatter").glob("*.py"))


def absolute_imports(tree: ast.Module) -> list[str]:
    """The top-level module name of every absolute import in ``tree``."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_sources_found():
    assert "boxgadget.py" in {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_stdlib(path):
    names = absolute_imports(ast.parse(path.read_text(), filename=str(path)))
    foreign = sorted({n for n in names if n not in sys.stdlib_module_names and n != "vcshatter"})
    assert not foreign, f"{path.name} imports {foreign}"
