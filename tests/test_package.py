"""Every public name the package declares resolves to an object."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import cbandits

MODULES = ("core", "strategies", "analysis", "bounds", "harness", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"cbandits.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_resolve():
    tree = ast.parse(Path(cbandits.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        source = importlib.import_module(node.module)
        for alias in node.names:
            assert getattr(cbandits, alias.asname or alias.name) is getattr(source, alias.name)
