"""Every public name resolves: each module's ``__all__`` and each name that
``soliton_stability/__init__.py`` re-exports, so a stale entry for deleted
code fails here rather than at a user's ``import *``."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import soliton_stability as ss

MODULES = sorted(m.name for m in pkgutil.iter_modules(ss.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"soliton_stability.{name}")
    declared = getattr(module, "__all__", [])
    assert len(set(declared)) == len(declared)
    assert [n for n in declared if not hasattr(module, n)] == []


def test_package_reexports_resolve():
    tree = ast.parse(Path(ss.__file__).read_text(encoding="utf-8"))
    pairs = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert len(pairs) > 50
    for module_name, name in pairs:
        module = importlib.import_module(f"soliton_stability.{module_name}")
        assert getattr(ss, name) is getattr(module, name), name
        assert name in getattr(module, "__all__", [name]), (module_name, name)
