"""The public names: each module's ``__all__`` and the package's imports agree."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import qwsearch

MODULES = [m.name for m in pkgutil.iter_modules(qwsearch.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"qwsearch.{name}")
    assert [n for n in module.__all__ if getattr(module, n, None) is None] == []


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(qwsearch.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert {node.module for node in imports} == set(MODULES) - {"cli"}
    for node in imports:
        exported = importlib.import_module(f"qwsearch.{node.module}").__all__
        assert [alias.name for alias in node.names if alias.name not in exported] == []


@pytest.mark.parametrize(
    "name",
    ["simulate_full", "simulate_reduced", "energy_gap",
     "closed_form_runtime", "reduced_walk_matrix", "reduced_hamiltonian", "CLASS_NAMES"],
)
def test_removed_wrappers_are_gone(name):
    assert not hasattr(qwsearch, name)
    assert not hasattr(qwsearch.bipartite, name)
