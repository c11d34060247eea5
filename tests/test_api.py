"""The public names: the package exports each module's ``__all__``."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qwsearch

SRC = Path(qwsearch.__file__).resolve().parent.parent
MODULES = [m.name for m in pkgutil.iter_modules(qwsearch.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"qwsearch.{name}")
    assert [n for n in module.__all__ if getattr(module, n, None) is None] == []


def test_package_exports_every_module_name():
    # every module but the CLI, in the package's order
    exporters = ["graph", "evolve", "spin_network", "bipartite"]
    assert set(exporters) == set(MODULES) - {"cli"}
    modules = [importlib.import_module(f"qwsearch.{name}") for name in exporters]
    assert qwsearch.__all__ == [name for module in modules for name in module.__all__]
    for module in modules:
        assert [n for n in module.__all__ if getattr(qwsearch, n) is not getattr(module, n)] == []
    # nothing else is public: the package imports no name outside the lists
    public = {n for n in vars(qwsearch) if not n.startswith("_")} - set(MODULES)
    assert public == set(qwsearch.__all__)


def test_package_import_leaves_the_cli_unimported():
    code = "import sys, qwsearch; print('qwsearch.cli' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC)}).stdout
    assert out == "False\n"


@pytest.mark.parametrize(
    "name",
    ["simulate_full", "simulate_reduced", "energy_gap",
     "closed_form_runtime", "reduced_walk_matrix", "reduced_hamiltonian", "CLASS_NAMES",
     "asymptotic_eigensystem_h0", "degenerate_correction", "walk_matrix"],
)
def test_removed_wrappers_are_gone(name):
    assert not hasattr(qwsearch, name)
    assert not hasattr(qwsearch.bipartite, name)
