"""Shared hypothesis strategies, reference formulas, checks and script loading for the tests."""

import importlib.util
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from qwsearch.bipartite import class_quotient, class_sizes
from qwsearch.graph import BipartiteSpec, Graph


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 8) -> Graph:
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if pairs:
        edges = draw(st.sets(st.sampled_from(pairs)))
    else:
        edges = set()
    return Graph(n, frozenset(edges))


@st.composite
def bipartite_specs(draw, max_side: int = 48) -> BipartiteSpec:
    n1 = draw(st.integers(1, max_side))
    n2 = draw(st.integers(1, max_side))
    k1 = draw(st.integers(0, n1))
    k2 = draw(st.integers(0, n2))
    if k1 + k2 == 0:
        k1 = 1
    return BipartiteSpec(n1, n2, k1, k2)


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    """The module ``scripts/<name>.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def uncollapsed_propagate(decomp, psi0, times, rows=None):
    """``V exp(-i L t) V^dag psi0`` with one phase per eigenvalue.

    The reference for ``propagate``, which sums the same products in
    another order; shape ``(len(times), len(rows))``.
    """
    basis = decomp.eigenvectors if rows is None else decomp.eigenvectors[list(rows)]
    coeffs = decomp.eigenvectors.conj().T @ np.asarray(psi0, dtype=complex)
    phases = np.exp(-1j * np.outer(np.asarray(times, dtype=float), decomp.eigenvalues))
    return (phases * coeffs) @ basis.T


def assert_is_the_class_walk(spec, refined):
    """``refined`` has one cell per nonempty class of ``spec``, in the vertex
    order a, c, b, d, and its adjacency and degrees are :func:`class_quotient`'s
    after that permutation, so every walk on it is the class walk."""
    cells = [c for c in (0, 2, 1, 3) if class_sizes(spec)[c]]
    order = np.argsort(cells)  # the refined cell of each class, in class order
    assert refined.state.size == len(cells)
    written = class_quotient(spec, np.zeros(4))
    assert np.array_equal(refined.adjacency[np.ix_(order, order)], written.adjacency)
    assert np.array_equal(refined.degrees[order], written.degrees)


def quotient_walk(quotient, kind):
    """The walk matrix ``W_r`` of ``kind`` on ``quotient``, bit for bit.

    Its Hamiltonian at rate 1 with no cell marked is ``-1 * W_r``, and
    negating it back is exact.
    """
    return -quotient._replace(marked=np.array([], dtype=int)).hamiltonian(kind, 1.0)
