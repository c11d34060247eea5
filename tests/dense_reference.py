"""Dense n x n references: the graph matrices, the search Hamiltonian, the spin block.

``qwsearch`` holds no matrix over vertex pairs. A search runs on the
quotient of its equitable partition (``qwsearch.evolve.search_quotient``),
and the spin certificate compares one hopping amplitude and one energy per
distinct degree (``qwsearch.spin_network``). The tests check both against
the dense matrices built here straight from the edge array, and the
partition against the textbook refinement on the adjacency matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from qwsearch.evolve import WalkKind
from qwsearch.graph import Graph
from qwsearch.spin_network import EQUIVALENCE_TOL, CouplingConstants, single_excitation_block


def _degrees(g: Graph) -> np.ndarray:
    return np.bincount(g.edges.ravel(), minlength=g.n).astype(float)


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Dense adjacency matrix: ``A[i, j] = 1`` iff ``{i, j}`` is an edge."""
    a = np.zeros((g.n, g.n), dtype=float)
    u, v = np.asarray(g.edges).T
    a[u, v] = 1.0
    a[v, u] = 1.0
    return a


def degree_matrix(g: Graph) -> np.ndarray:
    """Diagonal matrix of vertex degrees."""
    return np.diag(_degrees(g))


def laplacian(g: Graph) -> np.ndarray:
    """Discrete Laplacian ``A - D`` (row sums are exactly zero)."""
    out = adjacency_matrix(g)
    out[np.diag_indices(g.n)] -= _degrees(g)
    return out


def signless_laplacian(g: Graph) -> np.ndarray:
    """Signless Laplacian ``A + D`` (entrywise nonnegative)."""
    out = adjacency_matrix(g)
    out[np.diag_indices(g.n)] += _degrees(g)
    return out


def _first_seen_ids(rows) -> np.ndarray:
    """Number the distinct rows of ``rows`` 0, 1, ... in order of first occurrence."""
    ids: dict = {}
    return np.array([ids.setdefault(tuple(row), len(ids)) for row in rows.tolist()])


def refined_cells(g: Graph, colours) -> list[int]:
    """The coarsest equitable partition on which ``colours`` is constant, by naive refinement.

    Starts from the classes of equal colour rows (no degree seed) and splits
    every cell by its vertices' neighbour counts in each cell, read off the
    dense adjacency matrix, until nothing splits. ``cells[v]`` is the cell
    of vertex ``v``, cells numbered in the order of their smallest vertex.
    """
    a = adjacency_matrix(g)
    cells = _first_seen_ids(np.asarray(colours).reshape(g.n, -1))
    while True:
        counts = a @ (cells[:, None] == np.arange(cells.max() + 1))
        fresh = _first_seen_ids(np.column_stack([cells, counts]))
        if fresh.max() == cells.max():
            return fresh.tolist()
        cells = fresh


def dense_walk_matrix(g: Graph, kind: WalkKind) -> np.ndarray:
    """The graph's generator matrix for ``kind``: A, A - D, or A + D.

    The ``W_r`` that a quotient of the discrete partition forms in
    ``SearchQuotient.hamiltonian``, built over all vertex pairs.
    """
    if kind is WalkKind.ADJACENCY:
        return adjacency_matrix(g)
    if kind is WalkKind.LAPLACIAN:
        return laplacian(g)
    return signless_laplacian(g)


@dataclass(frozen=True)
class SearchInstance:
    """A spatial-search problem: walk kind, graph, marked vertices, rate.

    ``gamma`` is the jumping rate multiplying the walk matrix. Zero is
    accepted (the Hamiltonian degenerates to the bare oracle), which is
    useful as a sanity limit.
    """

    walk: WalkKind
    graph: Graph
    marked: frozenset[int]
    gamma: float

    def __post_init__(self) -> None:
        if not self.marked:
            raise ValueError("marked set must be nonempty")
        if any(not (0 <= i < self.graph.n) for i in self.marked):
            raise ValueError("marked vertex out of range")
        if not (np.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError("gamma must be finite and nonnegative")
        object.__setattr__(self, "marked", frozenset(int(i) for i in self.marked))


def search_hamiltonian(inst: SearchInstance, w: np.ndarray | None = None) -> np.ndarray:
    """Search Hamiltonian ``-gamma * W - sum_marked |i><i|``.

    ``W`` is the walk matrix of the instance's kind; pass it as ``w`` when
    it was built already. The result is real symmetric, hence exactly
    Hermitian, and rounds as the quotient's Hamiltonian does on the
    discrete partition.
    """
    if w is None:
        w = dense_walk_matrix(inst.graph, inst.walk)
    elif w.shape != (inst.graph.n, inst.graph.n):
        raise ValueError("walk matrix does not match the graph")
    h = -inst.gamma * w
    marked = sorted(inst.marked)
    h[marked, marked] -= 1.0
    return h


def success_probability(psi: np.ndarray, marked: Iterable[int]) -> float:
    """Total probability mass of ``psi`` on the marked vertices."""
    psi = np.asarray(psi)
    idx = sorted(int(i) for i in marked)
    if idx and (idx[0] < 0 or idx[-1] >= psi.size):
        raise ValueError("marked vertex out of range")
    return float(np.sum(np.abs(psi[idx]) ** 2))


def single_excitation_hamiltonian(g: Graph, j: CouplingConstants) -> np.ndarray:
    """One-excitation block of the exchange Hamiltonian as a dense ``n x n`` matrix.

    ``-(jx + jy) / 2`` at each edge and ``-(jz / 2) (m - 2 deg k)`` on the
    diagonal, each one rounding, as ``qwsearch.spin_network`` states them.
    """
    h = np.zeros((g.n, g.n))
    u, v = g.edges.T
    h[u, v] = h[v, u] = -0.5 * (j.jx + j.jy)
    count = g.m - 2 * np.bincount(g.edges.ravel(), minlength=g.n)
    h[np.diag_indices(g.n)] = -0.5 * j.jz * count
    return h


def spread_block(g: Graph, j: CouplingConstants) -> np.ndarray:
    """The package's :func:`single_excitation_block` of ``g``, spread into ``n x n``.

    Its hopping amplitude at each edge and, at each vertex, the energy of
    the vertex's degree, which the block must list.
    """
    block = single_excitation_block(g, j)
    h = np.zeros((g.n, g.n))
    u, v = g.edges.T
    h[u, v] = h[v, u] = block.hopping
    degrees = np.bincount(g.edges.ravel(), minlength=g.n)
    at = np.searchsorted(block.degrees, degrees)
    assert np.array_equal(block.degrees[at], degrees), "a degree is missing from the block"
    h[np.diag_indices(g.n)] = block.energies[at]
    return h


def certify_walk_equivalence(
    g: Graph, j: CouplingConstants
) -> tuple[tuple[WalkKind, ...], float]:
    """The walk-equivalence certificate over the whole ``n x n`` matrices.

    The block against ``-gamma A``, ``-gamma (L + (m / 2) I)`` and
    ``-gamma (Q - (m / 2) I)``, entry by entry: the kinds within
    ``EQUIVALENCE_TOL`` from the smallest deviation up, and that deviation.
    """
    if j.jx != j.jy:
        raise ValueError("walk equivalence requires jx == jy")
    gamma = j.jx
    block = single_excitation_hamiltonian(g, j)
    half_m = 0.5 * g.m
    candidates = (
        (WalkKind.ADJACENCY, adjacency_matrix, 0.0),
        (WalkKind.LAPLACIAN, laplacian, half_m),
        (WalkKind.SIGNLESS_LAPLACIAN, signless_laplacian, -half_m),
    )
    deviations = []
    for kind, matrix, shift in candidates:
        target = matrix(g)
        target[np.diag_indices(g.n)] += shift
        target *= -gamma
        target -= block
        deviations.append((float(np.max(np.abs(target))), kind))
    deviations.sort(key=lambda pair: pair[0])
    kinds = tuple(kind for dev, kind in deviations if dev <= EQUIVALENCE_TOL)
    return kinds, deviations[0][0]
