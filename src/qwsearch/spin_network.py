"""Heisenberg spin-network Hamiltonians and their single-excitation walks.

A network of spin-1/2 particles coupled along the edges of a graph evolves,
inside the one-excitation sector, exactly like a continuous-time quantum
walk on the graph. Which walk appears depends on the coupling anisotropy:
equal transverse couplings with ``jz = 0`` give the adjacency walk,
``jz = jx`` the Laplacian walk (up to an energy rezeroing), and ``jz = -jx``
the signless-Laplacian walk. This module builds the one-excitation block
directly from the edge array in ``O(n^2 + m)`` and certifies which walk it
realizes. The full exponential-size Hamiltonian and its projection stay as
the reference the block is tested against; they are capped at
``MAX_SPIN_VERTICES`` spins.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .evolve import WalkKind
from .graph import (
    Graph,
    adjacency_matrix,
    laplacian,
    signless_laplacian,
)

__all__ = [
    "MAX_SPIN_VERTICES",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "CouplingConstants",
    "heisenberg_hamiltonian",
    "single_excitation_basis",
    "project_single_excitation",
    "single_excitation_hamiltonian",
    "certify_walk_equivalence",
    "demo_graph",
]

# Full-space construction is 2^n dense. The build holds three 2^n x 2^n
# complex arrays at once (the sum, one Kronecker product and its scaled
# copy): 3 GiB at 13 spins, 12 GiB at 14.
MAX_SPIN_VERTICES = 13

EQUIVALENCE_TOL = 1e-10

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class CouplingConstants:
    """Exchange couplings ``jx``, ``jy``, ``jz`` (energy units, hbar = 1)."""

    jx: float
    jy: float
    jz: float

    def __post_init__(self) -> None:
        for name in ("jx", "jy", "jz"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"coupling {name} must be finite")


def _pair_operator(pauli: np.ndarray, n: int, i: int, j: int) -> np.ndarray:
    """Kronecker embedding of ``pauli (x) pauli`` on sites ``i`` and ``j``."""
    factors = [pauli if site in (i, j) else _I2 for site in range(n)]
    return reduce(np.kron, factors)


def heisenberg_hamiltonian(g: Graph, j: CouplingConstants) -> np.ndarray:
    """Full ``2^n``-dimensional exchange Hamiltonian of the spin network.

    ``H = -(1/2) sum_{i~j} (jx XiXj + jy YiYj + jz ZiZj)`` where the sum
    runs over the edges of ``g`` and the Pauli operators act on the two
    endpoint spins (site 0 is the leading tensor factor).
    """
    if g.n > MAX_SPIN_VERTICES:
        need = 3 * 16 * 4**g.n
        raise ValueError(
            f"full spin space for n={g.n} needs about {need} bytes "
            f"({need / 2**30:.0f} GiB), over the cap of {MAX_SPIN_VERTICES} vertices"
        )
    dim = 2**g.n
    h = np.zeros((dim, dim), dtype=complex)
    for u, v in g.edges.tolist():  # sorted: Graph keeps its edges in order
        h += j.jx * _pair_operator(PAULI_X, g.n, u, v)
        h += j.jy * _pair_operator(PAULI_Y, g.n, u, v)
        h += j.jz * _pair_operator(PAULI_Z, g.n, u, v)
    h *= -0.5
    return h


def single_excitation_basis(n: int) -> list[int]:
    """Computational-basis indices of the one-excitation states.

    Entry ``k`` is the index of the state with the single flipped spin at
    vertex ``k``. Vertex 0 occupies the most significant bit, so the state
    with the excitation at vertex 0 is ``|100...0>``.
    """
    if n < 1:
        raise ValueError("vertex count must be positive")
    return [1 << (n - 1 - k) for k in range(n)]


def project_single_excitation(h: np.ndarray, n: int) -> np.ndarray:
    """Restrict a full spin Hamiltonian to the one-excitation sector.

    For equal transverse couplings the sector is invariant, so the
    restriction loses no amplitude and is the walk Hamiltonian on the
    graph's vertices.
    """
    h = np.asarray(h)
    if h.shape != (2**n, 2**n):
        raise ValueError(f"operator shape {h.shape} does not match 2^{n}")
    idx = single_excitation_basis(n)
    return h[np.ix_(idx, idx)]


def single_excitation_hamiltonian(g: Graph, j: CouplingConstants) -> np.ndarray:
    """One-excitation block of :func:`heisenberg_hamiltonian`, built directly.

    Row and column ``k`` belong to the state with the excitation at vertex
    ``k``, as in :func:`single_excitation_basis`. On an edge ``(u, v)``,
    ``XX + YY`` moves the excitation between ``u`` and ``v``, giving the
    off-diagonal entry ``-(jx + jy) / 2``. ``ZZ`` is ``+1`` on the edges away
    from the excitation and ``-1`` on the ``deg k`` edges at it, so the
    diagonal is ``-(jz / 2) (m - 2 deg k)``, one rounding of an integer count.
    The cost is ``O(n^2 + m)`` at any ``n``. The block equals
    ``project_single_excitation(heisenberg_hamiltonian(g, j), g.n)``; the
    sector is invariant, and the block is the whole dynamics in it, only
    when ``jx == jy``.
    """
    h = np.zeros((g.n, g.n))
    u, v = g.edges.T
    h[u, v] = h[v, u] = -0.5 * (j.jx + j.jy)
    count = g.m - 2 * np.bincount(g.edges.ravel(), minlength=g.n)
    h[np.diag_indices(g.n)] = -0.5 * j.jz * count
    return h


def certify_walk_equivalence(
    g: Graph, j: CouplingConstants
) -> tuple[tuple[WalkKind, ...], float]:
    """Classify which walks the spin network realizes on ``g``.

    Compares the one-excitation block (:func:`single_excitation_hamiltonian`)
    with the three candidate identities:

    - adjacency:          ``-gamma A``
    - Laplacian:          ``-gamma (L + (m / 2) I) = -gamma L - (gamma m / 2) I``
    - signless Laplacian: ``-gamma (Q - (m / 2) I) = -gamma Q + (gamma m / 2) I``

    with ``gamma = jx``, ``L = A - D`` and ``m`` the edge count. Each
    candidate is ``-gamma`` times a matrix of half-integers, so every entry
    is one rounding, as in the block: a matching candidate deviates by
    exactly 0.0 at any size. Returns the kinds within ``EQUIVALENCE_TOL``,
    from the smallest deviation up (equal deviations in the order above),
    and the smallest max entrywise deviation of the three. More than one
    kind matches when the candidates coincide, as they do when every degree
    is ``m / 2`` (the 4-cycle, K4, two disjoint edges, edgeless graphs).
    Requires ``jx == jy``.
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
        # in place: the block and one candidate are the only n x n arrays held
        target = matrix(g)
        target[np.diag_indices(g.n)] += shift
        target *= -gamma
        target -= block
        deviations.append((float(np.max(np.abs(target, out=target))), kind))
    deviations.sort(key=lambda pair: pair[0])  # stable: ties keep the order above
    kinds = tuple(kind for dev, kind in deviations if dev <= EQUIVALENCE_TOL)
    return kinds, deviations[0][0]


def demo_graph() -> Graph:
    """Five-vertex, four-edge graph with one isolated vertex.

    The stock example for the walk-equivalence checks: small enough for the
    full spin space, irregular enough that A, L, and Q all differ.
    """
    return Graph(5, [(0, 1), (1, 2), (1, 3), (2, 3)])
