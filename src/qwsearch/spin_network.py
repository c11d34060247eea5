"""Heisenberg spin-network Hamiltonians and their single-excitation walks.

A network of spin-1/2 particles coupled along the edges of a graph evolves,
inside the one-excitation sector, exactly like a continuous-time quantum
walk on the graph. Which walk appears depends on the coupling anisotropy:
equal transverse couplings with ``jz = 0`` give the adjacency walk,
``jz = jx`` the Laplacian walk (up to an energy rezeroing), and ``jz = -jx``
the signless-Laplacian walk. This module builds the one-excitation block
directly from the edge array in ``O(n^2 + m)`` and certifies which walk it
realizes, without building the exponential-size Hamiltonian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolve import WalkKind
from .graph import (
    Graph,
    adjacency_matrix,
    laplacian,
    signless_laplacian,
)

__all__ = [
    "CouplingConstants",
    "single_excitation_hamiltonian",
    "certify_walk_equivalence",
    "demo_graph",
]

EQUIVALENCE_TOL = 1e-10


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


def single_excitation_hamiltonian(g: Graph, j: CouplingConstants) -> np.ndarray:
    """One-excitation block of the network's exchange Hamiltonian, built directly.

    The Hamiltonian on the ``2^n`` spin states is ``H = -(1/2) sum_{u~v}
    (jx XuXv + jy YuYv + jz ZuZv)``, summed over the edges of ``g``. Row
    and column ``k`` of the block belong to the state with the single
    flipped spin at vertex ``k``. On an edge ``(u, v)``,
    ``XX + YY`` moves the excitation between ``u`` and ``v``, giving the
    off-diagonal entry ``-(jx + jy) / 2``. ``ZZ`` is ``+1`` on the edges away
    from the excitation and ``-1`` on the ``deg k`` edges at it, so the
    diagonal is ``-(jz / 2) (m - 2 deg k)``, one rounding of an integer count.
    The cost is ``O(n^2 + m)`` at any ``n``. The block equals the rows and
    columns of ``H`` at the one-excitation states; the sector is invariant,
    and the block is the whole dynamics in it, only when ``jx == jy``.
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
