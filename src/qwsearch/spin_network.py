"""Heisenberg spin-network Hamiltonians and their single-excitation walks.

A network of spin-1/2 particles coupled along the edges of a graph evolves,
inside the one-excitation sector, exactly like a continuous-time quantum
walk on the graph. With equal transverse couplings its one-excitation
block is ``-jx (A - r D)`` up to an energy rezeroing, with ``r = jz / jx``,
so the anisotropy picks the walk ``W_r`` (:class:`~qwsearch.evolve.WalkKind`):
``jz = 0`` gives the adjacency walk, ``jz = jx`` the Laplacian walk and
``jz = -jx`` the signless-Laplacian walk. This module reads the one-excitation block
off the edge array as one hopping amplitude and one energy per distinct
degree, and certifies which walk it realizes by comparing those entries
alone. It builds no ``n x n`` matrix and never the exponential-size
Hamiltonian, so the certificate holds nothing that grows with ``n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .evolve import WalkKind
from .graph import Graph

__all__ = [
    "CouplingConstants",
    "ExcitationBlock",
    "single_excitation_block",
    "certify_walk_equivalence",
    "demo_graph",
]

EQUIVALENCE_TOL = 1e-10
# The candidate walks in the order that breaks ties, and their ratios r as
# a column: one row of the certificate each.
_CANDIDATES = (WalkKind.ADJACENCY, WalkKind.LAPLACIAN, WalkKind.SIGNLESS_LAPLACIAN)
_RATIOS = np.array([[kind.ratio] for kind in _CANDIDATES])


@dataclass(frozen=True)
class CouplingConstants:
    """Exchange couplings ``jx``, ``jy``, ``jz`` (energy units, hbar = 1)."""

    jx: float
    jy: float
    jz: float

    def __post_init__(self) -> None:
        for name in ("jx", "jy", "jz"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"coupling {name} must be finite")


class ExcitationBlock(NamedTuple):
    """The one-excitation block of the exchange Hamiltonian, by its distinct entries.

    ``hopping`` is the entry at each edge ``(u, v)`` (and ``(v, u)``);
    every other off-diagonal entry is zero. ``energies[i]`` is the diagonal
    entry at each vertex of degree ``degrees[i]``, the distinct degrees
    ascending. Nothing in it grows with the vertex count.
    """

    hopping: float
    degrees: np.ndarray
    energies: np.ndarray


def single_excitation_block(g: Graph, j: CouplingConstants) -> ExcitationBlock:
    """One-excitation block of the network's exchange Hamiltonian, from the degrees.

    The Hamiltonian on the ``2^n`` spin states is ``H = -(1/2) sum_{u~v}
    (jx XuXv + jy YuYv + jz ZuZv)``, summed over the edges of ``g``. Row
    and column ``k`` of the block belong to the state with the single
    flipped spin at vertex ``k``. On an edge ``(u, v)``, ``XX + YY`` moves
    the excitation between ``u`` and ``v``, giving the off-diagonal entry
    ``-(jx + jy) / 2``. ``ZZ`` is ``+1`` on the edges away from the
    excitation and ``-1`` on the ``deg k`` edges at it, so the diagonal is
    ``-(jz / 2) (m - 2 deg k)``, one rounding of an integer count, and
    depends on ``k`` only through its degree. The degrees are counted over
    the edge array in ``O(m log m)``: one sort of the ``2m`` endpoints,
    whose runs are the touched vertices and whose run lengths are their
    degrees, then one sort of the lengths, with degree 0 added when an edge
    misses some vertex. The block equals the rows and columns of ``H`` at
    the one-excitation states; the sector is invariant, and the block is
    the whole dynamics in it, only when ``jx == jy``.
    """
    ends = np.sort(g.edges, axis=None)
    # a run of equal endpoints starts at each bound but the last, which closes them
    bound = np.empty(ends.size + 1, dtype=bool)
    bound[0] = bound[-1] = True
    np.not_equal(ends[1:], ends[:-1], out=bound[1:-1])
    bounds = bound.nonzero()[0]
    # lengths[0] is degree 0, the smallest, kept only if a vertex is in no run
    lengths = np.empty(bounds.size, dtype=np.intp)
    lengths[0] = 0
    np.subtract(bounds[1:], bounds[:-1], out=lengths[1:])
    lengths[1:].sort()
    distinct = np.empty(lengths.size, dtype=bool)
    distinct[0] = lengths.size - 1 < g.n
    np.not_equal(lengths[1:], lengths[:-1], out=distinct[1:])
    degrees = lengths[distinct]
    return ExcitationBlock(-0.5 * (j.jx + j.jy), degrees, -0.5 * j.jz * (g.m - 2 * degrees))


def certify_walk_equivalence(
    g: Graph, j: CouplingConstants
) -> tuple[tuple[WalkKind, ...], float]:
    """Classify which walks the spin network realizes on ``g``.

    Compares the one-excitation block (:func:`single_excitation_block`)
    with ``-gamma (W_r + r (m / 2) I)`` for the adjacency, Laplacian and
    signless walks, ``W_r = A - r D`` with ``r`` each walk's
    :attr:`~qwsearch.evolve.WalkKind.ratio` (0, 1 and -1), ``gamma = jx``
    and ``m`` the edge count. The shift ``-gamma r m / 2`` is a global
    phase. Every entry of both sides is fixed by the edges and the
    degrees, so only two kinds of entry are compared: the hopping
    amplitude against ``-gamma`` (when there is an edge), and each
    distinct degree ``d``'s energy against ``-gamma r (m / 2 - d)``; the
    zero entries agree. One array expression over candidates x distinct
    entries compares them for all three walks: a row per walk, the hopping
    gap in the first column and the gap at each distinct degree after it,
    each row's max that walk's deviation. Each candidate entry is
    ``-gamma`` times a half-integer, one rounding, as in the block: a
    matching candidate deviates by exactly 0.0 at any size. The deviation
    is the one the ``n x n`` matrices give, bit for bit, and nothing held
    grows with ``n``. Returns the kinds within ``EQUIVALENCE_TOL``, from
    the smallest deviation up (equal deviations in the order above), and
    the smallest max entrywise deviation of the three. More than one kind
    matches when the candidates coincide, as they do when every degree is
    ``m / 2`` (the 4-cycle, K4, two disjoint edges, edgeless graphs).
    Requires ``jx == jy`` and ``jx != 0``: a block without hopping
    realises no walk, though every candidate's ``-gamma`` terms vanish.
    """
    if j.jx != j.jy:
        raise ValueError("walk equivalence requires jx == jy")
    if j.jx == 0:
        raise ValueError("walk equivalence requires a nonzero jx")
    gamma = j.jx
    block = single_excitation_block(g, j)
    offsets = 0.5 * g.m - block.degrees
    hops = 1 if g.m else 0
    gaps = np.empty((len(_CANDIDATES), hops + offsets.size))
    if hops:  # every candidate is -gamma at the edges
        gaps[:, 0] = abs(-gamma - block.hopping)
    # each candidate's diagonal entry at degree d is r (m / 2 - d) times -gamma
    np.abs(_RATIOS * offsets * -gamma - block.energies, out=gaps[:, hops:])
    deviations = sorted(  # stable: ties keep the order above
        zip(gaps.max(axis=1).tolist(), _CANDIDATES), key=lambda pair: pair[0]
    )
    kinds = tuple(kind for dev, kind in deviations if dev <= EQUIVALENCE_TOL)
    return kinds, deviations[0][0]


def demo_graph() -> Graph:
    """Five-vertex, four-edge graph with one isolated vertex.

    The stock example for the walk-equivalence checks: small enough for the
    full spin space, irregular enough that A, L, and Q all differ.
    """
    return Graph(5, [(0, 1), (1, 2), (1, 3), (2, 3)])
