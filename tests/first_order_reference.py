"""The first-order critical-rate eigensystem of the signless search.

``qwsearch.bipartite.next_order_correction`` carries the paper's
degenerate perturbation theory one order further, and
``closed_form_probabilities`` reads the first-order gap ``pi / t_qa``
from ``bipartite._first_order_gap``. The first-order eigensystem itself
is kept here as the tests' reference: the leading-order eigenpairs of
the reduced Hamiltonian, and the doublet they lift into at a critical
rate. It shares every helper with ``bipartite``, so its gap is the same
float as ``pi / runtime_table(spec).t_qa``.
"""

from __future__ import annotations

import math

import numpy as np

from qwsearch.bipartite import (
    CriticalSide,
    DegenerateEigensystem,
    _first_order_gap,
    _mirrored,
    _sorted_system,
    critical_gamma,
)
from qwsearch.evolve import WalkKind
from qwsearch.graph import BipartiteSpec


def asymptotic_eigensystem_h0(
    spec: BipartiteSpec, gamma: float
) -> list[tuple[np.ndarray, float]]:
    """Leading-order eigenpairs of the reduced search Hamiltonian.

    For large partite sets the dominant part of the Hamiltonian is diagonal
    in the basis ``a``, ``b``, ``u = (sqrt(n2) c + sqrt(n1) d)/sqrt(n)``,
    ``v = (sqrt(n1) c - sqrt(n2) d)/sqrt(n)`` with eigenvalues
    ``-1 - gamma n2``, ``-1 - gamma n1``, ``-gamma n``, and ``0``.
    Pairs are returned in that fixed labeled order.
    """
    if not np.isfinite(gamma) or gamma <= 0:
        raise ValueError("gamma must be finite and positive")
    n1, n2, n = float(spec.n1), float(spec.n2), float(spec.n)
    e_a = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    e_b = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    u = np.array([0.0, 0.0, math.sqrt(n2), math.sqrt(n1)], dtype=complex) / math.sqrt(n)
    v = np.array([0.0, 0.0, math.sqrt(n1), -math.sqrt(n2)], dtype=complex) / math.sqrt(n)
    return [(e_a, -1.0 - gamma * n2), (e_b, -1.0 - gamma * n1), (u, -gamma * n), (v, 0.0)]


def degenerate_correction(
    spec: BipartiteSpec, side: CriticalSide
) -> DegenerateEigensystem:
    """Asymptotic eigensystem at a critical rate, degeneracy lifted.

    At ``gamma = 1/n1`` the ``a`` and ``u`` leading-order eigenvectors are
    degenerate; first-order perturbation by the subleading couplings lifts
    them into ``(a +/- u)/sqrt(2)`` with eigenvalues
    ``-1 - n2/n1 -/+ sqrt(k1 n2 / (n1 n))``, while ``b`` (eigenvalue -2)
    and ``v`` (eigenvalue 0) are unchanged. The right-critical case is the
    partite-swapped mirror image.
    ``delta_e`` is ``pi / t_qa`` (``pi / t_qb`` on the right) of
    :func:`runtime_table` (the exact 4x4 gap is 0.98569 of it on ``(512,
    256, 3, 5)``). It refuses layouts without a marked vertex on the
    target side, and equal sides.
    """
    if side is CriticalSide.RIGHT:
        return _mirrored(degenerate_correction(spec.swapped(), CriticalSide.LEFT))
    half_gap = 0.5 * _first_order_gap(spec)
    n1, n2 = float(spec.n1), float(spec.n2)
    base = -1.0 - n2 / n1
    gamma = critical_gamma(spec, WalkKind.SIGNLESS_LAPLACIAN, CriticalSide.LEFT)
    e_a, e_b, u, v = (vec for vec, _ in asymptotic_eigensystem_h0(spec, gamma))
    pairs = [
        ((e_a + u) / math.sqrt(2.0), base - half_gap),
        ((e_a - u) / math.sqrt(2.0), base + half_gap),
        (e_b, -2.0),
        (v, 0.0),
    ]
    return _sorted_system(pairs, 2.0 * half_gap)
