"""Dense reference for the spin-network block: the full 2^n Heisenberg Hamiltonian.

``qwsearch.spin_network`` reads the one-excitation block off the edge array,
as one hopping amplitude and one energy per distinct degree. The tests
spread it into ``n x n`` (``dense_reference.spread_block``) and compare it
with the one-excitation rows and columns of the exponential-size
Hamiltonian built here from Kronecker products of Pauli matrices.
"""

from functools import reduce

import numpy as np

from qwsearch.graph import Graph
from qwsearch.spin_network import CouplingConstants

# The build holds three 2^n x 2^n complex arrays at once (the sum, one
# Kronecker product and its scaled copy): 3 GiB at 13 spins, 12 GiB at 14.
MAX_SPIN_VERTICES = 13

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


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
