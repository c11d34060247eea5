"""Search Hamiltonians and exact spectral time evolution."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .graph import (
    EquitablePartition,
    Graph,
    adjacency_matrix,
    equitable_partition,
    laplacian,
    signless_laplacian,
)

__all__ = [
    "WalkKind",
    "SearchInstance",
    "EigenDecomposition",
    "walk_matrix",
    "search_hamiltonian",
    "eig_hermitian",
    "quotient_search",
    "quotient_overlaps",
    "propagate",
    "success_probability",
    "uniform_state",
    "first_peak",
    "OverlapRow",
    "overlap_profile",
]

HERMITICITY_TOL = 1e-10
OVERLAP_EIGENVECTORS = 4  # lowest eigenvectors reported per gamma by overlap_profile


class WalkKind(enum.Enum):
    """Which graph matrix generates the continuous-time walk."""

    LAPLACIAN = "laplacian"
    ADJACENCY = "adjacency"
    SIGNLESS_LAPLACIAN = "signless"


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
        if not np.isfinite(self.gamma) or self.gamma < 0:
            raise ValueError("gamma must be finite and nonnegative")
        object.__setattr__(self, "marked", frozenset(int(i) for i in self.marked))


def walk_matrix(g: Graph | EquitablePartition, kind: WalkKind) -> np.ndarray:
    """The generator matrix for ``kind``: A, A - D, or A + D.

    Given an :class:`~qwsearch.graph.EquitablePartition` instead of a graph,
    it is the ``c x c`` quotient on the normalised cell states: entries
    ``arcs[i, j] / sqrt(sizes[i] sizes[j])``, and the cell degrees on the
    diagonal for the Laplacians. On the discrete partition every size is
    1, so the quotient is the graph's matrix bit for bit.
    """
    if isinstance(g, EquitablePartition):
        return _quotient_walk_matrix(g, kind)
    if kind is WalkKind.ADJACENCY:
        return adjacency_matrix(g)
    if kind is WalkKind.LAPLACIAN:
        return laplacian(g)
    return signless_laplacian(g)


def _quotient_walk_matrix(part: EquitablePartition, kind: WalkKind) -> np.ndarray:
    # filled only where cells touch: a discrete partition has about 2m of n^2
    rows, cols = np.nonzero(part.arcs)
    out = np.zeros(part.arcs.shape)
    out[rows, cols] = part.arcs[rows, cols] / np.sqrt(part.sizes[rows] * part.sizes[cols])
    if kind is not WalkKind.ADJACENCY:
        degrees = (part.arcs.sum(axis=1) // part.sizes).astype(float)
        if kind is WalkKind.LAPLACIAN:
            out[np.diag_indices_from(out)] -= degrees
        else:
            out[np.diag_indices_from(out)] += degrees
    return out


def search_hamiltonian(inst: SearchInstance, w: np.ndarray | None = None) -> np.ndarray:
    """Search Hamiltonian ``-gamma * W - sum_marked |i><i|``.

    ``W`` is the walk matrix of the instance's kind; pass it as ``w`` when
    it was built already (a sweep over gamma builds it once per graph). The
    result is real symmetric, hence exactly Hermitian.
    """
    if w is None:
        w = walk_matrix(inst.graph, inst.walk)
    elif w.shape != (inst.graph.n, inst.graph.n):
        raise ValueError("walk matrix does not match the graph")
    return _oracle_shifted(inst.gamma, w, sorted(inst.marked))


def _oracle_shifted(gamma: float, w: np.ndarray, marked: list[int]) -> np.ndarray:
    """``-gamma * w`` with 1 subtracted at each ``marked`` diagonal entry."""
    h = -gamma * w
    h[marked, marked] -= 1.0
    return h


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (real, ascending) and orthonormal eigenvector columns.

    ``eigenvectors`` is square: one row per basis state and one column per
    eigenvalue, real for a real matrix. Columns carry no phase convention,
    and within an exactly degenerate eigenvalue no particular basis.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[0]


def eig_hermitian(h: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix: ``np.linalg.eigh``'s arrays.

    Checks that ``h`` is square and Hermitian to within ``HERMITICITY_TOL``
    of its largest entry, then returns ``eigh``'s output unchanged:
    ascending eigenvalues and orthonormal eigenvector columns (real for a
    real ``h``). Each column is fixed only up to a phase (a sign for real
    input), and an exactly degenerate eigenspace gets whichever orthonormal
    basis LAPACK finds. Repeated calls on the same input in one process
    return the same arrays; another NumPy or LAPACK build may choose other
    phases or bases.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("matrix must be square")
    scale = max(1.0, float(np.max(np.abs(h))) if h.size else 1.0)
    deviation = float(np.max(np.abs(h - h.conj().T)))
    if deviation > HERMITICITY_TOL * scale:
        raise ValueError(f"matrix is not Hermitian (deviation {deviation:g})")
    return EigenDecomposition(*np.linalg.eigh(h))


def _search_quotient(
    graph: Graph,
    walk: WalkKind,
    marked: Iterable[int],
    psi0: np.ndarray,
    colours: Sequence[np.ndarray] = (),
) -> tuple[frozenset[int], EquitablePartition, np.ndarray, list[int], np.ndarray]:
    """Set-up shared by :func:`quotient_search` and :func:`quotient_overlaps`.

    Checks the marked set as :class:`SearchInstance` does and the shape of
    ``psi0``, then finds the coarsest equitable partition on which the
    marked set, ``psi0`` and each extra per-vertex column of ``colours``
    are constant. Returns the checked marked set, the partition, its
    quotient walk matrix, the cells holding marked vertices and the
    quotient state ``q0[i] = sqrt(|cell i|) psi0[v_i]`` (``v_i`` the first
    vertex of cell ``i``).
    """
    marked = SearchInstance(walk, graph, frozenset(marked), 0.0).marked
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (graph.n,):
        raise ValueError("state dimension does not match the graph")
    is_marked = np.zeros(graph.n)
    is_marked[sorted(marked)] = 1.0
    keys = np.stack([is_marked, psi0.real, psi0.imag, *colours], axis=1)
    part = equitable_partition(graph, keys)
    marked_cells = sorted({int(c) for c in part.cells[sorted(marked)]})
    _, first = np.unique(part.cells, return_index=True)
    q0 = np.sqrt(part.sizes.astype(float)) * psi0[first]
    return marked, part, walk_matrix(part, walk), marked_cells, q0


def _group_vertices(group: Iterable[int], n: int) -> np.ndarray:
    """Sorted distinct vertices of ``group``, checked as the ``rows`` of :func:`propagate`."""
    vertices = np.unique(np.fromiter(group, dtype=np.intp))
    if vertices.size and (vertices[0] < 0 or vertices[-1] >= n):
        raise ValueError("row index out of range")
    return vertices


def quotient_search(
    graph: Graph,
    walk: WalkKind,
    marked: Iterable[int],
    psi0: np.ndarray,
    groups: Sequence[Iterable[int]],
) -> Callable[[float, Sequence[float] | np.ndarray], np.ndarray]:
    """Probability mass of each vertex group along a search, evolved in its quotient.

    Search from ``psi0`` stays in the span of the normalised cell states of
    the coarsest equitable partition of ``graph`` on which the marked set
    and ``psi0`` are constant (Godsil & Royle, *Algebraic Graph Theory*,
    ch. 9): on K_{n1,n2} these are the four vertex classes, or two when
    swapping the sides fixes the search. The partition, the ``c x c``
    quotient walk matrix and the start ``q0[i] = sqrt(|cell i|) psi0[v_i]``
    (``v_i`` any vertex of cell ``i``) are built once here. The returned
    function ``masses(gamma, times)`` diagonalises the quotient search
    Hamiltonian ``-gamma W_q - M_q`` with :func:`eig_hermitian`, evolves
    ``q0`` with :func:`propagate` on the cells that meet a group, and
    returns shape ``(len(times), len(groups))``. The state is uniform on
    every cell, so group ``g`` holds ``sum_i |q_i(t)|^2 |g & cell i| /
    |cell i|``, also where a group takes part of a cell. Nothing of size
    ``n x c`` is formed. A graph without symmetry gets the discrete
    partition, whose quotient is the search Hamiltonian itself. The marked
    set and gamma are checked as by :class:`SearchInstance`, with its
    messages, and group vertices as the ``rows`` of :func:`propagate`.
    """
    marked, part, w, marked_cells, q0 = _search_quotient(graph, walk, marked, psi0)
    sizes = part.sizes.astype(float)
    weights = np.zeros((sizes.size, len(groups)))
    for g, group in enumerate(groups):
        vertices = _group_vertices(group, graph.n)
        weights[:, g] = np.bincount(part.cells[vertices], minlength=sizes.size) / sizes
    touched = np.flatnonzero(weights.any(axis=1))
    weights = weights[touched]

    def masses(gamma: float, times: Sequence[float] | np.ndarray) -> np.ndarray:
        gamma = SearchInstance(walk, graph, marked, float(gamma)).gamma
        decomp = eig_hermitian(_oracle_shifted(gamma, w, marked_cells))
        return np.abs(propagate(decomp, q0, times, rows=touched)) ** 2 @ weights

    return masses


def quotient_overlaps(
    graph: Graph,
    walk: WalkKind,
    marked: Iterable[int],
    probe: np.ndarray,
    left: Iterable[int],
    right: Iterable[int],
    gammas: Sequence[float],
) -> list[OverlapRow]:
    """:func:`overlap_profile` of the whole search Hamiltonian, from its quotient.

    The partition is that of :func:`quotient_search` (``probe`` in the
    start state's place), coloured also by the ``left`` and ``right``
    groups. Each cell must be a class of twins: ``arcs[i, i] == 0`` and
    each ``arcs[i, j]`` is 0 or ``sizes[i] sizes[j]``, checked exactly
    (``ValueError`` names the first cell that fails); every cell of a
    complete bipartite layout is. Then each vector on cell ``i`` that sums
    to zero there is an eigenvector of ``H = -gamma W - M`` at the
    quotient's ``h_q[i, i]`` (``-m_i``, ``gamma d_i - m_i`` or ``-gamma
    d_i - m_i`` for the adjacency, Laplacian and signless walks), with
    multiplicity ``|cell i| - 1``, probe overlap 0 and mass 1 on the group
    that holds the cell. With the quotient's eigenvectors they span the
    whole space, so each gamma diagonalises only the ``c x c`` quotient and
    nothing of size ``n x n`` is formed. Exactly tied levels take the
    quotient's eigenvectors first, then the interiors by cell (the cell of
    the smallest vertex first).
    """
    sides = [_group_vertices(group, graph.n) for group in (left, right)]
    member = [np.isin(np.arange(graph.n), vertices) for vertices in sides]
    marked, part, w, marked_cells, q_probe = _search_quotient(
        graph, walk, marked, probe, member
    )
    full = np.outer(part.sizes, part.sizes)
    twins = (np.diag(part.arcs) == 0) & ((part.arcs == 0) | (part.arcs == full)).all(axis=1)
    if not twins.all():
        cell = int(np.argmin(twins))
        raise ValueError(f"cell {cell} of the search partition is not a class of twins")

    def build(gamma: float) -> np.ndarray:
        gamma = SearchInstance(walk, graph, marked, gamma).gamma
        return _oracle_shifted(gamma, w, marked_cells)

    left_cells, right_cells = (np.unique(part.cells[vertices]) for vertices in sides)
    return overlap_profile(
        build, gammas, q_probe, left_cells, right_cells, interior=part.sizes - 1
    )


def propagate(
    h: np.ndarray | EigenDecomposition,
    psi0: np.ndarray,
    times: Sequence[float] | np.ndarray,
    rows: Sequence[int] | np.ndarray | None = None,
) -> np.ndarray:
    """Amplitudes at each time in ``times``; shape ``(len(times), len(rows))``.

    Uses the spectral form ``V exp(-i L t) V^dag psi0`` exactly, with one
    phase column per eigenvalue. The search commands call it on the ``c x
    c`` quotient of :func:`quotient_search` (4x4 on a bipartite layout),
    so the phase table is ``len(times) x c``. Pass an
    :class:`EigenDecomposition` to skip the eigensolve when ``h`` is reused.

    ``rows`` selects the basis states (vertices) whose amplitudes are
    returned, in the given order; ``None`` returns all ``dim`` of them. The
    selection is applied to the eigenvectors before the product with the
    phases, so a success curve over a few marked vertices costs
    ``len(rows)`` rather than ``dim`` columns per time step.
    """
    decomp = h if isinstance(h, EigenDecomposition) else eig_hermitian(h)
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (decomp.dim,):
        raise ValueError("state dimension does not match operator")
    times = np.asarray(times, dtype=float)
    if times.size and times.min() < 0:
        raise ValueError("evolution times must be nonnegative")
    basis = decomp.eigenvectors
    if rows is not None:
        rows = np.asarray(rows, dtype=np.intp)
        if rows.size and (rows.min() < 0 or rows.max() >= decomp.dim):
            raise ValueError("row index out of range")
        basis = basis[rows]
    coeffs = decomp.eigenvectors.conj().T @ psi0
    phases = np.exp(-1j * np.outer(times, decomp.eigenvalues))
    return phases @ (basis * coeffs).T


def success_probability(psi: np.ndarray, marked: Iterable[int]) -> float:
    """Total probability mass of ``psi`` on the marked vertices."""
    psi = np.asarray(psi)
    idx = sorted(int(i) for i in marked)
    if idx and (idx[0] < 0 or idx[-1] >= psi.size):
        raise ValueError("marked vertex out of range")
    return float(np.sum(np.abs(psi[idx]) ** 2))


def uniform_state(n: int) -> np.ndarray:
    """Uniform superposition over ``n`` vertices."""
    if n < 1:
        raise ValueError("dimension must be positive")
    return np.full(n, 1.0 / np.sqrt(n), dtype=complex)


def _refine_crest(t: np.ndarray, v: np.ndarray, i: int) -> tuple[float, float]:
    """Quadratic interpolation through the three samples bracketing crest i."""
    denom = v[i - 1] - 2.0 * v[i] + v[i + 1]
    if denom >= 0.0:
        return float(t[i]), float(v[i])
    shift = float(np.clip(0.5 * (v[i - 1] - v[i + 1]) / denom, -1.0, 1.0))
    step = 0.5 * (t[i + 1] - t[i - 1])
    return float(t[i] + shift * step), float(v[i] - 0.25 * (v[i - 1] - v[i + 1]) * shift)


def first_peak(
    times: Sequence[float] | np.ndarray, values: Sequence[float] | np.ndarray
) -> tuple[float, float]:
    """Locate the first full-height maximum of a sampled curve.

    Finite-size evolution curves carry fast, low beats on top of the slow
    success envelope, so the literal first local maximum can be a shallow
    ripple far below the real peak. Instead, this scans for the earliest
    local crest whose quadratically refined height comes within 0.1% of the
    global maximum (so equal-height revivals resolve to the first one), and
    falls back to the global maximum sample for flat or monotone curves.
    Returns ``(t_peak, value_peak)``.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape or t.ndim != 1 or t.size == 0:
        raise ValueError("times and values must be matching nonempty 1-D arrays")
    cutoff = 0.999 * float(np.max(v))
    for i in range(1, v.size - 1):
        if v[i] >= v[i - 1] and v[i] > v[i + 1]:
            peak_t, peak_v = _refine_crest(t, v, i)
            if peak_v >= cutoff:
                return peak_t, peak_v
    i = int(np.argmax(v))
    return float(t[i]), float(v[i])


class OverlapRow(NamedTuple):
    gamma: float
    n: int
    s_overlap: float
    left_overlap: float
    right_overlap: float
    eigenvalue: float


def overlap_profile(
    build_hamiltonian: Callable[[float], np.ndarray],
    gammas: Sequence[float],
    probe: np.ndarray,
    left_marked: Sequence[int],
    right_marked: Sequence[int],
    interior: Sequence[int] | np.ndarray = (),
) -> list[OverlapRow]:
    """Eigenvector overlap table across jumping rates.

    For each ``gamma`` the Hamiltonian ``h`` from ``build_hamiltonian`` is
    diagonalized with :func:`eig_hermitian`, and the rows report the
    lowest ``OVERLAP_EIGENVECTORS`` levels ``psi_n``: ``|<probe|psi_n>|^2``,
    the probability mass of ``psi_n`` on the left- and right-marked basis
    states, and the eigenvalue. Reduced mode passes the class model on
    the layout's nonempty classes (4x4 at most), and these are all its
    levels.

    ``interior[i]`` more levels at ``h[i, i]`` join those of basis state
    ``i`` (none by default). They are the cell-interior levels of
    :func:`quotient_overlaps`, whose basis state ``i`` is the normalised
    state of a cell: probe overlap 0, mass 1 on the side that holds ``i``
    and 0 on the other. Levels are taken in ascending order; exactly tied
    levels put ``h``'s eigenvectors first (in ``np.linalg.eigh``'s
    order), then interior levels by basis state. Rows are ordered by the
    given gamma sequence and then by ``n``; the per-gamma work items are
    independent, so callers may parallelize them as long as they keep
    this ordering.
    """
    gammas = list(gammas)
    if not gammas:
        raise ValueError("gamma list must be nonempty")
    probe = np.asarray(probe, dtype=complex)
    if abs(np.linalg.norm(probe) - 1.0) > 1e-8:
        raise ValueError("probe state must be normalized")
    left = np.array([int(i) for i in left_marked], dtype=np.intp)
    right = np.array([int(i) for i in right_marked], dtype=np.intp)
    # the basis state of each interior level, at most as many per state as rows
    extra = np.minimum(np.asarray(interior, dtype=np.intp), OVERLAP_EIGENVECTORS)
    states = np.repeat(np.arange(extra.size), extra)
    rows: list[OverlapRow] = []
    for gamma in map(float, gammas):
        h = build_hamiltonian(gamma)
        decomp = eig_hermitian(h)
        dim, levels = decomp.dim, decomp.eigenvalues
        order: Iterable[int] = range(min(OVERLAP_EIGENVECTORS, dim))
        if states.size:
            levels = np.concatenate([levels, h[states, states].real])
            order = np.argsort(levels, kind="stable")[:OVERLAP_EIGENVECTORS]
        for n, k in enumerate(order):
            if k < dim:
                vec = decomp.eigenvectors[:, k]
                s_overlap = float(np.abs(np.vdot(probe, vec)) ** 2)
                left_overlap = float(np.sum(np.abs(vec[left]) ** 2))
                right_overlap = float(np.sum(np.abs(vec[right]) ** 2))
            else:
                state = states[k - dim]
                s_overlap = 0.0
                left_overlap, right_overlap = float(state in left), float(state in right)
            rows.append(
                OverlapRow(gamma, n, s_overlap, left_overlap, right_overlap, float(levels[k]))
            )
    return rows
