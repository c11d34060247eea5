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
    "SearchQuotient",
    "search_quotient",
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
        _checked_gamma(self.gamma)
        object.__setattr__(self, "marked", frozenset(int(i) for i in self.marked))


def _checked_gamma(gamma: float) -> float:
    """``gamma`` as a float; ``ValueError`` unless it is finite and nonnegative."""
    gamma = float(gamma)
    if not np.isfinite(gamma) or gamma < 0:
        raise ValueError("gamma must be finite and nonnegative")
    return gamma


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
    pairs = (part.sizes[rows] * part.sizes[cols]).astype(float)
    out[rows, cols] = part.arcs[rows, cols] / np.sqrt(pairs)
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


def _oracle_shifted(gamma: float, w: np.ndarray, marked: np.ndarray | list[int]) -> np.ndarray:
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


class SearchQuotient(NamedTuple):
    """A search on the normalised cell states of an equitable partition.

    ``walk`` is the partition's ``c x c`` quotient walk matrix, ``marked``
    the cells of the marked vertices, ``state`` the start (or probe) on the
    cell states and ``shares[i, g]`` the fraction of cell ``i``'s vertices
    in group ``g``. :func:`search_quotient` finds it by refining a graph,
    :func:`~qwsearch.bipartite.class_quotient` writes it down for a
    complete bipartite layout; nothing in it grows with the vertex count.
    """

    walk: np.ndarray
    marked: np.ndarray
    state: np.ndarray
    shares: np.ndarray

    def hamiltonian(self, gamma: float) -> np.ndarray:
        """The quotient search Hamiltonian ``-gamma W_q - M_q``."""
        return _oracle_shifted(_checked_gamma(gamma), self.walk, self.marked)

    def masses(self, gamma: float, times: Sequence[float] | np.ndarray) -> np.ndarray:
        """Mass of each group at each time, shape ``(len(times), groups)``.

        The state is uniform on every cell, so group ``g`` holds ``sum_i
        |q_i(t)|^2 shares[i, g]``, also where a group takes part of a cell.
        Only the cells that meet a group are propagated.
        """
        touched = np.flatnonzero(self.shares.any(axis=1))
        decomp = eig_hermitian(self.hamiltonian(gamma))
        probs = np.abs(propagate(decomp, self.state, times, rows=touched)) ** 2
        return probs @ self.shares[touched]

    def levels(self, gammas: Sequence[float]) -> list[OverlapRow]:
        """:func:`overlap_profile` of the quotient; groups 0 and 1 are its sides."""
        left, right = (np.flatnonzero(self.shares[:, g]) for g in (0, 1))
        return overlap_profile(self.hamiltonian, gammas, self.state, left, right)


def _group_vertices(group: Iterable[int], n: int) -> np.ndarray:
    """Sorted distinct vertices of ``group``, checked as the ``rows`` of :func:`propagate`."""
    vertices = np.unique(np.fromiter(group, dtype=np.intp))
    if vertices.size and (vertices[0] < 0 or vertices[-1] >= n):
        raise ValueError("row index out of range")
    return vertices


def search_quotient(
    graph: Graph,
    walk: WalkKind,
    marked: Iterable[int],
    psi0: np.ndarray,
    groups: Sequence[Iterable[int]],
    colours: Sequence[Iterable[int]] = (),
) -> SearchQuotient:
    """The quotient of a search on ``graph``, found by colour refinement.

    Search from ``psi0`` stays in the span of the normalised cell states of
    the coarsest equitable partition of ``graph`` on which the marked set,
    ``psi0`` and membership of each vertex group in ``colours`` are
    constant (Godsil & Royle, *Algebraic Graph Theory*, ch. 9). On
    K_{n1,n2} its cells are the nonempty vertex classes, or half of them
    when swapping the sides fixes the search and no colour tells the sides
    apart. A graph without symmetry gets the discrete partition, whose
    quotient is the search Hamiltonian itself. The start on the cells is
    ``q0[i] = sqrt(|cell i|) psi0[v_i]`` (``v_i`` any vertex of cell
    ``i``). The marked set is checked as by :class:`SearchInstance`, with
    its messages, and the vertices of ``groups`` and ``colours`` as the
    ``rows`` of :func:`propagate`.
    """
    marked = SearchInstance(walk, graph, frozenset(marked), 0.0).marked
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (graph.n,):
        raise ValueError("state dimension does not match the graph")
    keys = [np.isin(np.arange(graph.n), _group_vertices(c, graph.n)) for c in colours]
    keys.append(np.isin(np.arange(graph.n), sorted(marked)))
    part = equitable_partition(graph, np.stack([*keys, psi0.real, psi0.imag], axis=1))
    sizes = part.sizes.astype(float)
    shares = np.zeros((sizes.size, len(groups)))
    for g, group in enumerate(groups):
        shares[:, g] = np.bincount(part.cells[_group_vertices(group, graph.n)],
                                   minlength=sizes.size) / sizes
    _, first = np.unique(part.cells, return_index=True)
    return SearchQuotient(walk_matrix(part, walk), np.unique(part.cells[sorted(marked)]),
                          np.sqrt(sizes) * psi0[first], shares)


def quotient_search(
    graph: Graph,
    walk: WalkKind,
    marked: Iterable[int],
    psi0: np.ndarray,
    groups: Sequence[Iterable[int]],
) -> Callable[[float, Sequence[float] | np.ndarray], np.ndarray]:
    """Probability mass of each vertex group along a search, evolved in its quotient.

    The partition and quotient walk matrix of :func:`search_quotient` are
    built once here. The returned ``masses(gamma, times)`` diagonalises the
    ``c x c`` quotient search Hamiltonian with :func:`eig_hermitian` per
    call and returns shape ``(len(times), len(groups))``
    (:meth:`SearchQuotient.masses`); nothing of size ``n x c`` is formed.
    Gamma is checked as by :class:`SearchInstance`.
    """
    return search_quotient(graph, walk, marked, psi0, groups).masses


def quotient_overlaps(
    graph: Graph,
    walk: WalkKind,
    marked: Iterable[int],
    probe: np.ndarray,
    left: Iterable[int],
    right: Iterable[int],
    gammas: Sequence[float],
) -> list[OverlapRow]:
    """:func:`overlap_profile` of the search's own levels, from its quotient.

    The partition is that of :func:`search_quotient` (``probe`` in the
    start state's place), coloured also by the ``left`` and ``right``
    groups, whose masses the rows report. Its quotient's levels are those
    of the search: on a complete bipartite layout, the class model on the
    nonempty classes. Each gamma diagonalises only the ``c x c`` quotient;
    any graph is accepted.
    """
    sides = [_group_vertices(group, graph.n) for group in (left, right)]
    return search_quotient(graph, walk, marked, probe, sides, sides).levels(gammas)


def propagate(
    h: np.ndarray | EigenDecomposition,
    psi0: np.ndarray,
    times: Sequence[float] | np.ndarray,
    rows: Sequence[int] | np.ndarray | None = None,
) -> np.ndarray:
    """Amplitudes at each time in ``times``; shape ``(len(times), len(rows))``.

    Uses the spectral form ``V exp(-i L t) V^dag psi0`` exactly, with one
    phase column per eigenvalue. The search commands call it on the ``c x
    c`` quotient of a :class:`SearchQuotient` (4x4 on a bipartite layout),
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
) -> list[OverlapRow]:
    """Eigenvector overlap table across jumping rates.

    For each ``gamma`` the Hamiltonian ``h`` from ``build_hamiltonian`` is
    diagonalized with :func:`eig_hermitian`, and the rows report the
    lowest ``OVERLAP_EIGENVECTORS`` levels ``psi_n``: ``|<probe|psi_n>|^2``,
    the probability mass of ``psi_n`` on the left- and right-marked basis
    states, and the eigenvalue. The ``overlaps`` command passes the
    quotient of the search's partition (:meth:`SearchQuotient.levels`):
    on a bipartite layout, the class model on the nonempty classes, 4x4
    at most. Exactly tied levels keep ``np.linalg.eigh``'s order. Levels
    that split by less than ``eigh``'s accuracy (about machine epsilon
    times the Hamiltonian's scale; on a bipartite layout, a with b and c
    with d as gamma -> 0) are a near-degenerate pair: ``eigh`` may return
    any basis of their span, so the rows of each level depend on the basis
    (on the cell order, for one) and only their sums over the pair are
    determined. Rows are
    ordered by the given gamma sequence and then by ``n``; the per-gamma
    work items are independent, so callers may parallelize them as long as
    they keep this ordering.
    """
    gammas = list(gammas)
    if not gammas:
        raise ValueError("gamma list must be nonempty")
    probe = np.asarray(probe, dtype=complex)
    if abs(np.linalg.norm(probe) - 1.0) > 1e-8:
        raise ValueError("probe state must be normalized")
    left = np.array([int(i) for i in left_marked], dtype=np.intp)
    right = np.array([int(i) for i in right_marked], dtype=np.intp)
    rows: list[OverlapRow] = []
    for gamma in map(float, gammas):
        decomp = eig_hermitian(build_hamiltonian(gamma))
        for n in range(min(OVERLAP_EIGENVECTORS, decomp.dim)):
            vec = decomp.eigenvectors[:, n]
            masses = (float(np.sum(np.abs(vec[side]) ** 2)) for side in (left, right))
            s_overlap = float(np.abs(np.vdot(probe, vec)) ** 2)
            rows.append(OverlapRow(gamma, n, s_overlap, *masses, float(decomp.eigenvalues[n])))
    return rows
