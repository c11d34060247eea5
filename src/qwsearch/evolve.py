"""Search on the quotient of an equitable partition, and exact spectral time evolution.

A search on a graph is run on the normalised cell states of the coarsest
equitable partition that its marked set, start and groups respect
(:func:`search_quotient`): a ``c x c`` walk matrix and Hamiltonian, where
``c`` is the cell count, four on a complete bipartite layout and ``n``
only on a graph without symmetry. The quotient evolves its start with
the spectral propagator (:meth:`SearchQuotient.masses`) and reads its own
eigenvector overlap table (:meth:`SearchQuotient.levels`), both on the
checked Hermitian eigendecomposition; peak finding reads the curves.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .graph import EquitablePartition, Graph, equitable_partition

__all__ = [
    "WalkKind",
    "EigenDecomposition",
    "walk_matrix",
    "eig_hermitian",
    "SearchQuotient",
    "search_quotient",
    "propagate",
    "uniform_state",
    "first_peak",
    "OverlapRow",
]

HERMITICITY_TOL = 1e-10
OVERLAP_EIGENVECTORS = 4  # lowest levels reported per gamma by SearchQuotient.levels
# A sampled curve whose range is within this fraction of its maximum is flat
# up to rounding (p(t) = 1 when every vertex is marked), and first_peak
# reports its first sample instead of a crest of the rounding noise.
FLAT_TOL = 1e-10
# Rates are diagonalised together in runs whose Hamiltonian stack holds at
# most this many entries (512 KiB of float64): a reduced 4x4 sweep is one
# eigh call, and a quotient of 256 cells or more (c = n on a graph without
# symmetry) is solved one rate at a time, holding what one solve holds.
STACK_ENTRIES = 2**16


class WalkKind(enum.Enum):
    """Which generator ``W_r = A - r D`` drives the walk; :attr:`ratio` is its ``r``.

    The Laplacian ``A - D`` is ``r = 1``, the adjacency walk ``A`` is ``r =
    0`` and the signless Laplacian ``A + D`` is ``r = -1``.
    """

    LAPLACIAN = ("laplacian", 1.0)
    ADJACENCY = ("adjacency", 0.0)
    SIGNLESS_LAPLACIAN = ("signless", -1.0)

    def __new__(cls, value: str, ratio: float) -> WalkKind:
        member = object.__new__(cls)
        member._value_ = value
        member.ratio = ratio
        return member


def _checked_gamma(gamma: float | Sequence[float] | np.ndarray) -> np.ndarray:
    """``gamma``, one rate or a 1-D sequence, as floats.

    ``ValueError`` unless every rate is finite and nonnegative.
    """
    gamma = np.asarray(gamma, dtype=float)
    if gamma.ndim > 1 or not np.all(np.isfinite(gamma) & (gamma >= 0)):
        raise ValueError("gamma must be finite and nonnegative")
    return gamma


def walk_matrix(part: EquitablePartition, kind: WalkKind) -> np.ndarray:
    """The ``c x c`` generator ``W_r = A - r D`` of ``kind`` on the cells of ``part``.

    It acts on the normalised cell states: entries ``arcs[i, j] /
    sqrt(sizes[i] sizes[j])``, less ``r`` (:attr:`WalkKind.ratio`) times
    the cell degree on the diagonal. Multiplying by 1, 0 or -1 is exact,
    so the diagonal is what adding or subtracting the degree gives, bit
    for bit. On the discrete partition every size is 1, so it is the
    graph's own ``n x n`` matrix, bit for bit.
    """
    # filled only where cells touch: a discrete partition has about 2m of n^2
    rows, cols = np.nonzero(part.arcs)
    out = np.zeros(part.arcs.shape)
    pairs = (part.sizes[rows] * part.sizes[cols]).astype(float)
    out[rows, cols] = part.arcs[rows, cols] / np.sqrt(pairs)
    degrees = (part.arcs.sum(axis=1) // part.sizes).astype(float)
    out[np.diag_indices_from(out)] -= kind.ratio * degrees
    return out


def _oracle_shifted(
    gamma: float | np.ndarray, w: np.ndarray, marked: np.ndarray | list[int]
) -> np.ndarray:
    """``-gamma * w`` with 1 subtracted at each ``marked`` diagonal entry.

    A 1-D array of rates gives the stack of their matrices, shape
    ``(len(gamma), *w.shape)``. A product past the float range is
    infinite, which :func:`eig_hermitian` refuses.
    """
    with np.errstate(over="ignore"):
        h = -np.asarray(gamma)[..., None, None] * w
    h[..., marked, marked] -= 1.0
    return h


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (real, ascending) and orthonormal eigenvector columns.

    ``eigenvectors`` is square: one row per basis state and one column per
    eigenvalue, real for a real matrix. Columns carry no phase convention,
    and within an exactly degenerate eigenvalue no particular basis. The
    decomposition of a stack of matrices holds stacks of these arrays,
    shapes ``(..., d)`` and ``(..., d, d)``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[-1]


def eig_hermitian(h: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix or a stack of them: ``eigh``'s arrays.

    ``h`` has shape ``(d, d)`` or ``(..., d, d)``. Each matrix is checked
    to have finite entries (the message names the largest entry of the
    first that has not: ``inf`` or ``nan``) and to be Hermitian to within
    ``HERMITICITY_TOL`` of its own largest entry (the message names the
    deviation of the first that is not), then the whole stack goes to one
    ``eigh`` call, whose output is returned unchanged: ascending
    eigenvalues and orthonormal eigenvector columns (real for a real
    ``h``), each matrix's bit for bit as its own call would give them.
    Each column is fixed only up to a phase (a sign for real input), and
    an exactly degenerate eigenspace gets whichever orthonormal basis
    LAPACK finds. Repeated calls on the same input in one process return
    the same arrays; another NumPy or LAPACK build may choose other phases
    or bases.
    """
    h = np.asarray(h)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError("matrix must be square")
    entries = (-2, -1)
    # the largest entry is finite only if every entry is
    scale = np.max(np.abs(h), axis=entries, initial=0.0)
    if not np.isfinite(scale).all():
        raise ValueError(f"matrix has a non-finite entry ({scale[~np.isfinite(scale)][0]:g})")
    scale = np.maximum(1.0, scale)
    deviation = np.max(np.abs(h - np.swapaxes(h, -1, -2).conj()), axis=entries, initial=0.0)
    failed = deviation > HERMITICITY_TOL * scale
    if failed.any():
        raise ValueError(f"matrix is not Hermitian (deviation {deviation[failed][0]:g})")
    return EigenDecomposition(*np.linalg.eigh(h))


class SearchQuotient(NamedTuple):
    """A search on the normalised cell states of an equitable partition.

    ``walk`` is the partition's ``c x c`` quotient walk matrix, ``marked``
    the cells of the marked vertices, ``state`` the start (or probe) on the
    cell states and ``shares[i, g]`` 1 if cell ``i`` is part of group ``g``
    and 0 if not: each group is a union of cells. :func:`search_quotient`
    finds it by refining a graph, :func:`~qwsearch.bipartite.class_quotient`
    writes it down for a complete bipartite layout; nothing in it grows
    with the vertex count.
    :meth:`masses` evolves the state, and :meth:`levels` reads the
    overlap table, probed by the state. Both read one spectrum, solved in
    runs of rates, and sum a group's mass over its cells through ``shares``.
    """

    walk: np.ndarray
    marked: np.ndarray
    state: np.ndarray
    shares: np.ndarray

    def hamiltonian(self, gamma: float | Sequence[float] | np.ndarray) -> np.ndarray:
        """The quotient search Hamiltonian ``-gamma W_q - M_q``.

        A 1-D sequence of rates gives the stack of their Hamiltonians.
        """
        return _oracle_shifted(_checked_gamma(gamma), self.walk, self.marked)

    def sweep(
        self, gammas: Sequence[float] | np.ndarray, times: Sequence[float] | np.ndarray
    ) -> Iterator[np.ndarray]:
        """:meth:`masses` at each rate of ``gammas`` in turn.

        ``gammas`` is a 1-D sequence of rates and ``times`` the samples of
        :func:`propagate`, both checked here. The times are split into
        anchors and offsets once for all rates. The rates are diagonalised
        in runs (see ``STACK_ENTRIES``), one :func:`eig_hermitian` call on
        each run's stack, then each is propagated on its own, so only one
        ``len(times) x c`` phase table is held at a time.
        """
        rates = _checked_gamma(gammas)
        if rates.ndim != 1:
            raise ValueError("gammas must be a 1-D sequence of rates")
        return self._swept(rates, _split_times(times))

    def _solved(self, rates: np.ndarray) -> Iterator[tuple[np.ndarray, EigenDecomposition]]:
        """Runs of ``rates`` of at most ``STACK_ENTRIES`` entries, each with its solved stack."""
        step = max(1, STACK_ENTRIES // max(len(self.walk), 1) ** 2)
        for start in range(0, rates.size, step):
            run = rates[start : start + step]
            yield run, eig_hermitian(self.hamiltonian(run))

    def _swept(self, rates: np.ndarray, split: _TimeSplit) -> Iterator[np.ndarray]:
        touched = np.flatnonzero(self.shares.any(axis=1))
        shares = self.shares[touched]
        for run, stack in self._solved(rates):
            for k in range(run.size):
                decomp = EigenDecomposition(stack.eigenvalues[k], stack.eigenvectors[k])
                yield np.abs(_propagated(decomp, self.state, split, touched)) ** 2 @ shares
            # let this run's eigenvectors go before the next run is solved
            del stack, decomp

    def masses(self, gamma: float, times: Sequence[float] | np.ndarray) -> np.ndarray:
        """Mass of each group at each time, shape ``(len(times), groups)``.

        Group ``g`` holds ``sum_i |q_i(t)|^2 shares[i, g]``, the mass of
        its cells. Only the cells of some group are propagated. This is
        :meth:`sweep` of the one rate.
        """
        (masses,) = self.sweep([gamma], times)
        return masses

    def levels(self, gammas: Sequence[float] | np.ndarray) -> list[OverlapRow]:
        """Eigenvector overlap table across jumping rates.

        The rates are diagonalised in runs as :meth:`sweep` solves them, and
        the rows report the lowest ``OVERLAP_EIGENVECTORS`` levels ``psi_n``
        of each rate: ``|<state|psi_n>|^2``, the mass of ``psi_n`` on group 0
        and on group 1, summed through ``shares`` as :meth:`masses` sums a
        group, and the eigenvalue. The ``overlaps`` command reads it on a
        bipartite layout, whose groups 0 and 1 are the marked classes a and b:
        the class model on the nonempty classes, 4x4 at most. Exactly tied
        levels keep ``np.linalg.eigh``'s order. Levels that split by less than
        ``eigh``'s accuracy (about machine epsilon times the Hamiltonian's
        scale; on a bipartite layout, a with b and c with d as gamma -> 0) are
        a near-degenerate pair: ``eigh`` may return any basis of their span,
        so the rows of each level depend on the basis (on the cell order, for
        one) and only their sums over the pair are determined. Rows are
        ordered by the given gamma sequence and then by ``n``.
        """
        rates = np.fromiter(gammas, dtype=float)
        if not rates.size:
            raise ValueError("gamma list must be nonempty")
        if abs(np.linalg.norm(self.state) - 1.0) > 1e-8:
            raise ValueError("probe state must be normalized")
        if self.shares.shape[1] < 2:
            raise ValueError("levels needs groups 0 and 1")
        rows: list[OverlapRow] = []
        for run, stack in self._solved(rates):
            count = min(OVERLAP_EIGENVECTORS, stack.dim)
            vectors = stack.eigenvectors[..., :count]
            # each level's mass on the cells of groups 0 and 1
            sides = (np.swapaxes(np.abs(vectors) ** 2, -1, -2) @ self.shares[:, :2]).tolist()
            values = stack.eigenvalues[:, :count].tolist()
            for g, gamma in enumerate(run.tolist()):
                for n in range(count):
                    s_overlap = float(np.abs(np.vdot(self.state, vectors[g, :, n])) ** 2)
                    rows.append(OverlapRow(gamma, n, s_overlap, *sides[g][n], values[g][n]))
        return rows


def _group_vertices(group: Iterable[int], n: int, what: str = "row index") -> np.ndarray:
    """Sorted distinct vertices of ``group``, checked as the ``rows`` of :func:`propagate`.

    ``ValueError`` for a vertex that is not an integer (a float, a string),
    and ``"{what} out of range"`` for one outside ``[0, n)``, past int64 too.
    """
    vertices = group if isinstance(group, np.ndarray) else list(group)
    array = np.asarray(vertices)
    if array.dtype.kind not in "biu" or array.ndim != 1:
        # no integer vector to NumPy: a float or string vertex (named here),
        # no vertex at all, or an int past int64 (held as an object)
        for v in vertices:
            if not isinstance(v, (int, np.integer)):
                raise ValueError(f"vertex {v!r} is not an integer")
        array = np.array(vertices, dtype=object)
    if array.size and (array.min() < 0 or array.max() >= n):
        raise ValueError(f"{what} out of range")
    return np.unique(array.astype(np.intp))


def _marked_vertices(marked: Iterable[int], n: int) -> list[int]:
    """:func:`_group_vertices` of ``marked``, as a list; ``ValueError`` if empty."""
    vertices = _group_vertices(marked, n, "marked vertex").tolist()
    if not vertices:
        raise ValueError("marked set must be nonempty")
    return vertices


def search_quotient(
    graph: Graph,
    walk: WalkKind,
    marked: Iterable[int],
    psi0: np.ndarray,
    groups: Sequence[Iterable[int]],
) -> SearchQuotient:
    """The quotient of a search on ``graph``, found by colour refinement.

    Search from ``psi0`` stays in the span of the normalised cell states of
    the coarsest equitable partition of ``graph`` on which the marked set,
    ``psi0`` and membership of each vertex group in ``groups`` are
    constant (Godsil & Royle, *Algebraic Graph Theory*, ch. 9), so every
    group is a union of cells. On K_{n1,n2} with the classes as groups its
    cells are the nonempty classes. A graph without symmetry gets the
    discrete partition, whose quotient is the search Hamiltonian itself.
    The start on the cells is ``q0[i] = sqrt(|cell i|) psi0[v_i]`` and
    ``shares[i, g]`` is 1 if ``v_i`` is in group ``g`` and 0 if not
    (``v_i`` the first vertex of cell ``i``). The marked set must be a
    nonempty set of vertices, and the vertices of ``groups`` are checked
    as the ``rows`` of :func:`propagate`.
    """
    marked = _marked_vertices(marked, graph.n)
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (graph.n,):
        raise ValueError("state dimension does not match the graph")
    members = np.zeros((graph.n, len(groups)), dtype=bool)
    for g, group in enumerate(groups):
        members[_group_vertices(group, graph.n), g] = True
    is_marked = np.isin(np.arange(graph.n), marked)
    part = equitable_partition(graph, np.column_stack([members, is_marked, psi0.real, psi0.imag]))
    _, first = np.unique(part.cells, return_index=True)
    return SearchQuotient(walk_matrix(part, walk), np.unique(part.cells[marked]),
                          np.sqrt(part.sizes) * psi0[first], members[first].astype(float))


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

    ``times`` must be finite and nonnegative, in any order. Each is split
    exactly as ``t = a + d`` (:class:`_TimeSplit`), and its phase is the
    one complex product ``exp(-i L a) exp(-i L d)``: ``cos`` and ``sin``
    run only on the ``ceil(sqrt(len(times)))`` anchors ``a`` and on the
    distinct offsets ``d``, a few hundred of 2000 on a uniform grid. The
    factors' angles ``fl(L a)`` and ``fl(L d)`` round by about as much as
    ``fl(L t)`` does, so the phases keep the accuracy of ``cos(fl(L t))``
    to a few units in the last place. The table holds 16 bytes per entry,
    and the offsets' own table as much again when no two offsets repeat.

    ``rows`` selects the basis states (vertices) whose amplitudes are
    returned, in the given order; ``None`` returns all ``dim`` of them. The
    selection is applied to the eigenvectors before the product with the
    phases, so a success curve over a few marked vertices costs
    ``len(rows)`` rather than ``dim`` columns per time step.
    """
    decomp = h if isinstance(h, EigenDecomposition) else eig_hermitian(h)
    return _propagated(decomp, psi0, _split_times(times), rows)


class _TimeSplit(NamedTuple):
    """Times ``t[i] = anchors[i // block] + offsets[inverse[i]]``, exactly.

    Blocks of ``block = ceil(sqrt(len(t)))`` consecutive samples share an
    anchor ``a``: the block's smallest time rounded down to a multiple of
    the spacing of floats at its largest. Then ``a`` and each time ``t`` of
    the block are multiples of ``ulp(t)`` and ``0 <= t - a <= t``, so the
    offset ``t - a`` is a float and the subtraction is exact, for any
    finite nonnegative times in any order. On a uniform grid the anchor is
    the block's first time, except where a block crosses a power of two.
    ``offsets`` holds the distinct offsets, ascending.
    """

    block: int
    anchors: np.ndarray
    offsets: np.ndarray
    inverse: np.ndarray

    def phases(self, eigenvalues: np.ndarray) -> np.ndarray:
        """``exp(-i t L)``, one row per time and one column per eigenvalue."""
        table = np.take(_phases(self.offsets, eigenvalues), self.inverse, axis=0)
        anchors = _phases(self.anchors, eigenvalues)
        # each row times its block's anchor phase, in place: one complex product per entry
        whole = table.shape[0] // self.block
        blocks = table[: whole * self.block].reshape(whole, self.block, table.shape[1])
        blocks *= anchors[:whole, None]
        table[whole * self.block :] *= anchors[whole:]
        return table


def _split_times(times: Sequence[float] | np.ndarray) -> _TimeSplit:
    """The :class:`_TimeSplit` of ``times``, read flat.

    ``ValueError`` unless every time is finite and nonnegative.
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    if not np.all(np.isfinite(times) & (times >= 0)):
        raise ValueError("evolution times must be finite and nonnegative")
    block = math.isqrt(times.size - 1) + 1 if times.size else 1
    starts = np.arange(0, times.size, block)
    lowest = np.minimum.reduceat(times, starts)
    # ulp of each block's largest time, as twice that of its half: the
    # spacing at the largest float itself would overflow
    spacing = 2.0 * np.spacing(0.5 * np.maximum.reduceat(times, starts))
    anchors = lowest - np.fmod(lowest, spacing)
    offsets, inverse = np.unique(times - np.repeat(anchors, block)[: times.size],
                                 return_inverse=True)
    return _TimeSplit(block, anchors, offsets, inverse)


def _phases(times: np.ndarray, eigenvalues: np.ndarray) -> np.ndarray:
    """``exp(-i x)`` of the outer product ``x = times x eigenvalues``, as ``cos x - i sin x``."""
    angles = np.outer(times, eigenvalues)
    phases = np.empty(angles.shape, dtype=complex)
    np.cos(angles, out=phases.real)
    np.negative(np.sin(angles, out=phases.imag), out=phases.imag)
    return phases


def _propagated(
    decomp: EigenDecomposition,
    psi0: np.ndarray,
    split: _TimeSplit,
    rows: Sequence[int] | np.ndarray | None,
) -> np.ndarray:
    """:func:`propagate` on times already split, so a sweep splits its grid once."""
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (decomp.dim,):
        raise ValueError("state dimension does not match operator")
    basis = decomp.eigenvectors
    if rows is not None:
        rows = np.asarray(rows, dtype=np.intp)
        if rows.size and (rows.min() < 0 or rows.max() >= decomp.dim):
            raise ValueError("row index out of range")
        basis = basis[rows]
    coeffs = decomp.eigenvectors.conj().T @ psi0
    return split.phases(decomp.eigenvalues) @ (basis * coeffs).T


def uniform_state(n: int) -> np.ndarray:
    """Uniform superposition over ``n`` vertices."""
    if n < 1:
        raise ValueError("dimension must be positive")
    return np.full(n, 1.0 / np.sqrt(n), dtype=complex)


def _refine_crest(t: np.ndarray, v: np.ndarray, i: int) -> tuple[float, float]:
    """Quadratic interpolation through the three samples bracketing crest i."""
    # Python floats round as NumPy's float64 scalars do, at a fraction of the cost
    (t0, t1, t2), (v0, v1, v2) = t[i - 1 : i + 2].tolist(), v[i - 1 : i + 2].tolist()
    denom = v0 - 2.0 * v1 + v2
    if denom >= 0.0:
        return t1, v1
    shift = min(max(0.5 * (v0 - v2) / denom, -1.0), 1.0)
    step = 0.5 * (t2 - t0)
    return t1 + shift * step, v1 - 0.25 * (v0 - v2) * shift


def first_peak(
    times: Sequence[float] | np.ndarray, values: Sequence[float] | np.ndarray
) -> tuple[float, float]:
    """Locate the first full-height maximum of a sampled curve.

    Finite-size evolution curves carry fast, low beats on top of the slow
    success envelope, so the literal first local maximum can be a shallow
    ripple far below the real peak. Instead, this scans for the earliest
    local crest whose quadratically refined height comes within 0.1% of the
    global maximum (so equal-height revivals resolve to the first one), and
    falls back to the global maximum sample for monotone curves. A curve
    whose maximum and minimum differ by at most ``FLAT_TOL`` times the
    maximum is flat up to rounding: its first sample is returned.
    Returns ``(t_peak, value_peak)``.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape or t.ndim != 1 or t.size == 0:
        raise ValueError("times and values must be matching nonempty 1-D arrays")
    top = float(v.max())
    if top - float(v.min()) <= FLAT_TOL * abs(top):
        return float(t[0]), float(v[0])
    cutoff = 0.999 * top
    crests = np.flatnonzero((v[1:-1] >= v[:-2]) & (v[1:-1] > v[2:])) + 1
    for i in crests.tolist():
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

