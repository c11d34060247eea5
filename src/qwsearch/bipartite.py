"""Four-class reduced model of spatial search on complete bipartite graphs.

By symmetry, search on a complete bipartite graph confines the dynamics to
the span of four uniform class states: left marked (a), right marked (b),
left unmarked (c), right unmarked (d). This module writes these classes
down as an equitable partition in closed form (:func:`class_quotient`);
its search runs through the same engine as the one on the partition that
colour refinement finds in the built graph (:func:`refined_class_quotient`),
the model's cross-check; its ``adjacency`` and ``hamiltonian(walk, gamma)``
are the reduced operators on the nonempty classes, one quotient for every
walk. On top of it sit the three canonical initial states and the
leading-order theory: each walk's critical rate for a targeted side and
its runtime there, both from one level crossing of ``W_r = A - r D``
(:func:`critical_gamma`, :func:`runtime_table`). At the signless walk's
critical rates sit the closed-form class probabilities, whose first-order
gap is ``pi / t_qa`` (``pi / t_qb`` on the right), and the next-order
eigensystem with its finite-size corrections. The first-order eigensystem
that the gap comes from is the tests' reference
(``tests/first_order_reference.py``).
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .evolve import (
    EigenDecomposition,
    SearchQuotient,
    WalkKind,
    _finite_state,
    _quotient_adjacency,
    propagate,
    search_quotient,
)
from .graph import BipartiteSpec, EquitablePartition, complete_bipartite

__all__ = [
    "InitialStateKind",
    "CriticalSide",
    "FastestWalk",
    "ClosedFormPeak",
    "RuntimeTable",
    "RegimeClassification",
    "DegenerateEigensystem",
    "class_sizes",
    "class_slices",
    "class_partition",
    "class_quotient",
    "refined_class_quotient",
    "initial_state",
    "reduced_to_full",
    "critical_gamma",
    "closed_form_probabilities",
    "next_order_correction",
    "next_order_probabilities",
    "closed_form_peaks",
    "runtime_table",
    "fastest_regime",
]

class InitialStateKind(enum.Enum):
    """The three canonical start states for bipartite search."""

    UNIFORM = "s"  # uniform over all vertices; eigenvector of L
    ADJACENCY_EIGENVECTOR = "sa"  # eigenvector of A with eigenvalue sqrt(n1 n2)
    SIGNLESS_EIGENVECTOR = "sq"  # eigenvector of Q with eigenvalue n


class CriticalSide(enum.Enum):
    """The side whose marked vertices a search at a critical rate targets.

    It means the same for every walk; :func:`critical_gamma` gives each
    walk's rate for it.
    """

    LEFT = "left"
    RIGHT = "right"


class FastestWalk(enum.Enum):
    """The five deterministic searches, in the tie-break order of :class:`RuntimeTable`."""

    LAPLACIAN_LEFT = "laplacian_left"
    LAPLACIAN_RIGHT = "laplacian_right"
    ADJACENCY = "adjacency"
    SIGNLESS_LEFT = "signless_left"
    SIGNLESS_RIGHT = "signless_right"


# the side of each class (a, b, c, d): 0 left, 1 right
_CLASS_SIDE = (0, 1, 0, 1)


def class_sizes(spec: BipartiteSpec) -> tuple[int, int, int, int]:
    """Vertex counts of the classes (a, b, c, d)."""
    return (spec.k1, spec.k2, spec.unmarked1, spec.unmarked2)


def class_slices(spec: BipartiteSpec) -> tuple[range, range, range, range]:
    """Vertex index ranges of the classes in the canonical layout."""
    return (
        range(0, spec.k1),
        range(spec.n1, spec.n1 + spec.k2),
        range(spec.k1, spec.n1),
        range(spec.n1 + spec.k2, spec.n),
    )


def class_partition(spec: BipartiteSpec) -> EquitablePartition:
    """The classes (a, b, c, d) of K_{n1,n2} as an equitable partition, in closed form.

    The nonempty classes are the cells, in that order. Two cells on
    opposite sides meet in ``sizes[i] sizes[j]`` arcs, two on one side in
    none, and ``cells`` is ``None``: nothing grows with ``n``. The counts
    are Python integers, exact also where ``n1 n2`` passes 2^63.
    """
    sizes = np.array(class_sizes(spec), dtype=object)
    across = np.not_equal.outer(_CLASS_SIDE, _CLASS_SIDE)
    active = np.flatnonzero(sizes)
    arcs = (np.outer(sizes, sizes) * across)[np.ix_(active, active)]
    return EquitablePartition(None, sizes[active], arcs)


def class_quotient(spec: BipartiteSpec, state: np.ndarray) -> SearchQuotient:
    """The search from the class-basis ``state`` on :func:`class_partition`.

    Its groups are the four classes (a, b, c, d); an empty class is a
    group that no cell meets. ``state`` is checked as
    :func:`reduced_to_full` checks it: four amplitudes, none on an empty
    class.
    """
    active = np.flatnonzero(class_sizes(spec))
    return SearchQuotient(*_quotient_adjacency(class_partition(spec)), np.flatnonzero(active < 2),
                          _class_state(spec, state)[active], np.eye(4)[active])


def refined_class_quotient(spec: BipartiteSpec, state: np.ndarray) -> SearchQuotient:
    """The search of :func:`class_quotient`, its partition refined in the built graph.

    The cross-check of the class model: colour refinement of K_{n1,n2}, the
    lifted ``state`` and its groups, the four classes, finds the cells
    (:func:`~qwsearch.evolve.search_quotient`), one per nonempty class in
    the vertex order a, c, b, d. Refinement starts from the classes
    themselves, and its first round splits nothing.
    """
    graph, marked = complete_bipartite(spec)
    return search_quotient(graph, marked, reduced_to_full(spec, state), class_slices(spec))


def initial_state(spec: BipartiteSpec, kind: InitialStateKind) -> np.ndarray:
    """One of the three canonical start states, in the class basis.

    - uniform: every vertex carries ``1/sqrt(n)``.
    - adjacency eigenvector: left vertices carry ``1/sqrt(2 n1)`` and right
      vertices ``1/sqrt(2 n2)``; eigenvector of A with eigenvalue
      ``sqrt(n1 n2)``.
    - signless eigenvector: left vertices carry ``sqrt(n2/(n1 n))`` and
      right vertices ``sqrt(n1/(n2 n))``; eigenvector of Q with
      eigenvalue ``n``.
    """
    n, sides = float(spec.n), (float(spec.n1), float(spec.n2))
    # each class's size and side: sides[side] is its own side's size
    classes = zip(class_sizes(spec), _CLASS_SIDE)
    if kind is InitialStateKind.UNIFORM:
        amps = [math.sqrt(k) / math.sqrt(n) for k, _ in classes]
    elif kind is InitialStateKind.ADJACENCY_EIGENVECTOR:
        amps = [math.sqrt(k / (2.0 * sides[side])) for k, side in classes]
    else:
        amps = [math.sqrt(k * sides[1 - side] / (sides[side] * n)) for k, side in classes]
    return np.array(amps, dtype=complex)


def reduced_to_full(spec: BipartiteSpec, reduced: np.ndarray) -> np.ndarray:
    """Expand a class-basis state to the full vertex basis.

    Each class amplitude is spread uniformly over the class's vertices with
    ``1/sqrt(class size)`` weights, preserving the norm. Amplitude on an
    empty class is rejected.
    """
    sizes = np.array(class_sizes(spec))[[0, 2, 1, 3]]  # vertex order a, c, b, d
    amps = _class_state(spec, reduced)[[0, 2, 1, 3]]
    return np.repeat(amps / np.sqrt(np.maximum(sizes, 1)), sizes)


def _class_state(spec: BipartiteSpec, state: np.ndarray) -> np.ndarray:
    """``state`` as four complex class amplitudes, none of them on an empty class.

    ``ValueError`` unless there are four finite ones, or if an empty class carries one.
    """
    state = _finite_state(state)
    if state.shape != (4,):
        raise ValueError("reduced state must have four amplitudes")
    empty = [size == 0 for size in class_sizes(spec)]
    if np.any(np.abs(state[empty]) > 1e-12):
        raise ValueError("nonzero amplitude on an empty vertex class")
    return state


def _crossing(n1: int, n2: int, ratio: float) -> float:
    """``g = sqrt(r^2 (n1 - n2)^2 / 4 + n1 n2) - r (n1 - n2) / 2``, ``n1`` the target side.

    ``r`` is the walk's ratio. At ``gamma = 1/g`` the marked level ``-1 +
    gamma r n2`` crosses the lower level of the unmarked (c, d) block.
    """
    half = 0.5 * ratio * (n1 - n2)
    root = math.sqrt(half * half + float(n1 * n2))
    if math.isinf(root):  # half * half past the float range
        root = math.hypot(half, math.sqrt(float(n1 * n2)))
    # the same g, without the cancellation of root - half when half > 0
    return root - half if half <= 0.0 else float(n1 * n2) / (root + half)


def _runtime(n1: int, n2: int, k1: int, ratio: float) -> float | None:
    """Leading-order ``(pi/2) sqrt((g^2 + n1 n2) / (k1 n2))``, ``None`` if ``k1 == 0``.

    ``g`` is :func:`_crossing`'s, and ``n1`` and ``k1`` are the target side's.
    """
    if k1 < 1:
        return None
    g = _crossing(n1, n2, ratio)
    square = g * g + float(n1 * n2)
    if math.isinf(square):  # g * g past the float range
        return 0.5 * math.pi * math.hypot(g, math.sqrt(float(n1 * n2))) / math.sqrt(k1 * float(n2))
    return 0.5 * math.pi * math.sqrt(square / (k1 * float(n2)))


def critical_gamma(spec: BipartiteSpec, walk: WalkKind, side: CriticalSide) -> float:
    """``walk``'s rate for ``side``, ``1/g`` of :func:`_crossing`.

    Signless ``1/n1`` left and ``1/n2`` right, Laplacian ``1/n2`` left and
    ``1/n1`` right, adjacency ``1/sqrt(n1 n2)`` on both sides.
    """
    n1, n2 = (spec.n1, spec.n2) if side is CriticalSide.LEFT else (spec.n2, spec.n1)
    return 1.0 / _crossing(n1, n2, walk.ratio)


@dataclass(frozen=True)
class DegenerateEigensystem(EigenDecomposition):
    """Perturbation-lifted eigensystem at a critical rate, plus the gap.

    The eigenvalues ascend, and the eigenvectors are the columns in the
    class basis (a, b, c, d). ``delta_e`` is the splitting of the lifted
    doublet, which sets the runtime ``pi / delta_e``. Returned by
    :func:`next_order_correction`, and at first order by the tests'
    reference ``degenerate_correction``.
    """

    delta_e: float


def _sorted_system(pairs: list[tuple[np.ndarray, float]], delta_e: float) -> DegenerateEigensystem:
    """The eigensystem of ``(vector, eigenvalue)`` pairs, stably sorted by eigenvalue."""
    vectors, values = zip(*sorted(pairs, key=lambda pair: pair[1]))
    return DegenerateEigensystem(np.array(values), np.column_stack(vectors), delta_e)


def _mirrored(system: DegenerateEigensystem) -> DegenerateEigensystem:
    """A left-critical eigensystem of the partite-swapped layout, read as the
    right-critical one of the original: classes (a, b, c, d) trade places
    pairwise."""
    return dataclasses.replace(system, eigenvectors=system.eigenvectors[[1, 0, 3, 2]])


def _check_left_doublet(spec: BipartiteSpec) -> None:
    """Refuse layouts without an isolated left-critical doublet {a, u}."""
    if spec.k1 < 1:
        raise ValueError("left-critical degeneracy needs k1 >= 1")
    if spec.n1 == spec.n2:
        raise ValueError("equal sides put the b level on the critical doublet")


def _first_order_gap(spec: BipartiteSpec) -> float:
    """``pi / t_qa``: the left-critical doublet's splitting at first order.

    It refuses what :func:`_check_left_doublet` refuses.
    """
    _check_left_doublet(spec)
    return math.pi / _runtime(spec.n1, spec.n2, spec.k1, WalkKind.SIGNLESS_LAPLACIAN.ratio)


def closed_form_probabilities(
    spec: BipartiteSpec,
    start: InitialStateKind,
    side: CriticalSide,
    t: float | np.ndarray,
):
    """Asymptotic class probabilities of the signless-Laplacian search.

    Valid for large partite sets at the critical rate of ``side``. From the
    uniform start the left-critical probabilities are::

        p_a = (4 n1 n2 / n^2) sin^2(dE t / 2)
        p_b = 0
        p_c = (4 n1 n2^2 / n^3) cos^2(dE t / 2)
              + (4 n1 n2 (n1 - n2) / n^3) cos(dE t / 2) cos((1 + n2/n1) t)
              + n1 (n1 - n2)^2 / n^3
        p_d = same as p_c with the n1/n2 prefactors swapped and the
              cross term negated

    and from the signless eigenvector start::

        p_a = sin^2(dE t / 2),  p_b = 0,
        p_c = (n2 / n) cos^2(dE t / 2),  p_d = (n1 / n) cos^2(dE t / 2)

    with ``dE = pi / t_qa`` the first-order splitting of the critical
    doublet (:func:`_first_order_gap`). The right-critical case is the
    partite-swapped mirror. The four probabilities sum to one for every t.
    Only the uniform and signless starts have closed forms here.
    """
    if start is InitialStateKind.ADJACENCY_EIGENVECTOR:
        raise ValueError("no closed form for the adjacency eigenvector start")
    if side is CriticalSide.RIGHT:
        pa, pb, pc, pd = closed_form_probabilities(spec.swapped(), start, CriticalSide.LEFT, t)
        return pb, pa, pd, pc
    gap = _first_order_gap(spec)
    n1, n2, n = float(spec.n1), float(spec.n2), float(spec.n)
    t = np.asarray(t, dtype=float)
    half = 0.5 * gap * t
    sin2 = np.sin(half) ** 2
    cos2 = np.cos(half) ** 2
    if start is InitialStateKind.UNIFORM:
        cross = np.cos(half) * np.cos((1.0 + n2 / n1) * t)
        pa = (4.0 * n1 * n2 / n**2) * sin2
        pc = (
            (4.0 * n1 * n2**2 / n**3) * cos2
            + (4.0 * n1 * n2 * (n1 - n2) / n**3) * cross
            + n1 * (n1 - n2) ** 2 / n**3
        )
        pd = (
            (4.0 * n1**2 * n2 / n**3) * cos2
            - (4.0 * n1 * n2 * (n1 - n2) / n**3) * cross
            + n2 * (n1 - n2) ** 2 / n**3
        )
    else:
        pa, pc, pd = sin2, (n2 / n) * cos2, (n1 / n) * cos2
    probs = (pa, np.zeros_like(pa), pc, pd)
    return tuple(map(float, probs)) if pa.ndim == 0 else probs


def _symmetric_2x2(
    alpha: float, beta: float, delta: float
) -> list[tuple[np.ndarray, float]]:
    """Eigenpairs of ``[[alpha, beta], [beta, delta]]``, lower value first."""
    mean = 0.5 * (alpha + delta)
    radius = math.hypot(0.5 * (alpha - delta), beta)
    angle = 0.5 * math.atan2(2.0 * beta, alpha - delta)
    cos, sin = math.cos(angle), math.sin(angle)
    return [(np.array([-sin, cos]), mean - radius), (np.array([cos, sin]), mean + radius)]


def _embedded(spec: BipartiteSpec, matrix: np.ndarray) -> np.ndarray:
    """A class-quotient matrix in the fixed (a, b, c, d) 4x4, zero on the empty classes."""
    active = np.flatnonzero(class_sizes(spec))
    out = np.zeros((4, 4))
    out[active[:, None], active] = matrix
    return out


def next_order_correction(
    spec: BipartiteSpec, side: CriticalSide
) -> DegenerateEigensystem:
    """Critical-rate eigensystem carried one order past the degenerate one.

    At ``gamma = 1/n1`` the frame's ``u'`` and ``v'`` are the lower and
    upper eigenvectors of the unmarked (c, d) block of the class
    Hamiltonian, solved by :func:`_symmetric_2x2`. They replace the
    leading-order ``u = (sqrt(n2) c + sqrt(n1) d)/sqrt(n)`` and
    ``v = (sqrt(n1) c - sqrt(n2) d)/sqrt(n)``. In the frame
    ``(a, u' | b, v')`` the far levels ``b`` and ``v'`` are folded into
    the quasi-degenerate doublet ``(a, u')`` by Loewdin partitioning (the
    degenerate perturbation theory of Childs & Goldstone, PRA 70, 022314,
    2004), with the far resolvent taken at the doublet centre ``e0``::

        S = (e0 - h_QQ)^-1 h_QP,    M = [[1, -S^T], [S, 1]]
        T = M (M^T M)^-1/2

    ``T`` is ``M``'s orthogonal polar factor, taken from its SVD. As
    ``M^T M = diag(1 + S^T S, 1 + S S^T)``, the doublet block of ``T^T h T``
    is ``(1 + N)^-1/2 (h_PP + h_PQ S + e0 N) (1 + N)^-1/2`` with
    ``N = S^T S``: second-order partitioning plus its leading energy
    dependence. Both 2x2 blocks are solved in closed form, and the
    O(k/n) coupling left between them is dropped. ``S`` admixes the far
    levels into the doublet states and the doublet into the far levels,
    which is the beat on the success envelope.

    The eigenvalues ascend, and ``delta_e`` is the doublet splitting,
    ``pi / t_qa`` at first order, where the doublet is
    ``(a +/- u)/sqrt(2)`` (``tests/first_order_reference.py``).
    Eigenvalues are off the exact 4x4 ones by O((k/n)^2) and eigenvectors
    by O(k/n). The right-critical case is the partite-swapped mirror. The
    expansion needs a marked vertex on the target side, unequal sides (at
    ``n1 == n2`` the ``b`` level meets the doublet) and, for the frame, an
    unmarked vertex on each side. Other layouts are refused by name.
    """
    if side is CriticalSide.RIGHT:
        return _mirrored(next_order_correction(spec.swapped(), CriticalSide.LEFT))
    _check_left_doublet(spec)
    if spec.unmarked1 < 1 or spec.unmarked2 < 1:
        raise ValueError("the next-order frame needs an unmarked vertex on each side")
    gamma = critical_gamma(spec, WalkKind.SIGNLESS_LAPLACIAN, CriticalSide.LEFT)
    # the Hamiltonian does not read the state
    h_class = _embedded(
        spec, class_quotient(spec, np.zeros(4)).hamiltonian(WalkKind.SIGNLESS_LAPLACIAN, gamma)
    )
    (u, _), (v, _) = _symmetric_2x2(h_class[2, 2], h_class[2, 3], h_class[3, 3])
    # columns a, u', b, v' in the (a, b, c, d) class basis
    frame = np.eye(4)[:, [0, 2, 1, 3]]
    frame[2:, 1], frame[2:, 3] = u, v
    h = frame.T @ h_class @ frame
    centre = 0.5 * (h[0, 0] + h[1, 1])
    s = np.linalg.solve(centre * np.eye(2) - h[2:, 2:], h[2:, :2])
    m = np.block([[np.eye(2), -s.T], [s, np.eye(2)]])
    # T, the orthogonal polar factor of m
    left, _, right = np.linalg.svd(m)
    basis = frame @ left @ right
    h = basis.T @ h_class @ basis
    doublet = _symmetric_2x2(h[0, 0], h[0, 1], h[1, 1])
    far = _symmetric_2x2(h[2, 2], h[2, 3], h[3, 3])
    pairs = [(basis[:, :2] @ vec, value) for vec, value in doublet] + [
        (basis[:, 2:] @ vec, value) for vec, value in far
    ]
    return _sorted_system(pairs, doublet[1][1] - doublet[0][1])


def next_order_probabilities(
    spec: BipartiteSpec,
    start: InitialStateKind,
    side: CriticalSide,
    t: float | np.ndarray,
):
    """Class probabilities of the signless search from the next-order forms.

    Evolves the start state exactly under the eigensystem of
    :func:`next_order_correction`, so the curves carry the finite-size
    beat and the renormalized gap that :func:`closed_form_probabilities`
    drops. Any start state is accepted; ``t`` must be nonnegative. The
    four probabilities sum to one, and the right side's eigensystem is
    the exact partite-swapped mirror of the left's.
    """
    t = np.asarray(t, dtype=float)
    system = next_order_correction(spec, side)
    states = propagate(system, initial_state(spec, start), t.reshape(-1))
    probs = np.moveaxis((np.abs(states) ** 2).reshape(t.shape + (4,)), -1, 0)
    return tuple(map(float, probs)) if t.ndim == 0 else tuple(probs)


@dataclass(frozen=True)
class ClosedFormPeak:
    """One row of the search summary: who evolves where, how fast."""

    walk: WalkKind
    start: InitialStateKind
    gamma_critical: float
    runtime: float
    peak_success: float
    target: CriticalSide | None  # None: the adjacency walk's mixed target


def closed_form_peaks(spec: BipartiteSpec) -> list[ClosedFormPeak]:
    """Asymptotic runtime/success records for all walk and start pairings.

    Laplacian search from the uniform state is deterministic toward the
    targeted side; adjacency search has one critical rate for both sides,
    puts its success on both, and reaches certainty only from its own
    eigenvector; the signless walk reaches certainty only from the signless
    eigenvector. Rates come from :func:`critical_gamma` and runtimes from
    :func:`runtime_table`; rows whose runtime is undefined (no marked
    vertices on the targeted side) are omitted.
    """
    n1, n2, n = float(spec.n1), float(spec.n2), float(spec.n)
    s = InitialStateKind.UNIFORM
    sa = InitialStateKind.ADJACENCY_EIGENVECTOR
    sq = InitialStateKind.SIGNLESS_EIGENVECTOR
    left, right = CriticalSide.LEFT, CriticalSide.RIGHT
    signless = WalkKind.SIGNLESS_LAPLACIAN
    signless_peaks = [(s, 4.0 * n1 * n2 / n**2), (sq, 1.0)]
    adjacency_peaks = [(s, 0.5 + math.sqrt(n1 * n2) / n), (sa, 1.0)]
    # per runtime: walk, targeted side (None: both), and (start, peak) of each row
    setups = {
        FastestWalk.LAPLACIAN_LEFT: (WalkKind.LAPLACIAN, left, [(s, 1.0)]),
        FastestWalk.LAPLACIAN_RIGHT: (WalkKind.LAPLACIAN, right, [(s, 1.0)]),
        FastestWalk.ADJACENCY: (WalkKind.ADJACENCY, None, adjacency_peaks),
        FastestWalk.SIGNLESS_LEFT: (signless, left, signless_peaks),
        FastestWalk.SIGNLESS_RIGHT: (signless, right, signless_peaks),
    }
    rows: list[ClosedFormPeak] = []
    for label, runtime in zip(FastestWalk, runtime_table(spec)):
        if runtime is not None:
            walk, side, peaks = setups[label]
            rate = critical_gamma(spec, walk, side or left)  # adjacency: the same on both
            rows += [ClosedFormPeak(walk, start, rate, runtime, peak, side)
                     for start, peak in peaks]
    return rows


class RuntimeTable(NamedTuple):
    """The five search runtimes in :class:`FastestWalk` order, ``None`` when undefined."""

    t_la: float | None
    t_lb: float | None
    t_a: float | None
    t_qa: float | None
    t_qb: float | None


def runtime_table(spec: BipartiteSpec) -> RuntimeTable:
    """Runtimes of the five deterministic search algorithms.

    The Laplacian and signless entries are :func:`_runtime`, ``None``
    (not infinity) without a marked vertex on the targeted side. ``t_a`` is
    the adjacency walk's three-level runtime. Every entry is finite, even
    past ``n1 = 10^154``. Each is the n -> infinity time of the success
    maximum; at finite size the first numeric maximum lands later (36.66
    against ``t_qa`` = 35.54 on ``(512, 256, 3, 5)`` from the uniform
    start), and :func:`next_order_probabilities` locates it.
    """
    n1, n2, k1, k2 = spec.n1, spec.n2, spec.k1, spec.k2
    laplacian, signless = WalkKind.LAPLACIAN.ratio, WalkKind.SIGNLESS_LAPLACIAN.ratio
    f1, f2 = float(n1), float(n2)
    marked = float(k2) * f1 + float(k1) * f2
    # past the float range, each term of the sum divided by n1 n2 first
    harmonic = f1 * f2 / marked if math.isfinite(marked) else 1.0 / (k2 / f2 + k1 / f1)
    return RuntimeTable(
        t_la=_runtime(n1, n2, k1, laplacian),
        t_lb=_runtime(n2, n1, k2, laplacian),
        t_a=(math.pi / math.sqrt(2.0)) * math.sqrt(harmonic),
        t_qa=_runtime(n1, n2, k1, signless),
        t_qb=_runtime(n2, n1, k2, signless),
    )


@dataclass(frozen=True)
class RegimeClassification:
    """Which walk searches fastest for a bipartite layout.

    ``thresholds`` carries the analytic transition points on the marked
    count of the larger side (``threshold_axis``), valid when the sides
    differ; ``near_regular`` flags layouts with ``|n1 - n2| < sqrt(n)``,
    where all three walks behave like the adjacency walk and the
    distinctions above lose meaning.
    """

    fastest: FastestWalk
    runtimes: RuntimeTable
    near_regular: bool
    threshold_axis: str | None
    thresholds: tuple[float, float] | None


RUNTIME_TIE_RTOL = 1e-12


def fastest_regime(spec: BipartiteSpec) -> RegimeClassification:
    """Classify the fastest walk; ties fall to the fixed order.

    The tie-break order is Laplacian-left, Laplacian-right, adjacency,
    signless-left, signless-right. Runtimes within a relative 1e-12 of the
    minimum count as tied, so algebraically exact ties that land one ulp
    apart in floating point still resolve by the fixed order.
    """
    table = runtime_table(spec)
    tied = (1.0 + RUNTIME_TIE_RTOL) * min(value for value in table if value is not None)
    fastest = next(label for label, value in zip(FastestWalk, table)
                   if value is not None and value <= tied)
    # thresholds on the larger side's marked count, from the layout with
    # that side on the left
    axis, thresholds = None, None
    if spec.n1 != spec.n2:
        axis = "k1" if spec.n1 > spec.n2 else "k2"
        wide = spec if spec.n1 > spec.n2 else spec.swapped()
        n1, n2, n = float(wide.n1), float(wide.n2), float(wide.n)
        # the difference of the ints: past 2^53 unequal sides can round to one float
        gap = float(wide.n1 - wide.n2)
        thresholds = (
            wide.k2 * n1 * gap / (n2 * n),
            wide.k2 * n1 * n / (n2 * gap),
        )
        if not all(map(math.isfinite, thresholds)):  # a product past the float range
            ratio = wide.k2 * (n1 / n2)
            thresholds = (ratio * (gap / n), ratio * (n / gap))
    near_regular = abs(spec.n1 - spec.n2) < math.sqrt(spec.n)
    return RegimeClassification(
        fastest=fastest,
        runtimes=table,
        near_regular=near_regular,
        threshold_axis=axis,
        thresholds=thresholds,
    )
