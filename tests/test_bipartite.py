import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_is_the_class_walk,
    bipartite_specs,
    quotient_walk,
    uncollapsed_propagate,
)
from dense_reference import SearchInstance, dense_walk_matrix, search_hamiltonian
from first_order_reference import asymptotic_eigensystem_h0, degenerate_correction
from qwsearch.bipartite import (
    CriticalSide,
    FastestWalk,
    InitialStateKind,
    RuntimeTable,
    class_partition,
    class_quotient,
    class_sizes,
    class_slices,
    closed_form_peaks,
    closed_form_probabilities,
    critical_gamma,
    fastest_regime,
    initial_state,
    next_order_correction,
    next_order_probabilities,
    reduced_to_full,
    refined_class_quotient,
    runtime_table,
)
from qwsearch.evolve import WalkKind, eig_hermitian
from qwsearch.graph import BipartiteSpec, complete_bipartite, equitable_partition

BENCH_SPEC = BipartiteSpec(512, 256, 3, 5)
SMALL_SPEC = BipartiteSpec(9, 5, 4, 2)


def class_probabilities(spec, psi_full):
    """Probability mass of full-space states ``(..., n)`` on each class, ``(..., 4)``."""
    probs = np.abs(np.asarray(psi_full)) ** 2
    return np.stack([probs[..., list(r)].sum(axis=-1) for r in class_slices(spec)], axis=-1)


def _brute_isometry(spec):
    """Independent class-state isometry built straight from the layout."""
    cols = []
    for size, vertices in zip(class_sizes(spec), class_slices(spec)):
        col = np.zeros(spec.n)
        if size:
            col[list(vertices)] = 1.0 / math.sqrt(size)
        cols.append(col)
    return np.stack(cols, axis=1)


# ---------------------------------------------------------------------------
# reduced operators


@pytest.mark.parametrize("walk", list(WalkKind))
@pytest.mark.parametrize("gamma", [1 / 9, 1 / 5, 0.07])
def test_reduced_hamiltonian_matches_conjugated_full(walk, gamma):
    graph, marked = complete_bipartite(SMALL_SPEC)
    h_full = search_hamiltonian(SearchInstance(walk, graph, marked, gamma))
    iso = _brute_isometry(SMALL_SPEC)
    conjugated = iso.T @ h_full @ iso
    # every class of SMALL_SPEC is nonempty: the quotient is the full 4x4
    reduced = class_quotient(SMALL_SPEC, np.zeros(4)).hamiltonian(walk, gamma)
    assert np.max(np.abs(conjugated - reduced)) <= 1e-12


@given(bipartite_specs(), st.sampled_from(list(WalkKind)))
@settings(max_examples=30, deadline=None)
def test_reduced_walk_matrix_matches_conjugated_full(spec, walk):
    graph, _ = complete_bipartite(spec)
    iso = _brute_isometry(spec)
    conjugated = iso.T @ dense_walk_matrix(graph, walk) @ iso
    expected = quotient_walk(class_quotient(spec, np.zeros(4)), walk)
    # the conjugation zeroes empty-class coordinates; the quotient has none
    active = np.flatnonzero(class_sizes(spec))
    assert np.max(np.abs(conjugated[np.ix_(active, active)] - expected)) <= 1e-9


def test_all_marked_layout_collapses_to_marked_block():
    spec = BipartiteSpec(3, 4, 3, 4)
    h = class_quotient(spec, np.zeros(4)).hamiltonian(WalkKind.SIGNLESS_LAPLACIAN, 0.2)
    # the unmarked classes c and d are empty: only a and b have a level
    assert h.shape == (2, 2)
    assert h[0, 1] == pytest.approx(-0.2 * math.sqrt(12))


def _in_refined_order(spec, merge=False):
    """Sizes and arcs of :func:`class_partition` in the refined cell order a, c, b, d.

    With ``merge``, classes a with b and c with d are one cell each, as
    where swapping the sides fixes the search.
    """
    closed = class_partition(spec)
    active = np.flatnonzero(class_sizes(spec))
    cells = np.zeros((4, 4), dtype=np.int64)  # class -> cell incidence
    for cell, cls in enumerate(c for c in (0, 2, 1, 3) if c in active):
        cells[cls, cell] = 1
    if merge:
        cells = np.zeros((4, 4), dtype=np.int64)
        cells[[0, 1], 0 if spec.k1 else 1] = 1
        cells[[2, 3], 1 if spec.k1 else 0] = 1
    cells = cells[active][:, cells[active].any(axis=0)]
    return cells.T @ closed.sizes, cells.T @ closed.arcs @ cells


# a fifth of the layouts are swap-symmetric: (n, n, k, k)
_SYMMETRIC_SPECS = st.integers(1, 24).flatmap(
    lambda n: st.integers(1, n).map(lambda k: BipartiteSpec(n, n, k, k))
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(*[bipartite_specs(max_side=24)] * 4, _SYMMETRIC_SPECS), st.data())
def test_refined_layout_partition_is_the_class_partition(spec, data):
    # exact, in integers: colour refinement of the built graph finds the
    # closed-form class partition
    graph, marked = complete_bipartite(spec)
    vertices = np.arange(spec.n)
    is_marked = np.isin(vertices, sorted(marked))
    # coloured by the marked set, a probe and the classes a and b
    probes = [initial_state(spec, InitialStateKind.UNIFORM),
              initial_state(spec, InitialStateKind.SIGNLESS_EIGENVECTOR),
              *np.eye(4, dtype=complex)[[i for i in (0, 1) if class_sizes(spec)[i]]]]
    psi = reduced_to_full(spec, data.draw(st.sampled_from(probes)))
    sides = [np.isin(vertices, list(r)) for r in class_slices(spec)[:2]]
    refined = equitable_partition(graph, np.stack([is_marked, psi.real, psi.imag, *sides], 1))
    sizes, arcs = _in_refined_order(spec)
    assert np.array_equal(refined.sizes, sizes)
    assert np.array_equal(refined.arcs, arcs)
    # coloured by the marked set and start alone, with no group: a
    # swap-symmetric search merges a with b and c with d
    start = initial_state(spec, data.draw(st.sampled_from(list(InitialStateKind))))
    psi = reduced_to_full(spec, start)
    refined = equitable_partition(graph, np.stack([is_marked, psi.real, psi.imag], 1))
    symmetric = (spec.n1, spec.k1) == (spec.n2, spec.k2)
    if symmetric:
        assert np.array_equal(start, start[[1, 0, 3, 2]])
    sizes, arcs = _in_refined_order(spec, merge=symmetric)
    assert np.array_equal(refined.sizes, sizes)
    assert np.array_equal(refined.arcs, arcs)


def test_class_partition_counts_past_int64():
    # n1 n2 = 1.2e19 arcs between the sides: int64 arithmetic would wrap
    spec = BipartiteSpec(4 * 10**9, 3 * 10**9, 3, 5)
    part = class_partition(spec)
    assert part.cells is None
    assert part.arcs.sum() == 2 * spec.n1 * spec.n2
    w = quotient_walk(class_quotient(spec, np.zeros(4)), WalkKind.SIGNLESS_LAPLACIAN)
    assert np.diag(w).tolist() == [spec.n2, spec.n1, spec.n2, spec.n1]
    assert w[2, 3] == pytest.approx(math.sqrt(spec.unmarked1 * spec.unmarked2), rel=1e-15)


def test_reduced_hamiltonian_rejects_bad_gamma():
    with pytest.raises(ValueError):
        class_quotient(BENCH_SPEC, np.zeros(4)).hamiltonian(WalkKind.ADJACENCY, -0.1)


# ---------------------------------------------------------------------------
# initial states


def test_uniform_state_small_layout():
    amps = initial_state(SMALL_SPEC, InitialStateKind.UNIFORM)
    expected = np.array([2.0, math.sqrt(2), math.sqrt(5), math.sqrt(3)]) / math.sqrt(14)
    assert np.allclose(amps, expected, atol=1e-15)


@given(bipartite_specs())
@settings(max_examples=60, deadline=None)
def test_initial_states_are_walk_eigenvectors(spec):
    s = initial_state(spec, InitialStateKind.UNIFORM)
    s_a = initial_state(spec, InitialStateKind.ADJACENCY_EIGENVECTOR)
    s_q = initial_state(spec, InitialStateKind.SIGNLESS_EIGENVECTOR)
    for state in (s, s_a, s_q):
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-10)
    # each start on the nonempty classes, where the class quotient acts
    lap = class_quotient(spec, s)
    adj = class_quotient(spec, s_a)
    sig = class_quotient(spec, s_q)
    w_lap = quotient_walk(lap, WalkKind.LAPLACIAN)
    w_adj = quotient_walk(adj, WalkKind.ADJACENCY)
    w_sig = quotient_walk(sig, WalkKind.SIGNLESS_LAPLACIAN)
    assert np.max(np.abs(w_lap @ lap.state)) <= 1e-10
    assert np.max(np.abs(w_adj @ adj.state - math.sqrt(spec.n1 * spec.n2) * adj.state)) <= 1e-10
    assert np.max(np.abs(w_sig @ sig.state - spec.n * sig.state)) <= 1e-10


def _hand_written_starts(spec, kind):
    """The three starts with each class amplitude written out on its own."""
    k1, k2 = float(spec.k1), float(spec.k2)
    u1, u2 = float(spec.unmarked1), float(spec.unmarked2)
    n1, n2, n = float(spec.n1), float(spec.n2), float(spec.n)
    if kind is InitialStateKind.UNIFORM:
        amps = np.array([math.sqrt(k1), math.sqrt(k2), math.sqrt(u1), math.sqrt(u2)]) / math.sqrt(n)
    elif kind is InitialStateKind.ADJACENCY_EIGENVECTOR:
        amps = np.array([math.sqrt(k1 / (2.0 * n1)), math.sqrt(k2 / (2.0 * n2)),
                         math.sqrt(u1 / (2.0 * n1)), math.sqrt(u2 / (2.0 * n2))])
    else:
        amps = np.array([math.sqrt(k1 * n2 / (n1 * n)), math.sqrt(k2 * n1 / (n2 * n)),
                         math.sqrt(u1 * n2 / (n1 * n)), math.sqrt(u2 * n1 / (n2 * n))])
    return amps.astype(complex)


@settings(max_examples=300, deadline=None)
@given(st.one_of(bipartite_specs(), bipartite_specs(max_side=2**60),
                 bipartite_specs(max_side=10**150)), st.sampled_from(list(InitialStateKind)))
@example(BENCH_SPEC, InitialStateKind.SIGNLESS_EIGENVECTOR)
@example(BipartiteSpec(10**150, 1, 10**150, 0), InitialStateKind.SIGNLESS_EIGENVECTOR)
def test_initial_state_is_the_hand_written_amplitudes_bit_for_bit(spec, kind):
    got = initial_state(spec, kind)
    assert got.dtype == complex
    assert got.tobytes() == _hand_written_starts(spec, kind).tobytes()


def test_equal_sides_make_all_starts_coincide():
    spec = BipartiteSpec(7, 7, 2, 3)
    s = initial_state(spec, InitialStateKind.UNIFORM)
    for kind in (
        InitialStateKind.ADJACENCY_EIGENVECTOR,
        InitialStateKind.SIGNLESS_EIGENVECTOR,
    ):
        assert np.allclose(initial_state(spec, kind), s, atol=1e-14)


def test_reduced_to_full_distributes_uniformly():
    e_a = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    full = reduced_to_full(SMALL_SPEC, e_a)
    assert np.allclose(full[:4], 0.5)
    assert not full[4:].any()
    uniform = reduced_to_full(
        SMALL_SPEC, initial_state(SMALL_SPEC, InitialStateKind.UNIFORM)
    )
    assert np.allclose(uniform, 1.0 / math.sqrt(14), atol=1e-15)


def test_reduced_to_full_round_trip_is_identity():
    iso = _brute_isometry(SMALL_SPEC)
    rng = np.random.default_rng(2)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    full = reduced_to_full(SMALL_SPEC, amps)
    assert np.allclose(iso.T @ full, amps, atol=1e-14)
    # the per-class loop it replaced, bit for bit
    for amp, size, vertices in zip(amps, class_sizes(SMALL_SPEC), class_slices(SMALL_SPEC)):
        assert np.array_equal(full[list(vertices)], np.full(size, amp / math.sqrt(size)))


def test_reduced_to_full_rejects_amplitude_on_empty_class():
    spec = BipartiteSpec(3, 3, 0, 1)
    with pytest.raises(ValueError):
        reduced_to_full(spec, np.array([0.5, 0.5, 0.5, 0.5]))


@pytest.mark.parametrize(
    "state, message",
    [
        ([0.5] * 4, "nonzero amplitude on an empty vertex class"),
        ([0.5] * 5, "reduced state must have four amplitudes"),
        ([0.5] * 3, "reduced state must have four amplitudes"),
    ],
    ids=["on-empty-b", "five", "three"],
)
@pytest.mark.parametrize("quotient", [class_quotient, refined_class_quotient],
                         ids=["written", "refined"])
def test_class_quotients_refuse_a_state_that_reduced_to_full_refuses(quotient, state, message):
    # class b of (4, 2, 1, 0) is empty
    with pytest.raises(ValueError, match=f"^{message}$"):
        quotient(BipartiteSpec(4, 2, 1, 0), np.array(state))


# ---------------------------------------------------------------------------
# asymptotic eigensystem


def test_h0_degeneracies_at_critical_rates():
    gamma = critical_gamma(BENCH_SPEC, WalkKind.SIGNLESS_LAPLACIAN, CriticalSide.LEFT)
    pairs = asymptotic_eigensystem_h0(BENCH_SPEC, gamma)
    values = [e for _, e in pairs]
    assert values[0] == pytest.approx(values[2], abs=1e-14)  # a vs u
    assert values[1] != pytest.approx(values[2], abs=1e-6)
    gamma = critical_gamma(BENCH_SPEC, WalkKind.SIGNLESS_LAPLACIAN, CriticalSide.RIGHT)
    pairs = asymptotic_eigensystem_h0(BENCH_SPEC, gamma)
    values = [e for _, e in pairs]
    assert values[1] == pytest.approx(values[2], abs=1e-14)  # b vs u
    mid = 0.5 * (1 / BENCH_SPEC.n1 + 1 / BENCH_SPEC.n2)
    values = sorted(e for _, e in asymptotic_eigensystem_h0(BENCH_SPEC, mid))
    assert np.min(np.diff(values)) > 1e-4


@pytest.mark.parametrize("gamma", [0.0, -0.0, -0.1, math.inf, math.nan])
def test_h0_refuses_a_rate_that_is_not_positive_and_finite(gamma):
    with pytest.raises(ValueError, match="^gamma must be finite and positive$"):
        asymptotic_eigensystem_h0(BENCH_SPEC, gamma)


def test_degenerate_correction_fig_instance():
    left = degenerate_correction(BENCH_SPEC, CriticalSide.LEFT)
    assert left.delta_e == pytest.approx(2 * math.sqrt(3 * 256 / (512 * 768)), abs=1e-15)
    assert math.pi / left.delta_e == pytest.approx(35.54, abs=0.01)
    right = degenerate_correction(BENCH_SPEC, CriticalSide.RIGHT)
    assert math.pi / right.delta_e == pytest.approx(13.77, abs=0.01)
    assert runtime_table(BENCH_SPEC).t_qa == math.pi / left.delta_e


def test_degenerate_correction_requires_marked_side():
    spec = BipartiteSpec(8, 8, 0, 2)
    with pytest.raises(ValueError):
        degenerate_correction(spec, CriticalSide.LEFT)


def test_numeric_eigensystem_converges_to_correction():
    errors = []
    for p in range(9, 15):
        spec = BipartiteSpec(2**p, 2 ** (p - 1), 3, 5)
        quotient = class_quotient(spec, np.zeros(4))
        numeric = eig_hermitian(quotient.hamiltonian(WalkKind.SIGNLESS_LAPLACIAN, 1.0 / spec.n1))
        exact = degenerate_correction(spec, CriticalSide.LEFT)
        value_err = np.max(np.abs(numeric.eigenvalues - exact.eigenvalues))
        overlap_err = max(
            1.0 - abs(np.vdot(exact.eigenvectors[:, i], numeric.eigenvectors[:, i])) ** 2
            for i in range(4)
        )
        errors.append(max(value_err, overlap_err))
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 1e-3


def _doublet_gap(side, eigenvalues):
    # ascending levels when n1 > n2: left-critical b, doublet, v';
    # right-critical doublet, a, v'
    lo = 1 if side is CriticalSide.LEFT else 0
    return eigenvalues[lo + 1] - eigenvalues[lo]


@pytest.mark.parametrize("side", list(CriticalSide))
def test_next_order_is_closer_to_exact_and_both_converge(side):
    """On (2^p, 2^(p-1), 3, 5) the next-order gap and class curves beat the
    first-order ones against the exact 4x4, and both converge to it."""
    gap_errors, s_errors, sq_errors = [], [], []
    for p in range(9, 16):
        spec = BipartiteSpec(2**p, 2 ** (p - 1), 3, 5)
        gamma = critical_gamma(spec, WalkKind.SIGNLESS_LAPLACIAN, side)
        h = class_quotient(spec, np.zeros(4)).hamiltonian(WalkKind.SIGNLESS_LAPLACIAN, gamma)
        exact_gap = _doublet_gap(side, eig_hermitian(h).eigenvalues)
        gap_errors.append(
            tuple(
                abs(correction(spec, side).delta_e - exact_gap)
                for correction in (next_order_correction, degenerate_correction)
            )
        )
        table = runtime_table(spec)
        runtime = table.t_qa if side is CriticalSide.LEFT else table.t_qb
        times = np.linspace(0.0, 2.0 * runtime, 2000)
        for start, errors in (
            (InitialStateKind.UNIFORM, s_errors),
            (InitialStateKind.SIGNLESS_EIGENVECTOR, sq_errors),
        ):
            numeric = class_quotient(spec, initial_state(spec, start)).masses(
                WalkKind.SIGNLESS_LAPLACIAN, gamma, times
            )
            errors.append(
                tuple(
                    np.max(np.abs(np.stack(form(spec, start, side, times), axis=1) - numeric))
                    for form in (next_order_probabilities, closed_form_probabilities)
                )
            )
    for errors in (gap_errors, s_errors, sq_errors):
        assert all(nxt < lead for nxt, lead in errors)
        for series in zip(*errors):
            assert all(b < a for a, b in zip(series, series[1:]))
    assert max(s_errors[0][0], sq_errors[0][0]) < 0.01


def test_next_order_eigensystem_matches_exact_at_bench_layout():
    for side in CriticalSide:
        gamma = critical_gamma(BENCH_SPEC, WalkKind.SIGNLESS_LAPLACIAN, side)
        quotient = class_quotient(BENCH_SPEC, np.zeros(4))
        exact = eig_hermitian(quotient.hamiltonian(WalkKind.SIGNLESS_LAPLACIAN, gamma))
        system = next_order_correction(BENCH_SPEC, side)
        vectors = system.eigenvectors
        assert np.max(np.abs(vectors.T @ vectors - np.eye(4))) < 1e-14
        assert np.max(np.abs(exact.eigenvalues - system.eigenvalues)) < 2e-4
        assert system.delta_e == pytest.approx(
            _doublet_gap(side, exact.eigenvalues), rel=2e-4
        )
        for i, vec in enumerate(vectors.T):
            assert abs(np.vdot(vec, exact.eigenvectors[:, i])) ** 2 > 1 - 1e-3
        parts = next_order_probabilities(
            BENCH_SPEC, InitialStateKind.UNIFORM, side, np.linspace(0.0, 100.0, 50)
        )
        assert np.max(np.abs(sum(parts) - 1.0)) < 1e-12


def test_next_order_right_is_swapped_left():
    for spec in (BENCH_SPEC, SMALL_SPEC, BipartiteSpec(40, 300, 7, 2)):
        # both orders mirror through one row permutation of the eigenvectors
        for correction in (next_order_correction, degenerate_correction):
            right = correction(spec, CriticalSide.RIGHT)
            left = correction(spec.swapped(), CriticalSide.LEFT)
            assert right.delta_e == left.delta_e
            assert np.array_equal(right.eigenvalues, left.eigenvalues)
            assert np.array_equal(right.eigenvectors, left.eigenvectors[[1, 0, 3, 2]])
        for start in InitialStateKind:
            for t in (0.0, 7.3, np.linspace(0.0, 50.0, 11)):
                r = next_order_probabilities(spec, start, CriticalSide.RIGHT, t)
                l = next_order_probabilities(spec.swapped(), start, CriticalSide.LEFT, t)
                for got, want in zip(r, (l[1], l[0], l[3], l[2])):
                    assert np.array_equal(got, want)


def test_next_order_refuses_unmarked_target_and_equal_sides():
    cases = [
        (BipartiteSpec(16, 8, 0, 3), CriticalSide.LEFT, None),
        (BipartiteSpec(16, 8, 3, 0), CriticalSide.RIGHT, None),
        (BipartiteSpec(8, 8, 2, 3), CriticalSide.LEFT, None),
        (BipartiteSpec(8, 8, 2, 3), CriticalSide.RIGHT, None),
    ]
    # an empty unmarked class leaves the frame's (c, d) block without a
    # vertex on one side; each layout also mirrored to the right side
    no_frame = "^the next-order frame needs an unmarked vertex on each side$"
    for spec in (BipartiteSpec(40, 100, 40, 2), BipartiteSpec(2000, 600, 5, 600),
                 BipartiteSpec(1, 3, 1, 1)):
        cases += [(spec, CriticalSide.LEFT, no_frame),
                  (spec.swapped(), CriticalSide.RIGHT, no_frame)]
    for spec, side, message in cases:
        with pytest.raises(ValueError, match=message):
            next_order_correction(spec, side)
        with pytest.raises(ValueError, match=message):
            next_order_probabilities(spec, InitialStateKind.UNIFORM, side, 1.0)


# ---------------------------------------------------------------------------
# closed forms


def test_first_order_forms_refuse_equal_sides():
    # at n1 == n2 the b level joins the critical doublet (a triplet), so the
    # first-order forms refuse it, with next_order_correction's message
    spec = BipartiteSpec(8, 8, 2, 3)
    for side in CriticalSide:
        with pytest.raises(ValueError, match="equal sides"):
            degenerate_correction(spec, side)
        for start in (InitialStateKind.UNIFORM, InitialStateKind.SIGNLESS_EIGENVECTOR):
            with pytest.raises(ValueError, match="equal sides"):
                closed_form_probabilities(spec, start, side, 1.0)


def test_closed_form_rejects_adjacency_start():
    with pytest.raises(ValueError):
        closed_form_probabilities(
            BENCH_SPEC, InitialStateKind.ADJACENCY_EIGENVECTOR, CriticalSide.LEFT, 1.0
        )


def test_closed_form_needs_marked_target_side():
    spec = BipartiteSpec(16, 8, 0, 3)
    with pytest.raises(ValueError):
        closed_form_probabilities(spec, InitialStateKind.UNIFORM, CriticalSide.LEFT, 1.0)


@pytest.mark.parametrize("layout", [(40, 100, 40, 2), (2000, 600, 5, 600)])
@pytest.mark.parametrize("side", list(CriticalSide))
def test_closed_form_refuses_an_empty_unmarked_class(layout, side):
    # (40, 100, 40, 2) has no vertex in class c, (2000, 600, 5, 600) none in
    # class d, yet the forms put weight on both; on the right the layout is
    # mirrored, so the same class is empty after the swap
    spec = BipartiteSpec(*layout)
    if side is CriticalSide.RIGHT:
        spec = spec.swapped()
    for start in (InitialStateKind.UNIFORM, InitialStateKind.SIGNLESS_EIGENVECTOR):
        with pytest.raises(
            ValueError, match="^the closed forms need an unmarked vertex on each side$"
        ):
            closed_form_probabilities(spec, start, side, 0.0)


@given(
    bipartite_specs(),
    st.sampled_from([InitialStateKind.UNIFORM, InitialStateKind.SIGNLESS_EIGENVECTOR]),
    st.sampled_from(list(CriticalSide)),
    st.floats(0.0, 200.0),
)
@settings(max_examples=80, deadline=None)
def test_closed_form_probabilities_sum_to_one(spec, start, side, t):
    needed = spec.k1 if side is CriticalSide.LEFT else spec.k2
    if needed < 1 or spec.n1 == spec.n2 or 0 in (spec.unmarked1, spec.unmarked2):
        return
    pa, pb, pc, pd = closed_form_probabilities(spec, start, side, t)
    assert pa + pb + pc + pd == pytest.approx(1.0, abs=1e-12)


def test_closed_form_time_zero_matches_asymptotic_start():
    n1, n2, n = 512.0, 256.0, 768.0
    pa, pb, pc, pd = closed_form_probabilities(
        BENCH_SPEC, InitialStateKind.UNIFORM, CriticalSide.LEFT, 0.0
    )
    assert (pa, pb) == (0.0, 0.0)
    assert pc == pytest.approx(n1 / n, abs=1e-12)
    assert pd == pytest.approx(n2 / n, abs=1e-12)
    pa, pb, pc, pd = closed_form_probabilities(
        BENCH_SPEC, InitialStateKind.SIGNLESS_EIGENVECTOR, CriticalSide.LEFT, 0.0
    )
    assert pc == pytest.approx(n2 / n, abs=1e-12)
    assert pd == pytest.approx(n1 / n, abs=1e-12)


def test_closed_form_peak_values():
    t_star = runtime_table(BENCH_SPEC).t_qa
    pa, pb, pc, pd = closed_form_probabilities(
        BENCH_SPEC, InitialStateKind.UNIFORM, CriticalSide.LEFT, t_star
    )
    assert pa == pytest.approx(4 * 512 * 256 / 768**2, abs=1e-10)
    assert pa == pytest.approx(0.889, abs=5e-4)
    assert pb == 0.0
    pa, pb, pc, pd = closed_form_probabilities(
        BENCH_SPEC, InitialStateKind.SIGNLESS_EIGENVECTOR, CriticalSide.LEFT, t_star
    )
    assert (pa, pb) == (pytest.approx(1.0, abs=1e-10), 0.0)
    assert pc == pytest.approx(0.0, abs=1e-10)
    assert pd == pytest.approx(0.0, abs=1e-10)


@given(
    bipartite_specs(),
    st.sampled_from([InitialStateKind.UNIFORM, InitialStateKind.SIGNLESS_EIGENVECTOR]),
    st.floats(0.0, 100.0),
)
@settings(max_examples=60, deadline=None)
def test_partite_swap_symmetry_is_exact(spec, start, t):
    if spec.k2 < 1 or spec.n1 == spec.n2 or 0 in (spec.unmarked1, spec.unmarked2):
        return
    right = closed_form_probabilities(spec, start, CriticalSide.RIGHT, t)
    swapped = closed_form_probabilities(spec.swapped(), start, CriticalSide.LEFT, t)
    assert right[0] == swapped[1]
    assert right[1] == swapped[0]
    assert right[2] == swapped[3]
    assert right[3] == swapped[2]
    assert runtime_table(spec).t_qb == runtime_table(spec.swapped()).t_qa


def test_runtime_partite_swap_is_exact():
    table = runtime_table(BENCH_SPEC)
    mirrored = runtime_table(BENCH_SPEC.swapped())
    assert table.t_la == mirrored.t_lb
    assert table.t_qa == mirrored.t_qb
    assert table.t_a == mirrored.t_a


# ---------------------------------------------------------------------------
# runtimes and regimes


def test_runtime_formulas():
    table = runtime_table(BipartiteSpec(1024, 256, 8, 5))
    n, n1, n2 = 1280.0, 1024.0, 256.0
    assert table.t_la == 0.5 * math.pi * math.sqrt(n / 8)
    assert table.t_lb == 0.5 * math.pi * math.sqrt(n / 5)
    assert table.t_a == math.pi / math.sqrt(2) * math.sqrt(n1 * n2 / (5 * n1 + 8 * n2))
    assert table.t_qa == 0.5 * math.pi * math.sqrt(n1 * n / (8 * n2))
    assert table.t_qb == 0.5 * math.pi * math.sqrt(n2 * n / (5 * n1))


def _hand_written_runtimes(spec):
    """The five runtimes, each walk's closed form written out on its own."""
    n1, n2, n = float(spec.n1), float(spec.n2), float(spec.n)
    k1, k2 = float(spec.k1), float(spec.k2)
    half_pi = 0.5 * math.pi
    return RuntimeTable(
        t_la=half_pi * math.sqrt(n / k1) if spec.k1 >= 1 else None,
        t_lb=half_pi * math.sqrt(n / k2) if spec.k2 >= 1 else None,
        t_a=(math.pi / math.sqrt(2.0)) * math.sqrt(n1 * n2 / (k2 * n1 + k1 * n2)),
        t_qa=half_pi * math.sqrt(n1 * n / (k1 * n2)) if spec.k1 >= 1 else None,
        t_qb=half_pi * math.sqrt(n2 * n / (k2 * n1)) if spec.k2 >= 1 else None,
    )


def _hand_written_rates(spec):
    """Each walk's critical rate per targeted side, written out on its own."""
    n1, n2 = float(spec.n1), float(spec.n2)
    adjacency = 1.0 / math.sqrt(n1 * n2)
    left, right = CriticalSide.LEFT, CriticalSide.RIGHT
    return {
        (WalkKind.LAPLACIAN, left): 1.0 / n2,
        (WalkKind.LAPLACIAN, right): 1.0 / n1,
        (WalkKind.ADJACENCY, left): adjacency,
        (WalkKind.ADJACENCY, right): adjacency,
        (WalkKind.SIGNLESS_LAPLACIAN, left): 1.0 / n1,
        (WalkKind.SIGNLESS_LAPLACIAN, right): 1.0 / n2,
    }


@settings(max_examples=300, deadline=None)
@given(bipartite_specs(max_side=2**25))
@example(BipartiteSpec(48, 24, 3, 5))
@example(BipartiteSpec(10, 7, 3, 7))
@example(BipartiteSpec(40, 300, 7, 2))
def test_crossing_reproduces_the_hand_written_forms_bit_for_bit(spec):
    """With every product of side sizes below 2^53, the one crossing ``g``
    gives each walk's rate and runtime exactly as its own closed form does,
    and the first-order gap is ``pi / t_qa`` (``pi / t_qb``) itself."""
    table = runtime_table(spec)
    assert table == _hand_written_runtimes(spec)
    rates = _hand_written_rates(spec)
    for (walk, side), rate in rates.items():
        assert critical_gamma(spec, walk, side) == rate
    for row in closed_form_peaks(spec):
        assert row.gamma_critical == rates[(row.walk, row.target or CriticalSide.LEFT)]
    for side, runtime in ((CriticalSide.LEFT, table.t_qa), (CriticalSide.RIGHT, table.t_qb)):
        if runtime is not None and spec.n1 != spec.n2:
            assert degenerate_correction(spec, side).delta_e == math.pi / runtime


@pytest.mark.parametrize("n1, n2", [(10**9, 1000), (2**40, 1), (2**60, 3), (3, 2**60)])
def test_critical_rates_keep_full_precision_on_lopsided_layouts(n1, n2):
    """Where ``r (n1 - n2) / 2`` dwarfs ``n1 n2`` the crossing is found
    without cancellation, so the rates stay within rounding of 1/n1 and 1/n2
    past 2^53 (the difference of the two large terms is 0.0 on (2^60, 3))."""
    spec = BipartiteSpec(n1, n2, 1, 1)
    laplacian, signless = WalkKind.LAPLACIAN, WalkKind.SIGNLESS_LAPLACIAN
    for walk, side, rate in [
        (laplacian, CriticalSide.LEFT, 1 / n2),
        (laplacian, CriticalSide.RIGHT, 1 / n1),
        (signless, CriticalSide.LEFT, 1 / n1),
        (signless, CriticalSide.RIGHT, 1 / n2),
    ]:
        assert critical_gamma(spec, walk, side) == pytest.approx(rate, rel=1e-15, abs=0)


def _min_gap_runtime(spec, walk, side, steps=60):
    """``pi / gap`` at the exact 4x4's narrowest avoided crossing near ``critical_gamma``.

    The gap is between the two adjacent levels that carry the most weight
    on the targeted side's marked class at the critical rate; a
    golden-section search finds its minimum within 25 % of that rate.
    """
    rate = critical_gamma(spec, walk, side)
    quotient = class_quotient(spec, np.zeros(4))
    values, vectors = np.linalg.eigh(quotient.hamiltonian(walk, rate))
    weight = np.abs(vectors[0 if side is CriticalSide.LEFT else 1]) ** 2
    level = int(np.argmax(weight[:-1] + weight[1:]))

    def gap(gamma):
        return np.diff(np.linalg.eigvalsh(quotient.hamiltonian(walk, gamma)))[level]

    lo, hi = 0.75 * rate, 1.25 * rate
    shrink = 0.5 * (math.sqrt(5.0) - 1.0)
    for _ in range(steps):
        a, b = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
        if gap(a) < gap(b):
            hi = b
        else:
            lo = a
    return math.pi / gap(0.5 * (lo + hi))


@pytest.mark.parametrize("side", list(CriticalSide))
@pytest.mark.parametrize("walk", [WalkKind.LAPLACIAN, WalkKind.SIGNLESS_LAPLACIAN])
def test_two_level_runtimes_approach_the_exact_min_gap_time(walk, side):
    """On (2^p, 2^(p-1), 3, 5) the tabled runtime of each two-level search
    approaches ``pi / gap`` at the exact 4x4's avoided crossing, with an
    error that falls about as 1/n."""
    errors = []
    for p in range(6, 15, 2):
        spec = BipartiteSpec(2**p, 2 ** (p - 1), 3, 5)
        table = runtime_table(spec)
        tabled = {
            (WalkKind.LAPLACIAN, CriticalSide.LEFT): table.t_la,
            (WalkKind.LAPLACIAN, CriticalSide.RIGHT): table.t_lb,
            (WalkKind.SIGNLESS_LAPLACIAN, CriticalSide.LEFT): table.t_qa,
            (WalkKind.SIGNLESS_LAPLACIAN, CriticalSide.RIGHT): table.t_qb,
        }[(walk, side)]
        errors.append(abs(_min_gap_runtime(spec, walk, side) - tabled) / tabled)
    assert all(b < a / 3 for a, b in zip(errors, errors[1:])), errors
    assert errors[-1] < 1e-3, errors


def test_numpy_integer_layouts_give_the_python_int_closed_forms():
    # n1 n2 = 2^64 + 2^33 wraps in int64, which would put t_la at about pi
    counts = (2**32, 2**32 + 2, 1, 1)
    wide, exact = BipartiteSpec(*map(np.int64, counts)), BipartiteSpec(*counts)
    assert runtime_table(wide) == runtime_table(exact)
    for walk, side in itertools.product(WalkKind, CriticalSide):
        assert critical_gamma(wide, walk, side) == critical_gamma(exact, walk, side)


def test_runtime_absent_entries_are_none():
    table = runtime_table(BipartiteSpec(16, 8, 0, 2))
    assert table.t_la is None and table.t_qa is None
    assert table.t_lb is not None and table.t_qb is not None and table.t_a is not None


def test_symmetric_layout_equalizes_runtimes():
    table = runtime_table(BipartiteSpec(32, 32, 4, 4))
    assert table.t_la == table.t_lb == table.t_qa == table.t_qb


@pytest.mark.parametrize(
    "k1,expected",
    [
        (8, FastestWalk.SIGNLESS_RIGHT),
        (20, FastestWalk.ADJACENCY),
        (40, FastestWalk.LAPLACIAN_LEFT),
    ],
)
def test_fastest_regime_examples(k1, expected):
    assert fastest_regime(BipartiteSpec(1024, 256, k1, 5)).fastest is expected


def test_fastest_regime_transitions():
    labels = [
        fastest_regime(BipartiteSpec(1024, 256, k1, 5)).fastest for k1 in range(1, 61)
    ]
    switches = [
        k1
        for k1, (prev, cur) in zip(range(2, 61), zip(labels, labels[1:]))
        if prev is not cur
    ]
    assert switches == [12, 34]


def test_fastest_regime_thresholds_and_flag():
    regime = fastest_regime(BipartiteSpec(1024, 256, 8, 5))
    assert regime.threshold_axis == "k1"
    low, high = regime.thresholds
    assert low == pytest.approx(12.0)
    assert high == pytest.approx(100.0 / 3.0)
    assert not regime.near_regular
    assert fastest_regime(BipartiteSpec(100, 101, 3, 5)).near_regular
    assert fastest_regime(BipartiteSpec(50, 50, 3, 5)).thresholds is None
    # past 10^154 the products k2 n1 (n1 - n2) and n2 n pass the float range
    for spec, axis in ((BipartiteSpec(10**160, 10**140, 1, 1), "k1"),
                       (BipartiteSpec(10**140, 10**160, 1, 1), "k2")):
        regime = fastest_regime(spec)
        assert regime.threshold_axis == axis
        assert regime.thresholds == pytest.approx((1e20, 1e20), rel=1e-14)


def test_adjacency_beats_signless_left_when_left_is_larger():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        n2 = int(rng.integers(1, 2000))
        n1 = int(rng.integers(n2 + 1, n2 + 2001))
        k1 = int(rng.integers(1, n1 + 1))
        k2 = int(rng.integers(0, n2 + 1))
        table = runtime_table(BipartiteSpec(n1, n2, k1, k2))
        assert table.t_a < table.t_qa


def test_argmin_consistency_random_specs():
    rng = np.random.default_rng(23)
    order = ["t_la", "t_lb", "t_a", "t_qa", "t_qb"]
    for _ in range(1000):
        n1 = int(rng.integers(1, 300))
        n2 = int(rng.integers(1, 300))
        k1 = int(rng.integers(0, n1 + 1))
        k2 = int(rng.integers(0, n2 + 1))
        if k1 + k2 == 0:
            k1 = 1
        spec = BipartiteSpec(n1, n2, k1, k2)
        table = runtime_table(spec)
        defined = [
            (name, getattr(table, name)) for name in order if getattr(table, name) is not None
        ]
        best = min(v for _, v in defined)
        expected = next(n for n, v in defined if v <= best * (1 + 1e-12))
        mapping = {
            "t_la": FastestWalk.LAPLACIAN_LEFT,
            "t_lb": FastestWalk.LAPLACIAN_RIGHT,
            "t_a": FastestWalk.ADJACENCY,
            "t_qa": FastestWalk.SIGNLESS_LEFT,
            "t_qb": FastestWalk.SIGNLESS_RIGHT,
        }
        assert fastest_regime(spec).fastest is mapping[expected]


def test_threshold_prediction_matches_argmin_for_lopsided_layouts():
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 300:
        n2 = int(rng.integers(2, 200))
        n1 = int(rng.integers(4 * n2, 8 * n2))
        k1 = int(rng.integers(1, n1 + 1))
        k2 = int(rng.integers(1, n2 + 1))
        regime = fastest_regime(BipartiteSpec(n1, n2, k1, k2))
        low, high = regime.thresholds
        if abs(k1 - low) < 1e-9 or abs(k1 - high) < 1e-9:
            continue  # exact boundary: resolved by tie-break, not by region
        if k1 < low:
            assert regime.fastest is FastestWalk.SIGNLESS_RIGHT
        elif k1 < high:
            assert regime.fastest is FastestWalk.ADJACENCY
        else:
            assert regime.fastest is FastestWalk.LAPLACIAN_LEFT
        checked += 1


def test_closed_form_peaks_table():
    rows = closed_form_peaks(BENCH_SPEC)
    assert len(rows) == 8
    by_key = {(r.walk, r.start, r.target): r for r in rows}
    lap_left = by_key[(WalkKind.LAPLACIAN, InitialStateKind.UNIFORM, CriticalSide.LEFT)]
    assert lap_left.gamma_critical == pytest.approx(1 / 256)  # opposite-side rate
    assert lap_left.peak_success == 1.0
    sig_uniform = by_key[
        (WalkKind.SIGNLESS_LAPLACIAN, InitialStateKind.UNIFORM, CriticalSide.LEFT)
    ]
    assert sig_uniform.gamma_critical == pytest.approx(1 / 512)
    assert sig_uniform.peak_success == pytest.approx(4 * 512 * 256 / 768**2)
    assert sig_uniform.runtime == pytest.approx(35.54, abs=0.01)
    adj = by_key[(WalkKind.ADJACENCY, InitialStateKind.UNIFORM, None)]
    assert adj.peak_success == pytest.approx(0.5 + math.sqrt(512 * 256) / 768)
    deterministic = by_key[
        (
            WalkKind.SIGNLESS_LAPLACIAN,
            InitialStateKind.SIGNLESS_EIGENVECTOR,
            CriticalSide.RIGHT,
        )
    ]
    assert deterministic.peak_success == 1.0
    assert deterministic.runtime == pytest.approx(13.77, abs=0.01)


def test_closed_form_peaks_skips_undefined_rows():
    rows = closed_form_peaks(BipartiteSpec(16, 8, 0, 3))
    targets = [r.target for r in rows]
    assert CriticalSide.LEFT not in targets
    assert targets.count(CriticalSide.RIGHT) == 3
    assert targets.count(None) == 2


# ---------------------------------------------------------------------------
# numeric dynamics


def test_full_and_reduced_class_probabilities_agree():
    times = np.arange(0.0, 50.0001, 0.1)
    state = initial_state(SMALL_SPEC, InitialStateKind.UNIFORM)
    for walk in WalkKind:
        for gamma in (1 / 9, 1 / 5, 0.07):
            reduced = class_quotient(SMALL_SPEC, state).masses(walk, gamma, times)
            full = refined_class_quotient(SMALL_SPEC, state).masses(walk, gamma, times)
            assert np.max(np.abs(reduced - full)) <= 1e-9


@pytest.mark.parametrize("walk", list(WalkKind), ids=lambda w: w.value)
def test_refined_class_quotient_finds_the_class_quotient(walk):
    # swapping the sides fixes these searches; the classes colour the
    # refinement, so a and b, and c and d, stay apart all the same
    times = np.linspace(0.0, 40.0, 161)
    gammas = [1.0 / 6.0, 0.07, 0.3]
    for spec, start in itertools.product(
        [BipartiteSpec(6, 6, 2, 2), BipartiteSpec(2, 2, 1, 1), BipartiteSpec(5, 5, 5, 5)],
        InitialStateKind,
    ):
        state = initial_state(spec, start)
        written = class_quotient(spec, state)
        refined = refined_class_quotient(spec, state)
        assert_is_the_class_walk(spec, refined)
        for gamma in gammas:
            got, want = refined.masses(walk, gamma, times), written.masses(walk, gamma, times)
            assert np.max(np.abs(got - want)) <= 1e-12
        got = refined.levels(walk, gammas)
        want = written.levels(walk, gammas)
        assert [(row.gamma, row.n) for row in got] == [(row.gamma, row.n) for row in want]
        for mine, theirs in zip(got, want):
            assert abs(mine.left_overlap - theirs.left_overlap) <= 1e-12
            assert abs(mine.right_overlap - theirs.right_overlap) <= 1e-12


@pytest.mark.parametrize(
    "spec",
    [SMALL_SPEC, BipartiteSpec(40, 24, 40, 3), BipartiteSpec(30, 20, 2, 0),
     BipartiteSpec(6, 6, 2, 2)],
    ids=str,
)
def test_simulate_full_matches_the_uncollapsed_class_curves(spec):
    # reference: class sums of the len(times) x n amplitudes from the
    # spectral form with one phase per eigenvalue; the layouts include
    # empty classes c and b, and one that swapping the sides fixes
    graph, marked = complete_bipartite(spec)
    times = np.linspace(0.0, 80.0, 321)
    for walk in WalkKind:
        for gamma in (1.0 / spec.n1, 1.0 / spec.n2, 0.07):
            decomp = eig_hermitian(
                search_hamiltonian(SearchInstance(walk, graph, marked, gamma))
            )
            for start in InitialStateKind:
                psi0 = reduced_to_full(spec, initial_state(spec, start))
                want = class_probabilities(
                    spec, uncollapsed_propagate(decomp, psi0, times)
                )
                state = initial_state(spec, start)
                got = refined_class_quotient(spec, state).masses(walk, gamma, times)
                assert got.shape == (times.size, 4)
                assert np.max(np.abs(got - want)) <= 1e-12


def test_class_probabilities_from_full_state():
    psi = reduced_to_full(SMALL_SPEC, initial_state(SMALL_SPEC, InitialStateKind.UNIFORM))
    probs = class_probabilities(SMALL_SPEC, psi)
    assert np.allclose(probs, [4 / 14, 2 / 14, 5 / 14, 3 / 14], atol=1e-14)


def test_numeric_agreement_with_closed_form_at_scale():
    """The n -> infinity form stays within 0.10 of the numeric curve at
    (512, 256, 3, 5); the measured gap is 0.073 (s) and 0.081 (sq). Most
    of it is the O(k/n) detuning of a from the unmarked level and the
    renormalized doublet gap; the beat on the envelope adds about 0.02."""
    t_star = runtime_table(BENCH_SPEC).t_qa
    times = np.linspace(0.0, t_star, 2000)
    gamma = critical_gamma(BENCH_SPEC, WalkKind.SIGNLESS_LAPLACIAN, CriticalSide.LEFT)
    for start in (InitialStateKind.UNIFORM, InitialStateKind.SIGNLESS_EIGENVECTOR):
        numeric = class_quotient(BENCH_SPEC, initial_state(BENCH_SPEC, start)).masses(
            WalkKind.SIGNLESS_LAPLACIAN, gamma, times
        )
        closed = closed_form_probabilities(BENCH_SPEC, start, CriticalSide.LEFT, times)[0]
        assert np.max(np.abs(numeric[:, 0] - closed)) <= 0.10


def test_success_is_suppressed_between_critical_rates():
    """Away from both critical rates the peak success stays well below the
    critical-rate peaks (asymptotically it vanishes; at n = 768 the measured
    maximum is ~0.40 against critical peaks of ~0.89)."""
    gamma = 0.5 * (1 / BENCH_SPEC.n1 + 1 / BENCH_SPEC.n2)
    t_hi = 3.0 * runtime_table(BENCH_SPEC).t_qa
    times = np.linspace(0.0, t_hi, 2000)
    state = initial_state(BENCH_SPEC, InitialStateKind.UNIFORM)
    probs = class_quotient(BENCH_SPEC, state).masses(WalkKind.SIGNLESS_LAPLACIAN, gamma, times)
    assert np.max(probs[:, 0] + probs[:, 1]) < 0.5
