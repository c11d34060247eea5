import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bipartite_specs, graphs, quotient_walk, uncollapsed_propagate
from dense_reference import (
    SearchInstance,
    dense_walk_matrix,
    search_hamiltonian,
    success_probability,
)
from first_order_reference import degenerate_correction
from qwsearch import evolve
from qwsearch.bipartite import (
    CriticalSide,
    InitialStateKind,
    class_quotient,
    class_sizes,
    class_slices,
    initial_state,
    reduced_to_full,
)
from qwsearch.evolve import (
    FLAT_TOL,
    EigenDecomposition,
    WalkKind,
    eig_hermitian,
    first_peak,
    propagate,
    search_quotient,
    uniform_state,
)
from qwsearch.graph import BipartiteSpec, Graph, complete_bipartite, equitable_partition


def _random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


def _random_state(rng, n):
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return psi / np.linalg.norm(psi)


# ---------------------------------------------------------------------------
# search_hamiltonian


def test_search_hamiltonian_single_edge():
    g = Graph(2, frozenset({(0, 1)}))
    inst = SearchInstance(WalkKind.ADJACENCY, g, frozenset({0}), 1.0)
    assert search_hamiltonian(inst).tolist() == [[-1, -1], [-1, 0]]


def test_search_hamiltonian_gamma_zero_is_bare_oracle():
    g = Graph(3, frozenset({(0, 1), (1, 2)}))
    inst = SearchInstance(WalkKind.SIGNLESS_LAPLACIAN, g, frozenset({1}), 0.0)
    assert search_hamiltonian(inst).tolist() == [
        [0, 0, 0],
        [0, -1, 0],
        [0, 0, 0],
    ]


def test_search_hamiltonian_is_exactly_symmetric():
    g = Graph(4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))
    for kind in WalkKind:
        h = search_hamiltonian(SearchInstance(kind, g, frozenset({0, 2}), 0.37))
        assert np.array_equal(h, h.T)


def test_search_instance_validation():
    g = Graph(2, frozenset({(0, 1)}))
    with pytest.raises(ValueError):
        SearchInstance(WalkKind.ADJACENCY, g, frozenset(), 1.0)
    with pytest.raises(ValueError):
        SearchInstance(WalkKind.ADJACENCY, g, frozenset({2}), 1.0)
    with pytest.raises(ValueError):
        SearchInstance(WalkKind.ADJACENCY, g, frozenset({0}), -1.0)


# ---------------------------------------------------------------------------
# eig_hermitian


def test_eig_diagonal_matrix():
    decomp = eig_hermitian(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(decomp.eigenvalues, [1.0, 2.0, 3.0], atol=0)
    expected = np.zeros((3, 3))
    expected[1, 0] = expected[2, 1] = expected[0, 2] = 1.0
    assert np.allclose(decomp.eigenvectors, expected, atol=1e-15)


def test_eig_two_level():
    decomp = eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(decomp.eigenvalues, [-1.0, 1.0])
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    # each eigenvector is fixed only up to its sign
    for column, expected in zip(decomp.eigenvectors.T, ([inv_sqrt2, -inv_sqrt2],
                                                        [inv_sqrt2, inv_sqrt2])):
        assert np.allclose(column * np.sign(column[0]), expected)


def test_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        eig_hermitian(np.zeros((2, 3)))


def test_eig_deterministic_including_degenerate_input():
    rng = np.random.default_rng(11)
    h = _random_hermitian(rng, 6)
    first = eig_hermitian(h)
    second = eig_hermitian(h.copy())
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)
    degenerate = eig_hermitian(np.eye(4))
    again = eig_hermitian(np.eye(4))
    assert np.array_equal(degenerate.eigenvectors, again.eigenvectors)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2**31 - 1))
def test_eig_reconstruction_and_orthonormality(n, seed):
    h = _random_hermitian(np.random.default_rng(seed), n)
    decomp = eig_hermitian(h)
    assert np.all(np.diff(decomp.eigenvalues) >= 0)
    v = decomp.eigenvectors
    rebuilt = v @ np.diag(decomp.eigenvalues) @ v.conj().T
    rel = np.linalg.norm(rebuilt - h) / max(np.linalg.norm(h), 1e-30)
    assert rel <= 1e-9
    assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= 1e-10


def _bipartite_search_hamiltonian(spec, walk, gamma):
    graph, marked = complete_bipartite(spec)
    return search_hamiltonian(SearchInstance(walk, graph, marked, gamma))


def _convention_cases():
    rng = np.random.default_rng(19)
    spec = BipartiteSpec(128, 64, 3, 5)
    cases = [
        _bipartite_search_hamiltonian(spec, walk, gamma)
        for walk in WalkKind
        for gamma in (1.0 / spec.n1, 1.0 / spec.n2, 0.05)
    ]
    cases += [np.eye(4), np.kron(np.eye(5), [[0.0, 1.0], [1.0, 0.0]])]
    cases += [_random_hermitian(rng, n) for n in (1, 2, 5, 12, 40)]
    return cases


def test_eig_returns_the_arrays_of_eigh_bit_for_bit():
    # no phase or tie convention: the checked input goes to eigh and back
    for h in _convention_cases():
        values, vectors = np.linalg.eigh(h)
        got = eig_hermitian(h)
        assert got.eigenvalues.tobytes("A") == values.tobytes("A")
        assert got.eigenvectors.tobytes("A") == vectors.tobytes("A")
        assert got.eigenvectors.dtype == vectors.dtype
        assert got.eigenvectors.strides == vectors.strides


def _bench_quotients():
    """The search quotients of the benchmark layouts, both modes, every walk and start."""
    for layout in ((512, 256, 3, 5), (48, 24, 3, 5)):
        spec = BipartiteSpec(*layout)
        graph, marked = complete_bipartite(spec)
        for start in InitialStateKind:
            state = initial_state(spec, start)
            written = class_quotient(spec, state)
            refined = search_quotient(graph, marked, reduced_to_full(spec, state),
                                      class_slices(spec))
            for walk in WalkKind:
                yield spec, walk, written
                yield spec, walk, refined


def test_stacked_eig_is_each_matrix_eigh_bit_for_bit():
    for spec, walk, quotient in _bench_quotients():
        gammas = np.geomspace(0.512 / spec.n1, 1.408 / spec.n2, 200)
        stack = quotient.hamiltonian(walk, gammas)
        got = eig_hermitian(stack)
        assert got.eigenvalues.shape == (200, stack.shape[-1])
        for k, gamma in enumerate(gammas):
            h = quotient.hamiltonian(walk, gamma)
            assert stack[k].tobytes() == h.tobytes()
            values, vectors = np.linalg.eigh(h)
            assert got.eigenvalues[k].tobytes() == values.tobytes()
            assert got.eigenvectors[k].tobytes() == vectors.tobytes()


def test_sweep_is_masses_at_each_rate_bit_for_bit():
    times = np.linspace(0.0, 80.0, 300)
    for spec, walk, quotient in _bench_quotients():
        gammas = [1.0 / spec.n1, 1.0 / spec.n2, 0.05]
        swept = list(quotient.sweep(walk, gammas, times))
        assert len(swept) == len(gammas)
        for gamma, masses in zip(gammas, swept):
            assert masses.tobytes() == quotient.masses(walk, gamma, times).tobytes()
        # the rates are checked before any is diagonalised
        for gammas in (0.1, [[0.1]], [0.1, -1.0]):
            with pytest.raises(ValueError):
                quotient.sweep(walk, gammas, times)


@pytest.mark.parametrize("dim", [1, 4, 64, 255, 256, 300])
def test_rates_are_diagonalised_in_stacks_bounded_by_their_entries(monkeypatch, dim):
    # a reduced 4x4 sweep is one call; from 256 cells up, one rate per call
    solved = []

    def recording(h):
        solved.append(np.shape(h))
        return eig_hermitian(h)

    monkeypatch.setattr(evolve, "eig_hermitian", recording)
    quotient = search_quotient(
        Graph(dim, [(i, i + 1) for i in range(dim - 1)]), {0}, uniform_state(dim),
        [[0], [dim - 1]]
    )
    assert len(quotient.adjacency) == dim
    gammas = np.geomspace(0.01, 1.0, 50)
    walk = WalkKind.LAPLACIAN
    for run in (lambda: list(quotient.sweep(walk, gammas, [0.0, 1.0])),
                lambda: quotient.levels(walk, gammas)):
        solved.clear()
        assert len(run()) in (50, 50 * min(dim, 4))
        assert [shape[1:] for shape in solved] == [(dim, dim)] * len(solved)
        assert sum(shape[0] for shape in solved) == 50
        step = max(1, evolve.STACK_ENTRIES // dim**2)
        assert [shape[0] for shape in solved[:-1]] == [step] * (len(solved) - 1)


def test_stacked_eig_refuses_a_non_hermitian_member_by_its_own_scale():
    h = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError) as single:
        eig_hermitian(h)
    assert str(single.value) == "matrix is not Hermitian (deviation 1)"
    for stack in (np.stack([np.eye(2), h, np.eye(2)]), h[None, None]):
        with pytest.raises(ValueError) as stacked:
            eig_hermitian(stack)
        assert str(stacked.value) == str(single.value)
    # each matrix is held to its own largest entry, not to the stack's
    skewed = np.array([[0.0, 1e-8], [0.0, 0.0]])
    eig_hermitian(1e3 * np.eye(2) + skewed)
    with pytest.raises(ValueError, match=r"^matrix is not Hermitian \(deviation 1e-08\)$"):
        eig_hermitian(np.stack([1e3 * np.eye(2), skewed]))
    with pytest.raises(ValueError, match="^matrix must be square$"):
        eig_hermitian(np.zeros((3, 2, 3)))
    with pytest.raises(ValueError, match="^matrix must be square$"):
        eig_hermitian(np.zeros(4))
    empty = eig_hermitian(np.zeros((0, 4, 4)))
    assert empty.eigenvalues.shape == (0, 4) and empty.eigenvectors.shape == (0, 4, 4)


@pytest.mark.parametrize(
    "entry, named",
    [(np.inf, "inf"), (-np.inf, "inf"), (np.nan, "nan"), (complex(0, np.inf), "inf")],
    ids=["inf", "minus-inf", "nan", "complex-inf"],
)
def test_eig_refuses_non_finite_entries_by_name(entry, named):
    # an infinite entry and its transpose differ by nan, which the
    # Hermiticity test alone lets through
    h = np.eye(3, dtype=complex if isinstance(entry, complex) else float)
    h[1, 2], h[2, 1] = entry, np.conj(entry)
    message = rf"^matrix has a non-finite entry \({named}\)$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic on it
        for bad in (h, np.stack([np.eye(3), h, np.eye(3)]), h[None, None]):
            with pytest.raises(ValueError, match=message):
                eig_hermitian(bad)


def test_eig_matches_asymptotic_doublet_at_large_size():
    # oracle: the perturbation-theory eigenvalues at the left critical rate,
    # which the numeric 4x4 approaches as the layout grows
    spec = BipartiteSpec(2**14, 2**13, 3, 5)
    h = class_quotient(spec, np.zeros(4)).hamiltonian(WalkKind.SIGNLESS_LAPLACIAN, 1.0 / spec.n1)
    numeric = eig_hermitian(h).eigenvalues
    exact = degenerate_correction(spec, CriticalSide.LEFT).eigenvalues
    rel = np.abs(numeric - exact) / np.maximum(np.abs(exact), 1.0)
    assert np.max(rel) < 1e-2


# ---------------------------------------------------------------------------
# evolution


def test_evolve_at_time_zero_is_identity():
    rng = np.random.default_rng(3)
    h = _random_hermitian(rng, 5)
    psi0 = _random_state(rng, 5)
    assert np.allclose(propagate(h, psi0, [0.0])[0], psi0, atol=1e-12)


def test_evolve_validates_input():
    h = np.zeros((2, 2))
    with pytest.raises(ValueError):
        propagate(h, np.zeros(3, dtype=complex), [1.0])
    with pytest.raises(ValueError):
        propagate(h, np.array([1.0, 0.0]), [-0.5])


def test_uniform_state_needs_a_vertex():
    assert np.array_equal(uniform_state(4), np.full(4, 0.5, dtype=complex))
    for n in (0, -1):
        with pytest.raises(ValueError, match="^dimension must be positive$"):
            uniform_state(n)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 64), st.integers(0, 2**31 - 1))
def test_norm_conservation(n, seed):
    rng = np.random.default_rng(seed)
    decomp = eig_hermitian(_random_hermitian(rng, n))
    psi0 = _random_state(rng, n)
    for t in (0.1, 1.0, 10.0, 100.0):
        psi = propagate(decomp, psi0, [t])[0]
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(
    st.integers(2, 16),
    st.integers(0, 2**31 - 1),
    st.floats(0.0, 20.0),
    st.floats(0.0, 20.0),
)
def test_evolution_composes(n, seed, t1, t2):
    rng = np.random.default_rng(seed)
    decomp = eig_hermitian(_random_hermitian(rng, n))
    psi0 = _random_state(rng, n)
    stepwise = propagate(decomp, propagate(decomp, psi0, [t1])[0], [t2])[0]
    direct = propagate(decomp, psi0, [t1 + t2])[0]
    assert np.max(np.abs(stepwise - direct)) <= 1e-8


def test_gamma_zero_keeps_probabilities_fixed():
    g = Graph(4, frozenset({(0, 1), (1, 2), (2, 3)}))
    inst = SearchInstance(WalkKind.LAPLACIAN, g, frozenset({1, 3}), 0.0)
    h = search_hamiltonian(inst)
    psi0 = uniform_state(4)
    p0 = np.abs(psi0) ** 2
    for t in (0.5, 2.0, 50.0):
        p = np.abs(propagate(h, psi0, [t])[0]) ** 2
        assert np.max(np.abs(p - p0)) <= 1e-10


def test_evolve_reaches_predicted_success_at_runtime():
    # the (512, 256, 3, 5) benchmark near its left critical rate: at the
    # predicted runtime the success probability sits at the predicted peak
    spec = BipartiteSpec(512, 256, 3, 5)
    psi0 = initial_state(spec, InitialStateKind.UNIFORM)
    h = class_quotient(spec, psi0).hamiltonian(WalkKind.SIGNLESS_LAPLACIAN, 0.002)
    psi = propagate(h, psi0, [35.54])[0]
    p = abs(psi[0]) ** 2 + abs(psi[1]) ** 2
    assert p == pytest.approx(0.889, abs=0.02)


def test_propagate_matches_pointwise_evolution():
    # oracle: V exp(-i L t) V^dag psi0 at one t, from a bare eigh
    rng = np.random.default_rng(5)
    h = _random_hermitian(rng, 6)
    decomp = eig_hermitian(h)
    psi0 = _random_state(rng, 6)
    times = np.array([0.0, 0.3, 1.7, 9.2])
    states = propagate(decomp, psi0, times)
    values, vectors = np.linalg.eigh(h)
    for t, row in zip(times, states):
        pointwise = vectors @ (np.exp(-1j * values * t) * (vectors.conj().T @ psi0))
        assert np.allclose(row, pointwise, atol=1e-12)


def test_propagate_rows_selects_amplitudes_before_the_product():
    rng = np.random.default_rng(8)
    decomp = eig_hermitian(_random_hermitian(rng, 12))
    psi0 = _random_state(rng, 12)
    times = np.linspace(0.0, 30.0, 301)
    full = propagate(decomp, psi0, times)
    for rows in ([3], [0, 5, 11], [7, 2, 9, 2], list(range(12)), []):
        part = propagate(decomp, psi0, times, rows=rows)
        assert part.shape == (times.size, len(rows))
        assert np.max(np.abs(part - full[:, rows]), initial=0.0) <= 1e-14
    with pytest.raises(ValueError):
        propagate(decomp, psi0, times, rows=[12])
    with pytest.raises(ValueError):
        propagate(decomp, psi0, times, rows=[-1])


def test_propagate_rows_on_a_bipartite_search():
    spec = BipartiteSpec(48, 24, 3, 5)
    graph, marked = complete_bipartite(spec)
    inst = SearchInstance(WalkKind.SIGNLESS_LAPLACIAN, graph, marked, 1 / 48)
    h = search_hamiltonian(inst)
    decomp = eig_hermitian(h)
    psi0 = uniform_state(spec.n)
    times = np.linspace(0.0, 60.0, 500)
    rows = sorted(marked)
    full = propagate(decomp, psi0, times)
    part = propagate(decomp, psi0, times, rows=rows)
    assert np.max(np.abs(part - full[:, rows])) <= 1e-14


@pytest.mark.parametrize("walk", list(WalkKind))
@pytest.mark.parametrize(
    "spec", [BipartiteSpec(128, 64, 3, 5), BipartiteSpec(30, 20, 2, 0)], ids=str
)
def test_collapse_matches_uncollapsed_on_complete_bipartite(walk, spec):
    graph, marked = complete_bipartite(spec)
    times = np.linspace(0.0, 150.0, 600)
    for gamma in (1.0 / spec.n1, 1.0 / spec.n2, 0.05):
        decomp = eig_hermitian(search_hamiltonian(SearchInstance(walk, graph, marked, gamma)))
        for start in InitialStateKind:
            psi0 = reduced_to_full(spec, initial_state(spec, start))
            for rows in (sorted(marked), None):
                got = propagate(decomp, psi0, times, rows=rows)
                want = uncollapsed_propagate(decomp, psi0, times, rows=rows)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(graphs(), st.sampled_from(list(WalkKind)), st.floats(0.0, 3.0), st.data())
def test_collapse_matches_uncollapsed_on_random_graphs(graph, walk, gamma, data):
    marked = data.draw(st.sets(st.integers(0, graph.n - 1), min_size=1))
    h = search_hamiltonian(SearchInstance(walk, graph, frozenset(marked), gamma))
    decomp = eig_hermitian(h)
    psi0 = uniform_state(graph.n)
    times = np.linspace(0.0, 50.0, 201)
    # the same phases summed in another order: 1e-12 covers the rounding
    # of phases t * lambda up to ~2000
    for rows in (sorted(marked), None):
        got = propagate(decomp, psi0, times, rows=rows)
        want = uncollapsed_propagate(decomp, psi0, times, rows=rows)
        assert np.max(np.abs(got - want)) <= 1e-12


# ---------------------------------------------------------------------------
# quotient of the equitable partition


def _partition_quotient(part, cells=()):
    """The walk-free quotient of ``part`` with ``cells`` marked, and no state or groups."""
    return evolve.SearchQuotient(*evolve._quotient_adjacency(part), np.array(cells, dtype=int),
                                 None, None)


def _quotient(graph, walk, marked, psi0, gamma):
    """The search's equitable partition and its quotient search Hamiltonian."""
    is_marked = np.isin(np.arange(graph.n), sorted(marked)).astype(float)
    part = equitable_partition(graph, np.stack([is_marked, psi0.real, psi0.imag], axis=1))
    cells = sorted({int(c) for c in part.cells[sorted(marked)]})
    return part, _partition_quotient(part, cells).hamiltonian(walk, gamma)


@settings(max_examples=200, deadline=None)
@given(graphs(), st.sampled_from(list(WalkKind)), st.floats(0.0, 3.0), st.data())
def test_quotient_propagation_matches_the_dense_eigensolve(graph, walk, gamma, data):
    marked = frozenset(data.draw(st.sets(st.integers(0, graph.n - 1), min_size=1)))
    # the uniform start, or one that only some symmetries of the search keep
    values = [1.0] if data.draw(st.booleans()) else [1.0, 2.0, 1j]
    psi0 = np.array(data.draw(st.lists(st.sampled_from(values), min_size=graph.n,
                                       max_size=graph.n)), dtype=complex)
    psi0 /= np.linalg.norm(psi0)
    # the groups are the cells of the search's own partition and the marked
    # set, unions of its cells, so the search stays on the collapsed quotient
    part, h = _quotient(graph, walk, marked, psi0, gamma)
    groups = [np.flatnonzero(part.cells == c) for c in np.unique(part.cells)] + [sorted(marked)]
    times = np.linspace(0.0, 50.0, 201)
    search = search_quotient(graph, marked, psi0, groups)
    assert search.adjacency.shape == (len(groups) - 1,) * 2
    got = search.masses(walk, gamma, times)
    dense = eig_hermitian(search_hamiltonian(SearchInstance(walk, graph, marked, gamma)))
    probs = np.abs(uncollapsed_propagate(dense, psi0, times)) ** 2
    want = np.column_stack([probs[:, group].sum(axis=1) for group in groups])
    assert got.shape == want.shape
    # the quotient spectrum is part of the dense one
    quotient_values = np.linalg.eigvalsh(h)
    assert np.max(np.abs(quotient_values[:, None] - dense.eigenvalues).min(axis=1)) <= 1e-12
    assert np.max(np.abs(got - want)) <= 1e-12


def _irregular10():
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
             (6, 7), (7, 8), (8, 9), (9, 4), (2, 7)]
    return Graph(10, edges)


@given(graphs(), st.sampled_from(list(WalkKind)))
def test_discrete_quotient_walk_matrix_is_the_walk_matrix(graph, walk):
    part = equitable_partition(graph, np.arange(graph.n))
    got = quotient_walk(_partition_quotient(part), walk)
    assert np.array_equal(got, dense_walk_matrix(graph, walk))


def test_one_quotient_serves_every_walk(monkeypatch):
    # the path P_9 marked at its centre: its ends have degree 1 and the rest
    # 2, so the three walks differ, and the mirror folds it to 5 cells. The
    # partition does not depend on the walk: one refinement serves all three
    refinements = []

    def counting(*args):
        refinements.append(args)
        return equitable_partition(*args)

    monkeypatch.setattr(evolve, "equitable_partition", counting)
    graph, marked = Graph(9, [(i, i + 1) for i in range(8)]), frozenset({4})
    psi0 = uniform_state(graph.n)
    groups = [[4], [0, 8], [1, 2, 6, 7]]
    search = search_quotient(graph, marked, psi0, groups)
    assert len(search.adjacency) == 5
    times = np.linspace(0.0, 40.0, 161)
    curves = []
    for walk in WalkKind:
        for gamma in (0.3, 1.1):
            dense = eig_hermitian(search_hamiltonian(SearchInstance(walk, graph, marked, gamma)))
            probs = np.abs(uncollapsed_propagate(dense, psi0, times)) ** 2
            want = np.column_stack([probs[:, group].sum(axis=1) for group in groups])
            got = search.masses(walk, gamma, times)
            assert np.max(np.abs(got - want)) <= 1e-12
            curves.append(got)
    assert len(refinements) == 1
    # the walks are told apart: no two give the same curves at a rate
    for i in range(len(curves)):
        for j in range(i + 2, len(curves), 2):
            assert np.max(np.abs(curves[i] - curves[j])) > 1e-3


@pytest.mark.parametrize("walk", list(WalkKind))
def test_discrete_quotient_search_is_the_dense_search_bit_for_bit(walk):
    graph, marked = _irregular10(), frozenset({0, 6})
    psi0 = uniform_state(graph.n)
    is_marked = np.isin(np.arange(graph.n), sorted(marked))
    assert equitable_partition(graph, is_marked).sizes.tolist() == [1] * 10
    singles = [[v] for v in range(graph.n)]
    each = search_quotient(graph, marked, psi0, [*singles, sorted(marked)])
    together = search_quotient(graph, marked, psi0, [sorted(marked)])
    w = dense_walk_matrix(graph, walk)
    times = np.linspace(0.0, 60.0, 400)
    for gamma in (0.0, 0.05, 0.3, 1.7):
        dense = eig_hermitian(search_hamiltonian(SearchInstance(walk, graph, marked, gamma), w))
        probs = np.abs(propagate(dense, psi0, times, rows=np.arange(graph.n))) ** 2
        got = each.masses(walk, gamma, times)
        assert np.array_equal(got[:, :-1], probs)
        assert np.array_equal(got[:, -1], probs[:, 0] + probs[:, 6])
        probs = np.abs(propagate(dense, psi0, times, rows=sorted(marked))) ** 2
        assert np.array_equal(together.masses(walk, gamma, times)[:, 0], probs.sum(axis=1))


def _layout_quotient_checks(spec, walk, start, gamma):
    graph, marked = complete_bipartite(spec)
    psi0 = reduced_to_full(spec, initial_state(spec, start))
    part, h = _quotient(graph, walk, marked, psi0, gamma)
    values = np.linalg.eigvalsh(h)
    active = [i for i, size in enumerate(class_sizes(spec)) if size]
    # the class quotient is on the nonempty classes
    reduced = np.linalg.eigvalsh(class_quotient(spec, np.zeros(4)).hamiltonian(walk, gamma))
    if (spec.n1, spec.k1) == (spec.n2, spec.k2):
        # swapping the sides fixes the search: a with b, c with d share a cell,
        # and the quotient keeps the swap-symmetric half of the spectrum
        assert part.sizes.size == len(active) // 2
        gaps = np.abs(values[:, None] - reduced[None, :]).min(axis=1)
        assert np.max(gaps) <= 1e-12
    else:
        assert part.sizes.size == len(active)
        assert np.max(np.abs(values - reduced)) <= 1e-12


@pytest.mark.parametrize(
    "spec",
    [BipartiteSpec(512, 256, 3, 5), BipartiteSpec(30, 20, 2, 0), BipartiteSpec(40, 24, 40, 3),
     BipartiteSpec(6, 6, 2, 2), BipartiteSpec(5, 5, 5, 5), BipartiteSpec(1, 1, 1, 0)],
    ids=str,
)
def test_layout_quotient_has_one_cell_per_nonempty_class(spec):
    for walk in WalkKind:
        for start in InitialStateKind:
            for gamma in (1.0 / spec.n1, 1.0 / spec.n2, 0.07):
                _layout_quotient_checks(spec, walk, start, gamma)


@settings(max_examples=60, deadline=None)
@given(bipartite_specs(max_side=12), st.sampled_from(list(WalkKind)),
       st.sampled_from(list(InitialStateKind)), st.floats(0.0, 2.0))
def test_layout_quotient_spectrum_matches_the_reduced_model(spec, walk, start, gamma):
    _layout_quotient_checks(spec, walk, start, gamma)


def test_permuted_layout_quotient_has_four_cells():
    spec = BipartiteSpec(48, 24, 3, 5)
    graph, marked = complete_bipartite(spec)
    relabel = np.array([5 * v % 72 for v in range(72)])
    permuted = Graph(72, relabel[np.asarray(graph.edges)])
    images = frozenset(int(relabel[v]) for v in marked)
    psi0 = uniform_state(72)
    part, h = _quotient(permuted, WalkKind.LAPLACIAN, images, psi0, 0.03)
    assert part.sizes.size == 4
    quotient = class_quotient(spec, np.zeros(4))
    reduced = np.linalg.eigvalsh(quotient.hamiltonian(WalkKind.LAPLACIAN, 0.03))
    assert np.max(np.abs(np.linalg.eigvalsh(h) - reduced)) <= 1e-12
    groups = [relabel[list(vertices)] for vertices in class_slices(spec)]
    times = np.linspace(0.0, 60.0, 241)
    got = search_quotient(permuted, images, psi0, groups).masses(WalkKind.LAPLACIAN, 0.03, times)
    state = initial_state(spec, InitialStateKind.UNIFORM)
    want = class_quotient(spec, state).masses(WalkKind.LAPLACIAN, 0.03, times)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_quotient_search_refuses_as_the_search_instance_does():
    graph = _irregular10()
    psi0 = uniform_state(10)
    with pytest.raises(ValueError, match="marked set must be nonempty"):
        search_quotient(graph, frozenset(), psi0, [[1]])
    with pytest.raises(ValueError, match="marked vertex out of range"):
        search_quotient(graph, frozenset({10}), psi0, [[1]])
    with pytest.raises(ValueError, match="state dimension"):
        search_quotient(graph, frozenset({1}), psi0[:9], [[1]])
    # a group vertex is checked as a row of propagate is, with its message
    for group in ([10], [0, -1]):
        with pytest.raises(ValueError, match="^row index out of range$"):
            search_quotient(graph, frozenset({1}), psi0, [[1], group])
    masses = search_quotient(graph, frozenset({1}), psi0, [[1]]).masses
    for gamma in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="gamma must be finite and nonnegative"):
            masses(WalkKind.LAPLACIAN, gamma, [0.0, 1.0])


def test_near_degenerate_pair_stays_split_and_beats():
    # a pair 1e-7 apart beside a far level keeps two phases, and its slow
    # beat cos^2(delta t / 2) carries |0> over to |1> by t = pi / delta
    delta = 1e-7
    h = np.array([[1.0, delta / 2, 0.0], [delta / 2, 1.0, 0.0], [0.0, 0.0, -3.0]])
    decomp = eig_hermitian(h)
    times = np.linspace(0.0, np.pi / delta, 9)
    probs = np.abs(propagate(decomp, np.array([1.0, 0.0, 0.0]), times)) ** 2
    assert np.max(np.abs(probs[:, 0] - np.cos(0.5 * delta * times) ** 2)) <= 1e-6
    assert probs[-1, 1] >= 1.0 - 1e-6
    # a pair 1e-12 apart up to t = 50 (gap * t_max = 5e-11) keeps both
    # phases too, as the reference form does
    tight = 1e-12
    h = np.array([[1.0, tight / 2], [tight / 2, 1.0]])
    decomp = eig_hermitian(h)
    times = np.linspace(0.0, 50.0, 11)
    psi0 = np.array([1.0, 0.0])
    got = propagate(decomp, psi0, times)
    want = uncollapsed_propagate(decomp, psi0, times)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_propagate_with_no_times():
    rng = np.random.default_rng(4)
    decomp = eig_hermitian(_random_hermitian(rng, 6))
    psi0 = _random_state(rng, 6)
    assert propagate(decomp, psi0, [], rows=[0, 2, 5]).shape == (0, 3)
    assert propagate(decomp, psi0, np.empty(0)).shape == (0, 6)
    assert propagate(decomp, psi0, [], rows=[]).shape == (0, 0)


# ---------------------------------------------------------------------------
# the anchor-and-offset split of propagate's times


def _bench_class_quotient():
    """The reduced-mode quotient of the (512, 256, 3, 5) benchmark layout from s."""
    spec = BipartiteSpec(512, 256, 3, 5)
    return class_quotient(spec, initial_state(spec, InitialStateKind.UNIFORM))


@pytest.mark.parametrize("times", [[0.5, np.nan], [np.inf], [1.0, -np.inf], [-0.5], [3.0, -0.5]],
                         ids=["nan", "inf", "-inf", "negative", "negative-after"])
def test_propagate_refuses_times_that_are_not_finite_and_nonnegative(monkeypatch, times):
    def refused(*args):
        raise AssertionError("a phase table was built")

    monkeypatch.setattr(evolve, "_phases", refused)
    decomp = eig_hermitian(np.diag([1.0, -1.0]))
    quotient = _bench_class_quotient()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="evolution times must be finite and nonnegative"):
            propagate(decomp, np.array([1.0, 0.0]), times)
        # a sweep refuses its grid before any rate is propagated
        with pytest.raises(ValueError, match="finite and nonnegative"):
            quotient.sweep(WalkKind.SIGNLESS_LAPLACIAN, [0.002, 0.004], times)


def test_propagate_refuses_phase_angles_past_the_float_range(monkeypatch):
    # 1e300 * 1e10 overflows; 1e300 * 1e8 does not, and its phases stay finite
    decomp = eig_hermitian(np.diag([1e300, -2.0]))
    psi0 = np.array([0.6, 0.8])
    got = propagate(decomp, psi0, [0.0, 0.5e8, 1e8])
    assert np.isfinite(got).all()

    def refused(*args):
        raise AssertionError("a phase table was built")

    monkeypatch.setattr(evolve, "_phases", refused)
    quotient = _bench_class_quotient()
    message = (r"^phase angles pass the float range: eigenvalues up to 1e\+300 "
               r"at times up to 1e\+10$")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            propagate(decomp, psi0, [0.0, 1e10, 3.0])
        # a sweep refuses the first rate whose levels overflow, before its table
        with pytest.raises(ValueError, match="^phase angles pass the float range"):
            list(quotient.sweep(WalkKind.SIGNLESS_LAPLACIAN, [1e300], [0.0, 1e10]))


def _split_sum(times):
    """The split of ``times`` and its anchor + offset at each sample."""
    split = evolve._split_times(times)
    size = len(split.inverse)
    assert split.block == (math.isqrt(size - 1) + 1 if size else 1)
    assert split.anchors.shape == (-(-size // split.block),)
    assert np.all(np.diff(split.offsets) > 0) and np.all(split.offsets >= 0)
    return split, np.repeat(split.anchors, split.block)[:size] + split.offsets[split.inverse]


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1e6), st.integers(0, 3000))
def test_split_of_a_uniform_grid_is_exact(tmax, samples):
    times = np.linspace(0.0, tmax, samples)
    _, summed = _split_sum(times)
    assert summed.tobytes() == times.tobytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.0, allow_infinity=False), max_size=60), st.booleans())
def test_split_of_any_nonnegative_times_is_exact(values, ordered):
    # the anchor is rounded to the spacing at its block's largest time, so
    # the offset is exact also past twice the anchor and in any order
    times = np.array(sorted(values) if ordered else values, dtype=float)
    _, summed = _split_sum(times)
    assert summed.tobytes() == times.tobytes()


def test_split_of_the_bench_grids_has_few_distinct_offsets():
    for tmax in (80.0, 120.0):
        split, _ = _split_sum(np.linspace(0.0, tmax, 2000))
        assert (split.block, split.anchors.size) == (45, 45)
        assert split.offsets.size <= 400


@pytest.mark.parametrize("samples", [0, 1, 2, 3, 7, 1000, 20_000])
def test_split_propagation_matches_the_reference_at_any_sample_count(samples):
    # 1000 and 20,000 samples are not multiples of their blocks (32, 142)
    rng = np.random.default_rng(samples)
    decomp = eig_hermitian(_random_hermitian(rng, 6))
    psi0 = _random_state(rng, 6)
    times = np.linspace(0.0, 80.0, samples)
    got = propagate(decomp, psi0, times)
    assert got.shape == (samples, 6)
    assert np.max(np.abs(got - uncollapsed_propagate(decomp, psi0, times)), initial=0.0) <= 1e-12


def test_split_propagation_takes_unsorted_and_repeated_times():
    rng = np.random.default_rng(12)
    decomp = eig_hermitian(_random_hermitian(rng, 5))
    psi0 = _random_state(rng, 5)
    grid = rng.uniform(0.0, 100.0, 400)
    for times in (rng.permutation(np.concatenate([grid, grid[:50], [0.0, 0.0]])),
                  grid[::-1], [5.0, 5.0, 0.0, 3.0, 3.0, 100.0, 0.0], np.full(30, 7.25)):
        got = propagate(decomp, psi0, times, rows=[4, 0])
        want = uncollapsed_propagate(decomp, psi0, times, rows=[4, 0])
        assert np.max(np.abs(got - want)) <= 1e-12


def test_sweep_splits_its_times_once_for_all_rates(monkeypatch):
    splits = []

    def counting(times):
        splits.append(len(times))
        return split_times(times)

    split_times = evolve._split_times
    monkeypatch.setattr(evolve, "_split_times", counting)
    times = np.linspace(0.0, 80.0, 500)
    path = search_quotient(Graph(300, [(i, i + 1) for i in range(299)]), {0},
                           uniform_state(300), [[0]])
    for quotient, walk, gammas in ((_bench_class_quotient(), WalkKind.SIGNLESS_LAPLACIAN,
                                    np.linspace(0.001, 0.0055, 50)),
                                   # one eigh call per rate
                                   (path, WalkKind.LAPLACIAN, [0.1, 0.5, 1.0])):
        splits.clear()
        assert len(list(quotient.sweep(walk, gammas, times))) == len(gammas)
        assert splits == [500]


@pytest.mark.skipif(np.finfo(np.longdouble).precision < 18,
                    reason="needs an extended-precision long double")
def test_split_phases_are_as_accurate_as_cos_of_the_rounded_angle():
    # the table of an identity eigenbasis is the phase table itself; its
    # error against a long-double exp(-i L t) stays that of cos(fl(L t))
    rng = np.random.default_rng(2)
    irregular = rng.uniform(0.0, 120.0, 2000)
    grids = [np.linspace(0.0, 80.0, 2000), np.linspace(0.0, 120.0, 2000), np.sort(irregular),
             irregular]
    quotient = _bench_class_quotient()
    for walk in WalkKind:
        for gamma in (1 / 512, 1 / 256, 0.001, 0.0033, 0.0055):
            values = eig_hermitian(quotient.hamiltonian(walk, gamma)).eigenvalues
            ident = EigenDecomposition(values, np.eye(values.size))
            for times in grids:
                table = propagate(ident, np.ones(values.size), times)
                exact = np.outer(times.astype(np.longdouble), values.astype(np.longdouble))
                rounded = np.outer(times, values)
                new = _phase_error(table.real, table.imag, exact)
                old = _phase_error(np.cos(rounded), -np.sin(rounded), exact)
                assert new <= 2.0 * old + 1e-15, (walk, gamma, new, old)


def _phase_error(real, imag, angles):
    """Largest deviation of ``real + i imag`` from the long-double ``exp(-i angles)``."""
    return float(max(np.max(np.abs(real - np.cos(angles))),
                     np.max(np.abs(imag + np.sin(angles)))))


def test_search_hamiltonian_reuses_a_given_walk_matrix():
    spec = BipartiteSpec(9, 5, 2, 1)
    graph, marked = complete_bipartite(spec)
    for kind in WalkKind:
        w = dense_walk_matrix(graph, kind)
        kept = w.copy()
        for gamma in (0.0, 0.1, 0.37):
            inst = SearchInstance(kind, graph, marked, gamma)
            assert np.array_equal(search_hamiltonian(inst, w), search_hamiltonian(inst))
        assert np.array_equal(w, kept)  # the shared matrix is not modified
    with pytest.raises(ValueError):
        search_hamiltonian(SearchInstance(kind, graph, marked, 0.1), np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# success_probability


def test_success_probability_values():
    psi = uniform_state(768)
    assert success_probability(psi, range(8)) == pytest.approx(8 / 768, abs=1e-12)
    e0 = np.zeros(4, dtype=complex)
    e0[2] = 1.0
    assert success_probability(e0, {2}) == 1.0
    assert success_probability(e0, {0, 1}) == 0.0
    with pytest.raises(ValueError):
        success_probability(e0, {4})


# ---------------------------------------------------------------------------
# first_peak


def test_first_peak_refines_quadratically():
    t = np.linspace(0.0, 2.0, 41)
    v = -((t - 0.987) ** 2)
    t_peak, v_peak = first_peak(t, v)
    assert t_peak == pytest.approx(0.987, abs=1e-12)
    assert v_peak == pytest.approx(0.0, abs=1e-12)


def test_first_peak_flat_curve_returns_first_sample():
    t = np.linspace(0.0, 1.0, 10)
    t_peak, v_peak = first_peak(t, np.full(10, 0.25))
    assert (t_peak, v_peak) == (0.0, 0.25)


def test_first_peak_of_a_curve_flat_up_to_rounding_is_its_first_sample():
    # every vertex marked: p(t) is 1 up to rounding, and its crests are noise
    t = np.linspace(0.0, 10.0, 50)
    noise = np.random.default_rng(3).integers(-4, 5, size=50) * 2.0**-53
    assert first_peak(t, 1.0 + noise) == (0.0, 1.0 + noise[0])
    # a ripple well above rounding is still a curve with crests
    ripple = 1.0 - 1e-6 * np.cos(t)
    assert first_peak(t, ripple)[0] == pytest.approx(np.pi, abs=0.01)


def test_first_peak_monotone_returns_endpoint():
    t = np.linspace(0.0, 1.0, 10)
    t_peak, _ = first_peak(t, t**2)
    assert t_peak == 1.0


def test_first_peak_ignores_shallow_ripples():
    t = np.linspace(0.0, 10.0, 2001)
    envelope = np.sin(0.3 * t) ** 2
    ripple = 0.02 * np.sin(7.0 * t)
    t_peak, v_peak = first_peak(t, envelope + ripple)
    assert abs(t_peak - np.pi / 0.6) < 0.5
    assert v_peak > 0.95


def test_first_peak_picks_first_of_equal_revivals():
    t = np.linspace(0.0, 20.0, 4001)
    t_peak, _ = first_peak(t, np.sin(t) ** 2)
    assert t_peak == pytest.approx(np.pi / 2, abs=0.01)


def _first_peak_loop(times, values):
    """The crest scan as a loop over every sample: the reference for first_peak."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    top = float(np.max(v))
    if top - float(np.min(v)) <= FLAT_TOL * abs(top):
        return float(t[0]), float(v[0])
    cutoff = 0.999 * top
    for i in range(1, v.size - 1):
        if v[i] >= v[i - 1] and v[i] > v[i + 1]:
            denom = v[i - 1] - 2.0 * v[i] + v[i + 1]
            if denom >= 0.0:
                peak_t, peak_v = float(t[i]), float(v[i])
            else:
                shift = float(np.clip(0.5 * (v[i - 1] - v[i + 1]) / denom, -1.0, 1.0))
                step = 0.5 * (t[i + 1] - t[i - 1])
                peak_t = float(t[i] + shift * step)
                peak_v = float(v[i] - 0.25 * (v[i - 1] - v[i + 1]) * shift)
            if peak_v >= cutoff:
                return peak_t, peak_v
    i = int(np.argmax(v))
    return float(t[i]), float(v[i])


# a few levels make ties and plateaus common; short runs make crests at
# the ends and curves of one to three samples
_LEVELS = st.sampled_from([0.0, 0.25, 0.5, 0.9985, 0.999, 1.0])
_CURVES = st.one_of(
    st.lists(_LEVELS, min_size=1, max_size=12),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
    st.integers(1, 30).map(lambda n: [0.5] * n),
    st.lists(st.sampled_from([1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52, 1.0 + 1e-9]),
             min_size=1, max_size=12),
    st.integers(1, 30).map(lambda n: list(np.linspace(0.0, 1.0, n))),
    st.integers(1, 30).map(lambda n: list(np.linspace(1.0, 0.0, n))),
)


@settings(max_examples=300, deadline=None)
@given(_CURVES, st.floats(0.0, 10.0), st.floats(1e-3, 5.0))
def test_first_peak_is_the_loop_over_every_sample(values, start, spacing):
    t = start + spacing * np.arange(len(values))
    got = first_peak(t, values)
    assert all(type(x) is float for x in got)
    assert np.array(got).tobytes() == np.array(_first_peak_loop(t, values)).tobytes()


def test_first_peak_on_bench_curves_is_the_loop():
    times = np.linspace(0.0, 120.0, 2000)
    quotient = _bench_class_quotient()
    gammas = np.geomspace(0.001, 0.0055, 40)
    for masses in quotient.sweep(WalkKind.SIGNLESS_LAPLACIAN, gammas, times):
        success = masses[:, 0] + masses[:, 1]
        assert first_peak(times, success) == _first_peak_loop(times, success)


def _refine_crest_with_guard(t, v, i):
    """``evolve._refine_crest`` as it was with its ``denom >= 0`` return."""
    (t0, t1, t2), (v0, v1, v2) = t[i - 1 : i + 2].tolist(), v[i - 1 : i + 2].tolist()
    denom = v0 - 2.0 * v1 + v2
    if denom >= 0.0:
        return t1, v1
    shift = min(max(0.5 * (v0 - v2) / denom, -1.0), 1.0)
    step = 0.5 * (t2 - t0)
    return t1 + shift * step, v1 - 0.25 * (v0 - v2) * shift


_MAX = np.finfo(float).max
# heights around -max/2, where 2 v1 overflows, and small ones
_EDGE_HEIGHTS = [-_MAX, -_MAX / 2, np.nextafter(-_MAX / 2, 0.0),
                 np.nextafter(-_MAX / 2, -np.inf), -1.0, 0.0, 1.0, _MAX]


def _heights_up_to(top, strict):
    """Heights of any size up to ``top``, below it if ``strict``: also from
    -max up, and the edge heights."""
    spans = [st.floats(max_value=top, exclude_max=strict, allow_nan=False)]
    if top > -_MAX:
        spans.append(st.floats(-_MAX, top, exclude_max=strict))
    edges = [h for h in _EDGE_HEIGHTS if h < top or (h == top and not strict)]
    if edges:
        spans.append(st.sampled_from(edges))
    return st.one_of(*spans)


@st.composite
def _crests(draw):
    """Heights ``v0 <= v1 > v2`` of any size: the crest first, then each side below it."""
    v1 = draw(st.one_of(st.floats(min_value=-_MAX, allow_nan=False),
                        st.floats(-_MAX, -_MAX / 4), st.sampled_from(_EDGE_HEIGHTS)))
    return draw(_heights_up_to(v1, False)), v1, draw(_heights_up_to(v1, True))


@settings(max_examples=300, deadline=None)
@example(0.0, 1.0, 2.0, (-1.7e308, -1e308, -1.5e308))
@given(st.floats(0.0, _MAX / 2), st.floats(0.0, _MAX / 2), st.floats(0.0, _MAX / 2), _crests())
def test_refine_crest_never_needed_its_nonnegative_denominator_return(t0, t1, t2, crest):
    # a crest: v0 <= v1 > v2, on finite times from 0 up
    t, v = np.array(sorted([t0, t1, t2])), np.array(crest)
    got = evolve._refine_crest(t, v, 1)
    assert np.array(got).tobytes() == np.array(_refine_crest_with_guard(t, v, 1)).tobytes()


def test_first_peak_validates():
    with pytest.raises(ValueError):
        first_peak([], [])
    with pytest.raises(ValueError):
        first_peak([1.0, 2.0], [1.0])


# ---------------------------------------------------------------------------
# SearchQuotient.levels: the overlap table on the class model


def test_levels_require_gammas_and_normalized_probe():
    spec = BipartiteSpec(8, 4, 1, 1)
    probe = initial_state(spec, InitialStateKind.UNIFORM)
    with pytest.raises(ValueError, match="^gamma list must be nonempty$"):
        class_quotient(spec, probe).levels(WalkKind.SIGNLESS_LAPLACIAN, [])
    with pytest.raises(ValueError, match="^probe state must be normalized$"):
        class_quotient(spec, 2.0 * probe).levels(WalkKind.SIGNLESS_LAPLACIAN, [0.1])
    # an edge-list search reports one group, its marked set
    one_group = search_quotient(Graph(3, [(0, 1), (1, 2)]), {0}, uniform_state(3), [[0]])
    with pytest.raises(ValueError, match="^levels needs groups 0 and 1$"):
        one_group.levels(WalkKind.LAPLACIAN, [0.1])


def test_levels_read_their_rates_as_sweep_does_and_refuse_a_nan_probe():
    spec = BipartiteSpec(8, 4, 1, 1)
    quotient = class_quotient(spec, initial_state(spec, InitialStateKind.UNIFORM))
    walk = WalkKind.LAPLACIAN
    for read in (functools.partial(quotient.levels, walk),
                 functools.partial(quotient.sweep, walk, times=[0.0])):
        with pytest.raises(ValueError, match="^gammas must be a 1-D sequence of rates$"):
            read(0.1)
    # a NaN norm is no distance from 1 that a bound can refuse
    with pytest.raises(ValueError, match="^probe state must be normalized$"):
        quotient._replace(state=np.array([np.nan, 0, 0, 0])).levels(walk, [0.1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)],
                         ids=["nan", "inf", "imag-inf"])
def test_a_state_that_is_not_finite_is_refused_where_it_enters(bad):
    spec = BipartiteSpec(8, 4, 1, 1)
    path = Graph(3, [(0, 1), (1, 2)])
    entries = [
        functools.partial(class_quotient, spec, [bad, 0, 0, 0]),
        functools.partial(reduced_to_full, spec, [0, 0, bad, 0]),
        functools.partial(search_quotient, path, [0], [bad, 0, 0], [[0]]),
        functools.partial(propagate, eig_hermitian(np.diag([1.0, -1.0])), [0, bad], [0.0, 1.0]),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for entry in entries:
            with pytest.raises(ValueError, match="^state amplitudes must be finite$"):
                entry()


def test_search_quotient_refuses_vertex_ids_that_are_not_integers():
    # neither a float nor a string names a vertex, not even 1.5 or "1";
    # an int past int64 is out of range, as any other vertex past n is
    path = Graph(3, [(0, 1), (1, 2)])
    search = functools.partial(search_quotient, path)
    psi0 = uniform_state(3)
    decomp = eig_hermitian(np.diag([1.0, 0.0, -1.0]))
    amplitudes = functools.partial(propagate, decomp, psi0, [0.0])
    for group, message in (([1.5], "vertex 1.5 is not an integer"),
                           (["1"], "vertex '1' is not an integer"),
                           ([2**70], "^row index out of range$")):
        with pytest.raises(ValueError, match=message):
            search([0], psi0, [group])
        with pytest.raises(ValueError, match=message):
            search([0], psi0, [[0], group])
        # propagate's rows follow the one rule, with the message a group gets
        with pytest.raises(ValueError, match=message):
            amplitudes(rows=group)
    with pytest.raises(ValueError, match="vertex 1.5 is not an integer"):
        search([1.5], psi0, [[0]])
    with pytest.raises(ValueError, match="vertex '2' is not an integer"):
        search(["2"], psi0, [[0]])
    # a boolean mask is no vertex list: the mask of vertex 3 would read as {0, 1}
    mask = np.arange(4) == 3
    on_path4 = functools.partial(search_quotient, Graph(4, [(0, 1), (1, 2), (2, 3)]))
    for entry in (functools.partial(on_path4, mask, uniform_state(4), [[0]]),
                  functools.partial(on_path4, [3], uniform_state(4), [mask]),
                  functools.partial(propagate, eig_hermitian(np.eye(4)), uniform_state(4),
                                    [0.0], rows=mask),
                  functools.partial(on_path4, mask.tolist(), uniform_state(4), [[0]])):
        with pytest.raises(ValueError, match="^vertex .*False.* is not an integer$"):
            entry()
    # integer vertices of any integer type still pass
    walk = WalkKind.LAPLACIAN
    want = search([2], psi0, [[0, 2]]).masses(walk, 0.3, [1.0])
    assert np.array_equal(
        search([np.int32(2)], psi0, [np.array([2, 0])]).masses(walk, 0.3, [1.0]), want
    )


def test_overlap_completeness():
    spec = BipartiteSpec(512, 256, 3, 5)
    probe = initial_state(spec, InitialStateKind.UNIFORM)
    rows = class_quotient(spec, probe).levels(WalkKind.SIGNLESS_LAPLACIAN, [0.001, 0.002, 0.004])
    for gamma in (0.001, 0.002, 0.004):
        total = sum(r.s_overlap for r in rows if r.gamma == gamma)
        assert total == pytest.approx(1.0, abs=1e-10)


def test_overlap_crossings_near_critical_rates():
    """The uniform state hops between eigenvector pairs at the two critical
    rates: near 0.002 the first/second excited overlaps cross, near 0.004
    the ground/first excited overlaps cross."""
    spec = BipartiteSpec(512, 256, 3, 5)
    search = class_quotient(spec, initial_state(spec, InitialStateKind.UNIFORM))

    def s_at(gamma):
        rows = search.levels(WalkKind.SIGNLESS_LAPLACIAN, [gamma])
        return [r.s_overlap for r in rows]

    low = np.linspace(0.0015, 0.0025, 41)
    gaps = [abs(s_at(g)[1] - s_at(g)[2]) for g in low]
    crossing = low[int(np.argmin(gaps))]
    assert 0.0018 < crossing < 0.0022
    values = s_at(crossing)
    assert values[1] > 0.3 and values[2] > 0.3

    high = np.linspace(0.0035, 0.0045, 41)
    gaps = [abs(s_at(g)[0] - s_at(g)[1]) for g in high]
    crossing = high[int(np.argmin(gaps))]
    assert 0.0036 < crossing < 0.0042
    values = s_at(crossing)
    assert values[0] > 0.3 and values[1] > 0.3


# ---------------------------------------------------------------------------
# SearchQuotient.levels: the search's own levels, from its quotient


def _side_levels(graph, walk, marked, probe, left, right, gammas):
    """The ``overlaps`` rows: the levels of the search whose groups are its two sides."""
    return search_quotient(graph, marked, probe, [left, right]).levels(walk, gammas)


def _layout_probes(spec):
    """The four probes of ``overlaps`` that the layout admits, in the class basis."""
    probes = {"s": initial_state(spec, InitialStateKind.UNIFORM),
              "sq": initial_state(spec, InitialStateKind.SIGNLESS_EIGENVECTOR)}
    if spec.k1:
        probes["ml"] = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    if spec.k2:
        probes["mr"] = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    return probes


def _overlaps_and_dense(graph, walk, marked, probe, left, right, gammas):
    """Rows of :func:`_side_levels`, the dense search and the rows' reader.

    ``explicit(gamma)`` returns the dense Hamiltonian and ``(eigenvalue,
    unit vector)`` pairs: the eigenvectors of the search's quotient,
    spread evenly over each cell's vertices.
    """
    rows = _side_levels(graph, walk, marked, probe, left, right, gammas)
    w = dense_walk_matrix(graph, walk)
    colours = [np.isin(np.arange(graph.n), vertices) for vertices in (sorted(marked), left, right)]
    part = equitable_partition(graph, np.stack([*colours, probe.real, probe.imag], axis=1))
    lift = np.zeros((graph.n, part.sizes.size))
    lift[np.arange(graph.n), part.cells] = 1.0 / np.sqrt(part.sizes[part.cells])
    marked_cells = sorted({int(c) for c in part.cells[sorted(marked)]})

    def explicit(gamma):
        h = search_hamiltonian(SearchInstance(walk, graph, marked, gamma), w)
        quotient = eig_hermitian(_partition_quotient(part, marked_cells).hamiltonian(walk, gamma))
        return h, list(zip(quotient.eigenvalues, (lift @ quotient.eigenvectors).T))

    def observables(vec):
        return (np.abs(np.vdot(probe, vec)) ** 2, np.sum(np.abs(vec[left]) ** 2),
                np.sum(np.abs(vec[right]) ** 2))

    return rows, explicit, observables


def _layout_overlaps(spec, walk, probe, gammas):
    """:func:`_overlaps_and_dense` on the layout, its sides the classes a and b."""
    graph, marked = complete_bipartite(spec)
    left, right = (list(vertices) for vertices in class_slices(spec)[:2])
    return _overlaps_and_dense(graph, walk, marked, reduced_to_full(spec, probe), left, right,
                               gammas)


def _assert_rows_match_simple_dense_levels(rows, explicit, observables):
    """Each row whose level is simple in the dense spectrum is the dense eigensolve's row."""
    for gamma in sorted({row.gamma for row in rows}):
        reference = eig_hermitian(explicit(gamma)[0])
        for row in (row for row in rows if row.gamma == gamma):
            near = np.flatnonzero(np.abs(reference.eigenvalues - row.eigenvalue) <= 1e-9)
            assert near.size == 1, row
            want = observables(reference.eigenvectors[:, near[0]])
            got = (row.s_overlap, row.left_overlap, row.right_overlap)
            assert np.max(np.abs(np.subtract(got, want))) <= 1e-12
            assert abs(row.eigenvalue - reference.eigenvalues[near[0]]) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(bipartite_specs(max_side=20), st.sampled_from(list(WalkKind)), st.floats(0.0, 3.0),
       st.data())
def test_quotient_overlaps_report_eigenpairs_of_the_dense_search(spec, walk, gamma, data):
    probe = data.draw(st.sampled_from(sorted(_layout_probes(spec).items())))[1]
    rows, explicit, observables = _layout_overlaps(spec, walk, probe, [gamma])
    h, pairs = explicit(gamma)
    reference = eig_hermitian(h)
    # one cell per nonempty class: the class model's levels, in ascending order
    count = min(4, sum(size > 0 for size in class_sizes(spec)))
    assert [row.n for row in rows] == list(range(count))
    got = np.array([row.eigenvalue for row in rows])
    assert np.all(np.diff(got) >= 0)
    assert np.max(np.abs(got[:, None] - reference.eigenvalues).min(axis=1)) <= 1e-12
    scale = max(1.0, float(np.max(np.abs(h))))
    for row in rows:
        # each row is read from a unit eigenvector of the dense Hamiltonian
        want = (row.s_overlap, row.left_overlap, row.right_overlap)
        matches = [vec for value, vec in pairs if abs(value - row.eigenvalue) <= 1e-12
                   and np.max(np.abs(np.subtract(observables(vec), want))) <= 1e-12]
        assert matches, row
        vec = matches[0]
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12
        assert np.linalg.norm(h @ vec - row.eigenvalue * vec) <= 1e-12 * scale
    # every probe is uniform on the classes, so the rows carry all of its weight
    assert sum(row.s_overlap for row in rows) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "layout", [(48, 24, 3, 5), (512, 256, 3, 5), (9, 5, 4, 2), (2, 2, 1, 1), (10, 7, 0, 3),
               (10, 7, 10, 0)],
    ids=str,
)
def test_quotient_overlaps_match_the_dense_rows_of_the_laplacians(layout):
    # these walks give the class levels and the interiors of classes a and
    # b different values, so each reported level is simple in the dense
    # spectrum and its dense row is unique
    spec = BipartiteSpec(*layout)
    gammas = [0.5 / spec.n1, 1.0 / spec.n2, 0.05]
    for walk in (WalkKind.LAPLACIAN, WalkKind.SIGNLESS_LAPLACIAN):
        for probe in _layout_probes(spec).values():
            rows, explicit, observables = _layout_overlaps(spec, walk, probe, gammas)
            _assert_rows_match_simple_dense_levels(rows, explicit, observables)


def test_quotient_overlaps_order_exact_ties():
    # K_{6,6} with two marked vertices per side: swapping the sides fixes
    # the search, and at gamma = 0 the class states a and b tie, as do c
    # and d. Tied levels keep eigh's order, so they are compared as a set;
    # the rows are those of the reduced class model in every case.
    spec = BipartiteSpec(6, 6, 2, 2)
    uniform = initial_state(spec, InitialStateKind.UNIFORM)
    gammas = [0.0, 0.01, 0.05, 0.15, 0.3]
    for walk in WalkKind:
        rows, _, _ = _layout_overlaps(spec, walk, uniform, gammas)
        reduced = class_quotient(spec, uniform).levels(walk, gammas)
        assert len(rows) == len(reduced) == 4 * len(gammas)
        for gamma in gammas:
            got = [row for row in rows if row.gamma == gamma]
            want = [row for row in reduced if row.gamma == gamma]
            for value in {row.eigenvalue for row in want}:
                tied = [row[2:] for row in got if abs(row.eigenvalue - value) <= 1e-12]
                expected = [row[2:] for row in want if row.eigenvalue == value]
                assert len(tied) == len(expected)
                assert np.max(np.abs(np.subtract(sorted(tied), sorted(expected)))) <= 1e-12
        at_zero = [row for row in rows if row.gamma == 0.0]
        assert [row.eigenvalue for row in at_zero] == [-1.0, -1.0, 0.0, 0.0]
        assert {row[3:5] for row in at_zero[:2]} == {(0.0, 1.0), (1.0, 0.0)}
        assert [row[3:5] for row in at_zero[2:]] == [(0.0, 0.0), (0.0, 0.0)]
        assert [row.s_overlap for row in at_zero] == pytest.approx([1 / 6, 1 / 6, 1 / 3, 1 / 3])


def test_quotient_overlaps_take_any_graph():
    # C_30 marked at one vertex, with the sides {0} and {15}: cell {1, 29}
    # sees only half of cell {2, 28}, so the cells are not classes of twins,
    # and the rows are still eigenpairs of the dense search
    cycle = Graph(30, [(i, (i + 1) % 30) for i in range(30)])
    for walk in WalkKind:
        rows, explicit, observables = _overlaps_and_dense(
            cycle, walk, {0}, uniform_state(30), [0], [15], [0.1, 0.7]
        )
        assert [row.n for row in rows] == [0, 1, 2, 3] * 2
        _assert_rows_match_simple_dense_levels(rows, explicit, observables)
    path = Graph(3, [(0, 1), (1, 2)])
    rows = _side_levels(path, WalkKind.LAPLACIAN, {1}, uniform_state(3), [0], [2], [0.2])
    assert [row.n for row in rows] == [0, 1, 2]


def test_quotient_overlaps_check_inputs_as_the_search_does():
    graph, marked = complete_bipartite(BipartiteSpec(4, 3, 1, 1))
    psi = uniform_state(7)
    with pytest.raises(ValueError, match="marked set must be nonempty"):
        _side_levels(graph, WalkKind.LAPLACIAN, set(), psi, [0], [4], [0.1])
    with pytest.raises(ValueError, match="state dimension"):
        _side_levels(graph, WalkKind.LAPLACIAN, marked, psi[:6], [0], [4], [0.1])
    with pytest.raises(ValueError, match="^row index out of range$"):
        _side_levels(graph, WalkKind.LAPLACIAN, marked, psi, [0], [7], [0.1])
    with pytest.raises(ValueError, match="gamma must be finite and nonnegative"):
        _side_levels(graph, WalkKind.LAPLACIAN, marked, psi, [0], [4], [-0.1])
    with pytest.raises(ValueError, match="probe state must be normalized"):
        _side_levels(graph, WalkKind.LAPLACIAN, marked, 2 * psi, [0], [4], [0.1])
