import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from dense_reference import (
    adjacency_matrix,
    laplacian,
    signless_laplacian,
    spread_block,
)
from dense_reference import certify_walk_equivalence as dense_certificate
from spin_reference import (
    heisenberg_hamiltonian,
    project_single_excitation,
    single_excitation_basis,
)
from qwsearch.evolve import WalkKind, eig_hermitian, propagate
from qwsearch.graph import BipartiteSpec, Graph, complete_bipartite
from qwsearch.spin_network import (
    CouplingConstants,
    certify_walk_equivalence,
    demo_graph,
    single_excitation_block,
)

couplings = st.floats(-2.0, 2.0, allow_nan=False)
# every degree is m/2, so A, L + (m/2)I and Q - (m/2)I are one matrix
COINCIDING = {
    "C4": Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "K4": Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)]),
    "2K2": Graph(4, [(0, 1), (2, 3)]),
}


def test_single_excitation_basis_orders_msb_first():
    assert single_excitation_basis(5) == [16, 8, 4, 2, 1]
    assert single_excitation_basis(2) == [2, 1]
    assert single_excitation_basis(1) == [1]
    with pytest.raises(ValueError):
        single_excitation_basis(0)


def test_two_spin_isotropic_couplings():
    # oracle: hand-built 4x4 from the explicit Pauli tensor products
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    expected = -0.5 * (np.kron(x, x) + np.kron(y, y) + np.kron(z, z))
    g = Graph(2, frozenset({(0, 1)}))
    h = heisenberg_hamiltonian(g, CouplingConstants(1.0, 1.0, 1.0))
    assert np.allclose(h, expected, atol=0)
    # frozen from a brute-force eigensolve of the hand-built matrix
    assert np.allclose(np.linalg.eigvalsh(h), [-0.5, -0.5, -0.5, 1.5], atol=1e-14)


def test_edgeless_network_is_zero():
    g = Graph(3, frozenset())
    h = heisenberg_hamiltonian(g, CouplingConstants(1.0, 1.0, 0.5))
    assert not h.any()


def _assert_dense_refusal(n, gib):
    # the dense reference holds three 2^n x 2^n complex arrays; the refusal
    # names their bytes before allocating any of them
    g = Graph(n, frozenset({(0, 1)}))
    with pytest.raises(ValueError) as info:
        heisenberg_hamiltonian(g, CouplingConstants(1.0, 1.0, 0.0))
    message = str(info.value)
    assert f"needs about {3 * 16 * 4**n} bytes ({gib} GiB)" in message
    assert "over the cap of 13 vertices" in message


def test_size_cap():
    _assert_dense_refusal(15, 48)


def test_dense_reference_refuses_14_spins():
    # verify-spin certifies 14 spins through the block; the dense build,
    # kept as the reference, still stops at 13
    _assert_dense_refusal(14, 12)


def test_projection_shape_mismatch():
    with pytest.raises(ValueError):
        project_single_excitation(np.zeros((8, 8)), 2)


@pytest.mark.parametrize("gamma", [0.3, 0.7, 1.0])
def test_projection_identities(gamma):
    """The three coupling ratios reduce to the three walk generators."""
    g = demo_graph()
    eye = np.eye(g.n)
    shift = 0.5 * gamma * g.m * eye
    cases = [
        (CouplingConstants(gamma, gamma, 0.0), -gamma * adjacency_matrix(g)),
        (CouplingConstants(gamma, gamma, gamma), -gamma * laplacian(g) - shift),
        (
            CouplingConstants(gamma, gamma, -gamma),
            -gamma * signless_laplacian(g) + shift,
        ),
    ]
    for j, target in cases:
        projected = project_single_excitation(heisenberg_hamiltonian(g, j), g.n)
        assert np.max(np.abs(projected - target)) <= 1e-12


@pytest.mark.parametrize(
    "ratio,expected",
    [
        (0.0, WalkKind.ADJACENCY),
        (1.0, WalkKind.LAPLACIAN),
        (-1.0, WalkKind.SIGNLESS_LAPLACIAN),
        (0.5, None),
        (0.37, None),
    ],
)
def test_certify_walk_equivalence(ratio, expected):
    g = demo_graph()
    kinds, deviation = certify_walk_equivalence(
        g, CouplingConstants(0.4, 0.4, 0.4 * ratio)
    )
    assert kinds == (() if expected is None else (expected,))
    if expected is not None:
        assert deviation <= 1e-12
    else:
        assert deviation > 1e-10


def test_certify_rejects_anisotropic_transverse():
    with pytest.raises(ValueError):
        certify_walk_equivalence(demo_graph(), CouplingConstants(1.0, 0.9, 0.0))


@pytest.mark.parametrize("jx, jz", [(0.0, 0.0), (-0.0, 0.0), (0.0, 0.37)])
def test_certify_rejects_a_block_without_hopping(jx, jz):
    # with jx = 0 every candidate's hopping and -gamma r terms vanish
    with pytest.raises(ValueError, match="^walk equivalence requires a nonzero jx$"):
        certify_walk_equivalence(demo_graph(), CouplingConstants(jx, jx, jz))


def test_coupling_constants_must_be_finite():
    for name in ("jx", "jy", "jz"):
        for value in (np.inf, -np.inf, np.nan):
            values = {"jx": 1.0, "jy": 1.0, "jz": 0.0, name: value}
            with pytest.raises(ValueError, match=f"^coupling {name} must be finite$"):
                CouplingConstants(**values)
    # finite NumPy scalars are taken as they are
    for dtype in (np.float32, np.float64):
        j = CouplingConstants(dtype(0.5), dtype(0.5), dtype(-0.5))
        assert (j.jx, j.jy, j.jz) == (0.5, 0.5, -0.5)
        kinds, deviation = certify_walk_equivalence(demo_graph(), j)
        assert (kinds, deviation) == ((WalkKind.SIGNLESS_LAPLACIAN,), 0.0)


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=5), couplings, couplings, couplings)
def test_hamiltonian_is_hermitian(g, jx, jy, jz):
    h = heisenberg_hamiltonian(g, CouplingConstants(jx, jy, jz))
    assert np.max(np.abs(h - h.conj().T)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(graphs(max_n=5), couplings, couplings)
def test_single_excitation_subspace_invariant(g, jx, jz):
    """With equal transverse couplings, H never leaks out of the sector."""
    h = heisenberg_hamiltonian(g, CouplingConstants(jx, jx, jz))
    inside = single_excitation_basis(g.n)
    outside = [i for i in range(2**g.n) if i not in inside]
    if outside:
        assert np.max(np.abs(h[np.ix_(inside, outside)])) <= 1e-12


@pytest.mark.parametrize("n,seed", [(2, 0), (4, 1), (6, 2), (8, 3), (10, 4)])
def test_identity_shift_bookkeeping(n, seed):
    """Projected isotropic / sign-flipped Hamiltonians match L and Q exactly
    once the edge-count energy shift is restored."""
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = [p for p in pairs if rng.random() < 0.4]
    g = Graph(n, frozenset(chosen))
    gamma = float(rng.uniform(0.05, 1.0))
    eye = np.eye(n)
    h_iso = project_single_excitation(
        heisenberg_hamiltonian(g, CouplingConstants(gamma, gamma, gamma)), n
    )
    assert (
        np.max(np.abs(h_iso + gamma * laplacian(g) + 0.5 * gamma * g.m * eye)) <= 1e-12
    )
    h_flip = project_single_excitation(
        heisenberg_hamiltonian(g, CouplingConstants(gamma, gamma, -gamma)), n
    )
    assert (
        np.max(np.abs(h_flip + gamma * signless_laplacian(g) - 0.5 * gamma * g.m * eye))
        <= 1e-12
    )


def test_identity_shift_is_global_phase():
    """The retained energy shift cannot change any measured probability."""
    g = demo_graph()
    gamma = 0.3
    projected = project_single_excitation(
        heisenberg_hamiltonian(g, CouplingConstants(gamma, gamma, gamma)), g.n
    )
    rng = np.random.default_rng(7)
    psi0 = rng.normal(size=g.n) + 1j * rng.normal(size=g.n)
    psi0 /= np.linalg.norm(psi0)
    shifted = eig_hermitian(projected)
    bare = eig_hermitian(-gamma * laplacian(g))
    for t in (0.5, 3.0, 12.0):
        p_shifted = np.abs(propagate(shifted, psi0, [t])[0]) ** 2
        p_bare = np.abs(propagate(bare, psi0, [t])[0]) ** 2
        assert np.max(np.abs(p_shifted - p_bare)) <= 1e-10


ratios = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5]), couplings)


@settings(max_examples=60, deadline=None)
@given(graphs(), couplings, ratios)
def test_single_excitation_block_matches_dense_projection(g, gamma, ratio):
    j = CouplingConstants(gamma, gamma, ratio * gamma)
    dense = project_single_excitation(heisenberg_hamiltonian(g, j), g.n)
    assert np.max(np.abs(spread_block(g, j) - dense)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(graphs(max_n=6), couplings, couplings, couplings)
def test_single_excitation_block_with_unequal_transverse_couplings(g, jx, jy, jz):
    """The block is the projection for any couplings, invariant sector or not."""
    j = CouplingConstants(jx, jy, jz)
    dense = project_single_excitation(heisenberg_hamiltonian(g, j), g.n)
    assert np.max(np.abs(spread_block(g, j) - dense)) <= 1e-12


def test_single_excitation_block_on_the_bench_shape():
    # a seeded 9-vertex, 14-edge graph, the size of the verify-spin benchmark
    rng = np.random.default_rng(9)
    pairs = [(i, j) for i in range(9) for j in range(i + 1, 9)]
    g = Graph(9, [pairs[k] for k in rng.choice(len(pairs), size=14, replace=False)])
    assert g.m == 14
    gamma = 0.61
    for ratio in (0.0, 1.0, -1.0, 0.5):
        j = CouplingConstants(gamma, gamma, ratio * gamma)
        dense = project_single_excitation(heisenberg_hamiltonian(g, j), g.n)
        assert np.max(np.abs(spread_block(g, j) - dense)) <= 1e-12


def _dense_random_graph() -> Graph:
    """2000 vertices, each pair an edge with probability 0.9."""
    rng = np.random.default_rng(3)
    u, v = np.triu_indices(2000, 1)
    keep = rng.random(u.size) < 0.9
    return Graph(2000, np.stack([u[keep], v[keep]], axis=1))


def test_matching_candidate_deviation_is_exactly_zero():
    """The block's diagonal is one rounding of ``-(jz/2)(m - 2 deg)`` and each
    candidate is ``-gamma`` times half-integers, so they agree bit for bit.
    Summing the diagonal edge by edge, or rounding ``gamma L`` and the shift
    ``gamma m / 2`` apart, leaves up to 3e-9 here, past the 1e-10 tolerance."""
    bipartite, _ = complete_bipartite(BipartiteSpec(512, 256, 3, 5))
    dense = _dense_random_graph()
    assert dense.m == 1_799_123
    expected = {
        0.0: WalkKind.ADJACENCY,
        1.0: WalkKind.LAPLACIAN,
        -1.0: WalkKind.SIGNLESS_LAPLACIAN,
    }
    for g, ratios_checked in ((bipartite, (0.0, 1.0, -1.0)), (dense, (1.0, -1.0))):
        for gamma in (0.3, 0.77, 1.0):
            for ratio in ratios_checked:
                j = CouplingConstants(gamma, gamma, ratio * gamma)
                kinds, deviation = certify_walk_equivalence(g, j)
                assert (kinds, deviation) == ((expected[ratio],), 0.0), (g.n, gamma, ratio)


@pytest.mark.parametrize(
    "g",
    [*COINCIDING.values(), Graph(4, []), Graph(1, [])],
    ids=[*COINCIDING, "edgeless4", "edgeless1"],
)
def test_coinciding_candidates_all_match(g):
    """Every degree is m/2, so A, L + (m/2)I and Q - (m/2)I are one matrix."""
    for ratio in (0.0, 1.0, -1.0):
        kinds, deviation = certify_walk_equivalence(
            g, CouplingConstants(0.3, 0.3, 0.3 * ratio)
        )
        assert kinds == (
            WalkKind.ADJACENCY,
            WalkKind.LAPLACIAN,
            WalkKind.SIGNLESS_LAPLACIAN,
        )
        assert deviation == 0.0

spin_graphs = st.one_of(graphs(), st.sampled_from(list(COINCIDING.values())))
gammas = st.one_of(st.sampled_from([0.0, -0.0, -0.3, 1.0, 1e150]), st.floats(-1e6, 1e6))
ratios_checked = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5]), st.floats(-3.0, 3.0))


@settings(max_examples=400, deadline=None)
@given(spin_graphs, gammas, ratios_checked)
def test_certificate_on_the_degrees_is_the_dense_certificate(g, gamma, ratio):
    """The same kinds and the same deviation, to the last bit, as the n x n matrices give."""
    j = CouplingConstants(gamma, gamma, ratio * gamma)
    if gamma == 0:
        _assert_refused_without_hopping(g, j)
        return
    kinds, deviation = certify_walk_equivalence(g, j)
    want_kinds, want_deviation = dense_certificate(g, j)
    assert kinds == want_kinds
    assert repr(deviation) == repr(want_deviation)


def _assert_refused_without_hopping(g, j):
    # the zero matrices match every walk, yet realise none of them
    every_walk = (WalkKind.ADJACENCY, WalkKind.LAPLACIAN, WalkKind.SIGNLESS_LAPLACIAN)
    assert dense_certificate(g, j) == (every_walk, 0.0)
    with pytest.raises(ValueError, match="^walk equivalence requires a nonzero jx$"):
        certify_walk_equivalence(g, j)


@pytest.mark.parametrize(
    "g",
    [
        Graph(1, []),
        Graph(4, []),
        demo_graph(),
        *COINCIDING.values(),
        Graph(9, [(0, k) for k in range(1, 9)]),
    ],
    ids=["n1", "edgeless4", "demo", *COINCIDING, "star8"],
)
def test_certificate_matches_the_dense_certificate_at_the_edges(g):
    # from 5e307 up some entries overflow to inf, and some gaps are inf -
    # inf = NaN (at the star's hub, where a matching candidate's other gaps
    # are 0): each row's max keeps them as the matrices' max does
    for gamma in (0.0, -0.45, 0.3, 7.0, 1e308, -1e308, 5e307, -5e307):
        for ratio in (0.0, 1.0, -1.0, 0.5, 0.37):
            j = CouplingConstants(gamma, gamma, ratio * gamma)
            if gamma == 0:
                _assert_refused_without_hopping(g, j)
                continue
            with np.errstate(over="ignore", invalid="ignore"):
                kinds, deviation = certify_walk_equivalence(g, j)
                want_kinds, want_deviation = dense_certificate(g, j)
            assert (kinds, repr(deviation)) == (want_kinds, repr(want_deviation)), (gamma, ratio)


def test_single_excitation_block_lists_each_distinct_degree_once():
    j = CouplingConstants(0.4, 0.4, -0.4)
    block = single_excitation_block(demo_graph(), j)  # degrees 1, 3, 2, 2 and 0
    assert block.hopping == -0.4
    assert block.degrees.tolist() == [0, 1, 2, 3]
    assert block.energies.tolist() == [0.2 * (4 - 2 * d) for d in (0, 1, 2, 3)]
    # every vertex touched: no degree 0; no edge: degree 0 alone
    cycle = single_excitation_block(COINCIDING["C4"], j)
    assert cycle.degrees.tolist() == [2]
    assert single_excitation_block(Graph(3, []), j).degrees.tolist() == [0]
    # nothing in it grows with n: three edges on 2^31 vertices
    huge = single_excitation_block(Graph(2**31, [(0, 1), (1, 2), (2**31 - 2, 2**31 - 1)]), j)
    assert huge.degrees.tolist() == [0, 1, 2]


@st.composite
def edge_lists(draw) -> tuple[int, list[tuple[int, int]]]:
    """A vertex count and a list of its pairs in any order, reversed and repeated, maybe empty."""
    n = draw(st.integers(1, 12))
    if n == 1:
        return n, []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    pairs = draw(st.lists(pair, max_size=30))
    # some listed twice, in either order
    repeats = draw(st.lists(st.sampled_from(pairs), max_size=5)) if pairs else []
    rows = pairs + [draw(st.sampled_from([(a, b), (b, a)])) for a, b in repeats]
    return n, draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(edge_lists())
def test_single_excitation_block_degrees_are_the_per_vertex_counts(case):
    n, rows = case
    edges = {(min(a, b), max(a, b)) for a, b in rows}
    degree = [0] * n
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    block = single_excitation_block(Graph(n, rows), CouplingConstants(0.4, 0.4, -0.4))
    assert block.degrees.tolist() == sorted(set(degree))
    assert block.energies.tolist() == [0.2 * (len(edges) - 2 * d) for d in sorted(set(degree))]


def test_certificate_on_two_to_the_31_vertices_holds_a_few_kib():
    # nothing held grows with n: about 3.4 KiB, where one array of n bytes is 2 GiB
    g = Graph(2**31, [(0, 1), (1, 2), (2**31 - 2, 2**31 - 1)])
    for ratio in (-1.0, 0.5):
        j = CouplingConstants(0.3, 0.3, 0.3 * ratio)
        certify_walk_equivalence(g, j)
        tracemalloc.start()
        try:
            certify_walk_equivalence(g, j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 1024, ratio
