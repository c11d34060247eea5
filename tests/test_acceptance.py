"""End-to-end acceptance checks for the search toolkit.

Each test evaluates one numbered criterion at its stated tolerance and
prints a single PASS/FAIL line with the measured values (run with
``pytest tests/test_acceptance.py -v -s`` to see the lines as they go).

Criteria 1, 2, and 6 hold the numeric curves on the finite (512, 256, 3, 5)
layout to the next-order closed forms (``next_order_probabilities``), and
print the n -> infinity values of the paper next to them. The windows are
narrower than the distance between the finite layout and that limit: the
exact doublet gap at gamma=1/512 is 0.98569 of the first-order one, and
an O(k/n) detuning of ``a`` from the unmarked level stops the doublet from
transferring fully, while the beat on the envelope adds only about 0.02.
"""

import math
import time

import numpy as np

from qwsearch.bipartite import (
    CriticalSide,
    InitialStateKind,
    class_quotient,
    closed_form_probabilities,
    critical_gamma,
    fastest_regime,
    initial_state,
    next_order_probabilities,
    refined_class_quotient,
    runtime_table,
)
from qwsearch.cli import main
from qwsearch.evolve import (
    WalkKind,
    eig_hermitian,
    first_peak,
    propagate,
)
from qwsearch.graph import BipartiteSpec
from qwsearch.spin_network import CouplingConstants, demo_graph
from conftest import quotient_walk
from dense_reference import (
    adjacency_matrix,
    laplacian,
    signless_laplacian,
    spread_block,
)
from spin_reference import heisenberg_hamiltonian, project_single_excitation

BENCH_SPEC = BipartiteSpec(512, 256, 3, 5)
SMALL_SPEC = BipartiteSpec(9, 5, 4, 2)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")


def _peak_grid(t_star):
    return np.linspace(0.0, 2.0 * t_star, 2000)


def _reduced_peak(spec, start, gamma, t_star):
    times = _peak_grid(t_star)
    state = initial_state(spec, start)
    probs = class_quotient(spec, state).masses(WalkKind.SIGNLESS_LAPLACIAN, gamma, times)
    return first_peak(times, probs[:, 0] + probs[:, 1])


def _next_order_peak(spec, start, side, t_star):
    times = _peak_grid(t_star)
    pa, pb, _, _ = next_order_probabilities(spec, start, side, times)
    return first_peak(times, pa + pb)


def test_criterion_1_uniform_start_left_critical_peak():
    start = time.perf_counter()
    t_inf = runtime_table(BENCH_SPEC).t_qa  # 35.54
    p_inf = 4 * 512 * 256 / 768**2  # 0.889
    t_star, p_star = _next_order_peak(
        BENCH_SPEC, InitialStateKind.UNIFORM, CriticalSide.LEFT, t_inf
    )
    gamma = critical_gamma(BENCH_SPEC, WalkKind.SIGNLESS_LAPLACIAN, CriticalSide.LEFT)
    t_peak, p_peak = _reduced_peak(BENCH_SPEC, InitialStateKind.UNIFORM, gamma, t_inf)
    elapsed = time.perf_counter() - start
    ok = abs(p_peak - p_star) <= 0.02 and abs(t_peak - t_star) <= 1.0 and elapsed < 1.0
    _report(
        "criterion 1 (uniform start, gamma=1/512)",
        ok,
        f"peak=({t_peak:.3f}, {p_peak:.4f}) next-order target=({t_star:.3f}+-1.0, "
        f"{p_star:.4f}+-0.02) n->inf=({t_inf:.2f}, {p_inf:.3f}) elapsed={elapsed:.2f}s",
    )
    assert abs(p_peak - p_star) <= 0.02
    assert abs(t_peak - t_star) <= 1.0
    assert elapsed < 1.0


def test_criterion_2_uniform_start_right_critical_peak():
    start = time.perf_counter()
    t_inf = runtime_table(BENCH_SPEC).t_qb  # 13.77
    p_inf = 4 * 512 * 256 / 768**2
    t_star, p_star = _next_order_peak(
        BENCH_SPEC, InitialStateKind.UNIFORM, CriticalSide.RIGHT, t_inf
    )
    gamma = critical_gamma(BENCH_SPEC, WalkKind.SIGNLESS_LAPLACIAN, CriticalSide.RIGHT)
    t_peak, p_peak = _reduced_peak(BENCH_SPEC, InitialStateKind.UNIFORM, gamma, t_inf)
    elapsed = time.perf_counter() - start
    ok = abs(p_peak - p_star) <= 0.02 and abs(t_peak - t_star) <= 0.5 and elapsed < 1.0
    _report(
        "criterion 2 (uniform start, gamma=1/256)",
        ok,
        f"peak=({t_peak:.3f}, {p_peak:.4f}) next-order target=({t_star:.3f}+-0.5, "
        f"{p_star:.4f}+-0.02) n->inf=({t_inf:.2f}, {p_inf:.3f}) elapsed={elapsed:.2f}s",
    )
    assert abs(p_peak - p_star) <= 0.02
    assert abs(t_peak - t_star) <= 0.5
    assert elapsed < 1.0


def test_criterion_3_deterministic_search_from_signless_eigenvector():
    # "near" the predicted time is pinned to +-2.5 (about half a beat
    # period); the asymptotic value 1 is checked as >= 0.95 at desk scale
    results = []
    table = runtime_table(BENCH_SPEC)
    for side, window, t_star in (
        (CriticalSide.LEFT, 2.5, table.t_qa), (CriticalSide.RIGHT, 2.5, table.t_qb)
    ):
        t_peak, p_peak = _reduced_peak(
            BENCH_SPEC,
            InitialStateKind.SIGNLESS_EIGENVECTOR,
            critical_gamma(BENCH_SPEC, WalkKind.SIGNLESS_LAPLACIAN, side),
            t_star,
        )
        results.append((side.value, t_peak, p_peak, t_star, window))
    # independent full-space oracle bounds the finite-size shortfall
    oracle_gap = 0.0
    table = runtime_table(SMALL_SPEC)
    for side, t_star in ((CriticalSide.LEFT, table.t_qa), (CriticalSide.RIGHT, table.t_qb)):
        gamma = critical_gamma(SMALL_SPEC, WalkKind.SIGNLESS_LAPLACIAN, side)
        times = np.linspace(0.0, 2.0 * t_star, 2000)
        state = initial_state(SMALL_SPEC, InitialStateKind.SIGNLESS_EIGENVECTOR)
        reduced = class_quotient(SMALL_SPEC, state).masses(
            WalkKind.SIGNLESS_LAPLACIAN, gamma, times
        )
        full = refined_class_quotient(SMALL_SPEC, state).masses(
            WalkKind.SIGNLESS_LAPLACIAN, gamma, times
        )
        _, p_reduced = first_peak(times, reduced[:, 0] + reduced[:, 1])
        _, p_full = first_peak(times, full[:, 0] + full[:, 1])
        oracle_gap = max(oracle_gap, abs(p_reduced - p_full))
    ok = all(
        p >= 0.95 and abs(t - t_star) <= window
        for _, t, p, t_star, window in results
    ) and oracle_gap <= 1e-9
    detail = " ".join(
        f"{side}: peak=({t:.3f}, {p:.4f}) target=({t_star:.2f}+-{window}, >=0.95)"
        for side, t, p, t_star, window in results
    )
    _report(
        "criterion 3 (deterministic search from the signless eigenvector)",
        ok,
        f"{detail} reduced-vs-full peak gap={oracle_gap:.2e}",
    )
    for _, t, p, t_star, window in results:
        assert p >= 0.95
        assert abs(t - t_star) <= window
    assert oracle_gap <= 1e-9


def test_criterion_4_spin_network_equivalences():
    start = time.perf_counter()
    g = demo_graph()
    gamma = 0.3
    eye = np.eye(g.n)
    shift = 0.5 * gamma * g.m * eye
    cases = [
        ("jz/jx=0", CouplingConstants(gamma, gamma, 0.0), -gamma * adjacency_matrix(g)),
        ("jz/jx=1", CouplingConstants(gamma, gamma, gamma), -gamma * laplacian(g) - shift),
        (
            "jz/jx=-1",
            CouplingConstants(gamma, gamma, -gamma),
            -gamma * signless_laplacian(g) + shift,
        ),
    ]
    worst = 0.0
    block_gap = 0.0  # the certificate's block against the dense projection
    for _, couplings, target in cases:
        projected = project_single_excitation(
            heisenberg_hamiltonian(g, couplings), g.n
        )
        worst = max(worst, float(np.max(np.abs(projected - target))))
        # the package's hopping amplitude and per-degree energies, spread into n x n
        block = spread_block(g, couplings)
        block_gap = max(block_gap, float(np.max(np.abs(block - projected))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and block_gap <= 1e-10 and elapsed < 1.0
    _report(
        "criterion 4 (spin-network walk equivalences)",
        ok,
        f"max entrywise deviation={worst:.2e} block vs dense={block_gap:.2e} "
        f"(tol 1e-10) elapsed={elapsed:.2f}s",
    )
    assert worst <= 1e-10
    assert block_gap <= 1e-10
    assert elapsed < 1.0


def test_criterion_5_full_vs_reduced_oracle_equivalence():
    start = time.perf_counter()
    times = np.arange(0.0, 50.0001, 0.1)
    worst = 0.0
    state = initial_state(SMALL_SPEC, InitialStateKind.UNIFORM)
    for walk in WalkKind:
        for gamma in (1 / 9, 1 / 5, 0.07):
            reduced = class_quotient(SMALL_SPEC, state).masses(walk, gamma, times)
            full = refined_class_quotient(SMALL_SPEC, state).masses(walk, gamma, times)
            worst = max(worst, float(np.max(np.abs(reduced - full))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    _report(
        "criterion 5 (full 14-vertex vs 4x4 reduced evolution)",
        ok,
        f"max class-probability deviation={worst:.2e} (tol 1e-9) "
        f"elapsed={elapsed:.2f}s",
    )
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_6_closed_form_vs_numeric():
    t_star = runtime_table(BENCH_SPEC).t_qa
    times = np.linspace(0.0, t_star, 2000)
    gamma = critical_gamma(BENCH_SPEC, WalkKind.SIGNLESS_LAPLACIAN, CriticalSide.LEFT)
    deviations, leading = {}, {}
    for start in (InitialStateKind.UNIFORM, InitialStateKind.SIGNLESS_EIGENVECTOR):
        numeric = class_quotient(BENCH_SPEC, initial_state(BENCH_SPEC, start)).masses(
            WalkKind.SIGNLESS_LAPLACIAN, gamma, times
        )[:, 0]
        closed = next_order_probabilities(BENCH_SPEC, start, CriticalSide.LEFT, times)[0]
        asymptotic = closed_form_probabilities(BENCH_SPEC, start, CriticalSide.LEFT, times)[0]
        deviations[start.value] = float(np.max(np.abs(numeric - closed)))
        leading[start.value] = float(np.max(np.abs(numeric - asymptotic)))
    ok = all(d <= 0.06 for d in deviations.values())
    _report(
        "criterion 6 (closed form vs numeric, both starts)",
        ok,
        f"max |p_a numeric - next order|: uniform={deviations['s']:.4f} "
        f"signless={deviations['sq']:.4f} (tol 0.06); n->inf form: "
        f"uniform={leading['s']:.4f} signless={leading['sq']:.4f}",
    )
    assert deviations["s"] <= 0.06
    assert deviations["sq"] <= 0.06


def test_criterion_7_regime_table():
    labels = {
        k1: fastest_regime(BipartiteSpec(1024, 256, k1, 5)).fastest
        for k1 in range(1, 61)
    }
    switches = [
        k1 for k1 in range(2, 61) if labels[k1] is not labels[k1 - 1]
    ]
    transitions_ok = switches == [12, 34]
    # runtime inequality (the underlying proof presumes the left side is
    # larger, so specs are drawn with n1 > n2 and k1 >= 1)
    rng = np.random.default_rng(41)
    inequality_ok = True
    for _ in range(1000):
        n2 = int(rng.integers(1, 2000))
        n1 = int(rng.integers(n2 + 1, n2 + 2001))
        k1 = int(rng.integers(1, n1 + 1))
        k2 = int(rng.integers(0, n2 + 1))
        table = runtime_table(BipartiteSpec(n1, n2, k1, k2))
        if not table.t_a < table.t_qa:
            inequality_ok = False
            break
    ok = transitions_ok and inequality_ok
    _report(
        "criterion 7 (fastest-walk transitions and runtime inequality)",
        ok,
        f"transitions={switches} (expected [12, 34]); "
        f"t_A < t_Qa on 1000 lopsided specs: {inequality_ok}",
    )
    assert transitions_ok
    assert inequality_ok


def test_criterion_8_initial_state_eigenvector_identities():
    rng = np.random.default_rng(43)
    worst = 0.0
    for _ in range(100):
        n1 = int(rng.integers(1, 4096))
        n2 = int(rng.integers(1, 4096))
        k1 = int(rng.integers(0, n1 + 1))
        k2 = int(rng.integers(0, n2 + 1))
        if k1 + k2 == 0:
            k1 = 1
        spec = BipartiteSpec(n1, n2, k1, k2)
        s = initial_state(spec, InitialStateKind.UNIFORM)
        s_a = initial_state(spec, InitialStateKind.ADJACENCY_EIGENVECTOR)
        s_q = initial_state(spec, InitialStateKind.SIGNLESS_EIGENVECTOR)
        # each start on the nonempty classes, where the class quotient acts
        lap = class_quotient(spec, s)
        adj = class_quotient(spec, s_a)
        sig = class_quotient(spec, s_q)
        w_lap = quotient_walk(lap, WalkKind.LAPLACIAN)
        w_adj = quotient_walk(adj, WalkKind.ADJACENCY)
        w_sig = quotient_walk(sig, WalkKind.SIGNLESS_LAPLACIAN)
        worst = max(
            worst,
            float(np.max(np.abs(w_lap @ lap.state))),
            float(np.max(np.abs(w_adj @ adj.state - math.sqrt(n1 * n2) * adj.state))),
            float(np.max(np.abs(w_sig @ sig.state - spec.n * sig.state))),
        )
    ok = worst <= 1e-10
    _report(
        "criterion 8 (walk-eigenvector identities, 100 random layouts)",
        ok,
        f"max residual={worst:.2e} (tol 1e-10)",
    )
    assert worst <= 1e-10


def test_criterion_9_property_suite(tmp_path):
    rng = np.random.default_rng(47)
    # norm conservation at 1e-10
    norm_dev = 0.0
    for dim in (3, 16, 64):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        decomp = eig_hermitian(0.5 * (a + a.conj().T))
        psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi0 /= np.linalg.norm(psi0)
        for t in (0.1, 1.0, 10.0, 100.0):
            norm_dev = max(
                norm_dev, abs(np.linalg.norm(propagate(decomp, psi0, [t])[0]) - 1.0)
            )
    # composition at 1e-8
    a = rng.normal(size=(12, 12))
    decomp = eig_hermitian(0.5 * (a + a.T))
    psi0 = rng.normal(size=12) + 1j * rng.normal(size=12)
    psi0 /= np.linalg.norm(psi0)
    stepwise = propagate(decomp, propagate(decomp, psi0, [3.7])[0], [11.1])[0]
    compose_dev = float(
        np.max(np.abs(stepwise - propagate(decomp, psi0, [14.8])[0]))
    )
    # gamma=0 probability invariance at 1e-10
    psi = initial_state(BENCH_SPEC, InitialStateKind.UNIFORM)
    h0 = class_quotient(BENCH_SPEC, psi).hamiltonian(WalkKind.SIGNLESS_LAPLACIAN, 0.0)
    p0 = np.abs(psi) ** 2
    gamma0_dev = 0.0
    for t in (0.5, 5.0, 50.0):
        p = np.abs(propagate(h0, psi, [t])[0]) ** 2
        gamma0_dev = max(gamma0_dev, float(np.max(np.abs(p - p0))))
    # closed-form probability sums at 1e-12
    times = np.linspace(0.0, 100.0, 500)
    sum_dev = 0.0
    for start in (InitialStateKind.UNIFORM, InitialStateKind.SIGNLESS_EIGENVECTOR):
        for side in CriticalSide:
            parts = closed_form_probabilities(BENCH_SPEC, start, side, times)
            sum_dev = max(sum_dev, float(np.max(np.abs(sum(parts) - 1.0))))
    # partite-swap symmetry, exact
    swap_exact = runtime_table(BENCH_SPEC).t_qa == runtime_table(BENCH_SPEC.swapped()).t_qb
    left = closed_form_probabilities(BENCH_SPEC, InitialStateKind.UNIFORM, CriticalSide.LEFT, 7.3)
    mirrored = closed_form_probabilities(
        BENCH_SPEC.swapped(), InitialStateKind.UNIFORM, CriticalSide.RIGHT, 7.3
    )
    swap_exact = swap_exact and left == (mirrored[1], mirrored[0], mirrored[3], mirrored[2])
    # byte-identical CSV output
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = [
        "sweep-gamma", "--n1", "512", "--n2", "256", "--k1", "3", "--k2", "5",
        "--gamma-min", "0.001", "--gamma-max", "0.0055", "--gamma-count", "16",
    ]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    bytes_equal = out1.read_bytes() == out2.read_bytes()

    ok = (
        norm_dev <= 1e-10
        and compose_dev <= 1e-8
        and gamma0_dev <= 1e-10
        and sum_dev <= 1e-12
        and swap_exact
        and bytes_equal
    )
    _report(
        "criterion 9 (property suite)",
        ok,
        f"norm={norm_dev:.1e}/1e-10 composition={compose_dev:.1e}/1e-8 "
        f"gamma0={gamma0_dev:.1e}/1e-10 prob-sum={sum_dev:.1e}/1e-12 "
        f"swap-exact={swap_exact} csv-bytes-equal={bytes_equal}",
    )
    assert norm_dev <= 1e-10
    assert compose_dev <= 1e-8
    assert gamma0_dev <= 1e-10
    assert sum_dev <= 1e-12
    assert swap_exact
    assert bytes_equal
