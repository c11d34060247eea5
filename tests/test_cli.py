import contextlib
import importlib
import io
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import bipartite_specs
from dense_reference import SearchInstance, search_hamiltonian
from qwsearch import cli, spin_network
from qwsearch.bipartite import class_quotient, class_sizes
from qwsearch.cli import SEARCH_CELL_BYTES, UsageError, build_parser, main
from qwsearch.evolve import (
    WalkKind,
    eig_hermitian,
    first_peak,
    propagate,
    search_quotient,
    uniform_state,
)
from qwsearch.graph import read_edge_list
from spin_reference import heisenberg_hamiltonian

FIG_FLAGS = ["--n1", "512", "--n2", "256", "--k1", "3", "--k2", "5"]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def parse_floats(text):
    header, rows = parse_csv(text)
    return header, np.array([[float(x) for x in row] for row in rows])


# ---------------------------------------------------------------------------
# exit statuses and validation


def test_missing_subcommand_is_usage_error(capsys):
    code, _, err = run_cli(capsys, [])
    assert code == 1
    assert "usage error" in err


def test_simulate_requires_instance(capsys):
    code, _, err = run_cli(capsys, ["simulate", "--gamma", "0.1"])
    assert code == 1
    assert "bipartite layout" in err


def test_partial_layout_is_rejected(capsys):
    code, _, err = run_cli(
        capsys, ["simulate", "--n1", "4", "--n2", "4", "--gamma", "0.1"]
    )
    assert code == 1
    assert "--k1" in err or "needs all" in err


def test_layout_and_graph_conflict(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("2 1\n0 1\n")
    code, _, err = run_cli(
        capsys,
        ["simulate", *FIG_FLAGS, "--graph", str(path), "--gamma", "0.1"],
    )
    assert code == 1


def test_invalid_spec_is_validation_error(capsys):
    code, _, err = run_cli(
        capsys,
        ["simulate", "--n1", "4", "--n2", "4", "--k1", "0", "--k2", "0", "--gamma", "0.1"],
    )
    assert code == 1
    assert "marked" in err


def test_full_mode_cap(capsys):
    code, _, err = run_cli(
        capsys,
        [
            "simulate",
            "--n1", "2000", "--n2", "200", "--k1", "1", "--k2", "1",
            "--mode", "full", "--gamma", "0.001", "--tmax", "1", "--samples", "4",
        ],
    )
    assert code == 1
    assert "full mode caps" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep-gamma", "--mode", "full", "--gamma", "0.001", "--tmax", "1"],
        ["overlaps", "--mode", "full", "--gamma", "0.001"],
    ],
    ids=["sweep-gamma", "overlaps"],
)
def test_full_mode_cap_on_shared_full_path(capsys, argv):
    layout = ["--n1", "2000", "--n2", "200", "--k1", "1", "--k2", "1"]
    code, out, err = run_cli(capsys, [*argv[:1], *layout, *argv[1:]])
    assert (code, out) == (1, "")
    assert "full mode caps at 2000 vertices, got 2200" in err


def test_full_mode_cap_on_edge_list(capsys, tmp_path):
    path = tmp_path / "wide.txt"
    path.write_text("2001 1\n0 1\n")
    code, _, err = run_cli(
        capsys, ["sweep-gamma", "--graph", str(path), "--gamma", "0.1", "--tmax", "1"]
    )
    assert code == 1
    assert "full mode caps at 2000 vertices, got 2001" in err


def test_full_mode_cap_names_the_bytes(capsys):
    layout = ["--n1", "2000", "--n2", "200", "--k1", "1", "--k2", "1"]
    code, _, err = run_cli(
        capsys, ["sweep-gamma", *layout, "--mode", "full", "--gamma", "0.1", "--tmax", "1"]
    )
    assert code == 1
    need = SEARCH_CELL_BYTES * 2200**2
    assert f"its dense 2200x2200 arrays need about {need} bytes (258 MiB)" in err


def test_verify_spin_certifies_a_14_vertex_path(capsys, tmp_path):
    # past the dense reference's 13-spin cap: the block has no such limit
    path = tmp_path / "path14.txt"
    path.write_text("14 13\n" + "".join(f"{i} {i + 1}\n" for i in range(13)))
    code, out, err = run_cli(
        capsys, ["verify-spin", "--graph", str(path), "--jz-ratio", "-1"]
    )
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "classification=signless",
        "max_deviation=0.0",
        "expected=signless",
        "result=PASS",
    ]


def test_verify_spin_certifies_past_the_full_mode_cap(capsys, tmp_path):
    # the certificate holds nothing of size n, so the search cap does not
    # apply to it: a 2001-vertex path certifies as a 14-vertex one does
    path = tmp_path / "path2001.txt"
    path.write_text("2001 2000\n" + "".join(f"{i} {i + 1}\n" for i in range(2000)))
    code, out, err = run_cli(
        capsys, ["verify-spin", "--graph", str(path), "--jz-ratio", "-1"]
    )
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "classification=signless",
        "max_deviation=0.0",
        "expected=signless",
        "result=PASS",
    ]


def test_verify_spin_on_two_to_the_31_vertices_holds_under_a_mebibyte(capsys, tmp_path):
    # three edges under a header of 2^31 vertices: nothing the command holds
    # grows with n (a per-vertex count alone would take 16 GiB)
    path = tmp_path / "huge.txt"
    path.write_text("2147483648 3\n0 1\n1 2\n2147483646 2147483647\n")
    argv = ["verify-spin", "--graph", str(path), "--jz-ratio", "-1", "--gamma", "0.3"]
    run_cli(capsys, argv)  # warm: imports and first-call caches stay out of the peak
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "classification=signless",
        "max_deviation=0.0",
        "expected=signless",
        "result=PASS",
    ]
    assert peak < 2**20


COINCIDING_GRAPHS = {
    "C4": "4 4\n0 1\n1 2\n2 3\n0 3\n",
    "K4": "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n",
    "2K2": "4 2\n0 1\n2 3\n",
    "edgeless": "4 0\n",
}


@pytest.mark.parametrize("name", sorted(COINCIDING_GRAPHS))
def test_verify_spin_passes_when_candidates_coincide(capsys, tmp_path, name):
    # every degree is m/2, so the adjacency, Laplacian and signless walks are
    # one matrix: each expected class passes
    path = tmp_path / "g.txt"
    path.write_text(COINCIDING_GRAPHS[name])
    argv = ["verify-spin", "--graph", str(path), "--gamma", "0.3", "--jz-ratio"]
    for ratio, kind in (("0", "adjacency"), ("1", "laplacian"), ("-1", "signless")):
        code, out, _ = run_cli(capsys, [*argv, ratio])
        assert code == 0
        assert out.splitlines() == [
            f"classification={kind}",
            "max_deviation=0.0",
            f"expected={kind}",
            "result=PASS",
        ]
    code, out, _ = run_cli(capsys, [*argv, "0.5"])
    assert code == 2
    assert "expected=none" in out
    assert "result=FAIL" in out


def test_verify_spin_exit_codes(capsys):
    code, out, _ = run_cli(capsys, ["verify-spin", "--jz-ratio", "-1", "--gamma", "0.3"])
    assert code == 0
    assert "classification=signless" in out
    assert "result=PASS" in out

    code, out, _ = run_cli(capsys, ["verify-spin", "--jz-ratio", "1"])
    assert code == 0
    assert "classification=laplacian" in out

    code, out, _ = run_cli(capsys, ["verify-spin", "--jz-ratio", "0"])
    assert code == 0
    assert "classification=adjacency" in out

    # -0.0 == 0.0, so the ratio -0.0 expects the adjacency walk too
    code, out, _ = run_cli(capsys, ["verify-spin", "--jz-ratio", "-0.0", "--gamma", "0.3"])
    assert code == 0
    lines = out.splitlines()
    assert "classification=adjacency" in lines
    assert "expected=adjacency" in lines
    assert "result=PASS" in lines

    code, out, _ = run_cli(capsys, ["verify-spin", "--jz-ratio", "0.37"])
    assert code == 2
    assert "classification=other" in out
    assert "result=FAIL" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--jz-ratio", "1", "--gamma", "inf"], "--gamma must be finite, got inf"),
        (["--jz-ratio", "-1", "--gamma", "-inf"], "--gamma must be finite, got -inf"),
        (["--jz-ratio", "nan"], "--jz-ratio must be finite, got nan"),
        # the ratio and the rate are finite, but jz = ratio * gamma is not
        (["--jz-ratio", "1e308", "--gamma", "10"],
         "--jz-ratio times --gamma must be finite, got inf"),
        # a zero rate leaves no hopping, and every candidate walk would match
        (["--jz-ratio", "1", "--gamma", "0"], "--gamma must be nonzero, got 0.0"),
        (["--jz-ratio", "0.37", "--gamma", "0"], "--gamma must be nonzero, got 0.0"),
        (["--jz-ratio", "-1", "--gamma", "-0.0"], "--gamma must be nonzero, got -0.0"),
    ],
    ids=["gamma-inf", "gamma-minus-inf", "ratio-nan", "product-overflows", "gamma-zero",
         "gamma-zero-other-ratio", "gamma-minus-zero"],
)
def test_verify_spin_names_the_flag_whose_coupling_is_not_finite(capsys, argv, message):
    code, out, err = run_cli(capsys, ["verify-spin", *argv])
    assert (code, out, err) == (1, "", f"usage error: {message}\n")


def test_verify_spin_has_no_out_flag(capsys, tmp_path):
    # it prints key=value lines to stdout, not a CSV
    out = tmp_path / "x.txt"
    argv = ["verify-spin", "--jz-ratio", "-1", "--gamma", "0.3", "--out", str(out)]
    code, stdout, err = run_cli(capsys, argv)
    assert (code, stdout) == (1, "")
    assert err.startswith("usage error: ") and "--out" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# simulate


def test_simulate_header_and_gamma_zero_flat(capsys):
    code, out, _ = run_cli(
        capsys,
        ["simulate", *FIG_FLAGS, "--gamma", "0", "--tmax", "10", "--samples", "50"],
    )
    assert code == 0
    header, data = parse_floats(out)
    assert header == ["t", "p_success", "p_a", "p_b", "p_c", "p_d"]
    assert np.max(np.abs(data[:, 1] - 8.0 / 768.0)) <= 1e-10


def test_simulate_uniform_peak_near_prediction(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "simulate", *FIG_FLAGS,
            "--walk", "signless", "--init", "s",
            "--gamma", "0.002", "--tmax", "80",
        ],
    )
    assert code == 0
    _, data = parse_floats(out)
    t_peak, p_peak = first_peak(data[:, 0], data[:, 1])
    assert abs(t_peak - 35.54) <= 1.5
    assert abs(p_peak - 0.889) <= 0.02


def test_simulate_signless_eigenvector_approaches_one(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "simulate", *FIG_FLAGS,
            "--walk", "signless", "--init", "sq",
            "--gamma", "0.004", "--tmax", "40",
        ],
    )
    assert code == 0
    _, data = parse_floats(out)
    t_peak, p_peak = first_peak(data[:, 0], data[:, 1])
    assert p_peak >= 0.95
    assert abs(t_peak - 13.77) <= 1.0


def test_simulate_full_mode_matches_reduced(capsys):
    argv = [
        "simulate",
        "--n1", "9", "--n2", "5", "--k1", "4", "--k2", "2",
        "--walk", "adjacency", "--gamma", "0.1", "--tmax", "10", "--samples", "40",
    ]
    code, out_reduced, _ = run_cli(capsys, argv + ["--mode", "reduced"])
    assert code == 0
    code, out_full, _ = run_cli(capsys, argv + ["--mode", "full"])
    assert code == 0
    _, reduced = parse_floats(out_reduced)
    _, full = parse_floats(out_full)
    assert np.max(np.abs(reduced - full)) <= 1e-9


def test_full_simulate_memory_does_not_grow_with_samples_times_n(capsys, tmp_path):
    # 20,000 samples on n = 768: one complex samples x n array alone is
    # 245 MB, so the class curves must come from the search quotient
    argv = ["simulate", *FIG_FLAGS, "--gamma", repr(1 / 512), "--tmax", "80",
            "--samples", "20000"]
    tracemalloc.start()
    try:
        code = main([*argv, "--mode", "full", "--out", str(tmp_path / "full.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 64 * 2**20
    assert main([*argv, "--out", str(tmp_path / "reduced.csv")]) == 0
    _, full = parse_floats((tmp_path / "full.csv").read_text())
    _, reduced = parse_floats((tmp_path / "reduced.csv").read_text())
    assert full.shape == (20000, 6)
    assert np.max(np.abs(full - reduced)) <= 1e-9


def test_full_simulate_peak_memory_is_about_three_edge_arrays(capsys):
    # the graph's edge array, the copy its build fills, and the refinement's
    # few arrays over the m edges; no array over the 2m arcs
    argv = ["simulate", *FIG_FLAGS, "--gamma", repr(1 / 512), "--mode", "full"]
    assert main(argv) == 0
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    edge_bytes = 512 * 256 * 2 * 8
    assert peak <= 3 * edge_bytes


def test_many_gamma_sweep_without_symmetry_holds_what_one_gamma_holds(capsys, tmp_path):
    # a path marked at one end refines to its 300 single vertices: its
    # Hamiltonians are diagonalised one rate at a time, not as a stack
    path = tmp_path / "path.txt"
    path.write_text("300 299\n" + "".join(f"{i} {i + 1}\n" for i in range(299)))
    argv = ["sweep-gamma", "--graph", str(path), "--marked", "0", "--tmax", "20",
            "--samples", "200"]
    assert main([*argv, "--gamma", "0.5"]) == 0  # first-call allocations are not the sweep's
    peaks = []
    for grid in (["--gamma", "0.5"], ["--gamma-min", "0.01", "--gamma-max", "1",
                                      "--gamma-count", "50"]):
        tracemalloc.start()
        try:
            code = main([*argv, *grid])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
        capsys.readouterr()
    one, many = peaks
    assert many <= 1.05 * one + 2**16, peaks


def test_sweep_phase_table_holds_at_most_20_bytes_per_sample_and_level(capsys, tmp_path):
    # a seeded G(400, 0.05) marked at vertex 0 has no symmetry: c = n levels,
    # and the samples x c phase table holds 16 bytes per entry
    n = 400
    rng = np.random.default_rng(17)
    left, right = np.triu_indices(n, 1)
    keep = rng.random(left.size) < 0.05
    edges = np.column_stack([left[keep], right[keep]])
    path = tmp_path / "gnp.txt"
    path.write_text(f"{n} {len(edges)}\n" + "".join(f"{i} {j}\n" for i, j in edges.tolist()))
    quotient = search_quotient(read_edge_list(str(path)), WalkKind.SIGNLESS_LAPLACIAN, {0},
                               uniform_state(n), [[0]])
    levels = len(quotient.walk)
    assert levels == n
    argv = ["sweep-gamma", "--graph", str(path), "--marked", "0", "--walk", "signless",
            "--gamma", "0.05", "--tmax", "80"]
    assert main([*argv, "--samples", "200"]) == 0  # first-call allocations are not the sweep's
    peaks = []
    for samples in (2000, 10_000):
        tracemalloc.start()
        try:
            code = main([*argv, "--samples", str(samples)])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
        capsys.readouterr()
    assert peaks[1] - peaks[0] <= 20 * 8000 * levels, peaks


def test_reduced_mode_stays_constant_in_n(capsys, monkeypatch):
    # (10^9, 1000, 3, 5): a per-vertex array would hold 8 GB, so reduced
    # mode must neither build the graph nor refine a partition of it
    def refuse(original):
        def refused(*args, **kwargs):
            raise AssertionError(f"{original.__name__} called in reduced mode")

        return refused

    for name in ("complete_bipartite", "equitable_partition"):
        _patch_everywhere(monkeypatch, "graph", name, refuse)
    layout = ["--n1", "1000000000", "--n2", "1000", "--k1", "3", "--k2", "5"]
    for argv, rows in (
        (["simulate", "--gamma", "1e-9", "--tmax", "100"], 2000),
        (["sweep-gamma", "--gamma-min", "5e-10", "--gamma-max", "2e-9", "--gamma-count", "20"],
         20),
        (["overlaps", "--gamma-min", "5e-10", "--gamma-max", "2e-9", "--gamma-count", "4"], 16),
    ):
        tracemalloc.start()
        try:
            code = main([argv[0], *layout, *argv[1:]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert (code, err) == (0, ""), argv
        assert len(out.splitlines()) == 1 + rows
        assert peak < 4 * 2**20, (argv[0], peak)


@pytest.mark.parametrize(
    "exc, message",
    [
        (MemoryError("Unable to allocate 4.00 GiB for an array"),
         "error: out of memory: Unable to allocate 4.00 GiB for an array\n"),
        (MemoryError(), "error: out of memory\n"),
    ],
)
def test_memory_error_exits_1_with_a_message(capsys, monkeypatch, exc, message):
    def exhausted(cfg):
        raise exc

    monkeypatch.setattr(cli, "cmd_runtimes", exhausted)
    code, out, err = run_cli(capsys, ["runtimes", *FIG_FLAGS])
    assert (code, out, err) == (1, "", message)


def test_simulate_edge_list_instance(capsys, tmp_path):
    path = tmp_path / "path4.txt"
    path.write_text("4 3\n0 1\n1 2\n2 3\n")
    code, out, _ = run_cli(
        capsys,
        [
            "simulate", "--graph", str(path), "--marked", "0,2",
            "--walk", "laplacian", "--gamma", "0.5", "--tmax", "5", "--samples", "20",
        ],
    )
    assert code == 0
    header, data = parse_floats(out)
    assert header == ["t", "p_success"]
    assert data[0, 1] == pytest.approx(0.5)  # uniform start, two of four marked


def test_simulate_edge_list_needs_tmax_and_uniform_start(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("3 2\n0 1\n1 2\n")
    code, _, err = run_cli(capsys, ["simulate", "--graph", str(path), "--gamma", "0.1"])
    assert code == 1
    assert "--tmax" in err
    code, _, err = run_cli(
        capsys,
        ["simulate", "--graph", str(path), "--gamma", "0.1", "--tmax", "2",
         "--init", "sq"],
    )
    assert code == 1
    assert "--init s" in err


def test_simulate_reduced_mode_requires_layout(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("3 2\n0 1\n1 2\n")
    code, _, err = run_cli(
        capsys,
        ["simulate", "--graph", str(path), "--gamma", "0.1", "--tmax", "2",
         "--mode", "reduced"],
    )
    assert code == 1
    assert "full mode" in err


# ---------------------------------------------------------------------------
# sweep-gamma


def test_sweep_gamma_two_critical_maxima(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "sweep-gamma", *FIG_FLAGS, "--walk", "signless", "--init", "s",
            "--gamma-min", "0.001", "--gamma-max", "0.0055", "--gamma-count", "60",
        ],
    )
    assert code == 0
    header, data = parse_floats(out)
    assert header == ["gamma", "t_peak", "p_peak"]
    gammas, peaks = data[:, 0], data[:, 2]
    assert np.array_equal(gammas, np.sort(gammas))
    crests = [
        (gammas[i], peaks[i])
        for i in range(1, len(peaks) - 1)
        if peaks[i] >= peaks[i - 1] and peaks[i] > peaks[i + 1] and peaks[i] > 0.5
    ]
    assert len(crests) == 2
    assert 0.0017 <= crests[0][0] <= 0.0023
    assert 0.0035 <= crests[1][0] <= 0.0043
    assert crests[0][1] > 0.8 and crests[1][1] > 0.8


def test_sweep_gamma_signless_eigenvector_reaches_one(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "sweep-gamma", *FIG_FLAGS, "--walk", "signless", "--init", "sq",
            "--gamma-min", "0.0018", "--gamma-max", "0.0042", "--gamma-count", "25",
        ],
    )
    assert code == 0
    _, data = parse_floats(out)
    assert np.max(data[:, 2]) >= 0.95


SWEEP_LAYOUT = (48, 24, 3, 5)
SWEEP_GRID = ["--tmax", "60", "--gamma-min", "0.01", "--gamma-max", "0.06",
              "--gamma-count", "5"]


def _layout_flags(layout):
    n1, n2, k1, k2 = layout
    return ["--n1", str(n1), "--n2", str(n2), "--k1", str(k1), "--k2", str(k2)]


def _permuted_edge_list(tmp_path, layout, seed):
    """K_{n1,n2} with relabelled vertices; returns the file and --marked list."""
    n1, n2, k1, k2 = layout
    perm = np.random.default_rng(seed).permutation(n1 + n2)
    path = tmp_path / "k_bipartite.txt"
    lines = [f"{n1 + n2} {n1 * n2}"]
    lines += [f"{perm[i]} {perm[n1 + j]}" for i in range(n1) for j in range(n2)]
    path.write_text("\n".join(lines) + "\n")
    marked = sorted([int(perm[i]) for i in range(k1)]
                    + [int(perm[n1 + j]) for j in range(k2)])
    return path, ",".join(map(str, marked))


def _sweep(capsys, argv):
    code, out, err = run_cli(capsys, ["sweep-gamma", *argv])
    assert code == 0, err
    return parse_floats(out)[1]


@pytest.mark.parametrize("walk", ["signless", "laplacian", "adjacency"])
def test_full_and_edge_list_sweeps_match_reduced(capsys, tmp_path, walk):
    layout = _layout_flags(SWEEP_LAYOUT)
    common = ["--walk", walk, *SWEEP_GRID]
    for init in ("s", "sq", "sa"):
        argv = [*layout, *common, "--init", init]
        reduced = _sweep(capsys, [*argv, "--mode", "reduced"])
        full = _sweep(capsys, [*argv, "--mode", "full"])
        assert reduced.shape == full.shape == (5, 3)
        assert np.max(np.abs(full - reduced)) <= 1e-9
        if init == "s":
            uniform = reduced
    path, marked = _permuted_edge_list(tmp_path, SWEEP_LAYOUT, seed=4)
    edge = _sweep(capsys, ["--graph", str(path), "--marked", marked, *common])
    assert edge.shape == (5, 3)
    assert np.max(np.abs(edge - uniform)) <= 1e-9


def _patch_everywhere(monkeypatch, module, name, make_replacement):
    """Replace ``qwsearch.<module>.<name>`` through every alias of it.

    ``make_replacement`` receives the original function.
    """
    original = getattr(importlib.import_module(f"qwsearch.{module}"), name)
    replacement = make_replacement(original)
    for mod_name, mod in list(sys.modules.items()):
        in_package = mod_name.split(".")[0] == "qwsearch"
        if in_package and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, replacement)


def _count_calls(monkeypatch, module, name):
    """Count calls of ``qwsearch.<module>.<name>`` through every alias of it."""
    calls = []

    def make_counted(original):
        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        return counted

    _patch_everywhere(monkeypatch, module, name, make_counted)
    return calls


def test_full_runs_build_graph_and_walk_matrix_once_per_command(
    capsys, monkeypatch, tmp_path
):
    builds = _count_calls(monkeypatch, "graph", "complete_bipartite")
    reads = _count_calls(monkeypatch, "graph", "read_edge_list")
    walks = _count_calls(monkeypatch, "evolve", "walk_matrix")
    layout = _layout_flags(SWEEP_LAYOUT)
    gammas = SWEEP_GRID[2:]

    rows = _sweep(capsys, [*layout, *SWEEP_GRID, "--mode", "full"])
    assert len(rows) == 5
    assert (len(builds), len(reads), len(walks)) == (1, 0, 1)

    code, _, _ = run_cli(
        capsys, ["overlaps", *layout, *gammas, "--mode", "full"]
    )
    assert code == 0
    assert (len(builds), len(reads), len(walks)) == (2, 0, 2)

    path, marked = _permuted_edge_list(tmp_path, SWEEP_LAYOUT, seed=4)
    rows = _sweep(capsys, ["--graph", str(path), "--marked", marked, *SWEEP_GRID])
    assert len(rows) == 5
    assert (len(builds), len(reads), len(walks)) == (2, 1, 3)


def test_full_sweeps_and_overlaps_diagonalise_only_the_quotient(
    capsys, monkeypatch, tmp_path
):
    solves = _count_calls(monkeypatch, "evolve", "eig_hermitian")
    layout = _layout_flags(SWEEP_LAYOUT)
    rows = _sweep(capsys, [*layout, *SWEEP_GRID, "--mode", "full"])
    assert len(rows) == 5
    path, marked = _permuted_edge_list(tmp_path, SWEEP_LAYOUT, seed=4)
    rows = _sweep(capsys, ["--graph", str(path), "--marked", marked, *SWEEP_GRID])
    assert len(rows) == 5
    argv = ["simulate", *layout, "--mode", "full", "--gamma", "0.02", "--tmax", "5"]
    assert run_cli(capsys, argv)[0] == 0

    def solved(calls):
        # each call diagonalises one 4x4 or a stack of them: (count, 4, 4)
        assert {args[0].shape[-2:] for args in calls} == {(4, 4)}
        return sum(int(np.prod(args[0].shape[:-2])) for args in calls)

    assert solved(solves) == 11
    sweeps_and_simulate = len(solves)

    # full overlaps forms no dense walk matrix either: the package has no
    # builder of one, and each walk matrix is the quotient's
    for module in ("graph", "evolve", "bipartite", "spin_network", "cli"):
        for name in ("adjacency_matrix", "degree_matrix", "laplacian", "signless_laplacian",
                     "search_hamiltonian"):
            assert not hasattr(importlib.import_module(f"qwsearch.{module}"), name)
    walks = _count_calls(monkeypatch, "evolve", "walk_matrix")
    for walk in ("adjacency", "laplacian", "signless"):
        argv = ["overlaps", *layout, *SWEEP_GRID[2:], "--mode", "full", "--walk", walk]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 1 + 4 * 5
    assert solved(solves[sweeps_and_simulate:]) == 15
    assert [args[0].arcs.shape for args in walks] == [(4, 4)] * 3


def test_edge_list_sweep_on_a_cycle_matches_the_dense_eigensolve(capsys, tmp_path):
    path = tmp_path / "cycle.txt"
    path.write_text("30 30\n" + "".join(f"{i} {(i + 1) % 30}\n" for i in range(30)))
    graph = read_edge_list(path)
    times = np.linspace(0.0, 60.0, 400)
    for walk in WalkKind:
        argv = ["simulate", "--graph", str(path), "--walk", walk.value, "--gamma", "0.4",
                "--tmax", "60", "--samples", "400"]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        h = search_hamiltonian(SearchInstance(walk, graph, frozenset({0}), 0.4))
        amps = propagate(eig_hermitian(h), uniform_state(30), times, rows=[0])
        _, data = parse_floats(out)
        assert np.max(np.abs(data[:, 1] - np.abs(amps[:, 0]) ** 2)) <= 1e-12


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep-gamma", "--marked", ",", "--gamma", "0.1"], "error: marked set must be nonempty"),
        (["sweep-gamma", "--marked", "4", "--gamma", "0.1"], "error: marked vertex out of range"),
        (["simulate", "--marked", "-1", "--gamma", "0.1"], "error: marked vertex out of range"),
        (["simulate", "--marked", "1", "--gamma", "-0.1"],
         "error: gamma must be finite and nonnegative"),
        (["sweep-gamma", "--gamma", "-0.1"], "error: gamma must be finite and nonnegative"),
        (["simulate", "--marked", "1", "--gamma", "-1e-3"],
         "error: gamma must be finite and nonnegative"),
    ],
    ids=["empty", "past-the-end", "negative-vertex", "simulate-gamma", "sweep-gamma",
         "simulate-gamma-exponent"],
)
def test_edge_list_marked_and_gamma_refusals(capsys, tmp_path, argv, message):
    path = tmp_path / "p4.txt"
    path.write_text("4 3\n0 1\n1 2\n2 3\n")
    code, out, err = run_cli(capsys, [*argv, "--graph", str(path), "--tmax", "2"])
    assert (code, out, err) == (1, "", message + "\n")


@pytest.mark.parametrize("command", ["simulate", "sweep-gamma"])
def test_full_layout_refuses_negative_gamma(capsys, command):
    layout = ["--n1", "4", "--n2", "3", "--k1", "1", "--k2", "0"]
    argv = [command, *layout, "--mode", "full", "--gamma", "-1", "--tmax", "2"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (1, "", "error: gamma must be finite and nonnegative\n")


def test_spin_certificate_never_builds_the_dense_space(capsys, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("dense 2^n spin Hamiltonian built")

    # the package has no dense 2^n Hamiltonian; the tests' reference makes
    # it from Kronecker products, which are refused here
    assert not hasattr(spin_network, "heisenberg_hamiltonian")
    monkeypatch.setattr(np, "kron", refuse)
    g = spin_network.demo_graph()
    with pytest.raises(AssertionError, match="dense 2\\^n"):
        heisenberg_hamiltonian(g, spin_network.CouplingConstants(0.3, 0.3, -0.3))

    kinds, deviation = spin_network.certify_walk_equivalence(
        g, spin_network.CouplingConstants(0.3, 0.3, -0.3)
    )
    assert (kinds, deviation) == ((WalkKind.SIGNLESS_LAPLACIAN,), 0.0)

    path = tmp_path / "g.txt"
    path.write_text("6 7\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n1 4\n")
    for graph in ([], ["--graph", str(path)]):
        for ratio, code in (("0", 0), ("1", 0), ("-1", 0), ("0.5", 2)):
            argv = ["verify-spin", *graph, "--jz-ratio", ratio, "--gamma", "0.3"]
            assert run_cli(capsys, argv)[0] == code


def test_sweep_gamma_single_point(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "sweep-gamma", *FIG_FLAGS,
            "--gamma-min", "0.002", "--gamma-max", "0.002", "--gamma-count", "1",
        ],
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 1


@pytest.mark.parametrize("mode", ["reduced", "full"])
@pytest.mark.parametrize("layout, init", [((1, 1, 1, 1), "sq"), ((5, 3, 5, 3), "s")],
                         ids=["1-1-1-1-sq", "5-3-5-3-s"])
def test_sweep_gamma_with_every_vertex_marked_peaks_at_the_start(capsys, mode, layout, init):
    # p(t) = 1 up to rounding: a crest of the rounding noise is no peak
    flags = [f"--{key}={value}" for key, value in zip(("n1", "n2", "k1", "k2"), layout)]
    code, out, err = run_cli(
        capsys,
        ["sweep-gamma", *flags, "--gamma-min", "0.05", "--gamma-max", "0.5",
         "--gamma-count", "5", "--tmax", "10", "--samples", "50", "--init", init,
         "--mode", mode],
    )
    assert (code, err) == (0, "")
    _, rows = parse_floats(out)
    assert rows[:, 1].tolist() == [0.0] * 5
    assert np.max(np.abs(rows[:, 2] - 1.0)) <= 1e-14


def test_sweep_gamma_rejects_bad_range(capsys):
    code, _, err = run_cli(
        capsys,
        ["sweep-gamma", *FIG_FLAGS, "--gamma-min", "0", "--gamma-max", "0.01"],
    )
    assert code == 1
    assert "log-spaced" in err


# ---------------------------------------------------------------------------
# overlaps


def test_overlaps_low_gamma_concentrates_in_second_excited(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "overlaps", *FIG_FLAGS, "--walk", "signless", "--probe", "s",
            "--gamma-min", "0.001", "--gamma-max", "0.001", "--gamma-count", "1",
        ],
    )
    assert code == 0
    header, data = parse_floats(out)
    assert header == ["gamma", "n", "S_n", "L_n", "R_n"]
    s = {int(row[1]): row[2] for row in data}
    assert s[2] > 0.8
    assert s[3] > 0.05
    assert s[2] > s[3] > max(s[0], s[1])
    assert sum(s.values()) <= 1.0 + 1e-10


def test_overlaps_signless_probe_avoids_top_eigenvector(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "overlaps", *FIG_FLAGS, "--walk", "signless", "--probe", "sq",
            "--gamma-min", "0.001", "--gamma-max", "0.0055", "--gamma-count", "40",
        ],
    )
    assert code == 0
    _, data = parse_floats(out)
    top = data[data[:, 1] == 3]
    assert np.max(top[:, 2]) < 0.01


def test_overlaps_full_mode_matches_reduced_on_singleton_classes(capsys):
    # with at most one vertex per class the full space IS the class space,
    # so both modes must report identical eigenpair overlaps; an empty class
    # adds no level in either mode
    grid = ["--probe", "s", "--gamma-min", "0.05", "--gamma-max", "0.3", "--gamma-count", "5"]
    for layout in ((2, 2, 1, 1), (1, 2, 1, 1), (2, 1, 1, 1), (1, 1, 1, 1), (1, 1, 0, 1)):
        flags = [f"--{key}={value}" for key, value in zip(("n1", "n2", "k1", "k2"), layout)]
        for walk in ("signless", "laplacian", "adjacency"):
            argv = ["overlaps", *flags, "--walk", walk, *grid]
            code, out_reduced, _ = run_cli(capsys, argv + ["--mode", "reduced"])
            assert code == 0
            code, out_full, _ = run_cli(capsys, argv + ["--mode", "full"])
            assert code == 0
            _, reduced = parse_floats(out_reduced)
            _, full = parse_floats(out_full)
            assert reduced.shape == full.shape == (5 * min(4, sum(layout[:2])), 5)
            assert np.max(np.abs(reduced - full)) <= 1e-9
    # no left-marked vertex, so no reduced level has mass on the left class
    for walk in ("signless", "laplacian", "adjacency"):
        code, out, _ = run_cli(capsys, ["overlaps", "--n1", "10", "--n2", "7", "--k1", "0",
                                        "--k2", "3", "--walk", walk, *grid])
        assert code == 0
        _, reduced = parse_floats(out)
        assert reduced.shape == (15, 5)
        assert np.all(reduced[:, 3] == 0.0)


def _main_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    return parse_floats(out.getvalue())[1]


@settings(max_examples=100, deadline=None)
@given(bipartite_specs(max_side=12), st.sampled_from(["signless", "laplacian", "adjacency"]),
       st.sampled_from(["s", "sq", "ml", "mr"]), st.floats(0.0, 3.0, exclude_min=True))
def test_overlaps_full_mode_matches_reduced_row_by_row(spec, walk, probe, gamma):
    # both modes report the levels of the search's quotient. Levels closer
    # than 1e-3 of the Hamiltonian's scale (at gamma -> 0 the pairs a, b and
    # c, d close up) have no well-conditioned eigenvectors, so such a run of
    # rows is compared by its sums, which do not depend on the basis eigh
    # picks; every other row is compared on its own
    assume(probe not in ("ml", "mr") or class_sizes(spec)[probe == "mr"])
    layout = [f"--{key}={getattr(spec, key)}" for key in ("n1", "n2", "k1", "k2")]
    argv = ["overlaps", *layout, "--walk", walk, "--probe", probe, "--gamma", repr(gamma)]
    reduced = _main_output([*argv, "--mode", "reduced"])
    full = _main_output([*argv, "--mode", "full"])
    assert reduced.shape == full.shape == (sum(size > 0 for size in class_sizes(spec)), 5)
    quotient = class_quotient(spec, WalkKind(walk), np.zeros(4))
    scale = max(1.0, float(np.max(np.abs(quotient.hamiltonian(gamma)))))
    levels = np.linalg.eigvalsh(quotient.hamiltonian(gamma))
    runs = np.split(np.arange(levels.size), np.flatnonzero(np.diff(levels) > 1e-3 * scale) + 1)
    for run in runs:
        assert np.max(np.abs(full[run].sum(axis=0) - reduced[run].sum(axis=0))) <= 1e-12


def test_overlaps_full_mode_reports_the_search_levels(capsys):
    # with multi-vertex classes the rows are still the four class levels of
    # the search: the probe lies in their span, so its overlaps sum to one
    code, out, _ = run_cli(
        capsys,
        [
            "overlaps",
            "--n1", "9", "--n2", "5", "--k1", "4", "--k2", "2",
            "--walk", "signless", "--probe", "s", "--mode", "full",
            "--gamma-min", "0.05", "--gamma-max", "0.3", "--gamma-count", "5",
        ],
    )
    assert code == 0
    _, data = parse_floats(out)
    for gamma in np.unique(data[:, 0]):
        block = data[data[:, 0] == gamma]
        assert block.shape[0] == 4
        assert np.sum(block[:, 2]) == pytest.approx(1.0, abs=1e-12)


def test_overlaps_requires_layout(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("2 1\n0 1\n")
    code, _, err = run_cli(
        capsys,
        ["overlaps", "--graph", str(path), "--gamma-min", "0.1", "--gamma-max", "0.2"],
    )
    assert code == 1


# ---------------------------------------------------------------------------
# runtimes


def test_runtimes_single_row_and_header(capsys):
    code, out, _ = run_cli(
        capsys, ["runtimes", "--n1", "1024", "--n2", "256", "--k1", "8", "--k2", "5"]
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == [
        "sweep_key", "t_La", "t_Lb", "t_A", "t_Qa", "t_Qb", "fastest",
        "near_regular_flag",
    ]
    assert len(rows) == 1
    assert rows[0][0] == "8"
    assert rows[0][6] == "signless_right"
    assert rows[0][7] == "0"


def test_runtimes_sweep_reproduces_transitions(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "runtimes", "--n1", "1024", "--n2", "256", "--k1", "1", "--k2", "5",
            "--sweep", "k1", "--sweep-min", "1", "--sweep-max", "60",
        ],
    )
    assert code == 0
    _, rows = parse_csv(out)
    labels = {int(row[0]): row[6] for row in rows}
    assert labels[11] == "signless_right"
    assert labels[12] == "adjacency"
    assert labels[33] == "adjacency"
    assert labels[34] == "laplacian_left"


def test_runtimes_skips_unmarked_rows_with_warning(capsys):
    code, out, err = run_cli(
        capsys,
        [
            "runtimes", "--n1", "8", "--n2", "4", "--k1", "1", "--k2", "0",
            "--sweep", "k1", "--sweep-min", "0", "--sweep-max", "2",
        ],
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert [row[0] for row in rows] == ["1", "2"]
    assert "skipping sweep_key=0" in err
    # absent runtimes show as empty fields (k2 = 0 leaves t_Lb and t_Qb blank)
    assert rows[0][2] == "" and rows[0][5] == ""


def test_runtimes_near_regular_flag(capsys):
    code, out, _ = run_cli(
        capsys, ["runtimes", "--n1", "100", "--n2", "101", "--k1", "3", "--k2", "5"]
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][7] == "1"


def test_runtimes_rejects_out_of_range_sweep(capsys):
    code, _, err = run_cli(
        capsys,
        [
            "runtimes", "--n1", "8", "--n2", "4", "--k1", "1", "--k2", "1",
            "--sweep", "k1", "--sweep-min", "0", "--sweep-max", "9",
        ],
    )
    assert code == 1


def test_runtimes_sweeps_k2_with_k1_fixed(capsys):
    layout = ["--n1", "10", "--n2", "7", "--k1", "0"]
    argv = ["runtimes", *layout, "--k2", "3", "--sweep", "k2", "--sweep-min", "0",
            "--sweep-max", "3"]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "warning: skipping sweep_key=0: no marked vertices\n")
    header, rows = parse_csv(out)
    assert header[0] == "sweep_key"
    assert [row[0] for row in rows] == ["1", "2", "3"]
    # each row is the one-row table of (10, 7, 0, k2), keyed there by k1 = 0
    for row in rows:
        code, single, _ = run_cli(capsys, ["runtimes", *layout, "--k2", row[0]])
        assert code == 0
        assert parse_csv(single)[1] == [["0", *row[1:]]]


# ---------------------------------------------------------------------------
# config files and reproducibility


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# base layout\n"
        "n1=1024\n"
        "n2=256\n"
        "k1=8\n"
        "k2=5\n"
    )
    code, out_base, _ = run_cli(capsys, ["runtimes", "--config", str(cfg)])
    assert code == 0
    _, rows = parse_csv(out_base)
    assert rows[0][0] == "8" and rows[0][6] == "signless_right"
    code, out_override, _ = run_cli(
        capsys, ["runtimes", "--config", str(cfg), "--k1", "40"]
    )
    assert code == 0
    _, rows = parse_csv(out_override)
    assert rows[0][0] == "40" and rows[0][6] == "laplacian_left"


def test_config_rejects_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n1=4\nbogus=1\n")
    code, _, err = run_cli(capsys, ["runtimes", "--config", str(cfg)])
    assert code == 1
    assert "unknown config key" in err


@pytest.mark.parametrize(
    "argv, defaults",
    [
        (["simulate", "--gamma", "0.002", "--tmax", "40"],
         ["--walk", "signless", "--init", "s", "--samples", "2000"]),
        (["sweep-gamma", "--gamma-min", "0.001", "--gamma-max", "0.0055", "--samples", "50"],
         ["--gamma-count", "200"]),
        (["overlaps", "--gamma", "0.002"], ["--probe", "s"]),
    ],
    ids=["simulate", "sweep-gamma", "overlaps"],
)
def test_flag_defaults(capsys, argv, defaults):
    code, implicit, _ = run_cli(capsys, [*argv, *FIG_FLAGS])
    assert code == 0
    code, explicit, _ = run_cli(capsys, [*argv, *FIG_FLAGS, *defaults])
    assert code == 0
    assert implicit.splitlines() == explicit.splitlines()  # a list diff stays cheap


def _config_text(flags):
    """A config file holding ``flags``, keyed by each flag's destination."""
    pairs = zip(flags[::2], flags[1::2])
    return "".join(f"{flag[2:].replace('-', '_')}={value}\n" for flag, value in pairs)


CONFIG_RUNS = {
    "simulate": [
        *FIG_FLAGS, "--walk", "laplacian", "--init", "sq", "--gamma", "0.002",
        "--tmax", "40", "--samples", "300", "--mode", "reduced",
    ],
    "sweep-gamma": [
        *FIG_FLAGS, "--walk", "adjacency", "--init", "sa", "--gamma-min", "0.001",
        "--gamma-max", "0.0055", "--gamma-count", "15", "--samples", "500",
    ],
    "overlaps": [
        "--n1", "48", "--n2", "24", "--k1", "3", "--k2", "5", "--probe", "mr",
        "--mode", "full", "--gamma-min", "0.01", "--gamma-max", "0.05",
        "--gamma-count", "3",
    ],
    "runtimes": [
        "--n1", "1024", "--n2", "256", "--k1", "1", "--k2", "5", "--sweep", "k1",
        "--sweep-min", "1", "--sweep-max", "40",
    ],
    "verify-spin": ["--jz-ratio", "-1", "--gamma", "0.3"],
}


@pytest.mark.parametrize("command", list(CONFIG_RUNS))
def test_config_file_matches_flags(capsys, tmp_path, command):
    flags = list(CONFIG_RUNS[command])
    if command == "verify-spin":
        graph = tmp_path / "ring.txt"
        graph.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
        flags += ["--graph", str(graph)]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# every flag of the run\n" + _config_text(flags))
    code, from_flags, _ = run_cli(capsys, [command, *flags])
    assert code == 0
    code, from_file, _ = run_cli(capsys, [command, "--config", str(cfg)])
    assert code == 0
    assert from_file.splitlines() == from_flags.splitlines()


def test_flags_override_config_values_of_every_type(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_config_text(CONFIG_RUNS["simulate"]))
    override = ["--init", "s", "--gamma", "0.004", "--samples", "50", "--k2", "7"]
    code, from_file, _ = run_cli(capsys, ["simulate", "--config", str(cfg), *override])
    assert code == 0
    code, from_flags, _ = run_cli(capsys, ["simulate", *CONFIG_RUNS["simulate"], *override])
    assert code == 0
    assert from_file == from_flags
    assert len(from_file.splitlines()) == 51


def test_config_keys_of_other_subcommands_are_accepted_and_ignored(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    layout = ["--n1", "1024", "--n2", "256", "--k1", "8", "--k2", "5"]
    cfg.write_text(
        _config_text(layout)
        + "jz_ratio=1\nprobe=sq\ninit=sq\ngamma=0.002\nsamples=7\nmode=full\n"
    )
    code, from_file, _ = run_cli(capsys, ["runtimes", "--config", str(cfg)])
    assert code == 0
    code, from_flags, _ = run_cli(capsys, ["runtimes", *layout])
    assert code == 0
    assert from_file == from_flags


def test_config_accepts_every_flag_name_and_nothing_else(capsys, tmp_path):
    # verify-spin takes graph, jz_ratio and gamma; the other 18 keys belong
    # to other subcommands and are ignored
    keys = {
        "n1": "8", "n2": "4", "k1": "1", "k2": "1", "marked": "0", "walk": "laplacian",
        "init": "sq", "probe": "ml", "gamma_min": "0.1", "gamma_max": "0.2",
        "gamma_count": "3", "tmax": "5", "samples": "10", "mode": "full",
        "sweep": "k1", "sweep_min": "0", "sweep_max": "2", "out": str(tmp_path / "x"),
        "jz_ratio": "-1", "gamma": "0.3",
    }
    graph = tmp_path / "path.txt"
    graph.write_text("4 3\n0 1\n1 2\n2 3\n")
    keys["graph"] = str(graph)
    assert len(keys) == 21
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{key}={value}\n" for key, value in keys.items()))
    code, out, _ = run_cli(capsys, ["verify-spin", "--config", str(cfg)])
    assert code == 0
    assert "result=PASS" in out
    for extra in ("config", "handler", "command", "gamma-min"):
        cfg.write_text(f"{extra}=1\n")
        code, _, err = run_cli(capsys, ["verify-spin", "--config", str(cfg)])
        assert code == 1
        assert f"unknown config key {extra!r}" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("n1=512\nthis line has no equals sign\n", "malformed config line"),
        ("n1=abc\n", "argument --n1: invalid int value: 'abc'"),
        ("n1=512\ntmax=fast\n", "argument --tmax: invalid float value: 'fast'"),
        ("n1=512\nwalk=bogus\n", "argument --walk: invalid choice: 'bogus'"),
        ("n1=512\ninit=zz\n", "argument --init: invalid choice: 'zz'"),
        ("n1=512\nmode=half\n", "argument --mode: invalid choice: 'half'"),
    ],
    ids=["malformed", "bad-int", "bad-float", "bad-walk", "bad-init", "bad-mode"],
)
def test_config_refusals_exit_1(capsys, tmp_path, text, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    rest = ["--n2", "256", "--k1", "3", "--k2", "5", "--gamma", "0.002"]
    code, out, err = run_cli(capsys, ["simulate", "--config", str(cfg), *rest])
    assert (code, out) == (1, "")
    assert message in err


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("simulate", "--walk", "bogus"),
        ("simulate", "--init", "zz"),
        ("overlaps", "--probe", "xx"),
        ("sweep-gamma", "--mode", "half"),
        ("runtimes", "--sweep", "k3"),
    ],
    ids=["walk", "init", "probe", "mode", "sweep"],
)
def test_a_bad_config_value_is_refused_as_its_flag_is(capsys, tmp_path, command, flag, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_config_text([*LAYOUT_48, flag, value]))
    code, out, from_flag = run_cli(capsys, [command, *LAYOUT_48, flag, value])
    assert (code, out) == (1, "")
    assert from_flag.startswith(f"usage error: argument {flag}: invalid choice: '{value}'")
    code, out, from_file = run_cli(capsys, [command, "--config", str(cfg)])
    assert (code, out, from_file) == (1, "", from_flag)


def test_a_config_file_does_not_leak_into_the_next_call(capsys, tmp_path):
    # main keeps one parser for the process; the first call's config-file
    # defaults must be gone by the second call
    assert cli._shared_parser() is cli._shared_parser()
    # marked=1 is legal on an edge list and refused with a layout, so a
    # leak would make the layout run below exit 1
    graph = tmp_path / "path4.txt"
    graph.write_text("4 3\n0 1\n1 2\n2 3\n")
    edges = tmp_path / "edges.cfg"
    edges.write_text(f"graph={graph}\nmarked=1\ngamma=0.5\ntmax=2\nsamples=20\n")
    code, _, _ = run_cli(capsys, ["simulate", "--config", str(edges)])
    assert code == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_config_text(CONFIG_RUNS["simulate"]))
    code, _, _ = run_cli(capsys, ["simulate", "--config", str(cfg)])
    assert code == 0
    argv = ["simulate", *FIG_FLAGS, "--gamma", "0.003", "--tmax", "30", "--samples", "40"]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    fresh = subprocess.run(
        [sys.executable, "-m", "qwsearch", *argv], capture_output=True, text=True, env=env
    )
    assert (fresh.returncode, fresh.stderr) == (0, "")
    assert out == fresh.stdout


LAYOUT_48 = ["--n1", "48", "--n2", "24", "--k1", "3", "--k2", "5"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--gamma", "0.02", "--tmax", "nan"], "--tmax must be finite, got nan"),
        (["simulate", "--gamma", "0.02", "--tmax", "inf"], "--tmax must be finite, got inf"),
        (["simulate", "--gamma", "0.02", "--tmax", "inf", "--mode", "full"],
         "--tmax must be finite, got inf"),
        (["sweep-gamma", "--gamma-min", "0.01", "--gamma-max", "0.02", "--tmax", "nan"],
         "--tmax must be finite, got nan"),
        (["sweep-gamma", "--gamma-min", "0.01", "--gamma-max", "0.02", "--tmax", "inf"],
         "--tmax must be finite, got inf"),
        (["sweep-gamma", "--gamma-min", "0.01", "--gamma-max", "inf"],
         "gamma bounds must be finite, got 0.01 and inf"),
        (["sweep-gamma", "--gamma-min", "nan", "--gamma-max", "0.02"],
         "gamma bounds must be finite, got nan and 0.02"),
        (["overlaps", "--gamma-min", "0.01", "--gamma-max", "inf"],
         "gamma bounds must be finite, got 0.01 and inf"),
        # negative values in exponent or word form are values, not flags
        (["sweep-gamma", "--gamma-min", "-inf", "--gamma-max", "0.02"],
         "gamma bounds must be finite, got -inf and 0.02"),
        (["sweep-gamma", "--gamma-min", "-1e-3", "--gamma-max", "0.02"],
         "need 0 < gamma-min <= gamma-max for a log-spaced sweep"),
    ],
    ids=["simulate-nan", "simulate-inf", "simulate-full-inf", "sweep-nan", "sweep-inf",
         "gamma-max-inf", "gamma-min-nan", "overlaps-inf", "gamma-min-minus-inf",
         "gamma-min-exponent"],
)
def test_non_finite_time_and_gamma_bounds_are_usage_errors(capsys, argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no NumPy RuntimeWarning on the way out
        code, out, err = run_cli(capsys, [*argv, *LAYOUT_48])
    assert (code, out, err) == (1, "", f"usage error: {message}\n")


@pytest.mark.parametrize("command", ["simulate", "sweep-gamma", "overlaps"])
def test_a_rate_whose_hamiltonian_overflows_is_refused(capsys, command):
    # -gamma W passes the float range at gamma = 1e306 on (512, 256, 3, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no NumPy RuntimeWarning on the way out
        code, out, err = run_cli(capsys, [command, *FIG_FLAGS, "--gamma", "1e306"])
    assert (code, out, err) == (1, "", "error: matrix has a non-finite entry (inf)\n")


@pytest.mark.parametrize("sides", [(10**400, 256), (10**200, 3 * 10**200)],
                         ids=["400-digit-n1", "1e200-by-3e200"])
@pytest.mark.parametrize("command", ["runtimes", "simulate", "sweep-gamma", "overlaps"])
def test_a_layout_past_the_float_range_is_refused(capsys, command, sides):
    # n1 n2 past the largest float: refused before any side is read as a float
    argv = [command, "--n1", str(sides[0]), "--n2", str(sides[1]), "--k1", "3", "--k2", "5"]
    if command != "runtimes":
        argv += ["--gamma", "0.01"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (1, "")
    assert err == "error: partite sets too large: n1 * n2 passes the largest float\n"


HALF_PI = 0.5 * np.pi


@pytest.mark.parametrize(
    "layout, runtimes, fastest",
    [
        # n1^2 and (n1 - n2)^2 / 4 pass the float range; n1 n2 = 1e300 does not
        ((10**160, 10**140, 1, 1),
         [HALF_PI * 1e80, HALF_PI * 1e80, HALF_PI * np.sqrt(2.0) * 1e70, HALF_PI * 1e90,
          HALF_PI * 1e70], "signless_right"),
        # g^2 + n1 n2 = 2e308 and k2 n1 + k1 n2 = 2e308 pass it
        ((10**154,) * 4, [HALF_PI * np.sqrt(2.0)] * 2 + [HALF_PI] + [HALF_PI * np.sqrt(2.0)] * 2,
         "adjacency"),
    ],
    ids=["1e160-by-1e140", "1e154-all-marked"],
)
def test_runtimes_whose_plain_forms_pass_the_float_range_are_finite(capsys, layout, runtimes,
                                                                    fastest):
    argv = ["runtimes", *(f"--{key}={value}" for key, value in zip(("n1", "n2", "k1", "k2"),
                                                                    layout))]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    row = out.splitlines()[1].split(",")
    assert [float(t) for t in row[1:6]] == pytest.approx(runtimes, rel=1e-14)
    assert row[6] == fastest


def test_simulate_without_tmax_runs_to_twice_a_runtime_past_the_float_range(capsys):
    # the default window is twice t_Qa = (pi/2) 1e90, whose plain form overflows
    argv = ["simulate", "--n1", str(10**160), "--n2", str(10**140), "--k1", "1", "--k2", "1",
            "--gamma", "0.1", "--samples", "3"]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert float(out.splitlines()[-1].split(",")[0]) == pytest.approx(np.pi * 1e90, rel=1e-14)


def test_runtimes_on_unequal_sides_that_round_to_one_float(capsys):
    # past 2^53 the sides 2^60 and 2^60 + 2 are one float; their difference is not zero
    argv = ["runtimes", "--n1", str(2**60), "--n2", str(2**60 + 2), "--k1", "1", "--k2", "1"]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[1].endswith(",adjacency,1")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["overlaps", "--n1", "10", "--n2", "7", "--k1", "0", "--k2", "3", "--probe", "ml",
          "--gamma", "0.01"], "probe ml needs k1 >= 1"),
        (["overlaps", "--n1", "4", "--n2", "3", "--k1", "1", "--k2", "0", "--probe", "mr",
          "--gamma", "0.01"], "probe mr needs k2 >= 1"),
        (["sweep-gamma", *LAYOUT_48, "--gamma-max", "0.02"],
         "--gamma-min and --gamma-max go together"),
        (["runtimes", *LAYOUT_48, "--sweep", "k2", "--sweep-min", "1"],
         "--sweep needs --sweep-min and --sweep-max"),
        # the list is read before it is refused for coming with a layout
        (["simulate", *LAYOUT_48, "--marked", "1,x", "--gamma", "0.1"],
         "bad --marked list '1,x'"),
        (["sweep-gamma", *LAYOUT_48, "--tmax", "5"],
         "a gamma range (or a single --gamma) is required"),
        (["simulate", *LAYOUT_48, "--tmax", "5"], "simulate needs a single --gamma"),
        (["simulate", *LAYOUT_48, "--gamma", "0.1", "--tmax", "0"], "--tmax must be positive"),
        (["simulate", *LAYOUT_48, "--gamma", "0.1", "--tmax", "-1"], "--tmax must be positive"),
        (["simulate", *LAYOUT_48, "--gamma", "0.1", "--tmax", "5", "--samples", "1"],
         "--samples must be at least 2"),
        (["sweep-gamma", *LAYOUT_48, "--gamma-min", "0.01", "--gamma-max", "0.02",
          "--gamma-count", "0", "--tmax", "5"], "--gamma-count must be at least 1"),
        (["sweep-gamma", "--gamma", "0.1"], "sweep-gamma needs a bipartite layout or --graph"),
        (["runtimes"], "runtimes needs a bipartite layout"),
        (["verify-spin"], "verify-spin needs --jz-ratio"),
    ],
    ids=["probe-ml", "probe-mr", "gamma-max-alone", "sweep-min-alone", "bad-marked",
         "no-gamma", "simulate-no-gamma", "tmax-zero", "tmax-negative", "one-sample",
         "gamma-count-zero", "sweep-no-instance", "runtimes-no-layout", "verify-spin-no-ratio"],
)
def test_usage_refusals_name_the_fault(capsys, argv, message):
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (1, "", f"usage error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", *LAYOUT_48, "--marked", "7", "--gamma", "0.02", "--tmax", "5"],
         "--marked needs --graph; a layout marks k1 and k2 vertices"),
        (["sweep-gamma", *LAYOUT_48, "--marked", "7", "--gamma-min", "0.01",
          "--gamma-max", "0.02"], "--marked needs --graph; a layout marks k1 and k2 vertices"),
        (["sweep-gamma", *LAYOUT_48, "--gamma", "0.5", "--gamma-min", "0.01",
          "--gamma-max", "0.02"], "give either --gamma or --gamma-min/--gamma-max, not both"),
        (["overlaps", *LAYOUT_48, "--gamma", "0.5", "--gamma-min", "0.01",
          "--gamma-max", "0.02"], "give either --gamma or --gamma-min/--gamma-max, not both"),
        (["runtimes", *LAYOUT_48, "--sweep-min", "1", "--sweep-max", "4"],
         "--sweep-min and --sweep-max need --sweep"),
        (["sweep-gamma", *LAYOUT_48, "--gamma", "0.02", "--gamma-count", "0", "--tmax", "5"],
         "--gamma-count needs --gamma-min and --gamma-max"),
        (["overlaps", *LAYOUT_48, "--gamma", "0.02", "--gamma-count", "3"],
         "--gamma-count needs --gamma-min and --gamma-max"),
        (["sweep-gamma", *LAYOUT_48, "--gamma-count", "7", "--tmax", "5"],
         "--gamma-count needs --gamma-min and --gamma-max"),
        (["overlaps", *LAYOUT_48, "--gamma-count", "7"],
         "--gamma-count needs --gamma-min and --gamma-max"),
    ],
    ids=["simulate-layout-marked", "sweep-layout-marked", "sweep-gamma-and-range",
         "overlaps-gamma-and-range", "runtimes-bounds-without-sweep", "sweep-gamma-and-count",
         "overlaps-gamma-and-count", "sweep-count-alone", "overlaps-count-alone"],
)
def test_a_flag_that_another_flag_excludes_is_refused(capsys, tmp_path, argv, message):
    # each would otherwise be dropped without a word
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (1, "", f"usage error: {message}\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_config_text(argv[1:]))
    assert run_cli(capsys, [argv[0], "--config", str(cfg)]) == (code, out, err)


def test_runtimes_takes_no_walk(capsys, tmp_path):
    # runtimes reads no walk, so the flag is refused rather than dropped;
    # a walk key in a config file is another subcommand's and is ignored
    code, out, err = run_cli(capsys, ["runtimes", *LAYOUT_48, "--walk", "laplacian"])
    assert (code, out, err) == (1, "", "usage error: unrecognized arguments: --walk laplacian\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_config_text([*LAYOUT_48, "--walk", "laplacian"]))
    from_file = run_cli(capsys, ["runtimes", "--config", str(cfg)])
    assert from_file == run_cli(capsys, ["runtimes", *LAYOUT_48])
    assert from_file[0] == 0


# Each flag: a value it accepts, that value as parsed, and the subcommands
# that take it. Written out rather than read from the parser, so that a
# flag given to the wrong subcommand fails here.
FLAG_MATRIX = {
    "--n1": ("3", 3, "simulate sweep-gamma overlaps runtimes"),
    "--n2": ("4", 4, "simulate sweep-gamma overlaps runtimes"),
    "--k1": ("1", 1, "simulate sweep-gamma overlaps runtimes"),
    "--k2": ("2", 2, "simulate sweep-gamma overlaps runtimes"),
    "--graph": ("g.txt", "g.txt", "simulate sweep-gamma overlaps runtimes verify-spin"),
    "--marked": ("0,2", "0,2", "simulate sweep-gamma overlaps runtimes"),
    "--walk": ("laplacian", "laplacian", "simulate sweep-gamma overlaps"),
    "--config": ("c.cfg", "c.cfg", "simulate sweep-gamma overlaps runtimes verify-spin"),
    "--out": ("o.csv", "o.csv", "simulate sweep-gamma overlaps runtimes"),
    "--tmax": ("1.5", 1.5, "simulate sweep-gamma"),
    "--samples": ("7", 7, "simulate sweep-gamma"),
    "--mode": ("full", "full", "simulate sweep-gamma overlaps"),
    "--init": ("sq", "sq", "simulate sweep-gamma"),
    "--probe": ("ml", "ml", "overlaps"),
    "--sweep": ("k2", "k2", "runtimes"),
    "--sweep-min": ("1", 1, "runtimes"),
    "--sweep-max": ("2", 2, "runtimes"),
    "--jz-ratio": ("-1", -1.0, "verify-spin"),
    "--gamma": ("0.5", 0.5, "simulate sweep-gamma overlaps verify-spin"),
    "--gamma-min": ("0.1", 0.1, "sweep-gamma overlaps"),
    "--gamma-max": ("0.2", 0.2, "sweep-gamma overlaps"),
    "--gamma-count": ("3", 3, "sweep-gamma overlaps"),
}


@pytest.mark.parametrize("flag", list(FLAG_MATRIX))
@pytest.mark.parametrize("command", ["simulate", "sweep-gamma", "overlaps", "runtimes",
                                     "verify-spin"])
def test_each_subcommand_takes_its_flags_and_refuses_the_rest(command, flag):
    text, value, takers = FLAG_MATRIX[flag]
    argv = [command, f"{flag}={text}"]
    if command in takers.split():
        args = build_parser().parse_args(argv)
        assert getattr(args, flag[2:].replace("-", "_")) == value
    else:
        with pytest.raises(UsageError) as refusal:
            build_parser().parse_args(argv)
        assert str(refusal.value) == f"unrecognized arguments: {flag}={text}"


def test_top_level_help_is_plain_user_text(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: qwsearch ")
    assert "``" not in out and ":func:" not in out


def test_csv_output_is_byte_identical_across_runs(capsys, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = [
        "sweep-gamma", *FIG_FLAGS, "--walk", "signless", "--init", "s",
        "--gamma-min", "0.001", "--gamma-max", "0.0055", "--gamma-count", "20",
    ]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_single_header_row_everywhere(capsys):
    for argv in (
        ["simulate", *FIG_FLAGS, "--gamma", "0.002", "--tmax", "5", "--samples", "10"],
        ["sweep-gamma", *FIG_FLAGS, "--gamma-min", "0.002", "--gamma-max", "0.004",
         "--gamma-count", "3", "--tmax", "20", "--samples", "200"],
        ["overlaps", *FIG_FLAGS, "--gamma-min", "0.002", "--gamma-max", "0.004",
         "--gamma-count", "3"],
        ["runtimes", *FIG_FLAGS],
    ):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        lines = out.strip().splitlines()
        assert len([ln for ln in lines if any(c.isalpha() for c in ln.split(",")[0])]) == 1
