"""Seeded workloads: the CLI invocations each benchmark run times, and their oracles.

A workload is a list of operations. Each operation is one ``qwsearch``
command line with the number of items it completes (gamma points, runtime
rows or spin certificates), the exit status it must return, and an oracle
that its output must meet. ``build`` makes the list from a seed and writes
the input files it needs; ``check`` applies an oracle after timing.

Why these three workloads (the layer each one stresses is the one a later
optimisation of that layer must move, while the other two must stay put):

- ``reduced_datasets`` regenerates the reduced-model datasets of the paper:
  200-point gamma sweeps, overlap profiles, success curves and the k1
  runtime table. Per-call overhead in ``evolve`` (``first_peak``,
  ``propagate``) and CSV formatting in ``cli`` dominate; ``graph`` and
  ``spin_network`` are idle.
- ``full_crosscheck`` runs the full vertex space of K_{512,256} (n=768)
  three ways: a multi-gamma full sweep, full overlaps (one graph build, no
  propagation) and a sweep over the same graph read from a permuted edge
  list. ``graph`` builds and A/D assembly plus dense ``eigh`` and
  ``propagate`` dominate.
- ``spin_certify`` certifies seeded random connected 9-vertex spin
  networks, three classes that must pass and one ratio that must fail.
  Only ``spin_network``'s dense 2^n Kronecker build matters.
"""

from __future__ import annotations

import random
from pathlib import Path

WORKLOADS = ("reduced_datasets", "full_crosscheck", "spin_certify")

TOL = 1e-9
SPIN_CHECKS = (("0", 0, "adjacency"), ("1", 0, "laplacian"), ("-1", 0, "signless"),
               ("0.5", 2, "other"))

# Sizes per workload; ``tiny`` is only for the harness smoke test.
SIZES = {
    "reduced_datasets": {
        "normal": {"layout": (512, 256, 3, 5), "count": 200, "pairs": 4, "probes": 4,
                   "curves": 10, "spot_curves": 2},
        "tiny": {"layout": (48, 24, 3, 5), "count": 20, "pairs": 2, "probes": 2,
                 "curves": 1, "spot_curves": 1},
    },
    "full_crosscheck": {
        "normal": {"layout": (512, 256, 3, 5), "count": 6},
        "tiny": {"layout": (48, 24, 3, 5), "count": 2},
    },
    "spin_certify": {
        "normal": {"graphs": 2, "n": 9, "m": 14},
        "tiny": {"graphs": 1, "n": 5, "m": 6},
    },
}

SWEEP_PAIRS = (("signless", "s"), ("signless", "sq"), ("laplacian", "s"),
               ("adjacency", "sa"))
PROBES = ("s", "sq", "ml", "mr")
RUNTIME_ARGV = ["runtimes", "--n1", "1024", "--n2", "256", "--k1", "1", "--k2", "5",
                "--sweep", "k1", "--sweep-min", "1", "--sweep-max", "60"]
RUNTIME_TRANSITIONS = [12, 34]
CURVE_TMAX = "80"
FULL_TMAX = "120"


def _layout(layout) -> list[str]:
    n1, n2, k1, k2 = layout
    return ["--n1", str(n1), "--n2", str(n2), "--k1", str(k1), "--k2", str(k2)]


def _op(argv, items, oracle, exit_code=0) -> dict:
    return {"argv": [str(a) for a in argv], "items": items, "exit": exit_code,
            "oracle": oracle}


def build(workload: str, seed: int, workdir: Path, tiny: bool = False) -> dict:
    """Operations of one seeded workload; input files go into ``workdir``.

    Returns ``{"warmup_dim": d, "ops": [...]}``, where ``d`` is the
    dimension of the dense eigensolve that ends set-up.
    """
    size = SIZES[workload]["tiny" if tiny else "normal"]
    rng = random.Random(f"{workload}:{seed}")
    return {
        "reduced_datasets": _reduced_datasets,
        "full_crosscheck": _full_crosscheck,
        "spin_certify": _spin_certify,
    }[workload](size, rng, Path(workdir))


def _reduced_datasets(size, rng, workdir) -> dict:
    n1, n2 = size["layout"][:2]
    layout = _layout(size["layout"])
    count = size["count"]
    lo, hi = 0.512 / n1, 1.408 / n2
    grid = ["--gamma-min", repr(lo * rng.uniform(0.9, 1.1)),
            "--gamma-max", repr(hi * rng.uniform(0.95, 1.05)),
            "--gamma-count", str(count)]
    ops = []
    sweeps = []
    for walk, init in SWEEP_PAIRS[: size["pairs"]]:
        base = ["sweep-gamma", *layout, "--walk", walk, "--init", init]
        sweeps.append(len(ops))
        ops.append(_op([*base, *grid], count, {"kind": "sweep", "rows": count,
                                                "full_base": [*base, "--mode", "full"]}))
    # one seeded gamma of one sweep is recomputed in full mode
    spot = rng.choice(sweeps)
    ops[spot]["oracle"]["spot_row"] = rng.randrange(count)
    for probe in PROBES[: size["probes"]]:
        argv = ["overlaps", *layout, "--walk", "signless", "--probe", probe, *grid]
        ops.append(_op(argv, count, {"kind": "overlaps", "rows": 4 * count,
                                     "complete": True}))
    curves = []
    for init in ("s", "sq"):
        for _ in range(size["curves"]):
            gamma = repr(rng.uniform(lo, hi))
            argv = ["simulate", *layout, "--walk", "signless", "--init", init,
                    "--gamma", gamma, "--tmax", CURVE_TMAX]
            curves.append(len(ops))
            ops.append(_op(argv, 1, {"kind": "simulate"}))
    for index in rng.sample(curves, size["spot_curves"]):
        ops[index]["oracle"]["ref"] = ops[index]["argv"] + ["--mode", "full"]
    ops.append(_op(RUNTIME_ARGV, 60, {"kind": "runtimes", "rows": 60,
                                      "transitions": RUNTIME_TRANSITIONS}))
    return {"warmup_dim": 4, "ops": ops}


def _full_crosscheck(size, rng, workdir) -> dict:
    n1, n2, k1, k2 = size["layout"]
    n = n1 + n2
    count = size["count"]
    # a log grid spanning both critical rates 1/n1 and 1/n2
    grid = ["--gamma-min", repr(rng.uniform(0.512, 0.92) / n1),
            "--gamma-max", repr(rng.uniform(1.07, 1.54) / n2),
            "--gamma-count", str(count)]
    layout = _layout(size["layout"])
    common = ["--walk", "signless", "--tmax", FULL_TMAX, *grid]
    reduced_sweep = ["sweep-gamma", *layout, *common, "--mode", "reduced"]
    probe = rng.choice(PROBES)
    reduced_overlaps = ["overlaps", *layout, "--walk", "signless", "--probe", probe,
                        *grid, "--mode", "reduced"]

    perm = list(range(n))
    rng.shuffle(perm)
    path = workdir / "k_bipartite.edges"
    with open(path, "w") as fh:
        fh.write(f"{n} {n1 * n2}\n")
        for i in range(n1):
            left = perm[i]
            fh.write("".join(f"{left} {perm[n1 + j]}\n" for j in range(n2)))
    marked = [perm[i] for i in range(k1)] + [perm[n1 + j] for j in range(k2)]

    ops = [
        _op(["sweep-gamma", *layout, *common, "--mode", "full"], count,
            {"kind": "sweep", "rows": count, "ref": reduced_sweep}),
        _op(reduced_overlaps[:-1] + ["full"], count,
            {"kind": "overlaps", "rows": 4 * count, "ref": reduced_overlaps}),
        _op(["sweep-gamma", "--graph", str(path),
             "--marked", ",".join(map(str, sorted(marked))), *common], count,
            {"kind": "sweep", "rows": count, "ref": reduced_sweep}),
    ]
    return {"warmup_dim": n, "ops": ops}


def _random_connected_graph(rng, n: int, m: int) -> list[tuple[int, int]]:
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def _spin_certify(size, rng, workdir) -> dict:
    n, m = size["n"], size["m"]
    ops = []
    for index in range(size["graphs"]):
        edges = _random_connected_graph(rng, n, m)
        path = workdir / f"spin_{index}.edges"
        path.write_text(f"{n} {m}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        gamma = repr(rng.uniform(0.2, 1.0))
        for ratio, exit_code, expected in SPIN_CHECKS:
            argv = ["verify-spin", "--graph", str(path), "--jz-ratio", ratio,
                    "--gamma", gamma]
            ops.append(_op(argv, 1, {"kind": "spin", "expect": expected}, exit_code))
    return {"warmup_dim": 2**n, "ops": ops}


# ---------------------------------------------------------------------------
# oracles


def _table(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty output")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _floats(rows) -> list[list[float]]:
    return [[float(x) for x in row] for row in rows]


def _match(got, ref, what: str) -> str | None:
    if len(got) != len(ref):
        return f"{what}: {len(got)} rows against {len(ref)}"
    for index, (a, b) in enumerate(zip(got, ref)):
        worst = max(abs(x - y) for x, y in zip(a, b))
        if len(a) != len(b) or not worst <= TOL:
            return f"{what}: row {index} differs by {worst:g}"
    return None


def _in_unit_interval(rows, columns, what: str) -> str | None:
    for index, row in enumerate(rows):
        if not all(-TOL <= row[c] <= 1.0 + TOL for c in columns):
            return f"{what}: row {index} has a probability outside [0, 1]"
    return None


def check(op: dict, stdout: str, run) -> str | None:
    """Apply ``op``'s oracle to its output; return the miss, or None.

    ``run(argv)`` returns ``(exit_status, stdout)`` of a reference command.
    """
    oracle = op["oracle"]
    kind = oracle["kind"]
    try:
        if kind == "spin":
            return _check_spin(oracle, stdout)
        header, raw = _table(stdout)
        if kind == "runtimes":
            return _check_runtimes(oracle, header, raw)
        rows = _floats(raw)
        if kind == "sweep":
            return _check_sweep(oracle, rows, run)
        if kind == "overlaps":
            return _check_overlaps(oracle, rows, run)
        if kind == "simulate":
            return _check_simulate(oracle, op, rows, run)
    except (ValueError, IndexError) as exc:
        return f"{kind}: unreadable output ({exc})"
    return f"unknown oracle {kind!r}"


def _reference(run, argv) -> list[list[float]]:
    code, text = run(argv)
    if code != 0:
        raise ValueError(f"reference {argv[0]} exited {code}")
    return _floats(_table(text)[1])


def _check_sweep(oracle, rows, run) -> str | None:
    if len(rows) != oracle["rows"]:
        return f"sweep: {len(rows)} rows, expected {oracle['rows']}"
    miss = _in_unit_interval(rows, [2], "sweep")
    if miss is None and "ref" in oracle:
        miss = _match(rows, _reference(run, oracle["ref"]), "sweep vs reduced")
    if miss is None and "spot_row" in oracle:
        row = rows[oracle["spot_row"]]
        full = _reference(run, oracle["full_base"] + ["--gamma", repr(row[0])])
        miss = _match([row], full, "sweep vs full")
    return miss


def _check_overlaps(oracle, rows, run) -> str | None:
    if len(rows) != oracle["rows"]:
        return f"overlaps: {len(rows)} rows, expected {oracle['rows']}"
    miss = _in_unit_interval(rows, [2, 3, 4], "overlaps")
    if miss is None and oracle.get("complete"):
        # the four reduced eigenvectors form a basis, so for each gamma the
        # overlaps with the probe and with each marked class sum to one
        for start in range(0, len(rows), 4):
            for column, name in ((2, "S_n"), (3, "L_n"), (4, "R_n")):
                total = sum(row[column] for row in rows[start : start + 4])
                if not abs(total - 1.0) <= TOL:
                    return f"overlaps: {name} sums to {total!r} at row {start}"
    if miss is None and "ref" in oracle:
        # only the non-degenerate ground state (n=0) lies in the reduced space
        ground = [row for row in rows if row[1] == 0]
        ref = [row for row in _reference(run, oracle["ref"]) if row[1] == 0]
        miss = _match(ground, ref, "overlaps n=0 vs reduced")
    return miss


def _check_simulate(oracle, op, rows, run) -> str | None:
    for index, row in enumerate(rows):
        t, p_success, pa, pb, pc, pd = row
        if not abs(pa + pb + pc + pd - 1.0) <= TOL:
            return f"simulate: class probabilities sum to {pa + pb + pc + pd!r} at row {index}"
        if not abs(p_success - (pa + pb)) <= TOL:
            return f"simulate: p_success != p_a + p_b at row {index}"
    if "ref" in oracle:
        return _match(rows, _reference(run, oracle["ref"]), "simulate vs full")
    return None


def _check_runtimes(oracle, header, raw) -> str | None:
    if len(raw) != oracle["rows"]:
        return f"runtimes: {len(raw)} rows, expected {oracle['rows']}"
    column = header.index("fastest")
    changes = [
        int(raw[i][0]) for i in range(1, len(raw)) if raw[i][column] != raw[i - 1][column]
    ]
    if changes != oracle["transitions"]:
        return f"runtimes: fastest walk changes at k1={changes}"
    return None


def _check_spin(oracle, stdout) -> str | None:
    fields = dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)
    expected_result = "FAIL" if oracle["expect"] == "other" else "PASS"
    if fields.get("result") != expected_result:
        return f"verify-spin: result={fields.get('result')}, expected {expected_result}"
    if fields.get("classification") != oracle["expect"]:
        return f"verify-spin: classification={fields.get('classification')}"
    return None
