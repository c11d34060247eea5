"""Command-line front end emitting CSV datasets for search experiments.

Subcommands: simulate (success-probability curves), sweep-gamma (peak
success versus jumping rate), overlaps (eigenvector overlap profiles),
runtimes (runtime comparison across walks) and verify-spin (spin-network
walk-equivalence check). Parameters come from flags or a flat key=value
config file, keyed by the flag's name with _ for -; flags override the
file. Exit status is 0 on success, 1 for usage or validation errors or when
memory runs out, and 2 when verify-spin finds a mismatch.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from functools import cache
from pathlib import Path

import numpy as np

from .bipartite import (
    InitialStateKind,
    class_quotient,
    initial_state,
    refined_class_quotient,
    runtime_table,
    fastest_regime,
)
from .evolve import (
    SearchQuotient,
    WalkKind,
    first_peak,
    search_quotient,
    uniform_state,
)
from .graph import BipartiteSpec, read_edge_list
from .spin_network import CouplingConstants, certify_walk_equivalence, demo_graph

__all__ = ["main", "entry"]

FULL_MODE_CAP = 2000
# Bytes per vertex pair of the dense n x n arrays a command holds at its
# peak. A search holds the walk matrix, the Hamiltonian and its real
# eigenvectors (8 each), all of them for the c x c quotient of the
# search's equitable partition only: a few hundred bytes on a bipartite
# layout, and bytes per vertex pair only on a graph without symmetry
# (c = n), which sweeps and simulate accept. There a one-gamma edge-list
# sweep of G(2000, 0.05) with the default 2000 samples peaks at 34.5
# bytes per pair under tracemalloc: the walk matrix and eigenvectors (16)
# and, while propagate builds it, the samples x c complex phase table (16
# per entry). A sweep diagonalises its rates in stacks of at most
# evolve.STACK_ENTRIES entries, one rate at a time from c = 256 up, so a
# many-gamma sweep peaks as a one-gamma sweep does (34.5 bytes per pair
# for 4 gammas on the 2000-vertex path marked at one end). Full overlaps
# runs on bipartite layouts only and reports the quotient's levels, so it
# holds no dense n x n array. The refusal still charges 56, an upper
# bound from an older, larger peak, rather than being refitted to 34.5:
# a byte budget of what each search holds is to replace this vertex cap
# (ROADMAP.md, direction 9), and the figure goes with it.
SEARCH_CELL_BYTES = 56
DEFAULT_SAMPLES = 2000
DEFAULT_GAMMA_COUNT = 200

_PROBES = ("s", "sq", "ml", "mr")
# The walk W_r = A - r D of each ratio r; -0.0 finds the adjacency walk,
# as it hashes and compares as 0.0.
_WALK_OF_RATIO = {kind.ratio: kind for kind in WalkKind}


class UsageError(Exception):
    """Bad flags or config values; maps to exit status 1."""


# ---------------------------------------------------------------------------
# config-file handling


def load_config(path: str | Path, keys: set[str]) -> dict[str, str]:
    """Parse a flat ``key=value`` config file of ``keys``; ``#`` starts a comment."""
    values: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}: malformed config line {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in keys:
            raise UsageError(f"{path}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def _parse_args(parser: argparse.ArgumentParser, argv: list[str] | None) -> argparse.Namespace:
    """Parse ``argv``, with the values of its ``--config`` file ahead of its flags.

    The file may set any flag of any subcommand but ``--config``, keyed as
    the rows of ``_FLAGS`` name it: the flag without its dashes, ``_`` for
    ``-``. The chosen subcommand's keys go to argparse as ``--flag=value``
    right after the subcommand, so each value is converted and checked as
    its flag would be, and a flag on the command line, coming later,
    overrides it; keys of other subcommands are ignored.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if not args.config:
        return args
    keys = {flag: flag[2:].replace("-", "_") for flag, _, _ in _FLAGS}
    values = load_config(args.config, set(keys.values()) - {"config"})
    own = {keys[flag]: flag for flag, commands, _ in _FLAGS if args.command in commands}
    at = argv.index(args.command) + 1
    ahead = [f"{own[key]}={value}" for key, value in values.items() if key in own]
    return parser.parse_args([*argv[:at], *ahead, *argv[at:]])


def _checked(args: argparse.Namespace) -> None:
    """Refuse the flag combinations that no one flag's check sees.

    They are a half layout, a layout with ``--graph`` or ``--marked``,
    ``--gamma`` with a gamma range, ``--gamma-count`` without one, and sweep
    bounds without ``--sweep`` (or ``--sweep`` without them); each handler
    reads the parsed namespace after this check. Sets ``args.spec`` to the
    layout (``None`` without one), ``args.marked`` to the set that
    ``--marked`` lists, and ``args.mode`` to its default: full mode for an
    edge list, else reduced.
    """
    opt = vars(args).get  # None for flags the subcommand does not have
    sides = [opt(name) for name in ("n1", "n2", "k1", "k2")]
    args.spec = None
    if any(v is not None for v in sides):
        if any(v is None for v in sides):
            raise UsageError("a bipartite layout needs all of --n1 --n2 --k1 --k2")
        if opt("graph") is not None:
            raise UsageError("give either --n1/--n2/--k1/--k2 or --graph, not both")
        args.spec = BipartiteSpec(*sides)

    if opt("marked") is not None:
        try:
            args.marked = frozenset(int(tok) for tok in args.marked.split(",") if tok.strip())
        except ValueError as exc:
            raise UsageError(f"bad --marked list {args.marked!r}") from exc

    grid = opt("gamma_min"), opt("gamma_max")
    if (grid[0] is None) != (grid[1] is None):
        raise UsageError("--gamma-min and --gamma-max go together")

    if opt("mode") is None:
        args.mode = "full" if opt("graph") else "reduced"

    bounds = opt("sweep_min"), opt("sweep_max")
    if opt("sweep") is not None and None in bounds:
        raise UsageError("--sweep needs --sweep-min and --sweep-max")

    # flags that another flag makes meaningless
    if args.spec is not None and opt("marked") is not None:
        raise UsageError("--marked needs --graph; a layout marks k1 and k2 vertices")
    if opt("gamma") is not None and grid != (None, None):
        raise UsageError("give either --gamma or --gamma-min/--gamma-max, not both")
    if opt("sweep") is None and bounds != (None, None):
        raise UsageError("--sweep-min and --sweep-max need --sweep")
    if opt("gamma_count") is not None and grid == (None, None):
        raise UsageError("--gamma-count needs --gamma-min and --gamma-max")


# ---------------------------------------------------------------------------
# CSV helpers


def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _time_grid(args: argparse.Namespace) -> np.ndarray:
    tmax = args.tmax
    if tmax is None:
        if args.spec is None:
            raise UsageError("--tmax is required for edge-list instances")
        table = runtime_table(args.spec).as_ordered()
        tmax = 2.0 * max(t for _, t in table if t is not None)
    if not np.isfinite(tmax):
        raise UsageError(f"--tmax must be finite, got {tmax!r}")
    if tmax <= 0:
        raise UsageError("--tmax must be positive")
    if args.samples < 2:
        raise UsageError("--samples must be at least 2")
    return np.linspace(0.0, float(tmax), args.samples)


def _check_full_cap(n: int) -> None:
    """Refuse a search on ``n`` vertices past the cap, naming the bytes it would hold."""
    if n > FULL_MODE_CAP:
        need = SEARCH_CELL_BYTES * n * n
        raise UsageError(
            f"full mode caps at {FULL_MODE_CAP} vertices, got {n}: its dense "
            f"{n}x{n} arrays need about {need} bytes ({need / 2**20:.0f} MiB)"
        )


def _gamma_grid(args: argparse.Namespace) -> np.ndarray:
    lo, hi = args.gamma_min, args.gamma_max
    count = DEFAULT_GAMMA_COUNT if args.gamma_count is None else args.gamma_count
    if lo is None:
        if args.gamma is not None:
            return np.array([args.gamma])
        raise UsageError("a gamma range (or a single --gamma) is required")
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise UsageError(f"gamma bounds must be finite, got {lo!r} and {hi!r}")
    if count < 1:
        raise UsageError("--gamma-count must be at least 1")
    if lo <= 0 or hi < lo:
        raise UsageError("need 0 < gamma-min <= gamma-max for a log-spaced sweep")
    return np.geomspace(lo, hi, count)


def _search(args: argparse.Namespace, state: np.ndarray | None = None) -> SearchQuotient:
    """The quotient a command evolves, built once per command.

    On a layout its groups are the classes (a, b, c, d) and it starts from
    the class-basis ``state`` (default: the ``--init`` state). ``--mode``
    chooses only where the partition comes from: reduced mode writes the
    class partition down (:func:`~qwsearch.bipartite.class_quotient`),
    full mode finds it in the built graph, its refinement coloured by the
    classes (:func:`~qwsearch.bipartite.refined_class_quotient`). Both give
    the same quotient, up to the cell order. On an edge list, which runs
    in full mode from the uniform state only, its one group is the marked
    set. Either graph is refused past the cap before any per-vertex-pair
    array is built.
    """
    spec, walk = args.spec, WalkKind(args.walk)
    if spec is not None:
        if state is None:
            state = initial_state(spec, InitialStateKind(args.init))
        if args.mode == "reduced":
            return class_quotient(spec, walk, state)
        _check_full_cap(spec.n)
        return refined_class_quotient(spec, walk, state)
    if InitialStateKind(args.init) is not InitialStateKind.UNIFORM:
        raise UsageError("edge-list instances support only --init s")
    if args.mode != "full":
        raise UsageError("edge-list instances run in full mode only")
    graph = read_edge_list(args.graph)
    _check_full_cap(graph.n)
    marked = args.marked if args.marked is not None else frozenset({0})
    return search_quotient(graph, walk, marked, uniform_state(graph.n), [sorted(marked)])


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.gamma is None:
        raise UsageError("simulate needs a single --gamma")
    if args.spec is None and args.graph is None:
        raise UsageError("simulate needs a bipartite layout or --graph")
    times = _time_grid(args)
    masses = _search(args).masses(args.gamma, times)
    # Python floats: repr gives their shortest round-trip form, and a + b
    # rounds as NumPy's sum
    if args.spec is None:
        rows = zip(times.tolist(), masses[:, 0].tolist())
        lines = ["t,p_success", *(f"{t!r},{p!r}" for t, p in rows)]
    else:
        lines = ["t,p_success,p_a,p_b,p_c,p_d"]
        for t, row in zip(times.tolist(), masses):
            a, b, c, d = row.tolist()
            lines.append(f"{t!r},{a + b!r},{a!r},{b!r},{c!r},{d!r}")
    _emit(lines, args.out)
    return 0


def cmd_sweep_gamma(args: argparse.Namespace) -> int:
    if args.spec is None and args.graph is None:
        raise UsageError("sweep-gamma needs a bipartite layout or --graph")
    gammas = _gamma_grid(args)
    times = _time_grid(args)
    lines = ["gamma,t_peak,p_peak"]
    search = _search(args)
    # one group holds the success: classes a and b of a layout, or an edge
    # list's marked set, so only the marked cells are propagated
    search = search._replace(shares=search.shares[:, :2].sum(axis=1, keepdims=True))
    for gamma, masses in zip(gammas.tolist(), search.sweep(gammas, times)):
        t_peak, p_peak = first_peak(times, masses[:, 0])
        lines.append(f"{gamma!r},{t_peak!r},{p_peak!r}")
    _emit(lines, args.out)
    return 0


def _probe_state(args: argparse.Namespace) -> np.ndarray:
    """Reduced-basis probe vector for the overlaps subcommand."""
    spec, probe = args.spec, args.probe
    if probe in ("s", "sq"):
        return initial_state(spec, InitialStateKind(probe))
    side = ("ml", "mr").index(probe)  # class a or b
    if (spec.k1, spec.k2)[side] < 1:
        raise UsageError(f"probe {probe} needs k{side + 1} >= 1")
    return np.eye(4, dtype=complex)[side]


def cmd_overlaps(args: argparse.Namespace) -> int:
    """Overlap rows of the search's four lowest levels per gamma.

    The rows are :meth:`~qwsearch.evolve.SearchQuotient.levels` of the
    search from the probe, its sides the classes a and b: the class model
    on the layout's nonempty classes, in both modes, so an empty class
    adds no level and no ``n x n`` matrix is formed.
    """
    if args.spec is None:
        raise UsageError("overlaps needs a bipartite layout")
    gammas = _gamma_grid(args)
    rows = _search(args, _probe_state(args)).levels(gammas)
    # the rows hold Python floats, whose repr is their shortest round-trip form
    lines = ["gamma,n,S_n,L_n,R_n"]
    lines += [f"{g!r},{n},{s!r},{left!r},{right!r}" for g, n, s, left, right, _ in rows]
    _emit(lines, args.out)
    return 0


def cmd_runtimes(args: argparse.Namespace) -> int:
    if args.spec is None:
        raise UsageError("runtimes needs a bipartite layout")
    spec = args.spec
    if args.sweep is None:
        values = [spec.k1]
    else:
        lo, hi = args.sweep_min, args.sweep_max
        cap = spec.n1 if args.sweep == "k1" else spec.n2
        if lo < 0 or hi < lo or hi > cap:
            raise UsageError(f"sweep range must satisfy 0 <= min <= max <= {cap}")
        values = list(range(lo, hi + 1))
    lines = ["sweep_key,t_La,t_Lb,t_A,t_Qa,t_Qb,fastest,near_regular_flag"]
    for value in values:
        # without --sweep, value is k1
        k1, k2 = (spec.k1, value) if args.sweep == "k2" else (value, spec.k2)
        if k1 + k2 == 0:
            print(f"warning: skipping sweep_key={value}: no marked vertices", file=sys.stderr)
            continue
        regime = fastest_regime(BipartiteSpec(spec.n1, spec.n2, k1, k2))
        # the runtimes are Python floats, so repr is their shortest form
        runtimes = ["" if t is None else repr(t) for _, t in regime.runtimes.as_ordered()]
        lines.append(
            f"{value},{','.join(runtimes)},{regime.fastest.value},"
            f"{1 if regime.near_regular else 0}"
        )
    _emit(lines, args.out)
    return 0


def cmd_verify_spin(args: argparse.Namespace) -> int:
    if args.jz_ratio is None:
        raise UsageError("verify-spin needs --jz-ratio")
    gamma = args.gamma if args.gamma is not None else 1.0
    graph = read_edge_list(args.graph) if args.graph else demo_graph()
    ratio = args.jz_ratio
    jz = ratio * gamma
    # named as the user gave them; CouplingConstants would name jx and jz
    for name, value in (("--gamma", gamma), ("--jz-ratio", ratio),
                        ("--jz-ratio times --gamma", jz)):
        if not math.isfinite(value):
            raise UsageError(f"{name} must be finite, got {value!r}")
    if gamma == 0:  # no hopping, no walk: every candidate would match
        raise UsageError(f"--gamma must be nonzero, got {gamma!r}")
    couplings = CouplingConstants(jx=gamma, jy=gamma, jz=jz)
    kinds, deviation = certify_walk_equivalence(graph, couplings)
    # the walk W_r = A - r D with r = jz / jx, if it is one of the three
    expected = _WALK_OF_RATIO.get(ratio)
    passed = expected in kinds
    # candidates that coincide all match; show the expected one among them
    kind = expected if passed else (kinds[0] if kinds else None)
    sys.stdout.write(
        f"classification={kind.value if kind else 'other'}\n"
        f"max_deviation={deviation!r}\n"
        f"expected={expected.value if expected else 'none'}\n"
        f"result={'PASS' if passed else 'FAIL'}\n"
    )
    return 0 if passed else 2


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # argparse takes a value after a flag for a flag unless it is a plain
        # decimal; widen that to every negative float literal (-1e-3, -inf),
        # so such values reach the range and finiteness checks
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE
        )

    def error(self, message: str):  # exit status 1 instead of argparse's 2
        raise UsageError(message)


_COMMANDS = {
    "simulate": "success-probability curve over time",
    "sweep-gamma": "peak success probability per gamma",
    "overlaps": "eigenvector overlap profile per gamma",
    "runtimes": "runtime table and fastest-walk labels",
    "verify-spin": "certify the spin-network walk class",
}
_SEARCHES = ("simulate", "sweep-gamma", "overlaps")
_LAYOUTS = (*_SEARCHES, "runtimes")
_CURVES = ("simulate", "sweep-gamma")
_RATES = ("sweep-gamma", "overlaps")
# One row per flag: the flag, the subcommands that take it, and its
# add_argument keywords. Each subcommand's help lists its flags in table
# order, and a config key is the flag's name with _ for -, as argparse's
# dest is. --graph has two help texts, so two rows, sharing one key.
_FLAGS = (
    ("--n1", _LAYOUTS, dict(type=int)),
    ("--n2", _LAYOUTS, dict(type=int)),
    ("--k1", _LAYOUTS, dict(type=int)),
    ("--k2", _LAYOUTS, dict(type=int)),
    ("--graph", _LAYOUTS, dict(help="edge-list file: 'n m' header then 'i j' lines")),
    ("--marked", _LAYOUTS, dict(help="comma-separated marked vertices (edge-list runs)")),
    ("--walk", _SEARCHES, dict(choices=sorted(kind.value for kind in WalkKind), default="signless")),
    ("--config", tuple(_COMMANDS), dict(help="flat key=value file; flags override it")),
    ("--graph", ("verify-spin",), dict(help="edge-list file (default: builtin demo graph)")),
    ("--out", _LAYOUTS, dict(help="CSV output path (default: stdout)")),
    ("--tmax", _CURVES, dict(type=float)),
    ("--samples", _CURVES, dict(type=int, default=DEFAULT_SAMPLES)),
    ("--mode", _SEARCHES, dict(choices=["reduced", "full"])),
    ("--init", _CURVES, dict(choices=sorted(kind.value for kind in InitialStateKind), default="s")),
    ("--probe", ("overlaps",), dict(choices=_PROBES, default="s")),
    ("--sweep", ("runtimes",), dict(choices=["k1", "k2"])),
    ("--sweep-min", ("runtimes",), dict(type=int)),
    ("--sweep-max", ("runtimes",), dict(type=int)),
    ("--jz-ratio", ("verify-spin",), dict(type=float)),
    ("--gamma", (*_SEARCHES, "verify-spin"), dict(type=float)),
    ("--gamma-min", _RATES, dict(type=float)),
    ("--gamma-max", _RATES, dict(type=float)),
    ("--gamma-count", _RATES, dict(type=int)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qwsearch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, summary in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for flag, commands, kwargs in _FLAGS:
            if command in commands:
                p.add_argument(flag, **kwargs)
    return parser


@cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on its first call.

    Building it costs more than most commands; parsing leaves it as it
    is, so no call sees another's config file.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(_shared_parser(), argv)
        _checked(args)
        # looked up per call, not bound into the shared parser
        handler = globals()["cmd_" + args.command.replace("-", "_")]
        return handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
