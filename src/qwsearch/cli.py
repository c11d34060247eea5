"""Command-line front end emitting CSV datasets for search experiments.

Subcommands: ``simulate`` (success-probability curves), ``sweep-gamma``
(peak success versus jumping rate), ``overlaps`` (eigenvector overlap
profiles), ``runtimes`` (runtime comparison across walks), ``verify-spin``
(spin-network walk-equivalence check). Parameters come from flags or a flat
``key=value`` config file; flags override the file. Exit status is 0 on
success, 1 for usage or validation errors or when memory runs out, and 2
when ``verify-spin`` finds a mismatch.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from .bipartite import (
    InitialStateKind,
    class_quotient,
    class_slices,
    initial_state,
    reduced_to_full,
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
from .graph import BipartiteSpec, Graph, complete_bipartite, read_edge_list
from .spin_network import CouplingConstants, certify_walk_equivalence, demo_graph

__all__ = ["RunConfig", "main", "entry"]

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

_WALKS = {kind.value: kind for kind in WalkKind}
_INITS = {kind.value: kind for kind in InitialStateKind}
_PROBES = ("s", "sq", "ml", "mr")


class UsageError(Exception):
    """Bad flags or config values; maps to exit status 1."""


@dataclass(frozen=True)
class RunConfig:
    """Merged parameters of one subcommand invocation (``None``: no such flag)."""

    spec: BipartiteSpec | None = None
    graph_path: str | None = None
    marked: frozenset[int] | None = None
    walk: WalkKind | None = None
    init: InitialStateKind | None = None
    probe: str | None = None
    gamma: float | None = None
    gamma_range: tuple[float, float, int] | None = None
    tmax: float | None = None
    samples: int | None = None
    mode: str = "reduced"
    out: str | None = None
    sweep_axis: str | None = None
    sweep_range: tuple[int, int] | None = None
    jz_ratio: float | None = None


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

    The file may set any flag of any subcommand, keyed by its destination
    name. The chosen subcommand's keys go to argparse as ``--flag=value``
    right after the subcommand, so each value is converted and checked as
    its flag would be, and a flag on the command line, coming later,
    overrides it; keys of other subcommands are ignored.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if not args.config:
        return args
    (commands,) = (a.choices for a in parser._actions if a.dest == "command")
    flags = {
        name: {a.dest: a.option_strings[0] for a in p._actions if a.dest not in ("help", "config")}
        for name, p in commands.items()
    }
    values = load_config(args.config, set().union(*flags.values()))
    own = flags[args.command]
    at = argv.index(args.command) + 1
    ahead = [f"{own[key]}={value}" for key, value in values.items() if key in own]
    return parser.parse_args([*argv[:at], *ahead, *argv[at:]])


def _parse_marked(text: str) -> frozenset[int]:
    try:
        return frozenset(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise UsageError(f"bad --marked list {text!r}") from exc


def _build_config(args: argparse.Namespace) -> RunConfig:
    opt = vars(args).get  # None for flags the subcommand does not have
    sides = [opt(name) for name in ("n1", "n2", "k1", "k2")]
    graph_path = opt("graph")
    spec = None
    if any(v is not None for v in sides):
        if any(v is None for v in sides):
            raise UsageError("a bipartite layout needs all of --n1 --n2 --k1 --k2")
        if graph_path is not None:
            raise UsageError("give either --n1/--n2/--k1/--k2 or --graph, not both")
        spec = BipartiteSpec(*sides)

    marked = _parse_marked(opt("marked")) if opt("marked") is not None else None

    gamma_min, gamma_max = opt("gamma_min"), opt("gamma_max")
    gamma_range = None
    if gamma_min is not None or gamma_max is not None:
        if gamma_min is None or gamma_max is None:
            raise UsageError("--gamma-min and --gamma-max go together")
        gamma_range = (gamma_min, gamma_max, opt("gamma_count"))

    mode = opt("mode")
    if mode is None:
        mode = "full" if graph_path else "reduced"

    sweep_axis = opt("sweep")
    sweep_range = None
    if sweep_axis is not None:
        if opt("sweep_min") is None or opt("sweep_max") is None:
            raise UsageError("--sweep needs --sweep-min and --sweep-max")
        sweep_range = (opt("sweep_min"), opt("sweep_max"))

    return RunConfig(
        spec=spec,
        graph_path=graph_path,
        marked=marked,
        walk=_WALKS.get(opt("walk")),
        init=_INITS.get(opt("init")),
        probe=opt("probe"),
        gamma=opt("gamma"),
        gamma_range=gamma_range,
        tmax=opt("tmax"),
        samples=opt("samples"),
        mode=mode,
        out=opt("out"),
        sweep_axis=sweep_axis,
        sweep_range=sweep_range,
        jz_ratio=opt("jz_ratio"),
    )


# ---------------------------------------------------------------------------
# CSV helpers


def _fmt(x) -> str:
    """Shortest round-trip decimal form of a float."""
    return repr(float(x))


def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _time_grid(cfg: RunConfig) -> np.ndarray:
    tmax = cfg.tmax
    if tmax is None:
        if cfg.spec is None:
            raise UsageError("--tmax is required for edge-list instances")
        table = runtime_table(cfg.spec).as_ordered()
        tmax = 2.0 * max(t for _, t in table if t is not None)
    if not np.isfinite(tmax):
        raise UsageError(f"--tmax must be finite, got {tmax!r}")
    if tmax <= 0:
        raise UsageError("--tmax must be positive")
    if cfg.samples < 2:
        raise UsageError("--samples must be at least 2")
    return np.linspace(0.0, float(tmax), cfg.samples)


def _check_full_cap(n: int) -> None:
    """Refuse a search on ``n`` vertices past the cap, naming the bytes it would hold."""
    if n > FULL_MODE_CAP:
        need = SEARCH_CELL_BYTES * n * n
        raise UsageError(
            f"full mode caps at {FULL_MODE_CAP} vertices, got {n}: its dense "
            f"{n}x{n} arrays need about {need} bytes ({need / 2**20:.0f} MiB)"
        )


def _gamma_grid(cfg: RunConfig) -> np.ndarray:
    if cfg.gamma_range is None:
        if cfg.gamma is not None:
            return np.array([float(cfg.gamma)])
        raise UsageError("a gamma range (or a single --gamma) is required")
    lo, hi, count = cfg.gamma_range
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise UsageError(f"gamma bounds must be finite, got {lo!r} and {hi!r}")
    if count < 1:
        raise UsageError("--gamma-count must be at least 1")
    if lo <= 0 or hi < lo:
        raise UsageError("need 0 < gamma-min <= gamma-max for a log-spaced sweep")
    return np.geomspace(lo, hi, count)


def _full_search(cfg: RunConfig) -> tuple[Graph, frozenset[int]]:
    """Graph and marked set of a full-space run, built once per command.

    The graph is the complete bipartite layout or the edge list; either is
    refused past the cap before any per-vertex-pair array is built.
    """
    if cfg.spec is not None:
        _check_full_cap(cfg.spec.n)
        return complete_bipartite(cfg.spec)
    if cfg.init is not InitialStateKind.UNIFORM:
        raise UsageError("edge-list instances support only --init s")
    if cfg.mode != "full":
        raise UsageError("edge-list instances run in full mode only")
    graph = read_edge_list(cfg.graph_path)
    _check_full_cap(graph.n)
    return graph, cfg.marked if cfg.marked is not None else frozenset({0})


def _layout_quotient(cfg: RunConfig, state: np.ndarray, sides: bool = False) -> SearchQuotient:
    """The layout's search from the class-basis ``state``, groups the classes (a, b, c, d).

    ``--mode`` chooses only where the partition comes from: reduced mode
    writes the class partition down
    (:func:`~qwsearch.bipartite.class_quotient`), full mode builds the
    graph and refines the marked set and the state on it
    (:func:`~qwsearch.evolve.search_quotient`), with ``sides`` also the
    classes a and b. Both give the same quotient, up to the cell order.
    """
    spec = cfg.spec
    if cfg.mode == "reduced":
        return class_quotient(spec, cfg.walk, state)
    graph, marked = _full_search(cfg)
    classes = class_slices(spec)
    psi0 = reduced_to_full(spec, state)
    return search_quotient(graph, cfg.walk, marked, psi0, classes, classes[:2] if sides else ())


def _search(cfg: RunConfig) -> SearchQuotient:
    """The quotient that ``simulate`` and ``sweep-gamma`` evolve, built once per command.

    Its groups are the classes (a, b, c, d) of a layout, or the marked set
    of an edge list.
    """
    if cfg.spec is not None:
        return _layout_quotient(cfg, initial_state(cfg.spec, cfg.init))
    graph, marked = _full_search(cfg)
    return search_quotient(graph, cfg.walk, marked, uniform_state(graph.n), [sorted(marked)])


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(cfg: RunConfig) -> int:
    if cfg.gamma is None:
        raise UsageError("simulate needs a single --gamma")
    if cfg.spec is None and cfg.graph_path is None:
        raise UsageError("simulate needs a bipartite layout or --graph")
    times = _time_grid(cfg)
    masses = _search(cfg).masses(float(cfg.gamma), times)
    # Python floats: their repr is _fmt's, and a + b rounds as NumPy's sum
    if cfg.spec is None:
        rows = zip(times.tolist(), masses[:, 0].tolist())
        lines = ["t,p_success", *(f"{t!r},{p!r}" for t, p in rows)]
    else:
        lines = ["t,p_success,p_a,p_b,p_c,p_d"]
        for t, row in zip(times.tolist(), masses):
            a, b, c, d = row.tolist()
            lines.append(f"{t!r},{a + b!r},{a!r},{b!r},{c!r},{d!r}")
    _emit(lines, cfg.out)
    return 0


def cmd_sweep_gamma(cfg: RunConfig) -> int:
    if cfg.spec is None and cfg.graph_path is None:
        raise UsageError("sweep-gamma needs a bipartite layout or --graph")
    gammas = _gamma_grid(cfg)
    times = _time_grid(cfg)
    lines = ["gamma,t_peak,p_peak"]
    search = _search(cfg)
    # one group holds the success: classes a and b of a layout, or an edge
    # list's marked set, so only the marked cells are propagated
    search = search._replace(shares=search.shares[:, :2].sum(axis=1, keepdims=True))
    for gamma, masses in zip(gammas.tolist(), search.sweep(gammas, times)):
        t_peak, p_peak = first_peak(times, masses[:, 0])
        lines.append(f"{gamma!r},{t_peak!r},{p_peak!r}")
    _emit(lines, cfg.out)
    return 0


def _probe_state(cfg: RunConfig) -> np.ndarray:
    """Reduced-basis probe vector for the overlaps subcommand."""
    spec = cfg.spec
    if cfg.probe == "s":
        return initial_state(spec, InitialStateKind.UNIFORM)
    if cfg.probe == "sq":
        return initial_state(spec, InitialStateKind.SIGNLESS_EIGENVECTOR)
    if cfg.probe == "ml":
        if spec.k1 < 1:
            raise UsageError("probe ml needs k1 >= 1")
        return np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    if spec.k2 < 1:
        raise UsageError("probe mr needs k2 >= 1")
    return np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)


def cmd_overlaps(cfg: RunConfig) -> int:
    """Overlap rows of the search's four lowest levels per gamma.

    The levels are those of the quotient of the search's partition, read
    with :meth:`~qwsearch.evolve.SearchQuotient.levels`: the class model
    on the layout's nonempty classes, in both modes, so an empty class adds
    no level and no ``n x n`` matrix is formed.
    """
    if cfg.spec is None:
        raise UsageError("overlaps needs a bipartite layout")
    gammas = _gamma_grid(cfg)
    rows = _layout_quotient(cfg, _probe_state(cfg), sides=True).levels(gammas)
    # the rows hold Python floats, whose repr is _fmt's
    lines = ["gamma,n,S_n,L_n,R_n"]
    lines += [f"{g!r},{n},{s!r},{left!r},{right!r}" for g, n, s, left, right, _ in rows]
    _emit(lines, cfg.out)
    return 0


def cmd_runtimes(cfg: RunConfig) -> int:
    if cfg.spec is None:
        raise UsageError("runtimes needs a bipartite layout")
    spec = cfg.spec
    if cfg.sweep_axis is None:
        values = [spec.k1]
    else:
        lo, hi = cfg.sweep_range
        cap = spec.n1 if cfg.sweep_axis == "k1" else spec.n2
        if lo < 0 or hi < lo or hi > cap:
            raise UsageError(f"sweep range must satisfy 0 <= min <= max <= {cap}")
        values = list(range(lo, hi + 1))
    lines = ["sweep_key,t_La,t_Lb,t_A,t_Qa,t_Qb,fastest,near_regular_flag"]
    for value in values:
        if cfg.sweep_axis == "k2":
            k1, k2 = spec.k1, value
        elif cfg.sweep_axis == "k1":
            k1, k2 = value, spec.k2
        else:
            k1, k2 = spec.k1, spec.k2
        if k1 + k2 == 0:
            print(
                f"warning: skipping sweep_key={value}: no marked vertices",
                file=sys.stderr,
            )
            continue
        regime = fastest_regime(BipartiteSpec(spec.n1, spec.n2, k1, k2))
        runtimes = [
            "" if t is None else _fmt(t) for _, t in regime.runtimes.as_ordered()
        ]
        lines.append(
            f"{value},{','.join(runtimes)},{regime.fastest.value},"
            f"{1 if regime.near_regular else 0}"
        )
    _emit(lines, cfg.out)
    return 0


def cmd_verify_spin(cfg: RunConfig) -> int:
    if cfg.jz_ratio is None:
        raise UsageError("verify-spin needs --jz-ratio")
    gamma = float(cfg.gamma) if cfg.gamma is not None else 1.0
    graph = read_edge_list(cfg.graph_path) if cfg.graph_path else demo_graph()
    ratio = float(cfg.jz_ratio)
    couplings = CouplingConstants(jx=gamma, jy=gamma, jz=ratio * gamma)
    kinds, deviation = certify_walk_equivalence(graph, couplings)
    # the walk W_r = A - r D with r = jz / jx, if it is one of the three
    expected = next((kind for kind in WalkKind if kind.ratio == ratio), None)
    passed = expected in kinds
    # candidates that coincide all match; show the expected one among them
    kind = expected if passed else (kinds[0] if kinds else None)
    print(f"classification={kind.value if kind else 'other'}")
    print(f"max_deviation={_fmt(deviation)}")
    print(f"expected={expected.value if expected else 'none'}")
    print(f"result={'PASS' if passed else 'FAIL'}")
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


def _add_instance_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n1", type=int)
    p.add_argument("--n2", type=int)
    p.add_argument("--k1", type=int)
    p.add_argument("--k2", type=int)
    p.add_argument("--graph", help="edge-list file: 'n m' header then 'i j' lines")
    p.add_argument("--marked", help="comma-separated marked vertices (edge-list runs)")
    p.add_argument("--walk", choices=sorted(_WALKS), default="signless")


def _add_config_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value file; flags override it")


def _add_io_flags(p: argparse.ArgumentParser) -> None:
    _add_config_flag(p)
    p.add_argument("--out", help="CSV output path (default: stdout)")


def _add_time_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tmax", type=float)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--mode", choices=["reduced", "full"])


def _add_gamma_range_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma", type=float)
    p.add_argument("--gamma-min", dest="gamma_min", type=float)
    p.add_argument("--gamma-max", dest="gamma_max", type=float)
    p.add_argument(
        "--gamma-count", dest="gamma_count", type=int, default=DEFAULT_GAMMA_COUNT
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qwsearch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="success-probability curve over time")
    _add_instance_flags(p)
    _add_io_flags(p)
    _add_time_flags(p)
    p.add_argument("--init", choices=sorted(_INITS), default="s")
    p.add_argument("--gamma", type=float)

    p = sub.add_parser("sweep-gamma", help="peak success probability per gamma")
    _add_instance_flags(p)
    _add_io_flags(p)
    _add_time_flags(p)
    p.add_argument("--init", choices=sorted(_INITS), default="s")
    _add_gamma_range_flags(p)

    p = sub.add_parser("overlaps", help="eigenvector overlap profile per gamma")
    _add_instance_flags(p)
    _add_io_flags(p)
    p.add_argument("--mode", choices=["reduced", "full"])
    p.add_argument("--probe", choices=list(_PROBES), default="s")
    _add_gamma_range_flags(p)

    p = sub.add_parser("runtimes", help="runtime table and fastest-walk labels")
    _add_instance_flags(p)
    _add_io_flags(p)
    p.add_argument("--sweep", choices=["k1", "k2"])
    p.add_argument("--sweep-min", dest="sweep_min", type=int)
    p.add_argument("--sweep-max", dest="sweep_max", type=int)

    p = sub.add_parser("verify-spin", help="certify the spin-network walk class")
    _add_config_flag(p)
    p.add_argument("--graph", help="edge-list file (default: builtin demo graph)")
    p.add_argument("--jz-ratio", dest="jz_ratio", type=float)
    p.add_argument("--gamma", type=float)

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
        cfg = _build_config(args)
        # looked up per call, not bound into the shared parser
        handler = globals()["cmd_" + args.command.replace("-", "_")]
        return handler(cfg)
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
