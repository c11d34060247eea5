"""Capture the output of a fixed table of qwsearch commands; compare two captures.

    python scripts/capture_cli.py capture OUT.json
    python scripts/capture_cli.py compare BEFORE.json AFTER.json [--tol 1e-9]

``capture`` runs every row of ``COMMANDS`` in one process through
``qwsearch.cli.main`` and writes each command's exit status, stdout and
stderr to ``OUT.json``. It captures whichever ``qwsearch`` is importable, so
putting another checkout's ``src`` first on ``PYTHONPATH`` captures that
checkout. Edge-list commands read graph files that the script writes to a
temporary directory; their ``argv`` names them by placeholder.

``compare`` matches two captures command by command, line by line and field
by field (comma-separated, with ``key=value`` fields split at ``=``). A
numeric field is compared by its deviation ``|a - b| / max(1, |a|, |b|)``,
which is absolute for probabilities and relative for times and rates; any
other field must be identical. It prints the worst deviation and where it
is, and exits 1 when a non-numeric field, an exit status or a line count
differs, or when the worst deviation exceeds ``--tol``. A run whose exit
status or stderr differs is shown with both exit statuses and the first
stderr line that differs.

The table covers the README examples; reduced, full and edge-list
``simulate`` and ``sweep-gamma`` over the three walks (and, on layouts, the
three start states; the edge lists include graphs whose search quotient is
smaller than the graph but which are not bipartite layouts, and one list of
17 KiB, long enough that NumPy reads it from its path, in shuffled order
with reversed pairs and a repeated line);
reduced and full ``overlaps`` over the three walks and four probes; full
mode on the (512, 256, 3, 5) benchmark layout (``simulate``, ``sweep-gamma``
and ``overlaps``) and on K_{6,6} with two marked vertices per side, whose
search swapping the sides fixes (its classes colour the refinement, so a and
b keep a cell each); reduced and full ``overlaps`` on layouts with an empty
class; reduced ``sweep-gamma`` at the edges of the crest scan (two and three
samples, and a window too short for a crest); reduced and full
``sweep-gamma`` with every vertex marked on (1, 1, 1, 1) and (5, 3, 5, 3),
whose curves are flat up to rounding; reduced ``sweep-gamma`` at 20,000 and
7 samples, whose time grids split into blocks of 142 and 3, each with a
short last block; reduced ``simulate`` and ``overlaps`` on (10^9, 1000, 3,
5), where an array per vertex would not fit in memory; and ``verify-spin``,
also on a 2001-vertex path and on three edges under a header of 2^31
vertices, past the search cap; and ``--config``: a reduced ``sweep-gamma``
with every flag in the file, the same run with one flag given on the command
line as well, and a file naming an unknown walk. Config files, like graph
files, are written to the temporary directory and named by placeholder. The
front end's checks have rows too: each usage refusal (a probe side without
marked vertices, a lone ``--gamma-min``, ``--sweep`` without its bounds, a
bad ``--marked`` list, no gamma at all, ``--init sq`` and ``--mode reduced``
on an edge list, the full-mode cap on K_{2000,200}, a run with two
faults, of which the layout is named first, and ``simulate`` and
``sweep-gamma`` at a rate whose phase angles pass the float range);
``runtimes`` without ``--sweep`` (also on (10, 7, 3, 7), (40, 300, 7, 2),
(6, 6, 2, 2) and (10^9, 1000, 3, 5)) and with ``--sweep k2`` (in range, out
of range, and with a skipped row), with a ``--sweep k1`` of 10^15 + 1 rows,
past the output's byte cap, and with ``--walk``, which it does not take;
and flags that another flag excludes: ``--marked`` with a layout (also from a config
file), ``--gamma`` with a gamma range, sweep bounds without ``--sweep``, and
``--gamma-count`` beside ``--gamma`` (on ``sweep-gamma`` and ``overlaps``)
or alone. Command lines that argparse itself refuses have rows too: none at
all, an unknown subcommand, a prefix of one (``verify``), an option ahead of
the subcommand, ``verify-spin`` with ``--n1``, which only the layout
commands take, and ``verify-spin -- x``. Each command's own refusals have
rows as well: a config file's malformed line and unknown key, a layout with
``--graph``, an edge list without ``--tmax``, ``--tmax`` of ``inf`` and 0,
``--samples 1``, a non-finite gamma bound, ``--gamma-count 0``, a
``--gamma-min`` above ``--gamma-max``, ``simulate`` without ``--gamma``,
each search and ``runtimes`` without what it runs on, ``verify-spin``
without ``--jz-ratio``, with a non-finite coupling or product and with
``--gamma 0``, and the layouts that ``BipartiteSpec`` refuses (an empty
side, ``--k1`` past ``--n1``, nothing marked). Eight bad edge lists (empty,
a header of one field or not of integers, too few edges, a line of three
fields, a non-integer endpoint, a self-loop, an endpoint past n) are each
read by ``simulate`` and ``verify-spin``, and a path whose last endpoint is
written ``1_0`` is searched. ``--out`` names a file in a missing directory,
and the empty path. A message that names a file under the temporary
directory is recorded with ``{tmp}`` in its place. The table has 213 commands.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import random
import sys
import tempfile
from pathlib import Path

WALKS = ("laplacian", "adjacency", "signless")
INITS = ("s", "sa", "sq")
PROBES = ("s", "sq", "ml", "mr")
SMALL = ["--n1", "48", "--n2", "24", "--k1", "3", "--k2", "5"]
BENCH = ["--n1", "512", "--n2", "256", "--k1", "3", "--k2", "5"]
SMALL_GRID = ["--gamma-min", "0.01", "--gamma-max", "0.06", "--gamma-count", "8"]

# Edge-list graphs written at capture time, by placeholder: K_{48,24} with
# vertex v relabelled 5v mod 72 (marked: the images of its classes a and b),
# a 10-vertex graph with unequal degrees (no symmetry: its search quotient
# is the whole graph), and, marked at vertex 0, the cycle C_30 (16 cells),
# the hypercube Q_6 (7 cells, one per Hamming weight) and the hypercube Q_9
# (10 cells) listed in a seeded shuffle, about half the pairs reversed and
# one line twice: 17 KiB, so NumPy reads it from its path, and the only
# list that the graph has to sort (the others are canonical); for
# verify-spin, the path on 2001 vertices and three edges on 2^31 vertices.
PERMUTED = "{permuted_k48_24}"
IRREGULAR = "{irregular10}"
CYCLE = "{cycle30}"
HYPERCUBE = "{hypercube6}"
SHUFFLED_CUBE = "{shuffled_hypercube9}"
PATH2001 = "{path2001}"
HUGE_HEADER = "{huge_header}"
PERMUTED_MARKED = ",".join(str(5 * v % 72) for v in (0, 1, 2, 48, 49, 50, 51, 52))
IRREGULAR_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
                   (6, 7), (7, 8), (8, 9), (9, 4), (2, 7)]
# the searches run on the edge lists: name, graph and marked vertices
EDGE_SEARCHES = (("permuted", PERMUTED, PERMUTED_MARKED),
                 ("irregular", IRREGULAR, "0,6"),
                 ("cycle30", CYCLE, "0"),
                 ("hypercube6", HYPERCUBE, "0"),
                 ("shuffled-hypercube9", SHUFFLED_CUBE, "0"))
# Config files written at capture time, by placeholder: every flag of a
# reduced sweep-gamma on the small layout, keyed by destination name; a
# file naming a walk that does not exist; and a layout with a marked list.
SWEEP_CONFIG = "{sweep_config}"
BOGUS_WALK_CONFIG = "{bogus_walk_config}"
LAYOUT_MARKED_CONFIG = "{layout_marked_config}"
SWEEP_FLAGS = [*SMALL, "--walk", "laplacian", "--init", "sq", "--mode", "reduced",
               *SMALL_GRID, "--tmax", "60", "--samples", "300"]
# Config files that load_config refuses: a line without "=" and a key that
# names no flag.
MALFORMED_CONFIG = "{malformed_config}"
UNKNOWN_KEY_CONFIG = "{unknown_key_config}"
# Edge lists that read_edge_list refuses, by placeholder and text, each read
# by simulate and verify-spin: all but the self-loop and the out-of-range
# endpoint fail NumPy's one-pass parse and reach the line-by-line reader.
BAD_EDGE_LISTS = {
    "{empty_edges}": "",
    "{bad_header}": "3\n0 1\n",
    "{non_integer_header}": "3 x\n0 1\n",
    "{count_mismatch}": "3 2\n0 1\n",
    "{malformed_edge}": "3 2\n0 1\n1 2 0\n",
    "{non_integer_edge}": "3 1\n0 x\n",
    "{self_loop}": "3 1\n1 1\n",
    "{out_of_range}": "3 1\n0 3\n",
}
# A path on 11 vertices whose last endpoint is written 1_0: int() reads it
# and NumPy does not, so the line-by-line reader builds the graph.
UNDERSCORE_PATH = "{underscore_path11}"
# An --out path in a directory that does not exist, under the temporary one.
MISSING_DIR_OUT = "{missing_dir}/out.csv"


def _config_text(flags: list[str]) -> str:
    """Config-file text of ``flags``, one ``key=value`` line per flag."""
    pairs = zip(flags[::2], flags[1::2])
    return "".join(f"{flag[2:].replace('-', '_')}={value}\n" for flag, value in pairs)


def _hypercube(d: int) -> list[tuple[int, int]]:
    """Edges of the d-cube: vertices joined when they differ in one bit."""
    return [(v, v | 1 << b) for v in range(2**d) for b in range(d) if not v >> b & 1]


def _shuffled(edges: list[tuple[int, int]], seed: int) -> list[tuple[int, int]]:
    """``edges`` in a seeded random order, about half reversed, one listed twice."""
    rng = random.Random(seed)
    rows = [(j, i) if rng.random() < 0.5 else (i, j) for i, j in edges]
    rows.insert(rng.randrange(len(rows)), rows[rng.randrange(len(rows))])
    rng.shuffle(rows)
    return rows


def _input_files() -> dict[str, str]:
    """Text of each placeholder file: the edge lists and config files, read or refused."""
    left, right = range(48), range(48, 72)
    permuted = sorted(tuple(sorted((5 * i % 72, 5 * j % 72))) for i in left for j in right)
    cycle = [(i, (i + 1) % 30) for i in range(30)]
    shuffled_cube = _shuffled(_hypercube(9), seed=9)
    return {
        PERMUTED: "\n".join(["72 1152", *(f"{i} {j}" for i, j in permuted)]) + "\n",
        IRREGULAR: "\n".join(["10 13", *(f"{i} {j}" for i, j in IRREGULAR_EDGES)]) + "\n",
        CYCLE: "\n".join(["30 30", *(f"{i} {j}" for i, j in cycle)]) + "\n",
        HYPERCUBE: "\n".join(["64 192", *(f"{i} {j}" for i, j in _hypercube(6))]) + "\n",
        SHUFFLED_CUBE: "\n".join([f"512 {len(shuffled_cube)}",
                                  *(f"{i} {j}" for i, j in shuffled_cube)]) + "\n",
        PATH2001: "\n".join(["2001 2000", *(f"{i} {i + 1}" for i in range(2000))]) + "\n",
        HUGE_HEADER: "2147483648 3\n0 1\n1 2\n2147483646 2147483647\n",
        SWEEP_CONFIG: "# every flag of the run\n" + _config_text(SWEEP_FLAGS),
        BOGUS_WALK_CONFIG: _config_text([*SMALL, "--walk", "bogus"]),
        LAYOUT_MARKED_CONFIG: _config_text([*SMALL, "--marked", "7", *SMALL_GRID]),
        MALFORMED_CONFIG: _config_text(SMALL) + "walk laplacian\n",
        UNKNOWN_KEY_CONFIG: _config_text(SMALL) + "bogus=1\n",
        **BAD_EDGE_LISTS,
        UNDERSCORE_PATH: "11 10\n" + "".join(f"{i} {i + 1}\n" for i in range(9)) + "9 1_0\n",
    }


def _commands() -> list[tuple[str, list[str]]]:
    rows: list[tuple[str, list[str]]] = [
        ("readme-simulate", ["simulate", *BENCH, "--walk", "signless", "--init", "s",
                             "--gamma", "0.002", "--tmax", "80"]),
        ("readme-sweep", ["sweep-gamma", *BENCH, "--gamma-min", "0.001",
                          "--gamma-max", "0.0055", "--gamma-count", "200"]),
        ("readme-overlaps", ["overlaps", *BENCH, "--probe", "s", "--gamma-min", "0.001",
                             "--gamma-max", "0.0055"]),
        ("readme-runtimes", ["runtimes", "--n1", "1024", "--n2", "256", "--k1", "1",
                             "--k2", "5", "--sweep", "k1", "--sweep-min", "1",
                             "--sweep-max", "60"]),
        ("readme-verify-spin", ["verify-spin", "--jz-ratio", "-1", "--gamma", "0.3"]),
    ]
    for mode in ("reduced", "full"):
        for walk in WALKS:
            for init in INITS:
                flags = [*SMALL, "--walk", walk, "--init", init, "--mode", mode]
                rows.append((f"simulate-{mode}-{walk}-{init}",
                             ["simulate", *flags, "--gamma", "0.0208", "--tmax", "60",
                              "--samples", "400"]))
                rows.append((f"sweep-{mode}-{walk}-{init}",
                             ["sweep-gamma", *flags, *SMALL_GRID]))
            for probe in PROBES:
                rows.append((f"overlaps-{mode}-{walk}-{probe}",
                             ["overlaps", *SMALL, "--walk", walk, "--probe", probe,
                              "--mode", mode, *SMALL_GRID]))
    for name, path, marked in EDGE_SEARCHES:
        for walk in WALKS:
            flags = ["--graph", path, "--marked", marked, "--walk", walk, "--tmax", "60"]
            rows.append((f"simulate-edges-{name}-{walk}",
                         ["simulate", *flags, "--gamma", "0.05", "--samples", "400"]))
            rows.append((f"sweep-edges-{name}-{walk}",
                         ["sweep-gamma", *flags, *SMALL_GRID]))
    for init in ("s", "sq"):
        flags = [*BENCH, "--walk", "signless", "--init", init, "--mode", "full"]
        rows.append((f"simulate-bench-full-{init}",
                     ["simulate", *flags, "--gamma", repr(1 / 512), "--tmax", "80"]))
        rows.append((f"sweep-bench-full-{init}",
                     ["sweep-gamma", *flags, "--gamma-min", "0.0011",
                      "--gamma-max", "0.0055", "--gamma-count", "4"]))
        rows.append((f"overlaps-bench-full-{init}",
                     ["overlaps", *BENCH, "--walk", "signless", "--probe", init,
                      "--mode", "full", "--gamma-min", "0.0011", "--gamma-max", "0.0055",
                      "--gamma-count", "4"]))
    # swapping the sides fixes this layout; only the classes keep a from b
    swapsym = ["--n1", "6", "--n2", "6", "--k1", "2", "--k2", "2", "--mode", "full"]
    rows.append(("simulate-full-swapsym",
                 ["simulate", *swapsym, "--gamma", "0.15", "--tmax", "30", "--samples", "400"]))
    rows.append(("sweep-full-swapsym",
                 ["sweep-gamma", *swapsym, "--gamma-min", "0.05", "--gamma-max", "0.3",
                  "--gamma-count", "8"]))
    rows.append(("overlaps-full-swapsym",
                 ["overlaps", *swapsym, "--gamma-min", "0.05", "--gamma-max", "0.3",
                  "--gamma-count", "8"]))
    # (1, 2, 1, 1) has an empty class c and (10, 7, 0, 3) an empty class a:
    # neither class may add a level to the overlaps rows
    for layout, tag in (((1, 2, 1, 1), "1-2-1-1"), ((10, 7, 0, 3), "10-7-0-3")):
        flags = [f"--{key}={value}" for key, value in zip(("n1", "n2", "k1", "k2"), layout)]
        for mode in ("reduced", "full"):
            rows.append((f"overlaps-{mode}-empty-class-{tag}",
                         ["overlaps", *flags, "--walk", "adjacency", "--mode", mode,
                          *SMALL_GRID]))
    # the edges of first_peak's crest scan: two samples (no interior one),
    # three (one candidate), and a window too short for any crest, where
    # the rising curve falls back to its largest sample
    for tag, window in (("samples-2", ["--tmax", "60", "--samples", "2"]),
                        ("samples-3", ["--tmax", "60", "--samples", "3"]),
                        ("monotone", ["--tmax", "0.5"])):
        rows.append((f"sweep-crest-{tag}",
                     ["sweep-gamma", *SMALL, "--walk", "signless", *window, *SMALL_GRID]))
    # every vertex marked: p(t) is 1 up to rounding, and the peak is the
    # first sample, not a crest of the rounding noise
    for layout, init in (((1, 1, 1, 1), "sq"), ((5, 3, 5, 3), "s")):
        flags = [f"--{key}={value}" for key, value in zip(("n1", "n2", "k1", "k2"), layout)]
        tag = "-".join(map(str, layout))
        for mode in ("reduced", "full"):
            rows.append((f"sweep-all-marked-{tag}-{mode}",
                         ["sweep-gamma", *flags, "--init", init, "--mode", mode,
                          "--gamma-min", "0.05", "--gamma-max", "0.5", "--gamma-count", "5",
                          "--tmax", "10", "--samples", "50"]))
    # propagate's anchor-and-offset split of the time grid: 20,000 samples
    # in blocks of 142 (the last one short), and 7 samples in blocks of 3
    for samples in ("20000", "7"):
        rows.append((f"sweep-split-samples-{samples}",
                     ["sweep-gamma", *BENCH, "--walk", "signless", "--tmax", "80",
                      "--samples", samples, "--gamma-min", "0.0011", "--gamma-max", "0.0055",
                      "--gamma-count", "4"]))
    huge = ["--n1", "1000000000", "--n2", "1000", "--k1", "3", "--k2", "5"]
    rows.append(("simulate-reduced-huge",
                 ["simulate", *huge, "--gamma", "1e-9", "--tmax", "100", "--samples", "400"]))
    rows.append(("overlaps-reduced-huge",
                 ["overlaps", *huge, "--gamma-min", "5e-10", "--gamma-max", "2e-9",
                  "--gamma-count", "8"]))
    for graph, tag in (([], "demo"), (["--graph", IRREGULAR], "irregular")):
        for ratio in ("0", "1", "-1", "0.5"):
            rows.append((f"verify-spin-{tag}-{ratio}",
                         ["verify-spin", *graph, "--jz-ratio", ratio, "--gamma", "0.3"]))
    # past the search cap: the certificate holds nothing that grows with n
    for path, tag in ((PATH2001, "path2001"), (HUGE_HEADER, "huge-header")):
        for ratio in ("-1", "0.5"):
            rows.append((f"verify-spin-{tag}-{ratio}",
                         ["verify-spin", "--graph", path, "--jz-ratio", ratio, "--gamma", "0.3"]))
    # a bad config value is refused as the same flag on the command line is
    rows.append(("config-sweep", ["sweep-gamma", "--config", SWEEP_CONFIG]))
    rows.append(("config-sweep-override",
                 ["sweep-gamma", "--config", SWEEP_CONFIG, "--walk", "signless"]))
    rows.append(("config-bogus-walk", ["sweep-gamma", "--config", BOGUS_WALK_CONFIG]))
    # the front end's usage refusals, each on its own
    edges = ["--graph", IRREGULAR, "--gamma", "0.05", "--tmax", "60"]
    empty_a = ["--n1=10", "--n2=7", "--k1=0", "--k2=3"]
    rows += [
        ("refuse-probe-ml-k1-0", ["overlaps", *empty_a, "--probe", "ml", *SMALL_GRID]),
        ("refuse-probe-mr-k2-0", ["overlaps", "--n1", "4", "--n2", "3", "--k1", "1",
                                  "--k2", "0", "--probe", "mr", *SMALL_GRID]),
        ("refuse-gamma-min-alone", ["sweep-gamma", *SMALL, "--gamma-min", "0.01"]),
        ("refuse-sweep-without-bounds", ["runtimes", *SMALL, "--sweep", "k1"]),
        ("refuse-bad-marked", ["simulate", *edges, "--marked", "1,x"]),
        ("refuse-no-gamma", ["sweep-gamma", *SMALL, "--tmax", "60"]),
        ("refuse-edges-init-sq", ["simulate", *edges, "--marked", "0,6", "--init", "sq"]),
        ("refuse-edges-mode-reduced",
         ["simulate", *edges, "--marked", "0,6", "--mode", "reduced"]),
        ("refuse-full-cap-2000-200", ["simulate", "--n1", "2000", "--n2", "200", "--k1", "3",
                                      "--k2", "5", "--mode", "full", "--gamma", "0.001",
                                      "--tmax", "10"]),
        # two faults: the half layout is named before the missing --gamma
        ("refuse-two-faults", ["simulate", "--n1", "48", "--tmax", "5"]),
    ]
    # a finite Hamiltonian whose levels times the last time pass the float range
    overflow = [*BENCH, "--gamma", "1e300", "--tmax", "1e10", "--samples", "3"]
    rows += [("refuse-phase-overflow-simulate", ["simulate", *overflow]),
             ("refuse-phase-overflow-sweep", ["sweep-gamma", *overflow])]
    # runtimes on one row, and swept over k2: in range, past n2, and from
    # k2 = 0 on a layout with k1 = 0, whose first row is skipped; single rows
    # on odd and reversed sides, equal sides, and sides whose products pass 2^53
    rows += [
        ("runtimes-single", ["runtimes", *SMALL]),
        *((f"runtimes-single-{n1}-{n2}",
           ["runtimes", "--n1", n1, "--n2", n2, "--k1", k1, "--k2", k2])
          for n1, n2, k1, k2 in (("10", "7", "3", "7"), ("40", "300", "7", "2"),
                                 ("6", "6", "2", "2"), ("1000000000", "1000", "3", "5"))),
        ("runtimes-sweep-k2", ["runtimes", "--n1", "1024", "--n2", "256", "--k1", "8",
                               "--k2", "1", "--sweep", "k2", "--sweep-min", "1",
                               "--sweep-max", "40"]),
        ("refuse-runtimes-sweep-k2-range", ["runtimes", *SMALL, "--sweep", "k2",
                                            "--sweep-min", "0", "--sweep-max", "25"]),
        ("runtimes-sweep-k2-skip", ["runtimes", *empty_a, "--sweep", "k2",
                                    "--sweep-min", "0", "--sweep-max", "7"]),
        # 10^15 + 1 rows, past the output's byte cap: refused before any row
        ("refuse-runtimes-sweep-byte-cap",
         ["runtimes", "--n1", "1000000000000000", "--n2", "1", "--k1", "1", "--k2", "0",
          "--sweep", "k1", "--sweep-min", "0", "--sweep-max", "1000000000000000"]),
    ]
    # flags that another flag excludes: a layout fixes its marked vertices,
    # --gamma and a gamma range are two grids, and sweep bounds need --sweep
    rows += [
        ("conflict-layout-marked-simulate", ["simulate", *SMALL, "--marked", "7",
                                             "--gamma", "0.0208", "--tmax", "60",
                                             "--samples", "400"]),
        ("conflict-layout-marked-sweep", ["sweep-gamma", *SMALL, "--marked", "7", *SMALL_GRID]),
        ("conflict-layout-marked-config", ["sweep-gamma", "--config", LAYOUT_MARKED_CONFIG]),
        ("conflict-gamma-and-range-sweep",
         ["sweep-gamma", *SMALL, "--gamma", "0.5", *SMALL_GRID]),
        ("conflict-gamma-and-range-overlaps",
         ["overlaps", *SMALL, "--gamma", "0.5", *SMALL_GRID]),
        ("conflict-sweep-bounds-without-sweep",
         ["runtimes", *SMALL, "--sweep-min", "1", "--sweep-max", "4"]),
        ("conflict-gamma-and-count-sweep",
         ["sweep-gamma", *SMALL, "--gamma", "0.02", "--gamma-count", "0", "--tmax", "5",
          "--samples", "5"]),
        ("conflict-gamma-and-count-overlaps",
         ["overlaps", *SMALL, "--gamma", "0.02", "--gamma-count", "3"]),
        ("refuse-gamma-count-alone", ["sweep-gamma", *SMALL, "--gamma-count", "7"]),
    ]
    # runtimes reads no walk, so argparse refuses the flag
    rows.append(("refuse-runtimes-walk", ["runtimes", *SMALL, "--walk", "laplacian"]))
    # command lines that argparse itself refuses: no subcommand, an unknown
    # one, a prefix of one, an option ahead of it, a flag that only other
    # subcommands take, and an argument after "--"
    rows += [
        ("refuse-no-command", []),
        ("refuse-unknown-command", ["bogus"]),
        ("refuse-command-prefix", ["verify"]),
        ("refuse-option-before-command", ["--gamma", "1", "verify-spin"]),
        ("refuse-verify-spin-n1", ["verify-spin", "--n1", "3"]),
        ("refuse-verify-spin-dashes", ["verify-spin", "--", "x"]),
    ]
    # the refusals of each command's own checks, and of the config file
    simulate = ["simulate", *SMALL, "--gamma", "0.02"]
    rows += [
        ("refuse-config-malformed-line", ["sweep-gamma", "--config", MALFORMED_CONFIG]),
        ("refuse-config-unknown-key", ["sweep-gamma", "--config", UNKNOWN_KEY_CONFIG]),
        ("refuse-layout-and-graph", [*simulate, "--graph", IRREGULAR, "--tmax", "60"]),
        ("refuse-edges-without-tmax", ["simulate", "--graph", IRREGULAR, "--gamma", "0.05"]),
        ("refuse-tmax-inf", [*simulate, "--tmax", "inf"]),
        ("refuse-tmax-0", [*simulate, "--tmax", "0"]),
        ("refuse-samples-1", [*simulate, "--tmax", "60", "--samples", "1"]),
        ("refuse-gamma-bound-inf", ["sweep-gamma", *SMALL, "--gamma-min", "0.01",
                                    "--gamma-max", "inf"]),
        ("refuse-gamma-count-0", ["sweep-gamma", *SMALL, "--gamma-min", "0.01",
                                  "--gamma-max", "0.06", "--gamma-count", "0"]),
        ("refuse-gamma-min-above-max", ["overlaps", *SMALL, "--gamma-min", "0.06",
                                        "--gamma-max", "0.01"]),
        ("refuse-simulate-without-gamma", ["simulate", *SMALL, "--tmax", "60"]),
        ("refuse-simulate-without-graph", ["simulate", "--gamma", "0.05", "--tmax", "60"]),
        ("refuse-sweep-without-graph", ["sweep-gamma", "--gamma", "0.05", "--tmax", "60"]),
        ("refuse-overlaps-without-layout", ["overlaps", "--gamma", "0.05"]),
        ("refuse-runtimes-without-layout", ["runtimes"]),
        ("refuse-verify-spin-without-ratio", ["verify-spin", "--gamma", "0.3"]),
        ("refuse-verify-spin-gamma-nan", ["verify-spin", "--jz-ratio", "1", "--gamma", "nan"]),
        ("refuse-verify-spin-ratio-inf", ["verify-spin", "--jz-ratio", "inf"]),
        ("refuse-verify-spin-product-overflow",
         ["verify-spin", "--jz-ratio", "1e200", "--gamma", "1e200"]),
        ("refuse-verify-spin-gamma-0", ["verify-spin", "--jz-ratio", "1", "--gamma", "0"]),
        ("refuse-layout-n1-0", ["runtimes", "--n1", "0", "--n2", "24", "--k1", "0",
                                "--k2", "5"]),
        ("refuse-layout-k1-past-n1", ["runtimes", "--n1", "48", "--n2", "24", "--k1", "49",
                                      "--k2", "5"]),
        ("refuse-layout-none-marked", ["runtimes", "--n1", "48", "--n2", "24", "--k1", "0",
                                       "--k2", "0"]),
    ]
    for path in BAD_EDGE_LISTS:
        tag = path.strip("{}").replace("_", "-")
        rows += [(f"refuse-edges-{tag}-simulate",
                  ["simulate", "--graph", path, "--gamma", "0.05", "--tmax", "60"]),
                 (f"refuse-edges-{tag}-verify-spin",
                  ["verify-spin", "--graph", path, "--jz-ratio", "-1"])]
    rows += [
        ("simulate-edges-underscore-path11",
         ["simulate", "--graph", UNDERSCORE_PATH, "--gamma", "0.3", "--tmax", "10",
          "--samples", "50"]),
        # an --out path names a file: the write fails where the directory is
        # missing, and an empty path names no file at all
        ("refuse-out-missing-dir", ["runtimes", *SMALL, "--out", MISSING_DIR_OUT]),
        ("refuse-out-empty", ["runtimes", *SMALL, "--out", ""]),
    ]
    return rows


COMMANDS = _commands()


def capture(out: Path) -> None:
    from qwsearch.cli import main

    records = []
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for placeholder, text in _input_files().items():
            path = Path(tmp) / f"{placeholder.strip('{}')}.txt"
            path.write_text(text)
            paths[placeholder] = str(path)
        paths[MISSING_DIR_OUT] = str(Path(tmp) / "missing" / "out.csv")
        for name, argv in COMMANDS:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([paths.get(arg, arg) for arg in argv])
            # a message that names an input file names it under {tmp}, the same in every capture
            records.append({"name": name, "argv": argv, "exit": code,
                            "stdout": stdout.getvalue().replace(tmp, "{tmp}"),
                            "stderr": stderr.getvalue().replace(tmp, "{tmp}")})
    out.write_text(json.dumps({"commands": records}, indent=1) + "\n")
    print(f"captured {len(records)} commands into {out}")


def _deviation(a: str, b: str) -> float | None:
    """Scaled deviation of two finite numeric fields; ``None`` otherwise.

    ``nan`` and ``inf`` count as text, so they must match exactly.
    """
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if not (math.isfinite(x) and math.isfinite(y)):
        return None
    return abs(x - y) / max(1.0, abs(x), abs(y))


def _field_pairs(before: str, after: str):
    """Matching (line, field, a, b) of two outputs; raises on a shape mismatch."""
    lines_a, lines_b = before.splitlines(), after.splitlines()
    if len(lines_a) != len(lines_b):
        raise ValueError(f"{len(lines_a)} lines against {len(lines_b)}")
    for line, (row_a, row_b) in enumerate(zip(lines_a, lines_b), start=1):
        fields_a, fields_b = row_a.split(","), row_b.split(",")
        if len(fields_a) != len(fields_b):
            raise ValueError(f"line {line}: {len(fields_a)} fields against {len(fields_b)}")
        for field, (a, b) in enumerate(zip(fields_a, fields_b), start=1):
            key_a, eq_a, a = a.rpartition("=")
            key_b, eq_b, b = b.rpartition("=")
            if (key_a, eq_a) != (key_b, eq_b):
                raise ValueError(f"line {line} field {field}: key {key_a!r} against {key_b!r}")
            yield line, field, a, b


def _run_difference(a: dict, b: dict) -> str | None:
    """How two runs' argv, exit status or stderr differ; ``None`` if they do not.

    Names both exit statuses and the first stderr line that differs.
    """
    if a["argv"] != b["argv"]:
        return "argv differ"
    if (a["exit"], a["stderr"]) == (b["exit"], b["stderr"]):
        return None
    text = f"exit {a['exit']} against {b['exit']}"
    lines = itertools.zip_longest(a["stderr"].splitlines(keepends=True),
                                  b["stderr"].splitlines(keepends=True), fillvalue="")
    for line, (x, y) in enumerate(lines, start=1):
        if x != y:
            return f"{text}; stderr line {line}: {x!r} against {y!r}"
    return text


def compare(before: Path, after: Path, tol: float) -> int:
    runs_a = {r["name"]: r for r in json.loads(before.read_text())["commands"]}
    runs_b = {r["name"]: r for r in json.loads(after.read_text())["commands"]}
    problems = [f"only in {before}: {name}" for name in runs_a.keys() - runs_b.keys()]
    problems += [f"only in {after}: {name}" for name in runs_b.keys() - runs_a.keys()]
    worst, where, identical, changed = 0.0, "", 0, 0
    for name in [name for name in runs_a if name in runs_b]:
        a, b = runs_a[name], runs_b[name]
        difference = _run_difference(a, b)
        if difference is not None:
            problems.append(f"{name}: {difference}")
            continue
        if a["stdout"] == b["stdout"]:
            identical += 1
            continue
        changed += 1
        try:
            for line, field, x, y in _field_pairs(a["stdout"], b["stdout"]):
                deviation = _deviation(x, y)
                if deviation is None and x != y:
                    problems.append(f"{name} line {line} field {field}: {x!r} against {y!r}")
                elif deviation is not None and deviation > worst:
                    worst = deviation
                    where = f"{name} line {line} field {field}: {x} against {y}"
        except ValueError as exc:
            problems.append(f"{name}: {exc}")
    print(f"commands: {len(runs_a.keys() & runs_b.keys())}, identical: {identical}, "
          f"changed: {changed}")
    print(f"worst deviation: {worst:.3g}" + (f" ({where})" if where else ""))
    for problem in problems:
        print(f"mismatch: {problem}")
    if worst > tol:
        print(f"worst deviation exceeds the tolerance {tol:g}")
    return 1 if problems or worst > tol else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="action", required=True)
    p = sub.add_parser("capture", help="run the command table and write a capture")
    p.add_argument("out", type=Path)
    p = sub.add_parser("compare", help="compare two captures field by field")
    p.add_argument("before", type=Path)
    p.add_argument("after", type=Path)
    p.add_argument("--tol", type=float, default=1e-9,
                   help="largest allowed scaled deviation (default 1e-9)")
    args = parser.parse_args(argv)
    if args.action == "capture":
        capture(args.out)
        return 0
    return compare(args.before, args.after, args.tol)


if __name__ == "__main__":
    sys.exit(main())
