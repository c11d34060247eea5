"""Regenerate the benchmark datasets into results/ through the qwsearch CLI.

``RUNS`` is the whole experiment: one row per CSV, naming the output file
and the CLI arguments that produce it.

- ``success_{init}_gamma{gamma}.csv``: signless success-probability curves
  on (512, 256, 3, 5) from ``s`` and ``s_Q`` at ten jumping rates spanning
  both critical rates (0.001 to 0.0055). Plot t against p_success to see
  the two critical rates stand out.
- ``overlaps_{probe}.csv``: |<probe|psi_n>|^2 for the four lowest reduced
  eigenvectors over a 200-point gamma grid, for the uniform state, the
  left- and right-marked classes and the signless eigenvector. The
  crossings near gamma = 0.002 and 0.004 mark the critical rates.
- ``runtime_regimes.csv``: the five runtimes and the fastest-walk label on
  (1024, 256, k1, 5) for k1 = 1..60. The label switches from
  signless-right to adjacency at k1 = 12 and to Laplacian-left at k1 = 34.

Run ``python scripts/run_datasets.py`` with the package importable.
"""

from pathlib import Path

from qwsearch.cli import main

LAYOUT = ["--n1", "512", "--n2", "256", "--k1", "3", "--k2", "5"]
GAMMAS = [0.001, 0.0015, 0.002, 0.0025, 0.003, 0.0035, 0.004, 0.0045, 0.005, 0.0055]
OUT_DIR = Path(__file__).resolve().parent.parent / "results"

RUNS: list[tuple[str, list[str]]] = [
    *(
        (
            f"success_{init}_gamma{gamma:g}.csv",
            ["simulate", *LAYOUT, "--walk", "signless", "--init", init,
             "--gamma", str(gamma), "--tmax", "80"],
        )
        for init in ("s", "sq")
        for gamma in GAMMAS
    ),
    *(
        (
            f"overlaps_{probe}.csv",
            ["overlaps", *LAYOUT, "--walk", "signless", "--probe", probe,
             "--gamma-min", "0.001", "--gamma-max", "0.0055", "--gamma-count", "200"],
        )
        for probe in ("s", "ml", "mr", "sq")
    ),
    (
        "runtime_regimes.csv",
        ["runtimes", "--n1", "1024", "--n2", "256", "--k1", "1", "--k2", "5",
         "--sweep", "k1", "--sweep-min", "1", "--sweep-max", "60"],
    ),
]


def run() -> None:
    OUT_DIR.mkdir(exist_ok=True)
    for name, argv in RUNS:
        out = OUT_DIR / name
        code = main([*argv, "--out", str(out)])
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}")
        print(f"wrote {out}")


if __name__ == "__main__":
    run()
