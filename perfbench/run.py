"""qwsearch benchmark: one command, three seeded workloads, correctness-checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload reduced_datasets --seed 1 --seconds 10 --trace 0

The workloads and why they were chosen are in ``workloads.py``; the map of
which per-layer figure should move which end-to-end metric is in
``layer_map.json``. Metric names and units come from ``BENCHMARK.json``.

With ``--trace 0`` the run reports the end-to-end metrics. The two timings
are given at the nominal machine speed: a fixed reference kernel, timed
between the worker's operations, measures how much slower than nominal the
shared host ran during the run, and both are scaled by that factor
(``child.Reference``). The unscaled figures are printed above the result.

- ``setup_s``: median, over several fresh interpreters, of the time from
  launching one to the end of its warm-up (``import qwsearch`` and one dense
  ``eig_hermitian`` at the workload's dimension). The first multi-threaded
  OpenBLAS ``eigh`` of a fresh process sometimes stalls for about a second;
  the median keeps such stalls out, and their count is reported beside it.
- ``items_per_s``: items completed per second in one warm process (closed
  loop, one client), from each operation's median time over repeated cycles
  of the workload's operation list.
- ``peak_rss_mib``: peak resident memory of that fresh worker process.
- ``ok_ratio``: operations whose exit status and output met their oracle,
  over operations attempted. Its complement, ``fail_ratio``, is printed on
  the line above the result.

With ``--trace 1`` a separate run alternates untraced and traced cycles and
reports the per-layer metrics: calls and self time of every public
function of ``graph``, ``evolve``, ``bipartite``, ``spin_network`` and
``cli``, layer totals and shares, computed work counts, trace coverage and
tracing overhead. Spans are written as JSON lines under ``.bench_work/``.

Every run writes its full record, environment included, to
``.bench_work/BENCH_<workload>_seed<seed>_trace<t>.json``. BLAS keeps its
default thread count unless that exceeds the cores this process may use.
The exit status is 0 when a result was printed, and not 0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 8  # plus the worker's own set-up: nine samples per run
STALL_S = 0.5  # a set-up sample this far above the median counts as a stall
DEADLINE_S = 170.0  # every run must end within 180 seconds


class BenchError(Exception):
    """The benchmark cannot produce a result; exit status 1."""


def _remaining(start: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - start)
    if left <= 0:
        raise BenchError("out of time")
    return left


def _launch(argv: list[str], env: dict, start: float) -> tuple[float, subprocess.Popen]:
    """Start a fresh interpreter; return (seconds until it printed ready, process)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *argv],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        _finish(proc, start)
        raise BenchError(f"child did not start (exit {proc.returncode})")
    return ready, proc


def _finish(proc: subprocess.Popen, start: float) -> str:
    """Wait for a child; kill it if it overruns the deadline."""
    try:
        out, _ = proc.communicate(timeout=_remaining(start))
    except (subprocess.TimeoutExpired, BenchError):
        proc.kill()
        proc.communicate()
        raise BenchError("child overran the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}")
    return out


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    cores = len(os.sched_getaffinity(0))
    threads = child.blas_info()["blas_threads"]
    if threads is not None and threads > cores:
        env["OPENBLAS_NUM_THREADS"] = str(cores)
    return env


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it; else unknown."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qwsearch").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _metric_table() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run(args) -> dict:
    start = time.perf_counter()
    if not (SRC / "qwsearch" / "__init__.py").is_file():
        raise BenchError(f"no qwsearch sources under {SRC}")
    units = _metric_table()[args.trace]
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec = workloads.build(args.workload, args.seed, work, tiny=args.tiny)
    ops_path = work / "ops.json"
    ops_path.write_text(json.dumps(spec))
    env = _child_env()
    base = ["--src", str(SRC), "--dim", str(spec["warmup_dim"])]

    setup = []
    if not args.trace:
        for _ in range(3 if args.tiny else SETUP_PROBES):
            ready, proc = _launch(["setup", *base], env, start)
            _finish(proc, start)
            setup.append(ready)
    ready, proc = _launch(
        ["worker", *base, "--ops", str(ops_path), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--spans", str(work / "spans.jsonl")],
        env, start,
    )
    setup.append(ready)
    worker = json.loads(_finish(proc, start).splitlines()[-1])

    setup_s = statistics.median(setup)
    attempted, failed = worker["attempted"], worker["failed"]
    if args.trace:
        values = worker["layers"]
        measured = {name: values.get(name, 0) for name in units}
    else:
        measured = {
            "items_per_s": worker["items_per_s"],
            "setup_s": setup_s / worker["slowdown"],
            "peak_rss_mib": worker["peak_rss_mib"],
            "ok_ratio": 1.0 - failed / attempted,
        }
    missing = sorted(set(units) - set(measured))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    env_record = {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": worker["numpy"],
        "blas": worker["blas"],
        "blas_version": worker["blas_version"],
        "blas_threads": worker["blas_threads"],
        "seed": args.seed,
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env_record,
        "setup_samples_s": setup,
        "setup_stalls": sum(s > setup_s + STALL_S for s in setup),
        "fail_ratio": failed / attempted,
        "worker": worker,
        "metrics": {name: {"value": measured[name], "unit": units[name]} for name in units},
    }
    (WORK / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the harness smoke test")
    args = parser.parse_args(argv)
    try:
        record = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    worker = record["worker"]
    for reason in worker["failures"]:
        print(f"FAILED {reason}", file=sys.stderr)
    print("env " + json.dumps(record["env"]))
    if "slowdown" in worker:
        print(f"wall_items_per_s={worker['wall_items_per_s']} "
              f"wall_setup_s={statistics.median(record['setup_samples_s'])} "
              f"slowdown={worker['slowdown']}")
    print(
        f"fail_ratio={record['fail_ratio']} ({worker['failed']}/{worker['attempted']}) "
        f"setup_stalls={record['setup_stalls']}/{len(record['setup_samples_s'])}"
    )
    print(json.dumps({
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
