"""The fresh interpreter the benchmark times: set-up probe or measuring worker.

``python3 child.py setup --src DIR --dim D`` imports qwsearch from ``DIR``,
runs one dense ``eig_hermitian`` of dimension ``D`` and prints ``ready``; the
parent times that as set-up.

``python3 child.py worker --src DIR --dim D --ops FILE --seconds S --trace T``
does the same set-up, then drives ``qwsearch.cli.main`` in-process as a
closed loop (one client: each command starts after the previous returns),
checks the outputs with the workload's oracles after timing, and prints one
JSON object as its last line.

With ``--trace 0`` it repeats the whole operation list ("a cycle") for
about ``S`` seconds: it starts no cycle that would end after ``S`` seconds,
but always runs one. Between operations it times a fixed reference kernel
that does not touch qwsearch, about once per ``REF_EVERY_S`` seconds of
running; the kernel's median time over the run gives the machine's speed
during the run (see ``Reference``). With ``--trace 1`` it alternates an
untraced and a traced cycle in the same way, which gives the per-layer
figures and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

REF_EVERY_S = 0.5  # one reference sample per this many seconds of timing
REF_BURST = 8  # samples taken at most at once, after a long operation
# median time of one reference sample on a quiet 2-vCPU Intel Xeon VM
# (NumPy 2 with OpenBLAS); it only sets the scale of the reported figure
REF_NOMINAL_S = 0.016


class Reference:
    """A fixed kernel, outside qwsearch, that times how fast the machine runs now.

    On a shared host the processor's speed drifts by tens of percent over
    seconds to minutes, with other tenants' load. The kernel mixes the kinds
    of work qwsearch does (Python loops and float formatting, many small
    NumPy calls, a dense eigensolve, Kronecker products of 4 MB), so its
    time moves with the machine and never with a change to qwsearch. It
    leaves out multi-threaded BLAS calls on purpose: on a shared host their
    time jumps whenever the second thread waits for a core, which would
    make the reference noisier than what it corrects.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.small = [a + a.T for a in rng.standard_normal((8, 4, 4))]
        dense = rng.standard_normal((192, 192))
        self.dense = dense + dense.T
        self.block = rng.standard_normal((256, 256)) * (1 + 1j)
        self.pauli = np.array([[0, 1], [1, 0]], dtype=complex)
        self.acc = np.zeros((512, 512), dtype=complex)
        self.samples: list[float] = []
        self._kernel()  # warm
        self.last = time.perf_counter() - REF_EVERY_S

    def _kernel(self) -> None:
        np, x, out = self.np, 0.1234567, []
        for i in range(4000):
            x = x * 1.0000001 + 1e-9
            out.append(f"{x:.12g},{i}")
        "\n".join(out)
        for _ in range(25):
            for a in self.small:
                np.linalg.eigh(a)
        np.linalg.eigh(self.dense)
        for _ in range(2):
            self.acc += np.kron(self.block, self.pauli)

    def maybe_sample(self) -> None:
        """Time the kernel once per ``REF_EVERY_S`` seconds since the last sample.

        Operations longer than that would leave few samples, so the ones
        missed are taken now, up to ``REF_BURST``.
        """
        due = int((time.perf_counter() - self.last) / REF_EVERY_S)
        for _ in range(min(due, REF_BURST)):
            t0 = time.perf_counter()
            self._kernel()
            self.last = time.perf_counter()
            self.samples.append(self.last - t0)


def blas_info() -> dict:
    """NumPy's version, and name, version and thread count of its BLAS where readable."""
    import numpy as np

    info = {"numpy": np.__version__, "blas": "unknown", "blas_version": "unknown",
            "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"], info["blas_version"] = blas["name"], blas["version"]
    except (TypeError, KeyError):
        pass
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def _set_up(src: str, dim: int):
    """Import qwsearch from ``src`` and run the warm-up eigensolve."""
    import numpy as np

    import qwsearch
    from qwsearch.evolve import eig_hermitian

    if Path(src).resolve() not in Path(qwsearch.__file__).resolve().parents:
        raise SystemExit(f"qwsearch was imported from {qwsearch.__file__}, not {src}")
    a = np.random.default_rng(0).standard_normal((dim, dim))
    eig_hermitian(a + a.T)
    return qwsearch


def _invoke(cli, argv: list[str]) -> tuple[int | None, str]:
    """One closed-loop call of ``cli.main``; stdout is captured, stderr kept."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception:  # a crash is a failed operation, not a failed benchmark
        traceback.print_exc()
        code = None
    if err.getvalue():
        sys.stderr.write(err.getvalue())
    return code, out.getvalue()


def _cycle(cli, ops, tracer=None, reference=None):
    """Run every operation once; sample ``reference`` between operations.

    Returns (wall seconds, [(exit, stdout)], [seconds per operation]).
    """
    results, seconds = [], []
    clock = time.perf_counter
    start = clock()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        if reference is not None:
            reference.maybe_sample()
        t0 = clock()
        results.append(_invoke(cli, op["argv"]))
        seconds.append(clock() - t0)
    return clock() - start, results, seconds


class _Outputs:
    """The first cycle's outputs, and which operations of each later cycle differed.

    Later outputs are compared as they arrive and then dropped, so the
    worker's peak memory does not grow with the number of cycles.
    """

    def __init__(self) -> None:
        self.first: list[tuple[int | None, str]] | None = None
        self.later: list[set[int]] = []

    def add(self, results) -> None:
        if self.first is None:
            self.first = results
        else:
            self.later.append({i for i, (a, b) in enumerate(zip(results, self.first)) if a != b})

    @property
    def cycles(self) -> int:
        return 1 + len(self.later)


def _grade(ops, outputs: _Outputs, cli) -> tuple[int, list[str]]:
    """Failed operations over every timed cycle, and why (outside timing).

    The first cycle's outputs go through the oracles; later cycles must
    repeat them byte for byte, as the CLI promises for identical inputs.
    """
    import workloads

    reasons, bad = [], set()
    for index, (op, (code, text)) in enumerate(zip(ops, outputs.first)):
        if code != op["exit"]:
            miss = f"exit {code}, expected {op['exit']}"
        else:
            miss = workloads.check(op, text, lambda argv: _invoke(cli, argv))
        if miss is not None:
            bad.add(index)
            reasons.append(f"op {index} ({op['argv'][0]}): {miss}")
    for diverged in outputs.later:
        reasons.extend(f"op {i}: output differs between cycles" for i in sorted(diverged))
    return len(bad) + sum(len(bad | diverged) for diverged in outputs.later), reasons


def _measure(cli, ops, seconds: float, outputs: _Outputs) -> dict:
    """Whole cycles while the next one is expected to end within ``seconds``.

    ``wall_items_per_s`` is items over the sum of each operation's median
    time. ``slowdown`` is the reference kernel's median time in this run
    over ``REF_NOMINAL_S``; ``items_per_s`` is the rate at nominal speed,
    ``wall_items_per_s`` times ``slowdown``.
    """
    walls, op_s = [], [[] for _ in ops]
    reference = Reference()
    start = time.perf_counter()
    while True:
        wall, results, times = _cycle(cli, ops, reference=reference)
        walls.append(wall)
        outputs.add(results)
        for samples, t in zip(op_s, times):
            samples.append(t)
        if time.perf_counter() - start + wall > seconds:
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # each operation's median over cycles, so a stall in one call of one
    # cycle does not move the figure
    op_median_s = [statistics.median(samples) for samples in op_s]
    reference.maybe_sample()
    wall_rate = sum(op["items"] for op in ops) / sum(op_median_s)
    slowdown = statistics.median(reference.samples) / REF_NOMINAL_S
    return {
        "cycle_s": walls,
        "op_s": op_s,
        "reference_s": reference.samples,
        "slowdown": slowdown,
        "wall_items_per_s": wall_rate,
        "items_per_s": wall_rate * slowdown,
        "peak_rss_mib": peak_kib / 1024.0,
    }


def _measure_traced(cli, ops, seconds: float, outputs: _Outputs, spans_path: Path) -> dict:
    """Pairs of an untraced and a traced cycle, stopping as ``_measure`` does."""
    import tracer as tracing

    tracer = tracing.Tracer()
    plain, traced, summaries = [], [], []
    counts = bytes_out = None
    start = time.perf_counter()
    while True:
        wall, results, _ = _cycle(cli, ops)
        plain.append(wall)
        outputs.add(results)
        tracer.reset()
        tracer.install()
        try:
            wall, results, _ = _cycle(cli, ops, tracer)
        finally:
            tracer.uninstall()
        traced.append(wall)
        outputs.add(results)
        summary = tracing.summarize(tracer.spans, wall)
        exact = {k: v for k, v in summary.items() if not isinstance(v, float)}
        if counts is None:
            tracer.write_jsonl(spans_path)
            counts = exact
            bytes_out = sum(len(text.encode()) for _, text in results)
        elif exact != counts:
            raise RuntimeError("per-layer counts changed between traced cycles")
        summaries.append(summary)
        if time.perf_counter() - start + plain[-1] + wall > seconds:
            break
    layers = {
        key: statistics.median(s.get(key, 0.0) for s in summaries) for key in summaries[0]
    }
    layers.update(counts)
    layers["cli.bytes_out"] = bytes_out
    layers["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain) - 1
    return {"cycle_s": plain, "traced_cycle_s": traced, "layers": layers}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=["setup", "worker"])
    parser.add_argument("--src", required=True)
    parser.add_argument("--dim", type=int, required=True)
    parser.add_argument("--ops")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    qwsearch = _set_up(args.src, args.dim)
    print("ready", flush=True)
    if args.role == "setup":
        return 0

    import qwsearch.cli as cli

    ops = json.loads(Path(args.ops).read_text())["ops"]
    outputs = _Outputs()
    if args.trace:
        result = _measure_traced(cli, ops, args.seconds, outputs, Path(args.spans))
    else:
        result = _measure(cli, ops, args.seconds, outputs)
    failed, reasons = _grade(ops, outputs, cli)
    result.update(
        attempted=len(ops) * outputs.cycles,
        failed=failed,
        failures=reasons[:20],
        qwsearch=str(Path(qwsearch.__file__).parent),
        **blas_info(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
