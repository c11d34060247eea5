"""Outside-in tracer: spans around the public functions of qwsearch's layers.

The program is not changed. ``Tracer.install`` replaces every function named
in a layer module's ``__all__`` with a wrapper that records a span, and it
rebinds every module-level alias of that function inside the package
(``from .evolve import eig_hermitian`` in ``bipartite`` and ``cli`` makes
such aliases), so calls through an alias are traced too. ``uninstall`` puts
the original functions back.

A span is ``[name, start, end, parent, op, counts]``: the parent is the
index of the enclosing span (-1 for a root) and ``op`` is the operation id
the harness set before the call. ``counts`` holds the computed work counts
of that call, taken from its arguments and result after the span closed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

PACKAGE = "qwsearch"
LAYERS = ("graph", "evolve", "bipartite", "spin_network", "cli")


def _graph_build(graph) -> dict:
    # hash(frozenset) is cached on the set, so the key costs one pass per build
    return {"edges": graph.m, "graph_key": hash((graph.n, graph.edges))}


def _dim_cubed(args, kwargs, result) -> dict:
    h = args[0] if args else kwargs["h"]
    return {"dim3": int(h.shape[0]) ** 3}


# Computed counts, keyed by the traced function: each maps (args, kwargs,
# result) to a dict of integers. They depend only on the inputs, so they
# repeat exactly from run to run.
COUNTERS = {
    "graph.complete_bipartite": lambda a, k, r: _graph_build(r[0]),
    "graph.read_edge_list": lambda a, k, r: _graph_build(r),
    "evolve.eig_hermitian": _dim_cubed,
    "evolve.propagate": lambda a, k, r: {"amplitudes": int(r.size)},
    "spin_network.heisenberg_hamiltonian": lambda a, k, r: {"cells": int(r.size)},
    "spin_network.project_single_excitation": lambda a, k, r: {"kept": int(r.size)},
}


def layer_functions() -> dict[str, object]:
    """``{"layer.fn": function}`` for every function in each layer's ``__all__``."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name, None)
            if inspect.isfunction(obj):
                found[f"{layer}.{name}"] = obj
    return found


class Tracer:
    """Records spans in memory while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._rebound:
            raise RuntimeError("tracer already installed")
        wrappers = {
            id(fn): (fn, self._wrap(name, fn))
            for name, fn in layer_functions().items()
        }
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                pair = wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, attr, pair[1])
                    self._rebound.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def write_jsonl(self, path: Path) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w") as fh:
            for index, (name, start, end, parent, op, counts) in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "op": op,
                }
                if counts:
                    record["counts"] = counts
                fh.write(json.dumps(record) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span: its duration minus its children's durations."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans: list[list], wall_s: float) -> dict[str, float]:
    """Per-function and per-layer figures of one traced pass over the ops.

    Keys: ``<layer>.<fn>.calls``, ``<layer>.<fn>.self_s``,
    ``<layer>.self_s``, ``<layer>.share`` (layer self time over ``wall_s``),
    the computed counts, and ``trace.coverage``.
    """
    out: dict[str, float] = {}
    selfs = self_times(spans)
    edges = dim3 = amplitudes = cells = kept = builds = 0
    graph_keys: set[int] = set()
    for span, own in zip(spans, selfs):
        name, counts = span[0], span[5]
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + own
        layer = name.split(".", 1)[0]
        out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + own
        if counts:
            if "edges" in counts:
                builds += 1
                edges += counts["edges"]
                graph_keys.add(counts["graph_key"])
            dim3 += counts.get("dim3", 0)
            amplitudes += counts.get("amplitudes", 0)
            cells += counts.get("cells", 0)
            kept += counts.get("kept", 0)
    covered = 0.0
    for layer in LAYERS:
        layer_self = out.setdefault(f"{layer}.self_s", 0.0)
        out[f"{layer}.share"] = layer_self / wall_s
        covered += layer_self
    out["trace.coverage"] = covered / wall_s
    out["graph.edges_built"] = edges
    # waste ratios read 1 when the layer built nothing, i.e. wasted nothing
    out["graph.build_reuse_ratio"] = len(graph_keys) / builds if builds else 1.0
    out["evolve.eig_hermitian.dim3_sum"] = dim3
    out["evolve.propagate.amplitudes"] = amplitudes
    out["spin_network.hilbert_cells"] = cells
    out["spin_network.sector_ratio"] = kept / cells if cells else 1.0
    return out
