"""Simple undirected graphs and the matrices that generate walks on them."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Graph",
    "BipartiteSpec",
    "complete_bipartite",
    "adjacency_matrix",
    "degree_matrix",
    "laplacian",
    "signless_laplacian",
    "read_edge_list",
]


# edges are sorted by the int64 key u * n + v, which must not overflow
_MAX_VERTICES = 2**31


class _EdgeArray(np.ndarray):
    """Read-only edge array that hashes by content, so a ``Graph`` can be a key."""

    def __hash__(self) -> int:
        return hash(self.tobytes())


def _canonical_edges(edges, n: int) -> _EdgeArray:
    """Validate vertex pairs and return them sorted, deduplicated, ``u < v``."""
    pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
    if pairs.size == 0:
        pairs = np.empty((0, 2), dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("edges must be vertex pairs")
    if not np.issubdtype(pairs.dtype, np.integer):
        raise ValueError("edge endpoints must be integers")
    u, v = pairs.astype(np.int64, copy=False).T
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    loops = u == v
    bad = loops | (lo < 0) | (hi >= n)
    if bad.any():
        first = int(np.argmax(bad))
        if loops[first]:
            raise ValueError(f"self-loop at vertex {u[first]}")
        edge = (int(u[first]), int(v[first]))
        raise ValueError(f"edge {edge!r} out of range for n={n}")
    keys = np.sort(lo * n + hi)
    keys = keys[np.diff(keys, prepend=-1) > 0]  # keys are >= 0: keeps the first
    out = np.stack([keys // n, keys % n], axis=1).view(_EdgeArray)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph on vertices ``0 .. n-1``.

    ``edges`` accepts any collection of vertex pairs and is stored as a
    read-only ``(m, 2)`` int64 array: each row ``(u, v)`` has ``u < v``,
    rows are sorted lexicographically and duplicates (``(0, 1)`` and
    ``(1, 0)`` alike) are kept once. Self-loops and out-of-range endpoints
    are rejected. Graphs compare and hash by ``n`` and the edge array.
    """

    n: int
    edges: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("vertex count must be positive")
        if self.n > _MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} exceeds {_MAX_VERTICES}")
        object.__setattr__(self, "edges", _canonical_edges(self.edges, self.n))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edges, other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)


@dataclass(frozen=True)
class BipartiteSpec:
    """Complete bipartite search layout: side sizes and marked counts.

    ``n1`` and ``n2`` are the partite-set sizes, ``k1`` and ``k2`` how many
    vertices of each set are marked. At least one vertex must be marked.
    """

    n1: int
    n2: int
    k1: int
    k2: int

    def __post_init__(self) -> None:
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("partite sets must be nonempty")
        if not (0 <= self.k1 <= self.n1 and 0 <= self.k2 <= self.n2):
            raise ValueError("marked counts must satisfy 0 <= k_i <= n_i")
        if self.k1 + self.k2 < 1:
            raise ValueError("at least one vertex must be marked")

    @property
    def n(self) -> int:
        """Total vertex count."""
        return self.n1 + self.n2

    @property
    def unmarked1(self) -> int:
        return self.n1 - self.k1

    @property
    def unmarked2(self) -> int:
        return self.n2 - self.k2

    def swapped(self) -> BipartiteSpec:
        """The same layout with the roles of the partite sets exchanged."""
        return BipartiteSpec(self.n2, self.n1, self.k2, self.k1)


def complete_bipartite(spec: BipartiteSpec) -> tuple[Graph, frozenset[int]]:
    """Build the complete bipartite graph for ``spec``.

    Vertices ``0 .. n1-1`` form the left set and ``n1 .. n1+n2-1`` the right
    set; every left-right pair is an edge. The marked set is the first ``k1``
    left vertices plus the first ``k2`` right vertices (a fixed layout: by
    symmetry the search dynamics do not depend on which vertices are marked).
    """
    left = np.repeat(np.arange(spec.n1), spec.n2)
    right = np.tile(np.arange(spec.n1, spec.n), spec.n1)
    graph = Graph(spec.n, np.stack([left, right], axis=1))
    marked = frozenset(range(spec.k1)) | frozenset(
        range(spec.n1, spec.n1 + spec.k2)
    )
    return graph, marked


def _degrees(g: Graph) -> np.ndarray:
    return np.bincount(g.edges.ravel(), minlength=g.n).astype(float)


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Dense adjacency matrix: ``A[i, j] = 1`` iff ``{i, j}`` is an edge."""
    a = np.zeros((g.n, g.n), dtype=float)
    u, v = np.asarray(g.edges).T
    a[u, v] = 1.0
    a[v, u] = 1.0
    return a


def degree_matrix(g: Graph) -> np.ndarray:
    """Diagonal matrix of vertex degrees."""
    return np.diag(_degrees(g))


def laplacian(g: Graph) -> np.ndarray:
    """Discrete Laplacian ``A - D`` (row sums are exactly zero)."""
    out = adjacency_matrix(g)
    out[np.diag_indices(g.n)] -= _degrees(g)
    return out


def signless_laplacian(g: Graph) -> np.ndarray:
    """Signless Laplacian ``A + D`` (entrywise nonnegative)."""
    out = adjacency_matrix(g)
    out[np.diag_indices(g.n)] += _degrees(g)
    return out


def read_edge_list(path: str | Path) -> Graph:
    """Read a graph from a plain-text edge list.

    Format: a header line ``n m`` followed by ``m`` lines ``i j`` with
    0-based endpoints. Blank lines and trailing whitespace are ignored.
    """
    text = Path(path).read_text()
    lines = [line for line in map(str.strip, text.splitlines()) if line]
    if not lines:
        raise ValueError(f"{path}: empty edge-list file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"{path}: header must be 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ValueError(f"{path}: non-integer header") from exc
    if len(lines) - 1 != m:
        raise ValueError(
            f"{path}: header declares {m} edges but file has {len(lines) - 1}"
        )
    return Graph(n, _parse_edges(path, lines[1:]))


def _parse_edges(path: str | Path, body: list[str]):
    """Endpoint pairs of the edge lines; a bad line raises naming the line."""
    if body:
        try:
            pairs = np.loadtxt(body, dtype=np.int64, comments=None, ndmin=2)
        except ValueError:
            pairs = None
        if pairs is not None and pairs.shape[1] == 2:
            return pairs
    # NumPy's parser refused a line or found the wrong width. This pass
    # names the bad line, and accepts whatever int() accepts, which is more
    # than NumPy's parser does (for example "1_0").
    edges = []
    for line in body:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}: malformed edge line {line!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ValueError(f"{path}: non-integer edge {line!r}") from exc
    return edges
