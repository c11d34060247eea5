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
    "EquitablePartition",
    "equitable_partition",
]


# edges are sorted by the int64 key u * n + v, which must not overflow
_MAX_VERTICES = 2**31


class _EdgeArray(np.ndarray):
    """Read-only edge array that hashes by content, so a ``Graph`` can be a key."""

    def __hash__(self) -> int:
        return hash(self.tobytes())


def _canonical_edges(edges, n: int) -> _EdgeArray:
    """Validate vertex pairs and return them sorted, deduplicated, ``u < v``.

    Input that is already canonical (every ``u < v``, rows strictly
    increasing) is checked and copied once; anything else is sorted by the
    key ``u * n + v``.
    """
    pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
    if pairs.size == 0:
        pairs = np.empty((0, 2), dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("edges must be vertex pairs")
    if not np.issubdtype(pairs.dtype, np.integer):
        raise ValueError("edge endpoints must be integers")
    u, v = pairs.astype(np.int64, copy=False).T
    ordered = bool(np.all(u < v))
    lo, hi = (u, v) if ordered else (np.minimum(u, v), np.maximum(u, v))
    loops = u == v
    bad = loops | (lo < 0) | (hi >= n)
    if bad.any():
        first = int(np.argmax(bad))
        if loops[first]:
            raise ValueError(f"self-loop at vertex {u[first]}")
        edge = (int(u[first]), int(v[first]))
        raise ValueError(f"edge {edge!r} out of range for n={n}")
    # rows strictly increasing in (u, v): sorted, and no pair twice
    if ordered and np.all((u[1:] > u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] > v[:-1]))):
        out = np.array(pairs, dtype=np.int64).view(_EdgeArray)
    else:
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
    # filled in canonical order, so the graph checks it instead of sorting it
    edges = np.empty((spec.n1, spec.n2, 2), dtype=np.int64)
    edges[:, :, 0] = np.arange(spec.n1)[:, None]
    edges[:, :, 1] = np.arange(spec.n1, spec.n)
    graph = Graph(spec.n, edges.reshape(-1, 2))
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
    rows = _plain_rows(path, text)
    if rows is not None:
        return Graph(int(rows[0, 0]), rows[1:])
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
    return Graph(n, _parse_edges(path, lines[1:], n))


_INT64 = np.iinfo(np.int64)
# Files of only these bytes split into lines at "\n" alone, as str.splitlines
# splits them, so NumPy's reader sees the lines read_edge_list sees.
_PLAIN_BYTES = b"0123456789 \t\n"
# Below this many characters, NumPy's opening of a path costs more than the
# line list it saves (about 2,000 edges).
_BULK_CHARS = 1 << 14


def _plain_rows(path: str | Path, text: str) -> np.ndarray | None:
    """Header and edge rows of the edge list ``text`` read from ``path``, or ``None``.

    A long file of plain bytes is read again by NumPy in chunks, which skips
    blank lines. Its rows are taken only when every line holds two integers
    and their count matches the header's ``m``. Anything else returns
    ``None``, and the line-by-line reader gives its own result or message.
    """
    if len(text) < _BULK_CHARS or text.encode().translate(None, _PLAIN_BYTES):
        return None
    if text.isspace():  # NumPy would warn that the file holds no data
        return None
    try:
        rows = np.loadtxt(path, dtype=np.int64, comments=None, ndmin=2)
    except ValueError:
        return None
    if rows.shape[1] != 2 or rows.shape[0] - 1 != rows[0, 1]:
        return None
    return rows


def _parse_edges(path: str | Path, body: list[str], n: int):
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
            edge = (int(parts[0]), int(parts[1]))
        except ValueError as exc:
            raise ValueError(f"{path}: non-integer edge {line!r}") from exc
        if not _INT64.min <= min(edge) <= max(edge) <= _INT64.max:
            # past int64, so past every vertex count, and no edge array holds it
            raise ValueError(f"{path}: edge {edge!r} out of range for n={n}")
        edges.append(edge)
    return edges


@dataclass(frozen=True, eq=False)
class EquitablePartition:
    """A partition of a graph's vertices in which neighbour counts are per cell.

    ``cells[v]`` is the cell of vertex ``v``, cells numbered in the order of
    their smallest vertex (``None`` for a partition written down in closed
    form, which holds no per-vertex array); ``sizes[i]`` is the vertex
    count of cell ``i``; ``arcs[i, j]`` counts the edges between cells ``i``
    and ``j``, from each end (so ``arcs`` is symmetric and an edge inside a
    cell counts twice).
    Equitable means that every vertex of cell ``i`` has exactly
    ``arcs[i, j] / sizes[i]`` neighbours in cell ``j``.
    """

    cells: np.ndarray | None
    sizes: np.ndarray
    arcs: np.ndarray


def _mix(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser: spreads small integers over all 64 bits."""
    x = x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _first_vertex_order(labels: np.ndarray) -> np.ndarray:
    """Relabel ``labels`` (any integers) 0, 1, ... in order of first occurrence."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.intp)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse]


def equitable_partition(g: Graph, colours) -> EquitablePartition:
    """Coarsest equitable partition of ``g`` in which ``colours`` is constant on cells.

    ``colours`` holds one key per vertex, shape ``(n,)`` or ``(n, k)`` (rows
    compared exactly). Colour refinement starts from the classes of equal
    keys and splits each cell by the multiset of its vertices' neighbour
    cells until no cell splits; a round that splits nothing ends it, so
    there are at most ``n`` rounds (about ``n / 2`` on a path marked at one
    end). Each round is one pass over the ``m`` edges as stored, with no
    arc array and no sort longer than ``n``: the smaller ends are sorted,
    so their sums are one ``reduceat`` over their runs, and the larger ends
    add theirs in place. Each round splits cells exactly by cell id, and
    compares the multisets by the top bits (at least 32) of a 64-bit sum
    of mixed cell ids; the sums wrap, so they do not depend on the order
    of the edges. Equal multisets always agree there, so vertices that
    share a cell of the answer are never split; the exact check of the
    result certifies that no two of its cells were merged by a hash
    collision (it raises ``ValueError`` if one ever were). A graph without
    symmetry gets the discrete partition, cell ``i`` = vertex ``i``.
    """
    keys = np.asarray(colours)
    if keys.shape[:1] != (g.n,) or keys.ndim > 2:
        raise ValueError("colours must hold one key (or one key row) per vertex")
    _, cells = np.unique(keys.reshape(g.n, -1), axis=0, return_inverse=True)
    cells = cells.reshape(g.n)
    count = int(cells.max()) + 1
    u, v = np.asarray(g.edges).T
    bounds = np.searchsorted(u, np.arange(g.n + 1))  # u == w on bounds[w] .. bounds[w+1]-1
    heads = np.flatnonzero(np.diff(bounds))
    starts = bounds[heads]
    mixed = _mix(np.arange(g.n))  # cell ids stay below n
    while u.size:
        mixed_cell = mixed[cells]
        signature = np.zeros(g.n, dtype=np.uint64)
        signature[heads] = np.add.reduceat(mixed_cell[v], starts)
        np.add.at(signature, v, mixed_cell[u])
        # the cell id in the high bits, the signature's top bits below it:
        # vertices of different cells never share a key
        bits = np.uint64(count.bit_length())
        packed = (cells.astype(np.uint64) << (np.uint64(64) - bits)) | (signature >> bits)
        order = np.argsort(packed)
        by_key = packed[order]
        split = by_key[1:] != by_key[:-1]
        fresh = np.empty(g.n, dtype=np.intp)
        fresh[order[0]] = 0
        fresh[order[1:]] = np.cumsum(split)
        if int(fresh[order[-1]]) + 1 == count:
            break
        cells, count = fresh, int(fresh[order[-1]]) + 1
    return _checked_partition(g, _first_vertex_order(cells))


def _checked_partition(g: Graph, cells: np.ndarray) -> EquitablePartition:
    """The partition of ``g`` into ``cells``; ``ValueError`` unless it is equitable.

    Exact integer check: each vertex's count of neighbours in each cell,
    times its cell's size, must equal the arc count between the two cells,
    which is the sum of those counts over the vertex's cell. When the
    ``n x c`` table of the counts is no larger than the ``2m`` arcs, the
    whole table is counted and compared, zeros included. Past that, only
    the (vertex, neighbour cell) pairs that occur are counted, by one sort
    of ``2m`` keys; the counts of a cell's vertices then sum to the arc
    count only if every vertex of the cell touches the other cell, so no
    vertex can miss a cell its cell touches. Either way the check holds
    one ``c x c`` array and no array over the ``2m`` arcs but those keys.
    """
    cells = np.asarray(cells, dtype=np.intp)
    count = int(cells.max()) + 1
    sizes = np.bincount(cells, minlength=count)
    u, v = np.asarray(g.edges).T
    arcs = np.zeros((count, count), dtype=np.int64)
    if g.n * count <= 2 * g.m:
        per = np.bincount(u * count + cells[v], minlength=g.n * count)
        per += np.bincount(v * count + cells[u], minlength=g.n * count)
        per = per.reshape(g.n, count)
        np.add.at(arcs, cells, per)
        per *= sizes[cells, None]
        equitable = np.array_equal(per, arcs[cells])
    else:
        # (vertex, neighbour cell) pairs and how many arcs each carries
        keys = np.concatenate([u * count + cells[v], v * count + cells[u]])
        pairs, per_pair = np.unique(keys, return_counts=True)
        vertex, target = np.divmod(pairs, count)
        own = cells[vertex]
        np.add.at(arcs, (own, target), per_pair)
        equitable = np.array_equal(per_pair * sizes[own], arcs[own, target])
    if not equitable:
        raise ValueError("vertex partition is not equitable")
    return EquitablePartition(cells, sizes, arcs)
