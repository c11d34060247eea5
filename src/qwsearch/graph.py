"""Simple undirected graphs as edge arrays, and their equitable partitions.

A graph is a sorted ``(m, 2)`` array of its edges, stored column by
column. Walks on it are generated on the cells of an equitable partition
(:meth:`~qwsearch.evolve.SearchQuotient.hamiltonian`), never as a matrix
over all vertex pairs.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Graph",
    "BipartiteSpec",
    "complete_bipartite",
    "read_edge_list",
    "EquitablePartition",
    "equitable_partition",
]


# edges are sorted by the key u * n + v, which must not overflow int64; while
# n * n fits int32 the keys are int32, which sort in about half the time
_MAX_VERTICES = 2**31
_INT64 = np.iinfo(np.int64)
_INT32_MAX = np.iinfo(np.int32).max


class _EdgeArray(np.ndarray):
    """Read-only edge array that hashes by content, so a ``Graph`` can be a key."""

    def __hash__(self) -> int:
        return hash(self.tobytes())


def _canonical_edges(edges, n: int) -> _EdgeArray:
    """Validate vertex pairs and return them sorted, deduplicated, ``u < v``.

    The pairs are copied once into the two columns of the result, each
    one contiguous block, and every check reads those columns. ``u < v``
    is tested once; when every row passes, two reductions (``u.min() >=
    0`` and ``v.max() < n``) validate the range, and only input that fails
    them is searched for its first bad row, to name it. Input that is
    already canonical (every ``u < v``, rows strictly increasing) is kept
    as copied. Anything else is sorted as one array of the keys ``u * n +
    v`` (smaller end first), int32 whenever ``n * n`` fits it, a key equal
    to the one before it is dropped, and the keys are written back into
    the columns as ``u = key // n`` and ``v = key - u * n``.
    """
    listed = edges if isinstance(edges, np.ndarray) else list(edges)
    pairs = np.asarray(listed)
    if pairs.size == 0:
        pairs = np.empty((0, 2), dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("edges must be vertex pairs")
    if pairs.dtype.kind not in "iu" or (pairs.dtype.kind == "u" and pairs.max() > _INT64.max):
        _refuse_past_int64(listed.tolist() if isinstance(listed, np.ndarray) else listed, n)
        raise ValueError("edge endpoints must be integers")
    columns = np.empty((2, len(pairs)), dtype=np.int64)
    columns.T[...] = pairs
    u, v = columns
    ordered = bool(np.all(u < v))
    # with every u < v, u >= 0 and v < n hold each endpoint in range
    if not (ordered and (u.size == 0 or (u.min() >= 0 and v.max() < n))):
        _refuse_bad_endpoints(u, v, n)
    if not (ordered and _rows_increase(u, v)):
        # min(u, v) * n + max(u, v), with max = u + v - min: no temporary
        keys = np.minimum(u, v, dtype=np.int32 if n * n <= _INT32_MAX else np.int64)
        keys *= n - 1
        keys += u
        keys += v
        keys.sort()
        fresh = np.empty(keys.size, dtype=bool)
        fresh[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
        if not fresh.all():
            keys = keys[fresh]
            del u, v, columns  # freed before the shorter columns are allocated
            columns = np.empty((2, keys.size), dtype=np.int64)
        np.floor_divide(keys, n, out=columns[0])
        np.multiply(columns[0], n, out=columns[1])
        np.subtract(keys, columns[1], out=columns[1])
    out = columns.T.view(_EdgeArray)
    out.flags.writeable = False
    return out


def _rows_increase(u: np.ndarray, v: np.ndarray) -> bool:
    """Whether the rows ``(u, v)`` strictly increase in lexicographic order."""
    if not np.all(u[1:] >= u[:-1]):
        return False
    # u never falls, so a row rises where u rises or else v does
    rising = u[1:] > u[:-1]
    rising |= v[1:] > v[:-1]
    return bool(rising.all())


def _refuse_bad_endpoints(u: np.ndarray, v: np.ndarray, n: int) -> None:
    """Name the first self-loop or out-of-range edge of the columns ``u`` and ``v``."""
    bad = u == v
    # a negative endpoint reads as a uint64 past every vertex count
    bad |= u.view(np.uint64) >= n
    bad |= v.view(np.uint64) >= n
    if bad.any():
        first = int(np.argmax(bad))
        if u[first] == v[first]:
            raise ValueError(f"self-loop at vertex {u[first]}")
        edge = (int(u[first]), int(v[first]))
        raise ValueError(f"edge {edge!r} out of range for n={n}")


def _refuse_past_int64(rows, n: int) -> None:
    """Name the first edge with an integer endpoint past int64, if all endpoints are integers.

    NumPy holds such endpoints as uint64, float64 or objects. They are past
    every vertex count, so the edge is refused by name; this is also the
    refusal of such an edge in :func:`read_edge_list`.
    """
    edges = [tuple(row) for row in rows]
    if all(isinstance(x, (int, np.integer)) and not isinstance(x, bool)
           for edge in edges for x in edge):
        for edge in edges:
            edge = (int(edge[0]), int(edge[1]))
            if not _INT64.min <= min(edge) <= max(edge) <= _INT64.max:
                raise ValueError(f"edge {edge!r} out of range for n={n}")


def _store_counts(owner: object, *names: str) -> None:
    """Store each named count of the frozen ``owner`` as a Python int.

    A NumPy integer becomes a Python one, whose products cannot wrap; a
    float or any other non-integer is refused by the field's name.
    """
    for name in names:
        value = getattr(owner, name)
        if type(value) is int:  # most counts: no call, so a layout stays cheap to build
            continue
        try:
            object.__setattr__(owner, name, operator.index(value))
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph on vertices ``0 .. n-1``.

    ``edges`` accepts any collection of vertex pairs and is stored as a
    read-only ``(m, 2)`` int64 array: each row ``(u, v)`` has ``u < v``,
    rows are sorted lexicographically and duplicates (``(0, 1)`` and
    ``(1, 0)`` alike) are kept once. The array is column-major: ``edges.T``
    is a C-contiguous ``(2, m)`` array, so each column is one block.
    Self-loops and out-of-range endpoints are rejected. Graphs compare and
    hash by ``n`` and the edge array's values, whatever the input's layout.
    """

    n: int
    edges: np.ndarray

    def __post_init__(self) -> None:
        _store_counts(self, "n")
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
    The closed forms read ``n1 n2`` as a float, so it must not pass the
    largest one.
    """

    n1: int
    n2: int
    k1: int
    k2: int

    def __post_init__(self) -> None:
        _store_counts(self, "n1", "n2", "k1", "k2")
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("partite sets must be nonempty")
        if self.n1 * self.n2 > sys.float_info.max:
            raise ValueError("partite sets too large: n1 * n2 passes the largest float")
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
    # the two columns, filled in canonical order, so the graph checks them
    # instead of sorting them
    columns = np.empty((2, spec.n1, spec.n2), dtype=np.int64)
    columns[0] = np.arange(spec.n1)[:, None]
    columns[1] = np.arange(spec.n1, spec.n)
    graph = Graph(spec.n, columns.reshape(2, -1).T)
    marked = frozenset(range(spec.k1)) | frozenset(
        range(spec.n1, spec.n1 + spec.k2)
    )
    return graph, marked


def read_edge_list(path: str | Path) -> Graph:
    """Read a graph from a plain-text edge list.

    Format: a header line ``n m`` followed by ``m`` lines ``i j`` with
    0-based endpoints. Blank lines and trailing whitespace are ignored.
    NumPy parses a plain file in one pass; any other file, or one NumPy
    refuses, is read line by line, and a refusal names its line. Every
    ``ValueError`` begins with ``path``, also the :class:`Graph`'s own
    (a vertex count, a self-loop or an endpoint out of range).
    """
    try:
        rows = _plain_rows(path)
        if rows is not None:
            return Graph(int(rows[0, 0]), rows[1:])
        with open(path) as f:
            text = f.read()
        lines = [line for line in map(str.strip, text.splitlines()) if line]
        if not lines:
            raise ValueError("empty edge-list file")
        header = lines[0].split()
        if len(header) != 2:
            raise ValueError("header must be 'n m'")
        try:
            n, m = int(header[0]), int(header[1])
        except ValueError as exc:
            raise ValueError("non-integer header") from exc
        if len(lines) - 1 != m:
            raise ValueError(f"header declares {m} edges but file has {len(lines) - 1}")
        return Graph(n, _parse_edges(lines[1:]))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


# Files of only these bytes split into the lines that str.splitlines gives,
# so NumPy's reader sees the lines read_edge_list sees: it reads text with
# universal newlines, where "\r\n" and "\r" end a line as "\n" does.
_PLAIN_BYTES = b"0123456789 \t\r\n"
# From this many bytes NumPy reads the file from its path, in chunks; below
# it, NumPy reads the list of its lines, which is faster there. The two
# cross at about 900 lines: 6-9 KiB by line length (NumPy 2.4, Xeon).
_BULK_CHARS = 1 << 13


def _plain_rows(path: str | Path) -> np.ndarray | None:
    """Header and edge rows of the edge list at ``path``, or ``None``.

    A file of plain bytes that is not blank is parsed by NumPy in one call,
    which skips blank lines: from ``path`` when it holds at least
    ``_BULK_CHARS`` bytes (its bytes are dropped first), else from its
    lines. Its rows are taken only when every line holds two integers and
    their count matches the header's ``m``. Anything else returns ``None``,
    and the line-by-line reader gives its own result or message.
    """
    # open, not a Path, which interns its parts: a long run of reads grew by 1 MiB
    with open(path, "rb") as f:
        data = f.read()
    # a blank file would make NumPy warn that it holds no data
    if not data or data.isspace() or data.translate(None, _PLAIN_BYTES):
        return None
    source = path if len(data) >= _BULK_CHARS else data.decode().splitlines()
    del data
    try:
        rows = np.loadtxt(source, dtype=np.int64, comments=None, ndmin=2)
    except ValueError:
        return None
    if rows.shape[1] != 2 or rows.shape[0] - 1 != rows[0, 1]:
        return None
    return rows


def _parse_edges(body: list[str]) -> list[tuple[int, int]]:
    """Endpoint pairs of the stripped edge lines; a bad line raises naming the line.

    It takes whatever ``int()`` accepts, which is more than NumPy's parser
    does (for example ``1_0``). The pairs' range is :class:`Graph`'s to check.
    """
    edges = []
    for line in body:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line {line!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ValueError(f"non-integer edge {line!r}") from exc
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


def _first_vertex_rank(cells: np.ndarray, count: int) -> np.ndarray:
    """``rank[i]``: the number of cell ``i`` (ids ``0 .. count-1``) in order of its first vertex."""
    _, first = np.unique(cells, return_index=True)
    rank = np.empty(count, dtype=np.intp)
    rank[np.argsort(first)] = np.arange(count)
    return rank


def _neighbour_table(u: np.ndarray, v: np.ndarray, cells: np.ndarray, count: int) -> np.ndarray:
    """``table[w, j]``: how many neighbours vertex ``w`` has in cell ``j``, an ``n x count`` array.

    Two ``bincount`` passes over the edge columns, one per end of each edge.
    """
    n = cells.size
    keys = np.multiply(u, count)
    keys += cells[v]
    table = np.bincount(keys, minlength=n * count)
    np.multiply(v, count, out=keys)
    keys += cells[u]
    table += np.bincount(keys, minlength=n * count)
    return table.reshape(n, count)


def _hashed_signature(u: np.ndarray, v: np.ndarray, mixed_cell: np.ndarray,
                      heads: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Each vertex's wrapping sum of ``mixed_cell`` over its neighbours, one pass over the edges.

    ``u`` is sorted, so its ends sum their runs in one ``reduceat`` (``heads``
    are the vertices that start a run, ``starts`` the run starts); the ``v``
    ends add theirs in place.
    """
    signature = np.zeros(mixed_cell.size, dtype=np.uint64)
    signature[heads] = np.add.reduceat(mixed_cell[v], starts)
    np.add.at(signature, v, mixed_cell[u])
    return signature


def equitable_partition(g: Graph, colours) -> EquitablePartition:
    """Coarsest equitable partition of ``g`` in which ``colours`` is constant on cells.

    ``colours`` holds one key per vertex, shape ``(n,)`` or ``(n, k)`` (rows
    compared exactly). Colour refinement starts from the classes of equal
    keys and equal degree (the degree is constant on the cells of every
    equitable partition, so the answer is the same as from the keys alone)
    and splits each cell by the multiset of its vertices' neighbour cells
    until no cell splits; a round that splits nothing ends it, and so does
    a round that leaves every vertex in a cell of its own, so there are at
    most ``n`` rounds (about ``n / 2`` on a path marked at one end; one on
    K_{n1,n2} marked by class, whose classes the keys and degrees already
    are). Each round splits cells exactly by cell id, and compares the
    multisets by the top bits (at least 32) of a 64-bit wrapping sum of
    mixed cell ids, which does not depend on the order of the edges. Equal
    multisets always agree there, so vertices that share a cell of the
    answer are never split.

    The first round is exact when its ``n x c`` table of neighbour counts
    per cell is no larger than the ``2m`` arcs (the size up to which
    :func:`_checked_partition` counts the same table): it counts the table
    with two ``bincount`` passes and takes each vertex's sum from its row
    as ``sum_j table[w, j] * mix(j)``, the wrapping sum a hashed round
    forms, so it splits exactly what a hashed round would. If it splits
    nothing, the table certifies the answer, and the check reads it instead
    of counting again. Any other round is one hashed pass over the two
    edge columns, with no arc array and no sort longer than ``n``. The
    exact check of the result certifies that no two of its cells were
    merged by a hash collision (it raises ``ValueError`` if one ever
    were). A graph without symmetry gets the discrete partition, in which
    cell ``i`` is vertex ``i``.
    """
    keys = np.asarray(colours)
    if keys.shape[:1] != (g.n,) or keys.ndim > 2:
        raise ValueError("colours must hold one key (or one key row) per vertex")
    # the classes of equal degree and key rows, numbered in lexicographic
    # order: one stable sort by the degree and the columns, then a split
    # wherever a vertex differs from the one before it (== on each key, so
    # 0.0 equals -0.0)
    u, v = np.asarray(g.edges).T
    bounds = np.searchsorted(u, np.arange(g.n + 1))  # u == w on bounds[w] .. bounds[w+1]-1
    # the degree: each vertex's run in the sorted u, and its count in v
    degree = np.diff(bounds) + np.bincount(v, minlength=g.n)
    rows = keys.reshape(g.n, -1)
    order = np.lexsort([*rows.T[::-1], degree])
    ranked, ranked_degree = rows[order], degree[order]
    split = np.any(ranked[1:] != ranked[:-1], axis=1)
    split |= ranked_degree[1:] != ranked_degree[:-1]
    cells = np.empty(g.n, dtype=np.intp)
    cells[order[0]] = 0
    cells[order[1:]] = np.cumsum(split)
    count = int(cells.max()) + 1
    heads = np.flatnonzero(np.diff(bounds))
    starts = bounds[heads]
    mixed = _mix(np.arange(g.n))  # cell ids stay below n
    # the first round's exact table, kept while no round has split
    table = _neighbour_table(u, v, cells, count) if g.n * count <= 2 * g.m else None
    while u.size and count < g.n:  # the discrete partition cannot split
        if table is None:
            signature = _hashed_signature(u, v, mixed[cells], heads, starts)
        else:
            # the same wrapping sum: nonnegative int64 counts read as uint64
            signature = table.view(np.uint64) @ mixed[:count]
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
        cells, count, table = fresh, int(fresh[order[-1]]) + 1, None
    rank = _first_vertex_rank(cells, count)
    if table is not None:
        table = table[:, np.argsort(rank)]  # its columns renumbered with the cells
    return _checked_partition(g, rank[cells], table)


def _checked_partition(g: Graph, cells: np.ndarray,
                       counts: np.ndarray | None = None) -> EquitablePartition:
    """The partition of ``g`` into ``cells``; ``ValueError`` unless it is equitable.

    Exact integer check: each vertex's count of neighbours in each cell,
    times its cell's size, must equal the arc count between the two cells,
    which is the sum of those counts over the vertex's cell. When the
    ``n x c`` table of the counts is no larger than the ``2m`` arcs, the
    whole table is compared, zeros included; ``counts``, if given, is that
    table (as :func:`_neighbour_table` counts it for these ``cells``), and
    is read instead of counted again. Past that size, only the (vertex,
    neighbour cell) pairs that occur are counted, by one sort of ``2m``
    keys; the counts of a cell's vertices then sum to the arc count only if
    every vertex of the cell touches the other cell, so no vertex can miss
    a cell its cell touches. Either way the check holds one ``c x c`` array
    and no array over the ``2m`` arcs but those keys.
    """
    cells = np.asarray(cells, dtype=np.intp)
    count = int(cells.max()) + 1
    sizes = np.bincount(cells, minlength=count)
    u, v = np.asarray(g.edges).T
    arcs = np.zeros((count, count), dtype=np.int64)
    if g.n * count <= 2 * g.m:
        per = _neighbour_table(u, v, cells, count) if counts is None else counts
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
