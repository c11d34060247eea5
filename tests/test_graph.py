import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import bipartite_specs, graphs
from qwsearch import graph as graph_module
from qwsearch.graph import (
    BipartiteSpec,
    Graph,
    adjacency_matrix,
    complete_bipartite,
    degree_matrix,
    equitable_partition,
    laplacian,
    read_edge_list,
    signless_laplacian,
)
from qwsearch.spin_network import demo_graph


def test_graph_canonicalizes_edges():
    g = Graph(4, frozenset({(2, 1), (1, 2), (0, 3)}))
    assert g.edges.dtype == np.int64
    assert np.array_equal(g.edges, [[0, 3], [1, 2]])
    assert g.m == 2


def test_graph_edge_array_is_canonical_and_read_only():
    g = Graph(5, [(3, 1), (0, 4), (1, 3), (2, 0), (4, 0)])
    assert g.edges.shape == (3, 2)
    assert np.array_equal(g.edges, [[0, 2], [0, 4], [1, 3]])
    assert np.all(g.edges[:, 0] < g.edges[:, 1])
    with pytest.raises(ValueError):
        g.edges[0, 0] = 1


def test_graph_equality_and_hash_follow_the_edge_array():
    a = Graph(4, frozenset({(2, 1), (0, 3)}))
    b = Graph(4, np.array([[3, 0], [1, 2], [2, 1]]))
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != Graph(5, [(0, 3), (1, 2)])
    assert a != Graph(4, [(0, 3)])


def test_edgeless_graph():
    for edges in (frozenset(), [], np.empty((0, 2), dtype=np.int64)):
        g = Graph(3, edges)
        assert g.m == 0
        assert g.edges.shape == (0, 2)
        assert g.edges.dtype == np.int64
    assert Graph(3, []) == Graph(3, frozenset())


@pytest.mark.parametrize(
    "edges,message",
    [
        ([(0, 1), (2, 2), (0, 7)], "self-loop at vertex 2"),
        ([(0, 1), (0, 7), (2, 2)], r"edge \(0, 7\) out of range for n=3"),
        ([(-1, 0)], r"edge \(-1, 0\) out of range for n=3"),
        ([(0, 1, 2)], "vertex pairs"),
        ([(0.5, 1.0)], "integers"),
    ],
)
def test_graph_rejection_messages(edges, message):
    with pytest.raises(ValueError, match=message):
        Graph(3, edges)


@pytest.mark.parametrize(
    "n,edges",
    [
        (0, frozenset()),
        (3, frozenset({(1, 1)})),
        (3, frozenset({(0, 3)})),
        (2, frozenset({(-1, 0)})),
        (2**31 + 1, frozenset({(0, 1)})),
    ],
)
def test_graph_rejects_bad_input(n, edges):
    with pytest.raises(ValueError):
        Graph(n, edges)


@pytest.mark.parametrize(
    "n1,n2,k1,k2",
    [(0, 2, 0, 1), (2, 0, 1, 0), (2, 2, 3, 0), (2, 2, 0, -1), (2, 2, 0, 0)],
)
def test_spec_rejects_bad_input(n1, n2, k1, k2):
    with pytest.raises(ValueError):
        BipartiteSpec(n1, n2, k1, k2)


def test_complete_bipartite_layout():
    g, marked = complete_bipartite(BipartiteSpec(9, 5, 4, 2))
    assert g.n == 14
    assert g.m == 45
    assert marked == frozenset({0, 1, 2, 3, 9, 10})


def test_complete_bipartite_single_edge():
    g, marked = complete_bipartite(BipartiteSpec(1, 1, 1, 0))
    assert np.array_equal(g.edges, [[0, 1]])
    assert marked == frozenset({0})


def test_complete_bipartite_row_sums():
    g, _ = complete_bipartite(BipartiteSpec(3, 2, 1, 1))
    assert adjacency_matrix(g).sum(axis=1).tolist() == [2, 2, 2, 3, 3]


@given(bipartite_specs())
def test_complete_bipartite_degrees(spec):
    g, marked = complete_bipartite(spec)
    deg = np.diag(degree_matrix(g))
    assert np.array_equal(deg[: spec.n1], np.full(spec.n1, spec.n2))
    assert np.array_equal(deg[spec.n1 :], np.full(spec.n2, spec.n1))
    assert g.m == spec.n1 * spec.n2
    assert len(marked) == spec.k1 + spec.k2


@given(bipartite_specs(max_side=12), st.randoms(use_true_random=False))
def test_complete_bipartite_edges_are_the_sorted_product(spec, rng):
    g, _ = complete_bipartite(spec)
    product = [(i, j) for i in range(spec.n1) for j in range(spec.n1, spec.n)]
    assert g.edges.tobytes() == np.array(product, dtype=np.int64).tobytes()
    # shuffled, reversed and repeated input still canonicalises to it
    scrambled = product + [(j, i) for i, j in product[:5]]
    rng.shuffle(scrambled)
    assert Graph(spec.n, scrambled).edges.tobytes() == g.edges.tobytes()
    assert Graph(spec.n, np.array(scrambled, dtype=np.int32)) == g


def test_canonical_input_is_checked_and_copied():
    rows = np.array([[0, 1], [0, 3], [2, 3]])
    g = Graph(4, rows)
    rows[0, 1] = 2  # the caller's array stays writable and is not shared
    assert np.array_equal(g.edges, [[0, 1], [0, 3], [2, 3]])
    assert not g.edges.flags.writeable
    # sorted input with a repeated row is deduplicated, not taken as it is
    assert np.array_equal(Graph(4, [(0, 1), (0, 1), (2, 3)]).edges, [[0, 1], [2, 3]])
    with pytest.raises(ValueError, match=r"edge \(2, 4\) out of range for n=4"):
        Graph(4, [(0, 1), (2, 4)])


def test_complete_bipartite_peak_memory_is_about_two_edge_arrays():
    spec = BipartiteSpec(512, 256, 3, 5)
    complete_bipartite(spec)
    tracemalloc.start()
    try:
        g, _ = complete_bipartite(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the filled array and the graph's copy of it, plus boolean checks
    assert peak <= 2.5 * g.edges.nbytes


def test_demo_graph_matrices():
    g = demo_graph()
    expected_a = np.array(
        [
            [0, 1, 0, 0, 0],
            [1, 0, 1, 1, 0],
            [0, 1, 0, 1, 0],
            [0, 1, 1, 0, 0],
            [0, 0, 0, 0, 0],
        ],
        dtype=float,
    )
    expected_d = np.diag([1.0, 3.0, 2.0, 2.0, 0.0])
    assert np.array_equal(adjacency_matrix(g), expected_a)
    assert np.array_equal(degree_matrix(g), expected_d)
    assert np.array_equal(laplacian(g), expected_a - expected_d)
    assert np.array_equal(signless_laplacian(g), expected_a + expected_d)


def test_single_edge_matrices():
    g = Graph(2, frozenset({(0, 1)}))
    assert adjacency_matrix(g).tolist() == [[0, 1], [1, 0]]
    assert laplacian(g).tolist() == [[-1, 1], [1, -1]]
    assert signless_laplacian(g).tolist() == [[1, 1], [1, 1]]


def test_edgeless_matrices_are_zero():
    g = Graph(3, frozenset())
    assert not adjacency_matrix(g).any()
    assert not degree_matrix(g).any()
    assert not laplacian(g).any()
    assert not signless_laplacian(g).any()


def test_regular_bipartite_signless_has_eigenvalue_n():
    # brute-force oracle: K_{2,2} is regular, so the all-ones vector is an
    # eigenvector of Q = A + D with eigenvalue n
    g, _ = complete_bipartite(BipartiteSpec(2, 2, 1, 1))
    q = signless_laplacian(g)
    ones = np.ones(4)
    assert np.array_equal(q @ ones, 4.0 * ones)
    assert np.any(np.isclose(np.linalg.eigvalsh(q), 4.0))


@given(graphs())
def test_matrix_identities(g):
    a = adjacency_matrix(g)
    d = degree_matrix(g)
    lap = laplacian(g)
    q = signless_laplacian(g)
    assert np.array_equal(a, a.T)
    assert np.array_equal(lap, lap.T)
    assert np.array_equal(q, q.T)
    assert np.array_equal(np.diag(a), np.zeros(g.n))
    assert np.array_equal(lap.sum(axis=1), np.zeros(g.n))
    assert np.array_equal(q.sum(axis=1), 2.0 * np.diag(d))
    assert np.array_equal(q - lap, 2.0 * d)
    assert np.array_equal(q + lap, 2.0 * a)
    assert q.min() >= 0.0


def test_edge_list_round_trip(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("5 4\n0 1\n1 2\n1 3\n2 3\n")
    g = read_edge_list(path)
    assert g == demo_graph()


def test_edge_list_merges_duplicate_and_reversed_lines(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("4 5\n0 1\n1 0\n2 3\n0 1\n\n  3 2  \n")
    g = read_edge_list(path)
    assert g.m == 2
    assert np.array_equal(g.edges, [[0, 1], [2, 3]])


def test_edge_list_without_edges(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("3 0\n")
    g = read_edge_list(path)
    assert g == Graph(3, [])
    assert not adjacency_matrix(g).any()


def test_edge_list_accepts_what_int_accepts(tmp_path):
    # the fast parser is stricter than int(); such files still read
    path = tmp_path / "graph.txt"
    path.write_text("12 2\n+0 1_1\n\t3\t 4\n")
    assert read_edge_list(path) == Graph(12, [(0, 11), (3, 4)])


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "empty edge-list file"),
        ("5\n", "header must be 'n m'"),
        ("5 x\n", "non-integer header"),
        ("5 2\n0 1\n", "header declares 2 edges but file has 1"),
        ("5 2\n0 1\n0 1 2\n", "malformed edge line '0 1 2'"),
        ("5 2\n0 1 2\n3 4 0\n", "malformed edge line '0 1 2'"),
        ("5 1\n3\n", "malformed edge line '3'"),
        ("5 2\n0 1\na b\n", "non-integer edge 'a b'"),
        ("5 1\n1.0 2\n", "non-integer edge '1.0 2'"),
        ("2 1\n0 2\n", r"edge \(0, 2\) out of range for n=2"),
        ("3 1\n1 1\n", "self-loop at vertex 1"),
        ("5 1\n99999999999999999999 1\n", r"edge \(99999999999999999999, 1\) out of range for n=5"),
    ],
)
def test_edge_list_refusal_messages(tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_edge_list(path)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "5\n",
        "5 2\n0 1\n",
        "5 1\n0 1 2\n",
        "5 1\na b\n",
        "2 1\n0 2\n",
    ],
)
def test_edge_list_rejects_malformed(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError):
        read_edge_list(path)


def _read_line_by_line(path, text):
    """Reference reader: the graph of an edge-list text, or its refusal message."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        return f"{path}: empty edge-list file"
    header = lines[0].split()
    if len(header) != 2:
        return f"{path}: header must be 'n m'"
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        return f"{path}: non-integer header"
    if len(lines) - 1 != m:
        return f"{path}: header declares {m} edges but file has {len(lines) - 1}"
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            return f"{path}: malformed edge line {line!r}"
        try:
            edge = (int(parts[0]), int(parts[1]))
        except ValueError:
            return f"{path}: non-integer edge {line!r}"
        if not all(-(2**63) <= x < 2**63 for x in edge):
            return f"{path}: edge {edge!r} out of range for n={n}"
        edges.append(edge)
    try:
        return Graph(n, edges)
    except ValueError as exc:
        return str(exc)


def _permuted_complete_bipartite_text(n1, n2):
    rng = random.Random(3)
    perm = list(range(n1 + n2))
    rng.shuffle(perm)
    lines = [f"{perm[i]} {perm[n1 + j]}\n" for i in range(n1) for j in range(n2)]
    return f"{n1 + n2} {n1 * n2}\n" + "".join(lines)


# (text, whether the bulk reader takes it once the file is long enough)
PARSE_CASES = {
    "leading-blank-lines": ("\n\n5 2\n0 1\n2 3\n", True),
    "whitespace-only-lines": ("5 2\n0 1\n \t \n2 3\n  \n", True),
    "tabs": ("5 2\n0\t1\n\t2 \t3\t\n", True),
    "crlf": ("5 2\r\n0 1\r\n2 3\r\n", True),  # both readers see "\n" alone
    # str.splitlines breaks these lines in two, where NumPy reads one edge
    "form-feed-in-a-line": ("5 1\n0\x0c1\n", False),
    "next-line-in-a-line": ("5 1\n0\x851\n", False),
    "no-final-newline": ("5 2\n0 1\n2 3", True),
    "int-syntax": ("12 2\n+0 1_1\n3 4\n", False),
    "three-columns": ("5 2\n0 1 2\n3 4\n", False),
    "count-mismatch": ("5 3\n0 1\n2 3\n", False),
    "overflow": ("5 1\n99999999999999999999 1\n", False),
    "self-loop": ("3 1\n1 1\n", True),
    "permuted-k64-64": (_permuted_complete_bipartite_text(64, 64), True),
    "long-and-blank": ("\n \t\n" * 5000, False),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bulk_chars", [None, 0], ids=["long-files-bulk", "all-files-bulk"])
@pytest.mark.parametrize("text, plain", PARSE_CASES.values(), ids=PARSE_CASES.keys())
def test_edge_list_parse_matches_a_line_by_line_reader(tmp_path, monkeypatch, text, plain,
                                                        bulk_chars):
    if bulk_chars is not None:
        monkeypatch.setattr(graph_module, "_BULK_CHARS", bulk_chars)
    bulk_reader = graph_module._plain_rows
    taken = []
    monkeypatch.setattr(graph_module, "_plain_rows",
                        lambda *args: taken.append(bulk_reader(*args)) or taken[-1])
    path = tmp_path / "graph.txt"
    path.write_bytes(text.encode())
    try:
        got = read_edge_list(path)
    except ValueError as exc:
        got = str(exc)
    expected = _read_line_by_line(path, text)
    assert type(got) is type(expected)
    assert got == expected
    # each case runs through the bulk reader or the line-by-line one, as stated
    assert (taken[0] is not None) == (plain and len(text) >= graph_module._BULK_CHARS)


# ---------------------------------------------------------------------------
# equitable partitions


def _reference_partition(g, colours):
    """Colour refinement on exact tuples; cells numbered by smallest vertex."""
    neighbours = [[] for _ in range(g.n)]
    for u, v in g.edges.tolist():
        neighbours[u].append(v)
        neighbours[v].append(u)
    colour = list(colours)
    while True:
        ids = {}
        fresh = [
            ids.setdefault((colour[v], tuple(sorted(colour[w] for w in neighbours[v]))), len(ids))
            for v in range(g.n)
        ]
        if len(ids) == len(set(colour)):
            return fresh
        colour = fresh


def _cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def _hypercube(d):
    return Graph(2**d, [(v, v | 1 << b) for v in range(2**d) for b in range(d) if not v >> b & 1])


def _marked_at(n, *vertices):
    colours = np.zeros(n)
    colours[list(vertices)] = 1.0
    return colours


@given(graphs(), st.data())
def test_equitable_partition_matches_exact_refinement(g, data):
    colours = data.draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n))
    part = equitable_partition(g, np.array(colours))
    assert part.cells.tolist() == _reference_partition(g, colours)
    assert part.sizes.tolist() == np.bincount(part.cells).tolist()
    assert np.array_equal(part.arcs, part.arcs.T)
    assert part.arcs.sum() == 2 * g.m


def test_equitable_partition_of_symmetric_searches():
    # reflection about the marked vertex pairs i with 30 - i on the cycle
    part = equitable_partition(_cycle(30), _marked_at(30, 0))
    assert part.sizes.size == 16
    assert part.cells.tolist() == [min(i, 30 - i) for i in range(30)]
    # one cell per Hamming weight, numbered by its smallest vertex 2^w - 1
    part = equitable_partition(_hypercube(6), _marked_at(64, 0))
    weights = [bin(v).count("1") for v in range(64)]
    assert part.cells.tolist() == weights
    assert part.sizes.tolist() == [1, 6, 15, 20, 15, 6, 1]
    assert part.arcs[1].tolist() == [6, 0, 30, 0, 0, 0, 0]


def test_equitable_partition_keeps_key_rows_apart():
    g = complete_bipartite(BipartiteSpec(3, 2, 1, 0))[0]
    rows = np.array([[1.0, 0.5], [0.0, 0.5], [0.0, 0.5], [0.0, 0.25], [0.0, 0.25]])
    assert equitable_partition(g, rows).cells.tolist() == [0, 1, 1, 2, 2]
    assert equitable_partition(g, rows[:, 1]).cells.tolist() == [0, 0, 0, 1, 1]
    with pytest.raises(ValueError, match="one key"):
        equitable_partition(g, rows[:4])


def test_path_marked_at_one_end_is_discrete():
    g = Graph(41, [(i, i + 1) for i in range(40)])
    part = equitable_partition(g, _marked_at(41, 0))
    assert part.cells.tolist() == list(range(41))
    # marked at the middle, the reflection halves it
    part = equitable_partition(g, _marked_at(41, 20))
    assert part.sizes.size == 21


def test_edgeless_graph_partition_is_the_colouring():
    part = equitable_partition(Graph(4, []), np.array([2, 1, 2, 1]))
    assert part.cells.tolist() == [0, 1, 0, 1]
    assert part.arcs.tolist() == [[0, 0], [0, 0]]


@pytest.mark.parametrize(
    "g, cells",
    [
        # vertex 0 has no neighbour in cell 1; vertex 1 has one
        (Graph(3, [(0, 1), (1, 2)]), [0, 0, 1]),
        # both vertices of cell 0 reach only cell 1, one twice and one once
        (Graph(5, [(0, 2), (0, 3), (1, 4)]), [0, 0, 1, 1, 1]),
        # n c = 8 <= 2 m: the whole vertex-by-cell table is compared; vertex 2
        # has two neighbours in cell 0, vertex 3 none
        (Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)]), [0, 0, 1, 1]),
    ],
    ids=["missing-cell", "wrong-count", "table"],
)
def test_equitability_guard_refuses_a_non_equitable_partition(g, cells):
    with pytest.raises(ValueError, match="not equitable"):
        graph_module._checked_partition(g, np.array(cells))


def test_a_hash_collision_is_caught_not_returned(monkeypatch):
    # with every signature equal, refinement stops at the initial colours
    monkeypatch.setattr(graph_module, "_mix", lambda x: np.zeros(len(x), dtype=np.uint64))
    with pytest.raises(ValueError, match="not equitable"):
        equitable_partition(Graph(4, [(0, 1), (1, 2), (2, 3)]), _marked_at(4, 0))


def _neighbour_counts(g, cells):
    """Exact reference: ``counts[v, j]`` is the number of neighbours of ``v`` in cell ``j``."""
    counts = np.zeros((g.n, max(cells) + 1), dtype=np.int64)
    for u, v in g.edges.tolist():
        counts[u, cells[v]] += 1
        counts[v, cells[u]] += 1
    return counts


@given(graphs(), st.data())
def test_checked_partition_certifies_exactly_the_equitable_partitions(g, data):
    # dense graphs with few cells take the vertex-by-cell table, the rest the sort
    drawn = data.draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n))
    labels = list(dict.fromkeys(drawn))
    cells = np.array([labels.index(c) for c in drawn])  # numbered by first vertex
    counts = _neighbour_counts(g, cells)
    first = [cells.tolist().index(c) for c in cells]
    if np.array_equal(counts, counts[first]):
        part = graph_module._checked_partition(g, cells)
        arcs = np.zeros((len(labels), len(labels)), dtype=np.int64)
        np.add.at(arcs, cells, counts)
        assert np.array_equal(part.arcs, arcs)
        assert part.sizes.tolist() == np.bincount(cells).tolist()
    else:
        with pytest.raises(ValueError, match="not equitable"):
            graph_module._checked_partition(g, cells)


@given(graphs(), st.data())
def test_refining_a_relabelled_graph_gives_the_relabelled_partition(g, data):
    colours = np.array(data.draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n)))
    perm = np.array(data.draw(st.permutations(range(g.n))), dtype=np.int64)
    moved_colours = np.empty_like(colours)
    moved_colours[perm] = colours
    part = equitable_partition(g, colours)
    moved = equitable_partition(Graph(g.n, perm[g.edges]), moved_colours)
    # the cell in the relabelled graph of each vertex, renumbered by first vertex
    ids = {}
    renumbered = [ids.setdefault(c, len(ids)) for c in moved.cells[perm].tolist()]
    assert renumbered == part.cells.tolist()
    order = list(ids)
    assert np.array_equal(moved.sizes[order], part.sizes)
    assert np.array_equal(moved.arcs[np.ix_(order, order)], part.arcs)
