import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_is_the_class_walk, bipartite_specs, graphs, load_script
from dense_reference import (
    adjacency_matrix,
    degree_matrix,
    laplacian,
    refined_cells,
    signless_laplacian,
)
from qwsearch import graph as graph_module
from qwsearch.bipartite import (
    InitialStateKind,
    initial_state,
    reduced_to_full,
    refined_class_quotient,
)
from qwsearch.evolve import search_quotient
from qwsearch.graph import (
    BipartiteSpec,
    Graph,
    complete_bipartite,
    equitable_partition,
    read_edge_list,
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
    # another type is not equal, from either side
    assert (a == object()) is False
    assert (a != object()) is True
    assert a.__eq__(object()) is NotImplemented


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
    "edges,message",
    [
        ([(10**20, 1)], r"^edge \(100000000000000000000, 1\) out of range for n=5$"),
        ([(0, 1), (1, -(10**20))], r"^edge \(1, -100000000000000000000\) out of range for n=5$"),
        ([(np.int64(1), 2**63)], r"^edge \(1, 9223372036854775808\) out of range for n=5$"),
        ([(0, 1), (2**63, 2**64 - 1)],
         r"^edge \(9223372036854775808, 18446744073709551615\) out of range for n=5$"),
        (np.array([(1, 2**63)], dtype=np.uint64),
         r"^edge \(1, 9223372036854775808\) out of range for n=5$"),
        ([(10**20, 0.5)], "^edge endpoints must be integers$"),
        ([(True, 10**20)], "^edge endpoints must be integers$"),
        ([(True, False)], "^edge endpoints must be integers$"),
        # the first bad edge, also before the one past int64
        ([(0, 1), (2, 2), (1, -(10**20))], "^self-loop at vertex 2$"),
        ([(0, 0), (1, 2**70)], "^self-loop at vertex 0$"),
    ],
)
def test_graph_names_an_endpoint_past_int64_as_read_edge_list_does(edges, message):
    # NumPy holds such an int as an object; the first bad edge is named, as
    # the edge-list reader names it
    with pytest.raises(ValueError, match=message):
        Graph(5, edges)


@pytest.mark.parametrize(
    "edges",
    [[(True, 2)], [(0, 1), (np.True_, 2)], [[1, 2], [0, False]], ((2, 0), [np.False_, 1])],
    ids=["bool", "numpy-bool", "lists", "tuple-of-rows"],
)
def test_graph_refuses_a_boolean_among_integer_endpoints(edges):
    # NumPy reads the list as integers, (True, 2) as the edge (1, 2)
    with pytest.raises(ValueError, match="^edge endpoints must be integers$"):
        Graph(3, edges)
    # an integer array holds no boolean, and is read as it is
    assert Graph(3, np.array([(1, 2), (0, 1)])).edges.tolist() == [[0, 1], [1, 2]]


def test_graph_refuses_in_range_integers_that_numpy_does_not_hold_as_integers():
    # objects, and int64 mixed with uint64 (which NumPy makes float64)
    for edges in (np.array([(1, 0), (2, 3)], dtype=object),
                  [(np.uint64(1), np.int64(0)), (2, 3)],
                  np.array([(0.0, 1.0)])):
        with pytest.raises(ValueError, match="^edge endpoints must be integers$"):
            Graph(5, edges)
    assert Graph(5, np.array([(1, 0), (2, 3)], dtype=np.uint64)).edges.tolist() == [[0, 1], [2, 3]]


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


def test_counts_are_python_ints_and_non_integers_are_refused_by_name():
    spec = BipartiteSpec(np.int64(8), np.int32(4), np.uint8(1), np.int64(0))
    assert [type(x) for x in (spec.n1, spec.n2, spec.k1, spec.k2)] == [int] * 4
    assert type(Graph(np.int64(3), [(0, 1)]).n) is int
    for counts, name in (((4.5, 2, 1, 1), "n1"), ((4, 2.0, 1, 1), "n2"),
                         ((4, 2, np.float64(1), 0), "k1"), ((4, 2, 1, "1"), "k2")):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            BipartiteSpec(*counts)
    with pytest.raises(ValueError, match=r"^n must be an integer, got 4\.5$"):
        Graph(4.5, [(0, 1)])


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


@pytest.mark.parametrize("n", [46340, 46341, 46342])
def test_sort_keys_either_side_of_the_int32_boundary(n):
    # 46340 is the last vertex count with n * n in int32, so the sort takes
    # int32 keys u * n + v there and int64 keys from 46341 on; at 46342 the
    # largest key, (n - 2) * n + n - 1, would not fit int32 either
    int32_max = np.iinfo(np.int32).max
    assert 46340 ** 2 <= int32_max < 46341 ** 2
    assert 46341 * 46339 + 46340 <= int32_max < 46342 * 46340 + 46341
    rng = random.Random(n)
    top = n - 1
    pairs = [(top, top - 1), (0, top), (top - 2, top), (1, 2), (top - 1, 0)]
    pairs += [(rng.randrange(top), top) for _ in range(200)]
    pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(200)]
    pairs = [(a, b) for a, b in pairs if a != b]
    rows = pairs + [(b, a) for a, b in pairs[::3]] + pairs[::5]  # reversed and repeated
    rng.shuffle(rows)
    want = sorted({(min(a, b), max(a, b)) for a, b in rows})
    g = Graph(n, rows)
    assert g.edges.tolist() == [list(edge) for edge in want]
    assert g.edges.dtype == np.int64
    assert Graph(n, rows[::-1]) == g


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


@pytest.mark.parametrize("build", [
    lambda: complete_bipartite(BipartiteSpec(5, 3, 1, 1))[0],
    lambda: Graph(5, [(3, 1), (0, 4), (1, 3), (2, 0)]),
    lambda: Graph(5, np.array([[0, 2], [0, 4], [1, 3]])),
    lambda: Graph(5, np.asfortranarray([[0, 2], [0, 4], [1, 3]])),
    lambda: Graph(5, [(0, 1), (0, 1)]),
    lambda: Graph(5, [(0, 1)]),
    lambda: Graph(5, []),
], ids=["complete-bipartite", "unsorted-list", "canonical-rows", "canonical-columns",
        "duplicated", "one-edge", "edgeless"])
def test_edge_array_is_read_only_and_column_major(build):
    g = build()
    assert g.edges.shape == (g.m, 2)
    assert g.edges.dtype == np.int64
    assert not g.edges.flags.writeable
    assert g.edges.T.flags.c_contiguous
    u, v = g.edges.T
    assert u.flags.c_contiguous and v.flags.c_contiguous


def test_graphs_from_any_input_layout_compare_and_hash_equal():
    rows = np.array([[0, 3], [1, 2], [1, 4], [2, 4]])
    inputs = {
        "row-major": rows,
        "column-major": np.asfortranarray(rows),
        "reversed-pairs": rows[:, ::-1],
        "shuffled": rows[[2, 0, 3, 1]],
        "duplicated": np.concatenate([rows, rows[::-1, ::-1]]),
        "int32": rows.astype(np.int32),
        "uint64": rows.astype(np.uint64),
        "list": [tuple(row) for row in rows.tolist()],
        "frozenset": frozenset(map(tuple, rows[:, ::-1].tolist())),
    }
    graphs = {name: Graph(5, edges) for name, edges in inputs.items()}
    want = graphs["row-major"]
    for name, g in graphs.items():
        assert g == want, name
        assert hash(g) == hash(want), name
        assert g.edges.tobytes() == rows.tobytes(), name
    assert len(set(graphs.values())) == 1


def test_reading_a_shuffled_bench_edge_list_peaks_at_three_edge_arrays(tmp_path):
    # K_{512,256} relabelled at random: 131,072 lines that NumPy's bulk
    # reader parses and the graph sorts. The parsed rows, the graph's two
    # columns and the sort keys (half an array) are all that may coexist;
    # the file's bytes are gone before the parse.
    path = tmp_path / "k512_256.txt"
    path.write_text(_permuted_complete_bipartite_text(512, 256))
    read_edge_list(path)
    tracemalloc.start()
    try:
        g = read_edge_list(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.m == 512 * 256
    assert peak <= 3 * g.edges.nbytes


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


# every refusal of read_edge_list, each message after the file's path
EDGE_LIST_REFUSALS = [
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
    # an edge past int64 makes the first bad edge named, as in any other list
    ("3 2\n0 0\n1 99999999999999999999999\n", "self-loop at vertex 0"),
    ("0 0\n", "vertex count must be positive"),
    ("2147483649 0\n", "vertex count 2147483649 exceeds 2147483648"),
]


@pytest.mark.parametrize("text,message", EDGE_LIST_REFUSALS)
def test_edge_list_refusal_messages(tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_edge_list(path)


@pytest.mark.parametrize("text,message", EDGE_LIST_REFUSALS)
def test_edge_list_refusals_start_with_the_path(tmp_path, text, message):
    # the graph's own refusals too: one fault reads one way, whoever finds it
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as refusal:
        read_edge_list(path)
    assert str(refusal.value).startswith(f"{path}: ")


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
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            return f"{path}: non-integer edge {line!r}"
    if not all(-(2**63) <= x < 2**63 for edge in edges for x in edge):
        # past int64: the first self-loop or out-of-range edge is named
        for u, v in edges:
            if u == v:
                return f"{path}: self-loop at vertex {u}"
            if not (0 <= u < n and 0 <= v < n):
                return f"{path}: edge {(u, v)!r} out of range for n={n}"
    try:
        return Graph(n, edges)
    except ValueError as exc:
        return f"{path}: {exc}"


def _permuted_complete_bipartite_text(n1, n2):
    rng = random.Random(3)
    perm = list(range(n1 + n2))
    rng.shuffle(perm)
    lines = [f"{perm[i]} {perm[n1 + j]}\n" for i in range(n1) for j in range(n2)]
    return f"{n1 + n2} {n1 * n2}\n" + "".join(lines)


# (text, whether NumPy's reader takes it, from the file's path or its lines)
PARSE_CASES = {
    "leading-blank-lines": ("\n\n5 2\n0 1\n2 3\n", True),
    "whitespace-only-lines": ("5 2\n0 1\n \t \n2 3\n  \n", True),
    "tabs": ("5 2\n0\t1\n\t2 \t3\t\n", True),
    "crlf": ("5 2\r\n0 1\r\n2 3\r\n", True),  # both readers see "\n" alone
    "cr": ("5 2\r0 1\r2 3\r", True),
    # str.splitlines breaks these lines in two, where NumPy reads one edge
    "form-feed-in-a-line": ("5 1\n0\x0c1\n", False),
    "next-line-in-a-line": ("5 1\n0\x851\n", False),
    "no-final-newline": ("5 2\n0 1\n2 3", True),
    "int-syntax": ("12 2\n+0 1_1\n3 4\n", False),
    "three-columns": ("5 2\n0 1 2\n3 4\n", False),
    "count-mismatch": ("5 3\n0 1\n2 3\n", False),
    "overflow": ("5 1\n99999999999999999999 1\n", False),
    "self-loop-before-overflow": ("3 2\n0 0\n1 99999999999999999999999\n", False),
    "self-loop": ("3 1\n1 1\n", True),
    "permuted-k64-64": (_permuted_complete_bipartite_text(64, 64), True),
    "long-and-blank": ("\n \t\n" * 5000, False),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bulk_chars", [None, 0, 10**9],
                         ids=["long-files-bulk", "all-files-bulk", "all-files-from-lines"])
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
    # NumPy takes exactly the plain cases, from either source; the rest run line by line
    assert (taken[0] is not None) == plain


_SPACES = st.sampled_from([" ", "\t", "  ", " \t", "\t\t "])
_TRAILING = st.sampled_from(["", "", " ", "\t", " \t "])


@st.composite
def _plain_edge_lists(draw):
    """Edge-list texts of plain bytes, mostly valid, with every layout both readers skip."""
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else []
    # now and then a self-loop, an endpoint at n or one past int64
    fault = draw(st.sampled_from([None] * 7 + [(0, 0), (0, n), (2**64, 0)]))
    if fault:
        edges.insert(draw(st.integers(0, len(edges))), fault)
    m = max(0, len(edges) + draw(st.sampled_from([0, 0, 0, 1, -1])))
    lines = [f"{n}{draw(_SPACES)}{m}{draw(_TRAILING)}"]
    lines += [f"{u}{draw(_SPACES)}{v}{draw(_TRAILING)}" for u, v in edges]
    if draw(st.integers(0, 9)) == 0:  # now and then a file of blank lines alone
        lines = []
    for _ in range(draw(st.integers(0, 3))):
        blank = draw(st.sampled_from(["", " ", "\t", " \t "]))
        lines.insert(draw(st.integers(0, len(lines))), blank)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + (end if draw(st.booleans()) else "")


@settings(max_examples=150, deadline=None)
@given(text=_plain_edge_lists())
def test_plain_edge_lists_read_alike_from_path_and_lines(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "plain.txt"
    path.write_bytes(text.encode())
    expected = _read_line_by_line(path, text)
    for bulk_chars in (0, 10**9):  # NumPy reads the file from its path, then from its lines
        # warnings are errors around the read alone, so that Hypothesis can
        # still report a failing case
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("error")
            mp.setattr(graph_module, "_BULK_CHARS", bulk_chars)
            try:
                got = read_edge_list(path)
            except ValueError as exc:
                got = str(exc)
        assert type(got) is type(expected)
        assert got == expected


# ---------------------------------------------------------------------------
# equitable partitions


def _cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def _hypercube(d):
    return Graph(2**d, [(v, v | 1 << b) for v in range(2**d) for b in range(d) if not v >> b & 1])


def _marked_at(n, *vertices):
    colours = np.zeros(n)
    colours[list(vertices)] = 1.0
    return colours


@st.composite
def _coloured_graphs(draw):
    g = draw(graphs())
    return g, draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n))


@given(_coloured_graphs())
# first rounds counted exactly (n c <= 2 m): C_6 and Q_9 marked at a vertex
# split there, K_{3,2} uncoloured is already equitable and splits nothing
@example((_cycle(6), [1, 0, 0, 0, 0, 0]))
@example((_hypercube(9), [1] + [0] * 511))
@example((complete_bipartite(BipartiteSpec(3, 2, 1, 0))[0], [0] * 5))
def test_equitable_partition_matches_exact_refinement(case):
    g, colours = case
    part = equitable_partition(g, np.array(colours))
    assert part.cells.tolist() == refined_cells(g, colours)
    assert part.sizes.tolist() == np.bincount(part.cells).tolist()
    assert np.array_equal(part.arcs, part.arcs.T)
    assert part.arcs.sum() == 2 * g.m


CAPTURE = load_script("capture_cli")
CAPTURE_LAYOUTS = [(512, 256, 3, 5), (48, 24, 3, 5), (6, 6, 2, 2), (1, 2, 1, 1), (10, 7, 0, 3),
                   (5, 3, 5, 3), (1, 1, 1, 1)]


def _capture_searches(tmp_path):
    """(graph, marked vertices) of each edge-list search and layout of the capture table."""
    texts = CAPTURE._input_files()
    for _, placeholder, marked in CAPTURE.EDGE_SEARCHES:
        path = tmp_path / f"{placeholder.strip('{}')}.txt"
        path.write_text(texts[placeholder])
        yield read_edge_list(path), [int(v) for v in marked.split(",")]
    for layout in CAPTURE_LAYOUTS:
        g, marked = complete_bipartite(BipartiteSpec(*layout))
        yield g, sorted(marked)


def test_degree_seeded_refinement_is_the_naive_refinement_on_the_capture_graphs(tmp_path):
    # C_30, Q_6, the shuffled Q_9, irregular10, the relabelled K_{48,24} and
    # the layouts, marked as the capture marks them, alone and beside a
    # colouring of the first vertices (as a search's group colours it)
    searched = 0
    for g, marked in _capture_searches(tmp_path):
        colours = _marked_at(g.n, *marked)
        sides = np.column_stack([colours, np.arange(g.n) < g.n // 3])
        for keys in (colours, sides):
            assert equitable_partition(g, keys).cells.tolist() == refined_cells(g, keys)
        searched += 1
    assert searched == len(CAPTURE.EDGE_SEARCHES) + len(CAPTURE_LAYOUTS)


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


_KEYS = st.sampled_from([0.0, -0.0, 0.5, 1.0, -2.0, np.inf, -np.inf, 1e-300])


@given(st.integers(1, 5).flatmap(
    lambda k: st.lists(st.lists(_KEYS, min_size=k, max_size=k), min_size=1, max_size=40)))
def test_edgeless_partition_is_the_classes_of_equal_key_rows(rows):
    # without edges the start is the answer: rows compared exactly, key by
    # key (0.0 equals -0.0), as np.unique over the rows compares them
    rows = np.array(rows)
    _, classes = np.unique(rows, axis=0, return_inverse=True)
    first = {}
    want = [first.setdefault(c, len(first)) for c in classes.reshape(-1).tolist()]
    assert equitable_partition(Graph(len(rows), []), rows).cells.tolist() == want
    assert equitable_partition(Graph(len(rows), []), rows[:, :0]).cells.tolist() == [0] * len(rows)


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


def _spy_on_refinement(monkeypatch):
    """Counts, while the test runs, of first-round tables, hashed rounds and checks that recount."""
    seen = {"tables": 0, "hashed": 0, "recounts": 0}
    table, hashed, checked = (graph_module._neighbour_table, graph_module._hashed_signature,
                              graph_module._checked_partition)

    def count_table(*args):
        seen["tables"] += 1
        return table(*args)

    def count_hashed(*args):
        seen["hashed"] += 1
        return hashed(*args)

    def count_recount(g, cells, counts=None):
        seen["recounts"] += counts is None
        return checked(g, cells, counts)

    monkeypatch.setattr(graph_module, "_neighbour_table", count_table)
    monkeypatch.setattr(graph_module, "_hashed_signature", count_hashed)
    monkeypatch.setattr(graph_module, "_checked_partition", count_recount)
    return seen


def test_a_collision_in_an_exact_first_round_is_refused_by_its_own_table(monkeypatch):
    # C_6 marked at 0 counts its first round exactly (n c = 12 = 2 m); with
    # every signature equal that round splits nothing, and the check reads
    # the round's table, in which vertex 1 touches the marked cell and
    # vertex 3 does not
    monkeypatch.setattr(graph_module, "_mix", lambda x: np.zeros(len(x), dtype=np.uint64))
    seen = _spy_on_refinement(monkeypatch)
    with pytest.raises(ValueError, match="not equitable"):
        equitable_partition(_cycle(6), _marked_at(6, 0))
    assert seen == {"tables": 1, "hashed": 0, "recounts": 0}


@pytest.mark.parametrize("groups", ["sweep", "sides"])
@pytest.mark.parametrize("start", [InitialStateKind.UNIFORM, InitialStateKind.SIGNLESS_EIGENVECTOR],
                         ids=lambda s: s.value)
@pytest.mark.parametrize("layout", [(48, 24, 3, 5), (6, 6, 2, 2), (2, 2, 1, 1), (5, 5, 5, 5)],
                         ids=str)
def test_layout_refinement_is_one_exact_round_that_its_check_reads(monkeypatch, layout, start,
                                                                   groups):
    # the start cells (marked set, state, groups and degree) are already
    # the answer, the classes, also on the swap-symmetric layouts, whether
    # the groups are the four classes (as a sweep reports them) or the two
    # sides; the exact first round splits nothing and its table is the
    # certificate. K_{2,2} marked once a side starts discrete, so no round
    # runs, and with n c = 16 > 2 m no table is counted: the check counts
    # its own
    spec = BipartiteSpec(*layout)
    state = initial_state(spec, start)
    seen = _spy_on_refinement(monkeypatch)
    if groups == "sweep":
        quotient = refined_class_quotient(spec, state)
    else:
        graph, marked = complete_bipartite(spec)
        quotient = search_quotient(graph, marked, reduced_to_full(spec, state),
                                   [range(spec.n1), range(spec.n1, spec.n)])
    if layout == (2, 2, 1, 1):
        assert seen == {"tables": 0, "hashed": 0, "recounts": 1}
    else:
        assert seen == {"tables": 1, "hashed": 0, "recounts": 0}
    assert_is_the_class_walk(spec, quotient)


def test_a_refinement_that_splits_after_its_exact_round_recounts(monkeypatch):
    # Q_9 marked at 0: the exact first round splits off the neighbours of
    # 0, hashed rounds find the ten weights, and the check counts afresh
    seen = _spy_on_refinement(monkeypatch)
    part = equitable_partition(_hypercube(9), _marked_at(512, 0))
    assert part.sizes.tolist() == [1, 9, 36, 84, 126, 126, 84, 36, 9, 1]
    assert seen["tables"] == 1
    assert seen["hashed"] > 0
    assert seen["recounts"] == 1


def test_refinement_ends_at_the_discrete_partition(monkeypatch):
    # the path 0-1-2-3 marked at 0 is discrete after one hashed round; a
    # partition of single vertices cannot split, so no round confirms it
    seen = _spy_on_refinement(monkeypatch)
    part = equitable_partition(Graph(4, [(0, 1), (1, 2), (2, 3)]), _marked_at(4, 0))
    assert part.cells.tolist() == [0, 1, 2, 3]
    assert seen == {"tables": 0, "hashed": 1, "recounts": 1}


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
