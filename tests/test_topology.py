import math
import re

import numpy as np
import pytest

from chocosim.numerics import sym_eigenvalues
from chocosim.topology import (Graph, from_edge_list, fully_connected,
                               load_edge_list, mixing_matrix, ring, torus)

# Published spectral gaps for the reference topologies. The torus entry for
# n=4 is absent: a 2x2 torus would need duplicate wrap edges, so side >= 3
# is a precondition and construction rejects it.
EXPECTED_GAPS = [
    ("ring", 4, 0.67), ("ring", 16, 0.05), ("ring", 36, 0.01), ("ring", 64, 0.003),
    ("torus", 16, 0.4), ("torus", 36, 0.2), ("torus", 64, 0.12),
    ("full", 4, 1.0), ("full", 16, 1.0), ("full", 36, 1.0), ("full", 64, 1.0),
]

BUILDERS = {"ring": ring, "torus": torus, "full": fully_connected}


# ------------------------------------------------------------- construction

def test_ring_structure():
    g = ring(4)
    assert g.edges == ((0, 1), (0, 3), (1, 2), (2, 3))
    assert np.all(g.degrees() == 2)
    g16 = ring(16)
    assert len(g16.edges) == 16
    assert np.all(g16.degrees() == 2)


def test_ring_two_nodes_single_edge():
    g = ring(2)
    assert g.edges == ((0, 1),)
    assert np.all(g.degrees() == 1)


def test_ring_rejects_small():
    with pytest.raises(ValueError):
        ring(1)


def test_torus_structure():
    g = torus(16)
    assert len(g.edges) == 32
    assert np.all(g.degrees() == 4)
    assert len(torus(9).edges) == 18


def test_torus_preconditions():
    with pytest.raises(ValueError):
        torus(4)  # side 2 < 3
    with pytest.raises(ValueError):
        torus(12)  # not a perfect square


def test_fully_connected():
    assert len(fully_connected(4).edges) == 6
    assert np.all(fully_connected(5).degrees() == 4)


def test_from_edge_list():
    g = from_edge_list(3, [(0, 1), (2, 1)])
    assert g.edges == ((0, 1), (1, 2))  # normalized to i < j
    assert g.is_connected()
    with pytest.raises(ValueError):
        from_edge_list(3, [(0, 0)])  # self loop
    # both orientations of an undirected edge merge into one
    assert from_edge_list(3, [(0, 1), (1, 0), (1, 2)]).edges == ((0, 1), (1, 2))
    with pytest.raises(ValueError):
        from_edge_list(2, [(0, 5)])  # out of range


@pytest.mark.parametrize("kind", ["ring", "torus", "full"])
def test_generated_graphs_store_the_normalized_literal_pairs(kind):
    # the families are built from index arrays; their edges are the tuple of
    # Python ints that normalizing the literal pair lists gives
    def literal(n):
        if kind == "ring":
            return [(i, (i + 1) % n) for i in range(n)]
        if kind == "full":
            return [(i, j) for i in range(n) for j in range(i + 1, n)]
        s = math.isqrt(n)
        return [pair for v in range(n) for pair in
                ((v, v // s * s + (v % s + 1) % s), (v, (v // s + 1) % s * s + v % s))]

    sizes = {"ring": range(2, 40), "torus": [s * s for s in range(3, 12)], "full": range(1, 40)}
    for n in sizes[kind]:
        edges = BUILDERS[kind](n).edges
        assert edges == from_edge_list(n, literal(n)).edges
        assert all(type(v) is int for edge in edges for v in edge)


def test_connectivity_detection():
    assert not from_edge_list(4, [(0, 1), (2, 3)]).is_connected()
    assert from_edge_list(4, [(0, 1), (1, 2), (2, 3)]).is_connected()


def test_load_edge_list(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("# comment line\n0 1\n1 2\n\n2 3\n")
    g = load_edge_list(str(path))
    assert g.n == 4
    assert g.edges == ((0, 1), (1, 2), (2, 3))
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1 2\n")
    with pytest.raises(ValueError):
        load_edge_list(str(bad))


# ------------------------------------------------------------ mixing matrix

def _analytic_ring_eigenvalues(n):
    # circulant closed form for degree-2 weights 1/3: 1/3 + (2/3) cos(2 pi k/n)
    k = np.arange(n)
    return 1.0 / 3.0 + (2.0 / 3.0) * np.cos(2.0 * np.pi * k / n)


def _analytic_torus_eigenvalues(n):
    side = int(round(np.sqrt(n)))
    a, b = np.meshgrid(np.arange(side), np.arange(side))
    return (0.2 + 0.4 * (np.cos(2 * np.pi * a / side)
                         + np.cos(2 * np.pi * b / side))).ravel()


@pytest.mark.parametrize("n", [4, 5, 16, 36, 300])
def test_ring_weights_match_circulant_oracle(n):
    w = mixing_matrix(ring(n)).w
    got = np.sort(sym_eigenvalues(w))
    expected = np.sort(_analytic_ring_eigenvalues(n))
    np.testing.assert_allclose(got, expected, atol=1e-10)


@pytest.mark.parametrize("n", [9, 16, 36, 324])
def test_torus_weights_match_product_oracle(n):
    w = mixing_matrix(torus(n)).w
    got = np.sort(sym_eigenvalues(w))
    expected = np.sort(_analytic_torus_eigenvalues(n))
    np.testing.assert_allclose(got, expected, atol=1e-10)


def test_fully_connected_is_uniform_averaging():
    m = mixing_matrix(fully_connected(6))
    np.testing.assert_allclose(m.w, np.full((6, 6), 1.0 / 6.0), atol=1e-15)


def test_mixing_matrix_is_doubly_stochastic_and_symmetric():
    for g in (ring(7), torus(9), fully_connected(5),
              from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 2)])):
        w = mixing_matrix(g).w
        np.testing.assert_array_equal(w, w.T)
        np.testing.assert_allclose(w.sum(axis=1), np.ones(g.n), atol=1e-12)
        np.testing.assert_allclose(w.sum(axis=0), np.ones(g.n), atol=1e-12)
        assert np.all(w >= 0)


def test_mixing_rejects_disconnected():
    with pytest.raises(ValueError):
        mixing_matrix(from_edge_list(4, [(0, 1), (2, 3)]))


@pytest.mark.parametrize("kind,n,expected", EXPECTED_GAPS)
def test_published_spectral_gaps(kind, n, expected):
    m = mixing_matrix(BUILDERS[kind](n))
    assert abs(m.rho - expected) <= 0.005


def test_ring4_spectrum_closed_form():
    # eigenvalues {1, 1/3, 1/3, -1/3}; two-sided gap = 1 - 1/3
    vals = sym_eigenvalues(mixing_matrix(ring(4)).w)
    np.testing.assert_allclose(vals, [1.0, 1 / 3, 1 / 3, -1 / 3], atol=1e-12)
    assert abs(mixing_matrix(ring(4)).rho - 2 / 3) < 1e-12


def test_two_node_graph_quantities():
    m = mixing_matrix(fully_connected(2))
    np.testing.assert_allclose(m.w, np.full((2, 2), 0.5), atol=1e-15)
    assert abs(m.rho - 1.0) < 1e-12
    assert abs(m.beta - 1.0) < 1e-12


def test_beta_within_range():
    for g in (ring(4), ring(16), torus(16), fully_connected(8)):
        m = mixing_matrix(g)
        assert 0.0 <= m.beta <= 2.0


def test_ring_beta_value():
    # smallest ring eigenvalue is -1/3 for even n, so beta = 1 - (-1/3)
    assert abs(mixing_matrix(ring(8)).beta - 4 / 3) < 1e-12


def test_ring_gap_shrinks_when_doubling():
    gaps = [mixing_matrix(ring(n)).rho for n in (4, 8, 16, 32, 64)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_single_node_graph():
    m = mixing_matrix(fully_connected(1))
    np.testing.assert_array_equal(m.w, np.ones((1, 1)))
    assert m.rho == 1.0 and m.beta == 0.0


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, ((0, 1), (1, 1)))
    with pytest.raises(ValueError):
        Graph(2, ((1, 0),))  # must be stored as i < j
    with pytest.raises(ValueError, match="^graph needs at least one node$"):
        Graph(0)
    with pytest.raises(ValueError, match=r"^duplicate edge \(0, 1\)$"):
        Graph(3, ((0, 1), (0, 1)))


@pytest.mark.parametrize("edges, named", [
    (((0, 1, 2), (3,)), r"edge \(0, 1, 2\)"),  # four endpoints that would fill (2, 2)
    (((0, 1), (2,)), r"edge \(2,\)"),
    (((0, 1), (1, 2), [1, 2, 3]), r"edge \(1, 2, 3\)"),
    (((0, 1), ()), r"edge \(\)"),
    ([(0, 1, 2)], r"edge \(0, 1, 2\)"),
])
def test_an_edge_that_is_not_a_pair_is_named(edges, named):
    for build in (Graph, from_edge_list):
        with pytest.raises(ValueError, match=named + " is not a pair of endpoints"):
            build(4, edges)


def test_an_array_row_that_is_not_a_pair_is_named_in_python_ints():
    # as the tuple form names it, not in NumPy scalar reprs
    for build in (Graph, from_edge_list):
        with pytest.raises(ValueError, match=r"^edge \(0, 1, 2\) is not a pair of endpoints$"):
            build(4, np.array([(0, 1, 2)]))


def test_an_integer_array_edge_list_equals_the_pair_path():
    pairs = [(2, 1), (1, 2), (0, 1), (1, 0), (3, 0), (0, 3), (2, 3)]
    for dtype in (np.int32, np.int64, np.uint8, np.intp):
        graph = from_edge_list(4, np.array(pairs, dtype=dtype))
        assert graph.edges == from_edge_list(4, pairs).edges == ((0, 1), (0, 3), (1, 2), (2, 3))
        assert graph.ends.dtype == np.intp and graph.ends.tobytes() == ring(4).ends.tobytes()
    # an array is refused with the message its pairs get as a tuple
    for bad in (np.array([(0, 1), (0.5, 2)]), np.array([(0, 1), (2, 3.0)]),
                np.array([(True, False)]), np.array([(0, 1), (1, 1)], dtype=float)):
        for build in (Graph, from_edge_list):
            with pytest.raises(ValueError) as from_array:
                build(4, bad)
            with pytest.raises(ValueError) as from_pairs:
                build(4, tuple(map(tuple, bad.tolist())))
            assert str(from_array.value) == str(from_pairs.value)


def test_a_graph_holds_its_count_and_one_read_only_endpoint_array():
    graph = Graph(4, np.array([(1, 2), (0, 3), (0, 1)]))
    assert set(vars(graph)) == {"n", "ends"}
    assert graph.edges == ((1, 2), (0, 3), (0, 1))  # the rows as given, once valid
    assert all(type(v) is int for edge in graph.edges for v in edge)
    with pytest.raises(ValueError, match="read-only"):
        graph.ends[0, 0] = 3
    given = np.array([(0, 1)])
    held = Graph(2, given)
    given[0] = (1, 0)  # the graph holds a copy
    assert held.edges == ((0, 1),)
    assert Graph(1).ends.shape == (0, 2) and Graph(1).edges == ()
    with pytest.raises(ValueError, match=r"^duplicate edge \(0, 1\)$"):
        Graph(3, np.array([(0, 1), (1, 2), (0, 1)]))
    with pytest.raises(ValueError, match=r"^edge \(0, 5\) out of range for n=3$"):
        Graph(3, np.array([(0, 1), (0, 5)]))


@pytest.mark.parametrize("ids", ["0 1_0", "0 ١", "０ 1", "0 +1_0"])
def test_edge_list_ids_are_plain_ascii_numerals(tmp_path, ids):
    path = tmp_path / "g.txt"
    path.write_text(f"0 2\n{ids}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: non-integer node id$"):
        load_edge_list(str(path))
