"""Communication graphs and their gossip mixing matrices.

A graph is its node count and one ``(E, 2)`` array of edge endpoints. The
ring, 2-D torus and fully connected generators and the edge-list reader
share one normalization: each edge becomes ``(min, max)``, rows are sorted
lexicographically and repeats are dropped. :func:`build_topology` reads the
spec strings that name them. ``mixing_matrix`` turns a graph into the
symmetric doubly stochastic matrix of all gossip updates, with its spectrum.
"""

import math
from dataclasses import dataclass

import numpy as np

from .numerics import is_integer, numeral, sym_eigenvalues


def _count(n):
    if not is_integer(n):  # a float count is refused, never truncated
        raise ValueError(f"node count n must be an integer, got {n!r}")
    return n


def _pair(edge):
    """An edge's two integer endpoints; a float or bool is refused, never truncated."""
    edge = edge.tolist() if isinstance(edge, np.ndarray) else edge  # named in Python numbers
    if len(edge) != 2:
        raise ValueError(f"edge {tuple(edge)} is not a pair of endpoints")
    i, j = edge
    if not (is_integer(i) and is_integer(j)):
        raise ValueError(f"edge ({i}, {j}) has a non-integer endpoint")
    return i, j


def _integer_rows(edges):
    """``edges`` as a fresh ``(E, 2)`` intp array, or None unless each is a pair of integers."""
    if isinstance(edges, np.ndarray) and edges.dtype.kind in "iu" and edges.shape[1:] == (2,):
        return edges.astype(np.intp)
    flat = [v for edge in edges for v in edge] if set(map(len, edges)) <= {2} else [None]
    return np.array(flat, np.intp).reshape(-1, 2) if all(map(is_integer, flat)) else None


def _distinct(i, j):
    """The edges ``(i[k], j[k])`` as ``(min, max)`` rows, sorted lexicographically, each once."""
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    new = np.ones(len(lo), bool)
    new[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    return np.stack([lo[new], hi[new]], axis=1)


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph on nodes ``0..n-1``, compared by identity. ``ends``,
    integer pairs or an integer ``(E, 2)`` array, is held as one read-only ``(E, 2)``
    intp array of rows ``(i, j)``, ``i < j``, none repeated; ``edges`` is the tuple
    of ``(i, j)`` Python ints, built when read. One vectorized pass checks ``ends``;
    the edges are walked, as given, only to name the first failing edge and rule."""

    n: int
    ends: np.ndarray = ()

    def __post_init__(self):
        if _count(self.n) < 1:
            raise ValueError("graph needs at least one node")
        ends = _integer_rows(self.ends)
        if ends is not None:
            i, j = ends.T
            if not ((i < 0) | (i >= j) | (j >= self.n)).any() and len(_distinct(i, j)) == len(i):
                ends.flags.writeable = False
                object.__setattr__(self, "ends", ends)
                return
        seen = set()
        for edge in self.ends:
            i, j = _pair(edge)
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")
            if i == j:
                raise ValueError(f"self-loop ({i}, {j}) not allowed")
            if i > j:
                raise ValueError("edges must be stored as (i, j) with i < j")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))

    @property
    def edges(self):
        return tuple(map(tuple, self.ends.tolist()))

    def degrees(self):
        return np.bincount(self.ends.ravel(), minlength=self.n)

    def is_connected(self):
        # roots hook onto the least root across their edges, then pointers
        # jump to their roots: O(log n) passes where a frontier takes O(diameter)
        i, j = self.ends.T
        root = np.arange(self.n)
        while True:
            ri, rj = root[i], root[j]
            np.minimum.at(root, np.maximum(ri, rj), np.minimum(ri, rj))
            up = root[root]
            while not np.array_equal(up, root):
                root, up = up, up[up]
            if np.array_equal(root[i], root[j]):
                return not root.any()


def check_connected(graph):
    """``graph``, if connected: gossip cannot average over a graph that is not."""
    if not graph.is_connected():
        raise ValueError("graph must be connected to average")
    return graph


def ring(n):
    """Cycle graph; ``n = 2`` degenerates to a single edge."""
    if _count(n) < 2:
        raise ValueError("ring needs n >= 2")
    v = np.arange(n)
    return Graph(n, _distinct(v, (v + 1) % n))


def torus(n):
    """2-D periodic grid on ``s x s`` nodes where ``n = s*s`` and ``s >= 3``."""
    s = math.isqrt(max(_count(n), 0))  # a negative count is no square either
    if s * s != n:
        raise ValueError(f"torus needs a perfect square node count, got {n}")
    if s < 3:
        raise ValueError("torus needs side length >= 3 (wrap-around edges collide below that)")
    v = np.arange(n)
    r, c = np.divmod(v, s)  # node v = r * s + c links to its right and lower neighbors
    right, down = r * s + (c + 1) % s, (r + 1) % s * s + c
    return Graph(n, _distinct(np.tile(v, 2), np.concatenate([right, down])))


def fully_connected(n):
    """Complete graph; ``n = 1`` is a single isolated node."""
    if _count(n) < 1:
        raise ValueError("need n >= 1")
    return Graph(n, _distinct(*np.triu_indices(n, 1)))


def from_edge_list(n, pairs):
    """Graph from explicit integer ``(i, j)`` pairs or an integer ``(E, 2)``
    array; both orientations of an edge, and repeats, collapse into one."""
    ends = _integer_rows(pairs)
    if ends is None:  # names the first edge that is not a pair of integers
        for edge in pairs:
            _pair(edge)
    return Graph(n, _distinct(*ends.T))


def load_edge_list(path):
    """Read a graph from a text file with one ``i j`` pair per line; ``#`` starts a
    comment. Indices are 0-based plain ASCII numerals; the node count is ``max index + 1``."""
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'i j', got {raw.strip()!r}")
            try:
                pairs.append((numeral(parts[0]), numeral(parts[1])))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-integer node id") from exc
    if not pairs:
        raise ValueError(f"{path}: no edges found")
    return from_edge_list(max(max(i, j) for i, j in pairs) + 1, pairs)


def build_topology(spec):
    """Graph from a spec string: ``ring:<n> | torus:<n> | full:<n> | edgelist:<path>``,
    where ``<n>`` is a plain ASCII integer numeral."""
    kind, colon, arg = str(spec).partition(":")
    if not colon:
        raise ValueError(f"bad topology spec {spec!r}")
    if kind == "edgelist":
        return load_edge_list(arg)
    try:
        n = numeral(arg)
    except ValueError as exc:
        raise ValueError(f"bad topology size in {spec!r}") from exc
    build = {"ring": ring, "torus": torus, "full": fully_connected}.get(kind)
    if build is None:
        raise ValueError(f"unknown topology kind {kind!r}")
    return build(n)


@dataclass(frozen=True)
class MixingMatrix:
    """Symmetric doubly stochastic gossip matrix with spectral summary.

    Attributes
    ----------
    w : (n, n) ndarray
        The mixing weights.
    rho : float
        Spectral gap ``1 - max(|lambda_2|, |lambda_n|)``; 1 means one-round
        exact averaging, values near 0 mean slow information spread.
    beta : float
        Operator norm of ``I - w``; always in [0, 2].
    """

    w: np.ndarray
    rho: float
    beta: float


def mixing_matrix(graph):
    """Build the local-degree mixing matrix of a connected graph.

    Off-diagonal weights are ``1 / (1 + max(deg_i, deg_j))`` on edges, the
    diagonal absorbs the remainder so every row sums to one. The matrix is
    symmetric by construction and its weights are nonnegative, so it is
    doubly stochastic.
    """
    n = check_connected(graph).n
    deg = graph.degrees()
    i, j = graph.ends.T
    w = np.zeros((n, n))
    w[i, j] = w[j, i] = 1.0 / (1.0 + np.maximum(deg[i], deg[j]))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    if np.min(np.diagonal(w)) < 0.0:
        raise AssertionError("negative self-weight; degree bookkeeping is broken")
    if np.max(np.abs(w.sum(axis=1) - 1.0)) > 1e-12:
        raise AssertionError("row sums deviate from 1")

    eigs = sym_eigenvalues(w)
    if n == 1:
        return MixingMatrix(w=w, rho=1.0, beta=0.0)
    second = max(abs(eigs[1]), abs(eigs[-1]))
    rho = 1.0 - second
    beta = 1.0 - eigs[-1]
    if rho <= 0.0:
        raise ValueError("zero spectral gap; graph does not mix")
    return MixingMatrix(w=w, rho=float(rho), beta=float(beta))
