"""Communication graphs and their gossip mixing matrices.

Generators for the standard benchmark families (ring, 2-D torus, fully
connected) plus an edge-list loader for arbitrary graphs such as small
social networks. ``mixing_matrix`` turns a graph into the symmetric doubly
stochastic matrix used by all gossip updates, together with its spectral
quantities.
"""

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .numerics import sym_eigenvalues


def _is_index_type(kind):
    # Python and NumPy integers; a bool is an int to Python, not to a graph
    return issubclass(kind, numbers.Integral) and not issubclass(kind, bool)


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on nodes ``0..n-1``."""

    n: int
    edges: tuple = field(default=())

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one node")
        # the endpoints' types in one pass: integers, not floats or booleans,
        # which the integer array of ``ends`` would truncate
        kinds = set(map(type, itertools.chain.from_iterable(self.edges)))
        valid = all(map(_is_index_type, kinds))
        if valid:
            i, j = self.ends.T
            valid = (not ((i < 0) | (i >= j) | (j >= self.n)).any()
                     and len(set(self.edges)) == len(self.edges))
        # the loop runs only on bad edges: it names the first failing edge
        # and its first failing rule
        if not valid:
            seen = set()
            for i, j in self.edges:
                if not (_is_index_type(type(i)) and _is_index_type(type(j))):
                    raise ValueError(f"edge ({i}, {j}) has a non-integer endpoint")
                if not (0 <= i < self.n and 0 <= j < self.n):
                    raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")
                if i == j:
                    raise ValueError(f"self-loop ({i}, {j}) not allowed")
                if i > j:
                    raise ValueError("edges must be stored as (i, j) with i < j")
                if (i, j) in seen:
                    raise ValueError(f"duplicate edge ({i}, {j})")
                seen.add((i, j))

    @functools.cached_property
    def ends(self):
        """The edges' endpoints as one ``(E, 2)`` integer array."""
        flat = itertools.chain.from_iterable(self.edges)
        return np.fromiter(flat, dtype=np.intp).reshape(len(self.edges), 2)

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


def _normalize_edges(pairs):
    out = set()
    for i, j in pairs:
        i, j = int(i), int(j)
        if i == j:
            raise ValueError(f"self-loop ({i}, {j}) not allowed")
        out.add((min(i, j), max(i, j)))
    return tuple(sorted(out))


def _check_ring(n):
    if n < 2:
        raise ValueError("ring needs n >= 2")


def _torus_side(n):
    s = math.isqrt(max(n, 0))  # a negative count is no square either
    if s * s != n:
        raise ValueError(f"torus needs a perfect square node count, got {n}")
    if s < 3:
        raise ValueError("torus needs side length >= 3 (wrap-around edges collide below that)")
    return s


def _check_full(n):
    if n < 1:
        raise ValueError("need n >= 1")


# the size rule of each generated family, which its builder applies; a
# config checks a ``kind:n`` spec with it without building the graph
SIZE_RULES = {"ring": _check_ring, "torus": _torus_side, "full": _check_full}


def ring(n):
    """Cycle graph; ``n = 2`` degenerates to a single edge."""
    _check_ring(n)
    if n == 2:
        return Graph(2, ((0, 1),))
    return Graph(n, _normalize_edges((i, (i + 1) % n) for i in range(n)))


def torus(n):
    """2-D periodic grid on ``s x s`` nodes where ``n = s*s`` and ``s >= 3``."""
    s = _torus_side(n)
    pairs = []
    for r in range(s):
        for c in range(s):
            v = r * s + c
            pairs.append((v, r * s + (c + 1) % s))
            pairs.append((v, ((r + 1) % s) * s + c))
    return Graph(n, _normalize_edges(pairs))


def fully_connected(n):
    """Complete graph; ``n = 1`` is a single isolated node."""
    _check_full(n)
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def from_edge_list(n, pairs):
    """Graph from explicit ``(i, j)`` pairs; symmetric duplicates collapse."""
    return Graph(n, _normalize_edges(pairs))


def load_edge_list(path, n=None):
    """Read a graph from a text file with one ``i j`` pair per line.

    Lines starting with ``#`` (and inline ``#`` suffixes) are comments.
    Indices are 0-based; ``n`` defaults to ``max index + 1``.
    """
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
                i, j = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-integer node id") from exc
            pairs.append((i, j))
    if not pairs:
        raise ValueError(f"{path}: no edges found")
    inferred = max(max(i, j) for i, j in pairs) + 1
    if n is None:
        n = inferred
    elif n < inferred:
        raise ValueError(f"{path}: edge index {inferred - 1} exceeds n={n}")
    return from_edge_list(n, pairs)


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

    @property
    def n(self):
        return self.w.shape[0]


def mixing_matrix(graph):
    """Build the local-degree mixing matrix of a connected graph.

    Off-diagonal weights are ``1 / (1 + max(deg_i, deg_j))`` on edges, the
    diagonal absorbs the remainder so every row sums to one. The matrix is
    symmetric by construction and its weights are nonnegative, so it is
    doubly stochastic.
    """
    if not graph.is_connected():
        raise ValueError("graph must be connected to average")
    n = graph.n
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
