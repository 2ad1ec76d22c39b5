"""Communication graphs and their gossip mixing matrices.

Generators for the standard benchmark families (ring, 2-D torus, fully
connected) plus an edge-list loader for arbitrary graphs such as small
social networks; :func:`build_topology` reads the spec strings that name
them. ``mixing_matrix`` turns a graph into the symmetric doubly
stochastic matrix used by all gossip updates, together with its spectral
quantities.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import is_integer, sym_eigenvalues


def _count(n):
    if not is_integer(n):  # a float count is refused, never truncated
        raise ValueError(f"node count n must be an integer, got {n!r}")
    return n


def _pair(edge):
    """An edge's two integer endpoints; a float or bool is refused, never truncated."""
    if len(edge) != 2:
        raise ValueError(f"edge {tuple(edge)} is not a pair of endpoints")
    i, j = edge
    if not (is_integer(i) and is_integer(j)):
        raise ValueError(f"edge ({i}, {j}) has a non-integer endpoint")
    return i, j


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on nodes ``0..n-1``; ``ends`` holds the edges'
    endpoints as one ``(E, 2)`` integer array."""

    n: int
    edges: tuple = field(default=())
    ends: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if _count(self.n) < 1:
            raise ValueError("graph needs at least one node")
        # every edge a pair, and one endpoint of each type decides for all, so
        # ``ends`` reads no other shape and truncates no float or bool
        flat = tuple(itertools.chain.from_iterable(self.edges))
        kinds = list(map(type, flat))
        valid = (set(map(len, self.edges)) <= {2}
                 and all(is_integer(flat[kinds.index(kind)]) for kind in set(kinds)))
        if valid:
            ends = np.fromiter(flat, np.intp, len(flat)).reshape(len(self.edges), 2)
            del flat, kinds  # E-long temporaries; freed, the set of edges builds faster
            object.__setattr__(self, "ends", ends)
            i, j = ends.T
            valid = (not ((i < 0) | (i >= j) | (j >= self.n)).any()
                     and len(set(self.edges)) == len(self.edges))
        # the loop runs only on bad edges: it names the first failing edge
        # and its first failing rule
        if not valid:
            seen = set()
            for edge in self.edges:
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


def _generated(n, i, j):
    """Graph on ``n`` nodes from endpoint arrays: each edge once, as sorted ``(min, max)`` ints."""
    pairs = zip(np.minimum(i, j).tolist(), np.maximum(i, j).tolist())
    return Graph(n, tuple(sorted(set(pairs))))


def _check_ring(n):
    if _count(n) < 2:
        raise ValueError("ring needs n >= 2")


def _torus_side(n):
    s = math.isqrt(max(_count(n), 0))  # a negative count is no square either
    if s * s != n:
        raise ValueError(f"torus needs a perfect square node count, got {n}")
    if s < 3:
        raise ValueError("torus needs side length >= 3 (wrap-around edges collide below that)")
    return s


def _check_full(n):
    if _count(n) < 1:
        raise ValueError("need n >= 1")


def ring(n):
    """Cycle graph; ``n = 2`` degenerates to a single edge."""
    _check_ring(n)
    v = np.arange(n)
    return _generated(n, v, (v + 1) % n)


def torus(n):
    """2-D periodic grid on ``s x s`` nodes where ``n = s*s`` and ``s >= 3``."""
    s = _torus_side(n)
    v = np.arange(n)
    r, c = np.divmod(v, s)  # node v = r * s + c links to its right and lower neighbors
    return _generated(n, np.tile(v, 2), np.concatenate([r * s + (c + 1) % s, (r + 1) % s * s + c]))


def fully_connected(n):
    """Complete graph; ``n = 1`` is a single isolated node."""
    _check_full(n)
    i, j = np.triu_indices(n, 1)  # already (min, max) pairs in sorted order
    return Graph(n, tuple(zip(i.tolist(), j.tolist())))


def from_edge_list(n, pairs):
    """Graph from explicit integer ``(i, j)`` pairs; symmetric duplicates collapse."""
    ends = {tuple(sorted(_pair(edge))) for edge in pairs}  # Graph refuses a self-loop
    return Graph(n, tuple(sorted(ends)))


def load_edge_list(path):
    """Read a graph from a text file with one ``i j`` pair per line.

    Lines starting with ``#`` (and inline ``#`` suffixes) are comments.
    Indices are 0-based; the node count is ``max index + 1``.
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
    return from_edge_list(max(max(i, j) for i, j in pairs) + 1, pairs)


# each generated family's size rule, which its builder applies, and its builder
_GENERATED = {"ring": (_check_ring, ring), "torus": (_torus_side, torus),
              "full": (_check_full, fully_connected)}


def build_topology(spec, check_only=False):
    """Graph from a spec string: ``ring:<n> | torus:<n> | full:<n> | edgelist:<path>``.

    ``check_only`` returns its node count instead: an edge list is read and
    checked to be connected (:func:`mixing_matrix` checks a built one), a
    generated family only by its size rule (``full:1000`` builds in 0.5 s).
    """
    kind, colon, arg = str(spec).partition(":")
    if not colon:
        raise ValueError(f"bad topology spec {spec!r}")
    if kind == "edgelist":  # the one family that can come disconnected
        graph = load_edge_list(arg)
        return check_connected(graph).n if check_only else graph
    try:
        n = int(arg)
    except ValueError as exc:
        raise ValueError(f"bad topology size in {spec!r}") from exc
    if kind not in _GENERATED:
        raise ValueError(f"unknown topology kind {kind!r}")
    check, build = _GENERATED[kind]
    if check_only:
        check(n)
        return n
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
