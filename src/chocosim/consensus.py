"""Compressed gossip averaging: each node keeps a private value ``x_i`` and a
publicly replicated copy ``xhat_i`` that neighbors reconstruct from
compressed difference messages.

One round applies the gossip increment ``gamma * sum_j w_ij (xhat_j -
xhat_i)`` to every private value, then transmits ``q_i = Q(x_i - xhat_i)``
and advances every replica ``xhat_i += q_i``. With the theory stepsize from
:func:`consensus_stepsize` the squared consensus error contracts linearly at
the rate given by :func:`rate_constant`.

All nodes move together: values are ``(n, dim)`` rows, and one call
compresses every node's row (:func:`compress_rows`). The stochastic
compressors draw all rows from one random source, node i's draw coming
after those of nodes 0..i-1, so the result equals compressing node by
node, in node order, from that source.

The statistics :func:`consensus_distance` and :func:`lyapunov` are made of
:func:`squared_sum` terms, and :func:`squared_sum` also takes a ``(b, n,
dim)`` block of states, so a caller that needs both for many states (an
optimizer's logged rows) sums the spread ``sum_i ||x_i - xbar||^2`` once
per state and forms each from it, with the same floats. A gossip round's
divergence check is one pass, ``max |x| <= limit``.
"""

from dataclasses import dataclass

import numpy as np

from .compression import compress_blocks

_DIVERGENCE_NORM = 1e12


@dataclass
class ConsensusState:
    """Private values ``x`` and public copies ``xhat``, both ``(n, dim)``.

    Public copies start at zero: every node can assume that initial value
    for every peer without communicating.
    """

    x: np.ndarray
    xhat: np.ndarray
    gamma: float

    @classmethod
    def start(cls, x0, gamma):
        x0 = np.array(x0, dtype=float)
        if x0.ndim != 2:
            raise ValueError("x0 must be (n, dim)")
        if not np.all(np.isfinite(x0)):
            raise FloatingPointError("non-finite initial values")
        if gamma <= 0.0:
            raise ValueError("gamma must be positive")
        return cls(x=x0, xhat=np.zeros_like(x0), gamma=float(gamma))

    @property
    def n(self):
        return self.x.shape[0]

    @property
    def dim(self):
        return self.x.shape[1]


def consensus_stepsize(mixing, delta):
    """Theory gossip stepsize for a mixing matrix and compression quality.

    ``rho^2 * delta / (16 rho + rho^2 + 4 beta^2 + 2 rho beta^2 - 8 rho delta)``
    with ``rho`` the spectral gap and ``beta = ||I - W||_2``. Always in
    (0, 1] for valid inputs; the denominator is checked anyway because a
    non-positive value signals an invalid ``(rho, delta, beta)`` combination.
    """
    rho, beta = mixing.rho, mixing.beta
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must be in (0, 1]")
    if not (0.0 < rho <= 1.0):
        raise ValueError("rho must be in (0, 1]")
    denom = 16.0 * rho + rho**2 + 4.0 * beta**2 + 2.0 * rho * beta**2 - 8.0 * rho * delta
    if denom <= 0.0:
        raise ValueError(f"invalid stepsize denominator {denom}")
    return rho**2 * delta / denom


def rate_constant(mixing, delta, scheme="choco"):
    """Linear contraction rate ``c`` of the squared consensus error.

    ``scheme="choco"`` gives the compressed-gossip rate ``rho^2 delta / 82``;
    ``scheme="exact"`` gives the uncompressed one-matrix rate ``rho``.
    """
    if scheme == "exact":
        return mixing.rho
    if scheme != "choco":
        raise ValueError(f"unknown scheme {scheme!r}")
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must be in (0, 1]")
    return mixing.rho**2 * delta / 82.0


def mix_with_public(x, xhat, w, gamma):
    """Gossip increment ``x + gamma * (w @ xhat - xhat)``.

    Grouped as ``(x - gamma*xhat) + gamma*(w @ xhat)`` so that with
    ``gamma = 1`` and ``xhat == x`` the result is exactly the float you get
    from ``w @ x``; exact-averaging mode then reduces to plain matrix
    multiplication bit for bit.
    """
    return (x - gamma * xhat) + gamma * (w @ xhat)


def compress_rows(v, comp, rng, boundaries=None):
    """Compress each node's row of ``v`` in one call; returns ``(q, bits)``,
    where ``bits[i]`` is the wire size of node i's message.

    ``rng`` is the one generator all rows draw from, or ``None`` for the
    deterministic compressors.
    """
    msg = compress_blocks(comp, v, rng, boundaries)
    # every row has the same length, so the same analytic cost
    return msg.payload, np.full(v.shape[0], msg.bits // v.shape[0], dtype=np.int64)


def sync_public(x, xhat, comp, rng, boundaries=None):
    """Compress ``x - xhat`` per node and advance the public copies.

    Returns ``(xhat_new, bits)`` as in :func:`compress_rows`. The new copy
    is computed as ``x - (v - q)``, i.e. the private value minus the
    compression error; algebraically identical to ``xhat + q``, but it makes
    lossless compression exactly lossless in floating point as well.
    """
    v = x - xhat
    q, bits = compress_rows(v, comp, rng, boundaries)
    return x - (v - q), bits


def choco_gossip_round(state, mixing, comp, rng, boundaries=None):
    """One full compressed gossip round, mutating ``state`` in place.

    ``rng`` is the random source of every node (a ``RandomStream`` kept for
    the whole gossip run, or a ``numpy.random.Generator``); a stochastic
    compressor advances it. Returns the per-node message bits for this
    round.
    """
    if mixing.w.shape[0] != state.n:
        raise ValueError("mixing matrix size does not match state")
    state.x = mix_with_public(state.x, state.xhat, mixing.w, state.gamma)
    # one pass: a NaN maximum compares False, and +-inf exceeds the limit
    if not np.abs(state.x).max() <= _DIVERGENCE_NORM:
        raise FloatingPointError("gossip iterates diverged")
    state.xhat, bits = sync_public(state.x, state.xhat, comp, rng, boundaries)
    return bits


def squared_sum(diff):
    """Sum of squares of each ``(n, dim)`` state of ``diff`` (one state, or a
    ``(b, n, dim)`` block), the sum both statistics below are made of.

    Each state is summed as one contiguous run of ``n * dim`` elements, in
    the order ``diff.sum()`` adds them for that state alone.
    """
    return (diff ** 2).reshape(diff.shape[:-2] + (-1,)).sum(axis=-1)


def lyapunov(state):
    """Total squared disagreement plus public-copy lag.

    ``sum_i ||x_i - xbar||^2 + sum_i ||x_i - xhat_i||^2``; this is the
    quantity that contracts by ``(1 - c)`` per round in expectation. A
    ``state`` without public copies (``xhat is None``, exact gossip) has no
    lag term.
    """
    psi = squared_sum(state.x - state.x.mean(axis=0))
    if state.xhat is not None:
        psi = psi + squared_sum(state.x - state.xhat)
    return float(psi)


def consensus_distance(x):
    """Node-averaged squared distance to the node mean, ``(1/n) sum ||x_i - xbar||^2``."""
    return float(squared_sum(x - x.mean(axis=0)) / x.shape[0])
