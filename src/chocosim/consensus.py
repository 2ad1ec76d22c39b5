"""Compressed gossip averaging: each node keeps a private value ``x_i`` and a
publicly replicated copy ``xhat_i`` that neighbors reconstruct from
compressed difference messages.

One round applies the gossip increment ``gamma * sum_j w_ij (xhat_j -
xhat_i)`` to every private value, then transmits ``q_i = Q(x_i - xhat_i)``
and advances every replica ``xhat_i += q_i``. With the theory stepsize from
:func:`consensus_stepsize` the squared consensus error contracts linearly at
the rate given by :func:`rate_constant`.

All nodes move together: values are ``(n, dim)`` rows, and one
:func:`~chocosim.compression.compress_blocks` call compresses every node's
row. The stochastic compressors draw all rows from one
``numpy.random.Generator``, ``rng``, node i's draw coming after those of
nodes 0..i-1, so the result equals compressing node by node, in node
order, from that generator. Traffic is not counted here: every message of
a row has the analytic size ``message_bits``.

The statistics :func:`consensus_distance` and :func:`lyapunov` are made of
:func:`squared_sum` terms, and :func:`squared_sum` also takes a ``(b, n,
dim)`` block of states, so a caller that needs both for many states (an
optimizer's logged rows) sums the spread ``sum_i ||x_i - xbar||^2`` once
per state and forms each from it, with the same floats. A gossip round's
divergence check is one pass, ``max |x| <= limit``, the optimizer's too.

Ownership: :func:`sync_public` and :func:`mix_with_public` return fresh
arrays and never write to their inputs, unless the caller passes ``out``,
an ``(n, dim)`` float buffer it owns: the result is then written there,
with the same floats. Their temporaries (the compressed payload; ``gamma *
xhat`` and ``w @ xhat``) go to ``work``, a second such buffer, when the
caller passes one. :func:`choco_gossip_round` updates a node state this
way: the optimizer's ``Workers``, of which it reads only the ``x``,
``xhat`` and ``scratch`` arrays, as :func:`lyapunov` reads ``x`` and
``xhat``. ``x`` and ``xhat`` keep their storage from round to round, so a
caller that keeps a round's values copies them.
"""

import numpy as np

from .compression import compress_blocks
from .numerics import is_number

# an iterate entry beyond this (or NaN) counts as diverged, here and in optim
DIVERGENCE_LIMIT = 1e12


def diverged(x, work):
    """An entry of ``x`` is NaN or beyond the limit: one pass, ``|x|`` in
    ``work`` (a NaN maximum compares False, and +-inf exceeds the limit)."""
    return not np.maximum.reduce(np.abs(x, out=work), None) <= DIVERGENCE_LIMIT


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


def rate_constant(mixing, delta):
    """Linear contraction rate ``c = rho^2 delta / 82`` of the squared
    consensus error under compressed gossip."""
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must be in (0, 1]")
    return mixing.rho**2 * delta / 82.0


def mix_with_public(x, xhat, w, gamma, out=None, work=None):
    """Gossip increment ``x + gamma * (w @ xhat - xhat)``.

    Grouped as ``(x - gamma*xhat) + gamma*(w @ xhat)`` so that with
    ``gamma = 1`` and ``xhat == x`` the result is exactly the float you get
    from ``w @ x``; exact-averaging mode then reduces to plain matrix
    multiplication bit for bit. The result is a fresh array, or ``out``
    (which may be ``x``, but not ``xhat``). ``gamma * xhat`` and then ``w @
    xhat`` are formed in ``work`` (neither ``x``, ``xhat`` nor ``out``), or
    in temporaries without it.
    """
    mixed = np.subtract(x, np.multiply(gamma, xhat, out=work), out=out)
    scaled = np.matmul(w, xhat, out=work)
    return np.add(mixed, np.multiply(gamma, scaled, out=scaled), out=mixed)


def sync_public(x, xhat, comp, rng, boundaries=None, out=None, work=None):
    """Compress ``x - xhat`` per node and return the advanced public copies.

    ``rng`` is the one generator all rows draw from, or ``None`` for the
    deterministic compressors. The new copy is computed as ``x - (v - q)``,
    i.e. the private value minus the compression error; algebraically
    identical to ``xhat + q``, but it makes lossless compression exactly
    lossless in floating point as well. One array holds ``v``, then the
    error, then the new copy: a fresh one, or ``out`` (which may be
    ``xhat``, but not ``x``). The payload ``q`` is written into ``work``
    (neither ``x`` nor ``out``), or into a fresh array without it.
    """
    v = np.subtract(x, xhat, out=out)
    np.subtract(v, compress_blocks(comp, v, rng, boundaries, out=work).payload, out=v)
    return np.subtract(x, v, out=v)


def choco_gossip_round(workers, mixing, comp, rng, gamma, boundaries=None):
    """One compressed gossip round with stepsize ``gamma``: mix the private
    values ``workers.x``, check them for divergence, then sync the public
    copies ``workers.xhat``, each in its own storage, the temporaries in
    ``workers.scratch``. ``rng`` is every node's generator, usually kept for
    the whole gossip run; a stochastic compressor advances it."""
    if not (is_number(gamma) and gamma > 0.0):
        raise ValueError("gamma must be a positive number")
    x, xhat, scratch = workers.x, workers.xhat, workers.scratch
    if mixing.w.shape[0] != x.shape[0]:
        raise ValueError("mixing matrix size does not match state")
    mix_with_public(x, xhat, mixing.w, gamma, out=x, work=scratch)
    if diverged(x, scratch):
        raise FloatingPointError("gossip iterates diverged")
    sync_public(x, xhat, comp, rng, boundaries, out=xhat, work=scratch)


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
