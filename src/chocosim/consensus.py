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
a row has the analytic size :func:`~chocosim.compression.bit_cost`.

The node mean, the consensus distance and the Lyapunov quantity psi are
defined once, by :func:`state_statistics`, for one ``(n, dim)`` state or
each state of a ``(b, n, dim)`` block (an optimizer's logged rows), and
divergence once, by :func:`diverged`, which gossip rounds and the
optimizer both call.

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
    """The first row of ``x`` with a NaN, an infinity or an entry beyond the
    limit, or ``None``: one pass over ``|x|``, formed in ``work``, decides (a
    NaN maximum compares False), and only then are its rows searched."""
    if np.maximum.reduce(np.abs(x, out=work), None) <= DIVERGENCE_LIMIT:
        return None
    return int(np.argmax(~(work <= DIVERGENCE_LIMIT).all(axis=1)))


def _check_delta(delta):  # a bool or a string is no delta
    if not (is_number(delta) and 0.0 < delta <= 1.0):
        raise ValueError("delta must be a number in (0, 1]")


def consensus_stepsize(mixing, delta):
    """Theory gossip stepsize for a mixing matrix and compression quality.

    ``rho^2 * delta / (16 rho + rho^2 + 4 beta^2 + 2 rho beta^2 - 8 rho delta)``
    with ``rho`` the spectral gap and ``beta = ||I - W||_2``. Always in
    (0, 1] for valid inputs.
    """
    rho, beta = mixing.rho, mixing.beta
    _check_delta(delta)
    if not (0.0 < rho <= 1.0):
        raise ValueError("rho must be in (0, 1]")
    denom = 16.0 * rho + rho**2 + 4.0 * beta**2 + 2.0 * rho * beta**2 - 8.0 * rho * delta
    return rho**2 * delta / denom


def rate_constant(mixing, delta):
    """Linear contraction rate ``c = rho^2 delta / 82`` of the squared
    consensus error under compressed gossip."""
    _check_delta(delta)
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
    if diverged(x, scratch) is not None:
        raise FloatingPointError("gossip iterates diverged")
    sync_public(x, xhat, comp, rng, boundaries, out=xhat, work=scratch)


def _squared_sum(diff):
    # each (n, dim) state's squares, summed as one run in the order diff.sum() adds them
    return (diff ** 2).reshape(diff.shape[:-2] + (-1,)).sum(axis=-1)


def state_statistics(x, xhat=None):
    """``(xbar, consensus distance, psi)`` of one ``(n, dim)`` state, or of
    each state of a ``(b, n, dim)`` block, with the same floats either way:
    the node mean ``x.sum(axis=-2) / n`` (bitwise ``x.mean(axis=0)``), ``(1/n)
    sum_i ||x_i - xbar||^2``, and ``psi = sum_i ||x_i - xbar||^2 + sum_i ||x_i
    - xhat_i||^2``, which contracts by ``(1 - c)`` per round in expectation
    (without public copies, ``xhat is None``, it has no lag term)."""
    n = x.shape[-2]
    xbar = x.sum(axis=-2) / n
    spread = _squared_sum(x - xbar[..., None, :])
    psi = spread if xhat is None else spread + _squared_sum(x - xhat)
    return xbar, spread / n, psi


def lyapunov(state):
    """psi of a node state's ``x`` and ``xhat`` (:func:`state_statistics`)."""
    return float(state_statistics(state.x, state.xhat)[2])


def consensus_distance(x):
    """Node-averaged squared distance to the node mean, ``(1/n) sum ||x_i - xbar||^2``."""
    return float(state_statistics(x)[1])
