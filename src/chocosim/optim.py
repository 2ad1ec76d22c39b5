"""Decentralized SGD algorithms over compressed gossip, plus baselines.

The compressed family keeps, per node, a private iterate ``x_i`` and a
public copy ``xhat_i`` (replicated at the neighbors). One iteration, all
reading the same post-gossip iterate ``x^(t)``:

1. compress the difference ``x^(t) - xhat^(t)``, advance the public copies;
2. draw the stochastic gradient at ``x^(t)`` (optionally with heavy-ball
   momentum and weight decay);
3. move to ``x^(t+1) = x^(t) - eta*dir + gamma * (W - I) xhat^(t+1)``.

Step 3 is grouped as ``((x - gamma*xhat) + gamma*(W @ xhat)) - eta*dir``:
parts 1 and 2 are independent given ``x^(t)``, and with an identity
compressor and ``gamma = 1`` the update collapses, float for float, to the
uncompressed gossip baseline ``x <- W x - eta*g``.

Every algorithm is a row of :data:`ALGORITHM_TABLE`, the one place that
says what it does, and keeps its state in one :class:`Workers`, in place:
``x``, the arrays its row lists (``xhat``, ``velocity``, ``memory``,
``x_prev``) and one work buffer, ``scratch``, all allocated once per run
by :meth:`Workers.start`: ``(n, dim)`` rows, or one row for the
centralized baseline. A step branches on the arrays the workers hold. A
compressed-family step writes each new value into the storage of the old
one, with the same operations in the same order as the expressions above
(``out=``). Error feedback keeps two iterate buffers: the new ``x`` is
written into ``x_prev``'s storage and the two swap, so ``x_prev`` holds
the previous iterate in its own buffer, never a view of ``x``. The
centralized step writes into its one row too; only the exact baseline's
step replaces ``x``, with the product ``W @ (...)``. So ``record.workers``
holds the final state, and whatever keeps an iteration's state past the
next step (``record_iterates``) copies it.

``scratch`` holds one temporary at a time, and every one is dead before
the next is formed. In a compressed-family step it holds, in turn: the
compressed payload (for error feedback, first ``x - x_prev``), the
gradients' squares, the momentum terms, ``gamma * xhat`` and then ``W @
xhat`` inside the mixing, and last ``eta * dir``. The step's own
arithmetic therefore allocates nothing; the arrays it makes are the
oracle's gradients and the compression kernels' draws and temporaries.
When it returns, the run's divergence check takes ``|x|`` in it.

``max_grad_norm`` is folded in blocks. Each iteration writes its rows'
squared gradient norms, ``(g * g).sum(axis=1)``, into one row of a
run-owned ``(NORM_BLOCK, n)`` block. The block is folded into the record
when it is full and when the loop ends, after a divergence too: per
iteration, the NaN-propagating row maximum and its square root; across
iterations, the running maximum in order, which a NaN iteration leaves
unchanged (``np.fmax``). That is, bit for bit, the value of Python's
``max(running, sqrt(max_i |g_i|^2))`` taken after every iteration.

Baselines: ``decentralized-exact`` (gradient step then exact neighborhood
averaging, full-precision messages) and ``centralized`` (one shared
iterate, the single row of its ``Workers``; all workers upload
full-precision gradients to a coordinator hub).

Randomness: a run has one stream per purpose (:class:`Streams`), and
iteration t draws from ``stream.at(t)``. That one generator serves all
nodes: the gradient noise or minibatch indices of the iteration are one
``(n, .)`` block, row i for node i, and the stochastic compressors draw
their rows in node order. Node i's draw therefore depends on n and on the
row length as well as on ``(seed, t)``.

Bookkeeping that is fixed for a run is done once, at set-up. Every
iteration sends the same messages, so one iteration's per-node traffic is
charged once, by one validated :class:`TrafficLedger` call; after k
completed iterations every node's total is exactly k times that charge,
which gives each logged row's ``bits_busiest`` and, when the loop ends,
the run's ledger. After each step, ``consensus.diverged`` names the first
failing node, or none.

Logged rows are computed in blocks, after the iterations they describe. A
logged iteration copies its state (``x``, and ``xhat`` for the compressed
family) into a run-scoped block of about ``LOG_BLOCK_BYTES``, unless it
fills the block alone. When the block is full, the loop ends or the run
diverges, stacked calls compute every row of the block at once: the node
mean, the consensus distance and the Lyapunov quantity
(``consensus.state_statistics``), the loss and the squared gradient norm at
the mean. Each value is, bit for bit, the one its row computes alone, so
the CSV does not change; ``eval_s`` and ``stats_s`` of
:attr:`RunRecord.timings` time this block work, and ``step_s`` is the rest
of the loop's time.
"""

import math
import time
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .compression import Compressor, compress_blocks, effective_contraction, message_bits
from .consensus import (consensus_stepsize, diverged, mix_with_public, state_statistics,
                        sync_public)
from .metrics import RunRecord, TrafficLedger
from .numerics import RandomStream, is_integer, is_number, row_dots

# every algorithm: the arrays it keeps beside x, each started at zeros, in this
# order; whether it gossips compressed differences through public copies xhat;
# whether it runs on a graph (else one shared row and a coordinator hub)
Algorithm = namedtuple("Algorithm", "keeps compressed on_graph")
ALGORITHM_TABLE = {
    "choco": Algorithm(("xhat",), True, True),
    "choco-momentum": Algorithm(("xhat", "velocity"), True, True),
    "choco-errorfeedback": Algorithm(("xhat", "memory", "x_prev"), True, True),
    "decentralized-exact": Algorithm((), False, True),
    "centralized": Algorithm((), False, False),
}
ALGORITHMS = tuple(ALGORITHM_TABLE)
# logged states kept for one block of rows: a small state's rows share
# their calls, and the block stays small against a run's memory
LOG_BLOCK_BYTES = 2**18
# iterations whose squared gradient norms are kept before one fold takes
# their maximum: the fold's calls are paid once per block
NORM_BLOCK = 64


@dataclass
class OptimizerConfig:
    algorithm: str = "choco"
    eta: float = 0.05
    gamma: object = "auto"  # float, or "auto" for the theory stepsize
    momentum_factor: float = 0.0
    weight_decay: float = 0.0
    nesterov: bool = False
    iterations: int = 1000
    delta_override: float = None  # measured compression quality for gamma

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}")
        if not (is_number(self.eta) and self.eta >= 0.0):
            raise ValueError("eta must be a number >= 0")
        if not (is_number(self.momentum_factor) and 0.0 <= self.momentum_factor < 1.0):
            raise ValueError("momentum_factor must be a number in [0, 1)")
        if not (is_number(self.weight_decay) and self.weight_decay >= 0.0):
            raise ValueError("weight_decay must be a number >= 0")
        if not isinstance(self.nesterov, bool):
            raise ValueError("nesterov must be true or false")
        if not (is_integer(self.iterations) and self.iterations >= 1):
            raise ValueError("iterations must be an integer >= 1")
        if self.gamma != "auto" and not (is_number(self.gamma) and self.gamma > 0.0):
            raise ValueError("gamma must be 'auto' or a positive number")
        if self.delta_override is not None and not (
                is_number(self.delta_override) and 0.0 < self.delta_override <= 1.0):
            raise ValueError("delta_override must be a number in (0, 1]")


@dataclass
class Workers:
    """A run's state, one row per node (the centralized baseline: one
    shared row), each array owned by the workers and updated in place;
    ``scratch`` is a step's or a gossip round's work buffer."""

    x: np.ndarray
    xhat: np.ndarray = None
    velocity: np.ndarray = None
    memory: np.ndarray = None
    x_prev: np.ndarray = None
    scratch: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.scratch = np.empty_like(self.x)

    @classmethod
    def start(cls, rows, algorithm):
        """``algorithm``'s state at a copy of the ``(n, dim)`` start ``rows``."""
        x = np.array(rows, dtype=float)
        if x.ndim != 2:
            raise ValueError("start rows must be (n, dim)")
        w = cls(x=x)
        for name in ALGORITHM_TABLE[algorithm].keeps:
            setattr(w, name, np.zeros_like(x))
        return w


class Streams:
    """The random sources of one run: one stream per purpose, keyed by
    ``(seed, purpose)``. Iteration t draws from ``stream.at(t)``, all nodes
    from that one generator, row i for node i."""

    def __init__(self, seed):
        self.grad = RandomStream(seed, 0, "grad")
        self.compress = RandomStream(seed, 0, "compress")


def _gradients(problem, x_rows, streams, t, norms=None, scratch=None):
    """The iteration's stochastic gradients, a fresh ``(n, dim)`` array;
    each row's squared norm, ``(g * g).sum(axis=1)``, is written into
    ``norms`` when given, the squares formed in ``scratch`` when given."""
    g = problem.stochastic_gradients(x_rows, streams.grad.at(t), t)
    if norms is not None:
        np.add.reduce(np.multiply(g, g, out=scratch), axis=1, out=norms)
    return g


def _fold_norms(record, norms):
    """Fold a block of iterations' squared gradient norms, ``(k, n)`` in
    iteration order, into ``record.max_grad_norm``, as the module docstring
    describes."""
    largest = np.sqrt(np.maximum.reduce(norms, axis=1))
    record.max_grad_norm = float(np.fmax.reduce(largest, initial=record.max_grad_norm))


def _direction(workers, g, cfg):
    """The step direction: ``g`` without a velocity, else computed in ``g``'s
    storage (the oracle's fresh array) and ``workers.velocity``, in place."""
    velocity = workers.velocity
    if velocity is None:
        return g
    # pull = g + weight_decay * x
    pull = np.add(g, np.multiply(cfg.weight_decay, workers.x, out=workers.scratch), out=g)
    # velocity = pull + momentum_factor * velocity
    np.add(pull, np.multiply(cfg.momentum_factor, velocity, out=velocity), out=velocity)
    if cfg.nesterov:
        scaled = np.multiply(cfg.momentum_factor, velocity, out=workers.scratch)
        return np.add(pull, scaled, out=pull)
    return velocity


def choco_step(workers, problem, mixing, comp, gamma, eta, streams, t,
               cfg=None, boundaries=None, norms=None):
    """One iteration of the compressed-gossip family, updating ``workers``
    in place; ``norms`` (optional, length n) receives the rows' squared
    gradient norms.

    Plain, momentum or error feedback by the arrays ``workers`` holds;
    ``cfg`` gives momentum's factors (``None`` will do for other workers).
    """
    feedback = workers.memory is not None
    x, xhat, scratch = workers.x, workers.xhat, workers.scratch
    # deterministic compressors draw nothing, so their generator is never made
    rng = streams.compress.at(t) if comp.stochastic else None
    if feedback:
        # v = (x - x_prev) + memory, formed in memory's storage
        v = np.add(np.subtract(x, workers.x_prev, out=scratch), workers.memory,
                   out=workers.memory)
        q = compress_blocks(comp, v, rng, boundaries, out=scratch).payload
        np.subtract(v, q, out=v)  # the memory keeps the compression error
        np.add(xhat, q, out=xhat)  # literal receiver-side reconstruction
    else:
        sync_public(x, xhat, comp, rng, boundaries, out=xhat, work=scratch)

    g = _gradients(problem, x, streams, t, norms, scratch)
    direction = _direction(workers, g, cfg)
    # error feedback writes the new iterate into x_prev's storage, and the two
    # swap: x_prev then holds the iterate this step started from, with no copy
    new = workers.x_prev if feedback else x
    mix_with_public(x, xhat, mixing.w, gamma, out=new, work=scratch)
    np.subtract(new, np.multiply(eta, direction, out=scratch), out=new)
    if feedback:
        workers.x_prev, workers.x = x, new


def decentralized_exact_step(workers, problem, mixing, eta, streams, t, norms=None):
    """Uncompressed baseline: local gradient step, then exact averaging."""
    g = _gradients(problem, workers.x, streams, t, norms, workers.scratch)
    workers.x = mixing.w @ (workers.x - eta * g)


def centralized_step(workers, problem, eta, streams, t, norms=None):
    """Coordinator baseline: the shared iterate is ``workers.x``'s one row,
    updated in place from n full-precision uploads."""
    # C-ordered copies: a broadcast view would make g F-ordered, and g.mean
    # would sum in another order
    g = _gradients(problem, np.tile(workers.x, (problem.n, 1)), streams, t, norms)
    np.subtract(workers.x, eta * g.mean(axis=0), out=workers.x)


class _LoggedRows:
    """The states of logged iterations, kept until a block of them is full;
    :meth:`flush` then extends each of ``record``'s columns by their rows.

    A state is a copy of ``workers.x``, plus ``workers.xhat`` when the
    algorithm keeps public copies. A block holds ``LOG_BLOCK_BYTES //
    (bytes of one state)`` states, at least one and at most the ``logged``
    rows of the run; a one-state block views ``workers``, flushed as added.
    Each row's value is the per-row definition's, bit for bit: the node
    mean, the consensus distance and psi of ``state_statistics`` over the
    block, ``loss_and_gradient(xbar)`` and ``grad @ grad``. A one-row
    (centralized) state is its own mean, so its consensus distance and psi
    are 0.0.
    """

    def __init__(self, record, problem, busiest_charge, workers, logged):
        self.record, self.problem, self.busiest_charge = record, problem, busiest_charge
        public = workers.xhat is not None
        size = max(1, min(logged, LOG_BLOCK_BYTES // (workers.x.nbytes * (1 + public))))
        self.x = np.empty((size,) + workers.x.shape) if size > 1 else workers.x[None]
        self.xhat = (np.empty_like(self.x) if size > 1 else workers.xhat[None]) if public else None
        self.t = []
        self.eval_s = self.stats_s = 0.0

    def add(self, t, workers):
        """Keep iteration t's state; True when the block is full."""
        k = len(self.t)
        if len(self.x) == 1:
            self.x = workers.x[None]
            self.xhat = None if self.xhat is None else workers.xhat[None]
        else:
            self.x[k] = workers.x
            if self.xhat is not None:
                self.xhat[k] = workers.xhat
        self.t.append(t)
        return k + 1 == len(self.x)

    def flush(self):
        """Append the kept states' rows to the record and empty the block."""
        b = len(self.t)
        if b == 0:
            return
        tick = time.perf_counter()
        xbar, consensus, psi = state_statistics(
            self.x[:b], None if self.xhat is None else self.xhat[:b])
        tock = time.perf_counter()
        f_avg, grad = self.problem.loss_and_gradient(xbar)
        grad_sq = row_dots(grad)
        self.eval_s += time.perf_counter() - tock
        self.stats_s += tock - tick
        record = self.record
        record.t += self.t
        record.f_avg += f_avg.tolist()
        record.grad_sq += grad_sq.tolist()
        record.consensus += consensus.tolist()
        record.psi += psi.tolist()
        record.bits_busiest += [t * self.busiest_charge for t in self.t]
        self.t.clear()


def _iteration_ledger(cfg, n, dim, mixing, comp, boundaries, broadcast):
    """Ledger holding the traffic of one iteration, fixed for the whole run.

    Every node sends one message per iteration: the compressed blocks of
    its row (the compressed family) or its full-precision row (the
    baselines). It is charged by one validated ledger call: once per
    out-link (pairwise), once in total (``broadcast``), or as an upload to
    the coordinator hub, ledger slot ``n`` (centralized).
    """
    _, compressed, on_graph = ALGORITHM_TABLE[cfg.algorithm]
    bits = (message_bits(comp, dim, boundaries) if compressed
            else message_bits(Compressor("identity"), dim))
    ledger = TrafficLedger(n if on_graph else n + 1)
    nodes = np.arange(n)
    if not on_graph:
        ledger.add_upload(nodes, n, bits)
    elif broadcast:
        ledger.add_broadcast(nodes, bits)
    else:
        # one copy per neighbor (nonzero off-diagonal weight)
        links = mixing.w != 0.0
        np.fill_diagonal(links, False)
        src, dst = np.nonzero(links)
        ledger.add_message(src, dst, bits)
    return ledger


def resolve_gamma(cfg, mixing, comp, dim, boundaries=None):
    """Numeric gossip stepsize from the config (theory formula for "auto")."""
    if not ALGORITHM_TABLE[cfg.algorithm].compressed:
        return 1.0
    if cfg.gamma != "auto":
        return float(cfg.gamma)
    delta = cfg.delta_override
    if delta is None:
        delta = effective_contraction(comp, dim, boundaries)
    return consensus_stepsize(mixing, delta)


def run(problem, cfg, mixing=None, compressor=None, seed=0, log_every=1,
        broadcast=False, x0=None, per_layer=True, record_iterates=False):
    """Run one algorithm on one problem; returns a :class:`RunRecord`.

    ``x0`` is the common starting point, shape ``(dim,)`` (zeros by
    default). ``per_layer`` compresses each parameter block separately when
    the problem defines blocks. ``record_iterates`` also stores the start
    and each iteration's post-gossip iterate rows, ``(1, dim)`` for
    centralized (tests and demos; memory scales with T).
    """
    _, compressed, on_graph = ALGORITHM_TABLE[cfg.algorithm]
    if on_graph:
        if mixing is None:
            raise ValueError("decentralized algorithms need a mixing matrix")
        if mixing.w.shape[0] != problem.n:
            raise ValueError("mixing matrix size != problem node count")
    if compressor is None:
        compressor = Compressor("identity")
    if not (is_integer(log_every) and log_every >= 1):
        raise ValueError("log_every must be an integer >= 1")

    n, dim = problem.n, problem.dim
    x0 = np.zeros(dim) if x0 is None else np.asarray(x0, dtype=float)
    if x0.shape != (dim,):
        raise ValueError(f"x0 must have shape ({dim},), got {x0.shape}")
    boundaries = problem.layer_boundaries if per_layer else None
    gamma = resolve_gamma(cfg, mixing, compressor, dim, boundaries)
    streams = Streams(seed)

    record = RunRecord(seed=seed)
    record.gamma = gamma
    record.eta = cfg.eta
    started = time.perf_counter()

    workers = Workers.start(np.tile(x0, (n if on_graph else 1, 1)), cfg.algorithm)
    ledger = _iteration_ledger(cfg, n, dim, mixing, compressor, boundaries, broadcast)
    busiest_charge = ledger.busiest()

    history = []
    if record_iterates:
        history.append(workers.x.copy())

    logged = cfg.iterations // log_every + (cfg.iterations % log_every != 0)
    rows = _LoggedRows(record, problem, busiest_charge, workers, logged)
    # iteration t's squared gradient norms go to row k = t % NORM_BLOCK, and
    # each full block is folded into record.max_grad_norm
    norms = np.empty((NORM_BLOCK, n))
    norm_rows = list(norms)
    completed = 0
    k = -1
    loop_started = time.perf_counter()
    # a diverging run may overflow before the divergence test reports it;
    # its steps, rows and closing reductions print no warning
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(cfg.iterations):
            k = t % NORM_BLOCK
            if not on_graph:
                centralized_step(workers, problem, cfg.eta, streams, t, norm_rows[k])
            elif not compressed:
                decentralized_exact_step(workers, problem, mixing, cfg.eta, streams, t,
                                         norm_rows[k])
            else:
                choco_step(workers, problem, mixing, compressor, gamma, cfg.eta,
                           streams, t, cfg=cfg, boundaries=boundaries, norms=norm_rows[k])
            if k + 1 == NORM_BLOCK:
                _fold_norms(record, norms)

            # the step's work buffer is free again when the step returns
            failing = diverged(workers.x, workers.scratch)
            if failing is not None:
                record.diverged = True
                record.diverged_at = t + 1
                # the centralized iterate is the coordinator's, ledger slot n
                record.diverged_node = failing if on_graph else n
                break

            completed = t + 1
            if record_iterates:
                history.append(workers.x.copy())
            if completed % log_every == 0 or completed == cfg.iterations:
                if rows.add(completed, workers):
                    rows.flush()
        rows.flush()
        # the rows since the last full block, a diverged iteration's included
        _fold_norms(record, norms[:(k + 1) % NORM_BLOCK])
        record.final_x_mean = workers.x.mean(axis=0)

    ended = time.perf_counter()
    record.elapsed_s = ended - started
    # the loop's time less its logged rows' is the steps' and their bookkeeping's
    step_s = ended - loop_started - rows.eval_s - rows.stats_s
    record.timings = {"step_s": step_s, "eval_s": rows.eval_s, "stats_s": rows.stats_s}
    ledger.per_node *= completed  # every completed iteration charged the same
    record.ledger = ledger
    record.workers = workers
    if record_iterates:
        record.iterates = history
    return record


def tune_stepsize(r0, b, e, d_cap, horizon):
    """Stepsize minimizing the three-term convergence bound.

    ``min( sqrt(r0/(b(T+1))), (r0/(e(T+1)))^(1/3), 1/d_cap )`` with zero or
    infinite terms dropped from the minimum (``d_cap`` may be +inf).
    """
    for name, value in (("r0", r0), ("b", b), ("e", e)):
        if not (is_number(value) and value >= 0.0):
            raise ValueError(f"{name} must be a finite number >= 0")
    if not ((is_number(d_cap) and d_cap > 0.0) or d_cap == math.inf):
        raise ValueError("d_cap must be a positive number or +inf")
    if not (is_integer(horizon) and horizon >= 1):
        raise ValueError("horizon must be an integer >= 1")
    candidates = []
    if b > 0.0:
        candidates.append(math.sqrt(r0 / (b * (horizon + 1))))
    if e > 0.0:
        candidates.append((r0 / (e * (horizon + 1))) ** (1.0 / 3.0))
    if math.isfinite(d_cap):
        candidates.append(1.0 / d_cap)
    if not candidates:
        raise ValueError("all bound terms vanished; nothing to tune")
    return min(candidates)


def theoretical_stepsize(f0, l_smooth, sigma_sq, g_sq, n, rate_c, horizon):
    """Tuned stepsize with the convergence-bound constants plugged in."""
    return tune_stepsize(
        r0=4.0 * f0,
        b=2.0 * sigma_sq * l_smooth / n,
        e=36.0 * g_sq * l_smooth**2 / rate_c**2,
        d_cap=4.0 * l_smooth,
        horizon=horizon,
    )


def consensus_bound(eta, n, g_sq, rate_c):
    """Theory bound on total squared consensus distance, ``eta^2 12 n G^2 / c^2``."""
    return eta**2 * 12.0 * n * g_sq / rate_c**2
