"""Synthetic distributed objectives ``f(x) = (1/n) sum_i f_i(x)``.

Three families, in increasing roughness: strongly convex quadratics with
additive Gaussian gradient noise, L2-regularized logistic regression on a
two-blob dataset (minibatch noise), and a one-hidden-layer tanh network
(non-convex, minibatch noise, per-layer parameter blocks). All expose the
same oracle interface, so the optimizers never need to know which one they
are running on: ``stochastic_gradients`` draws stacked rows' gradients from
one generator (every ``rng`` here is a ``numpy.random.Generator``), row r
for node ``nodes[r]``, node r without a map, as one ``(k, .)`` block of
randomness (quadratic noise ``(k, dim)``, minibatch indices ``(k,
batch)``); row r draws what the one-row call ``stochastic_gradient`` draws
when the rows draw one after another, in row order. Logged rows ask
``loss_and_gradient(x)`` for ``(loss(x), full_gradient(x))``, of one x or
of a ``(b, dim)`` block of rows. Node losses and gradients are summed with
``numerics.sum_in_order``: node by node, each added to the total before it.

A dataset problem computes its loss and gradient in one stacked kernel,
the definition: ``(k, m, p)`` sample stacks at ``(k, dim)`` rows, where a
stacked ``np.matmul`` runs one gemm or gemv per row with the operand
layout of the 2-D call, so each row equals its one-row call bit for bit.
``stochastic_gradients`` is one call on the stacked
minibatches, or one call per row when shards smaller than ``batch`` make
the minibatch sizes unequal. A dataset problem holds each sample once, in
epoch-0 deal order, and the full-batch oracles read views of that store:
``node_loss`` and ``node_gradient`` are one-shard calls, and
``loss_and_gradient`` one call per chunk of a few shards and row;
``loss`` is its first half, and ``full_gradient`` makes the same calls
with no loss computed. The quadratic's ``node_loss`` and
``node_gradient`` are its definitions, and ``loss`` and ``full_gradient``
equal them bit for bit; its stochastic oracle is one gemm of the stacked
residuals, which rounds within a few ulps of ``node_gradient``.
"""

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import (RandomStream, is_integer, is_number, require_finite, row_dots,
                       sum_in_order, sym_eigenvalues)

PARTITION_MODES = ("iid-reshuffled", "fixed-split")
# sample bytes per full-batch kernel call: a few shards, whose activations
# stay in cache (two MLP shards of the benchmark; all 16 at once are slower)
EVAL_CHUNK_BYTES = 2**17


@dataclass
class Partition:
    """Assignment of sample indices to nodes.

    ``fixed-split`` deals the samples out once (optionally sorted by label,
    which concentrates classes on few nodes and maximizes heterogeneity) and
    never changes. ``iid-reshuffled`` redraws a fresh random split for every
    epoch index, from ``RandomStream(seed, 0, "shuffle").at(epoch)`` alone.
    """

    mode: str
    n_nodes: int
    n_samples: int
    seed: int = 0
    by_label: bool = False
    labels: np.ndarray = None

    def __post_init__(self):
        if self.mode not in PARTITION_MODES:
            raise ValueError(f"unknown partition mode {self.mode!r}")
        if not (is_integer(self.n_nodes) and is_integer(self.n_samples)
                and 1 <= self.n_nodes <= self.n_samples):
            raise ValueError("need integers 1 <= n_nodes <= n_samples: a sample per node")
        if not (is_integer(self.seed) and self.seed >= 0):
            raise ValueError("partition seed must be a non-negative integer")
        if self.by_label and self.mode != "fixed-split":
            raise ValueError("by_label only makes sense for fixed-split")
        if self.by_label and self.labels is None:
            raise ValueError("by_label needs labels")

    def shards(self, epoch=0):
        """List of index arrays, one per node, for the given epoch, each in
        increasing order: the order minibatch draws index and full-batch sums run in."""
        if not (is_integer(epoch) and epoch >= 0):  # a float, bool or negative is refused
            raise ValueError(f"epoch must be an integer >= 0, got {epoch!r}")
        if self.mode == "iid-reshuffled":
            order = RandomStream(self.seed, 0, "shuffle").at(epoch).permutation(self.n_samples)
        elif self.by_label:
            order = np.argsort(self.labels, kind="stable")
        else:
            order = np.arange(self.n_samples)
        return [np.sort(chunk) for chunk in np.array_split(order, self.n_nodes)]


def make_blob_dataset(n_samples, dim, seed, margin):
    """Balanced two-Gaussian binary dataset; labels in {-1, +1}."""
    rng = RandomStream(seed, 0, "dataset").generator()
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    y = np.ones(n_samples)
    y[n_samples // 2 :] = -1.0
    z = rng.standard_normal(n_samples * dim).reshape(n_samples, dim)
    z += np.outer(y, margin * direction)
    return z, y


def _numbers(line):
    """The numbers on one CSV line, read by ``np.loadtxt`` with the rules it
    reads a whole file by: none for a blank or ``#`` comment line, and a
    ValueError when a cell is not a number."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a line with no data
        return np.loadtxt([line], delimiter=",", ndmin=1)


def _first_bad_row(path, skip):
    """``row N: reason`` for the first line after the first ``skip`` that
    ``np.loadtxt`` cannot read or that is not as wide as the first data row;
    rows are counted from 1 over every line of the file."""
    width = None
    with open(path, encoding="utf-8", errors="replace") as fh:
        for row, line in enumerate(fh, start=1):
            if row <= skip:
                continue
            try:
                cells = _numbers(line).size
            except ValueError:
                return f"row {row}: {line.strip()!r} holds a cell that is not a number"
            if cells and width is None:
                width = cells
            elif cells and cells != width:
                return f"row {row}: {cells} columns, the first data row has {width}"
    return None


def load_csv_dataset(path):
    """Load ``(features, labels)`` from a CSV with the label in the last column.

    The first line is a header, and is skipped, when it is not a row of
    numbers; that is decided from the first line alone. The file needs at
    least one data row, every row the same width, and every feature must be
    finite; an error names the file and, for a row that cannot be read, its
    row in the file. Labels may be 0/1 or -1/+1; they are returned as -1/+1.
    """
    with open(path, encoding="utf-8", errors="replace") as fh:
        first = fh.readline()
    try:
        _numbers(first)
        skip = 0
    except ValueError:
        skip = 1
    with warnings.catch_warnings():
        # loadtxt warns about an empty file; the ValueError below says it
        warnings.simplefilter("ignore", UserWarning)
        try:
            raw = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: {_first_bad_row(path, skip) or exc}") from None
    if raw.shape[0] == 0:
        raise ValueError(f"{path}: no data rows")
    if raw.shape[1] < 2:
        raise ValueError(f"{path}: need at least one feature column plus a label")
    z, y = raw[:, :-1], raw[:, -1]
    if not np.isfinite(z).all():
        raise ValueError(f"{path}: features must be finite")
    # compared directly: np.unique would import numpy.ma
    if ((y == 0.0) | (y == 1.0)).all():
        y = 2.0 * y - 1.0
    elif not ((y == -1.0) | (y == 1.0)).all():
        got = np.sort(y)  # its distinct values, as np.unique lists them: one NaN, last
        got = got[np.append(True, (got[1:] != got[:-1]) & ~np.isnan(got[:-1]))].tolist()
        raise ValueError(f"{path}: labels must be 0/1 or -1/+1, got {got}")
    return z, y


def _neg_y_sigmoid(y, margins):
    """``-y * sigmoid(-margins)`` as ``-y / (1 + exp(margins))``. A large
    margin overflows ``exp`` to inf, the sigmoid's exact limit 0; each oracle
    call ignores that overflow in one ``np.errstate`` around its kernels."""
    return -y / (1.0 + np.exp(margins))


class QuadraticProblem:
    """``f_i(x) = 1/2 (x - s_i)^T H (x - s_i)`` with shared curvature ``H``.

    ``H`` has eigenvalues spread evenly over ``[mu, l_smooth]``. The
    per-node optima are ``s_i = xstar + h * u_i`` with zero-sum offsets
    ``u_i``, so ``h = 0`` makes every ``f_i`` identical, ``h > 0`` makes the
    local optima disagree while the global optimum stays in closed form.
    Stochastic gradients add isotropic Gaussian noise with total variance
    ``noise_std^2``.
    """

    kind = "quadratic"

    def __init__(self, n, dim, heterogeneity, noise_std, seed, mu, l_smooth, xstar_scale):
        if not (is_integer(n) and is_integer(dim) and min(n, dim) >= 1):
            raise ValueError("need integers n >= 1 nodes and dim >= 1")
        if not (is_number(mu) and is_number(l_smooth) and 0.0 < mu <= l_smooth):
            raise ValueError("need numbers 0 < mu <= l_smooth")
        if not all(is_number(v) and v >= 0.0 for v in (heterogeneity, noise_std, xstar_scale)):
            raise ValueError("heterogeneity, noise_std and xstar_scale must be numbers >= 0")
        self.n = int(n)
        self.dim = int(dim)
        self.heterogeneity = float(heterogeneity)
        self.noise_std = float(noise_std)
        self.mu = float(mu)
        self.l_smooth = float(l_smooth)
        self.layer_boundaries = None

        # basis, then x*, then the offsets, all from one set-up generator
        rng = RandomStream(seed, 0, "problem").generator()
        basis, _ = np.linalg.qr(rng.standard_normal(dim * dim).reshape(dim, dim))
        spectrum = np.linspace(self.mu, self.l_smooth, self.dim)
        hessian = (basis * spectrum) @ basis.T  # basis @ diag(spectrum) @ basis.T, bit for bit
        self.hessian = 0.5 * (hessian + hessian.T)
        xstar = xstar_scale / np.sqrt(dim) * rng.standard_normal(dim)
        offsets = rng.standard_normal(n * dim).reshape(n, dim) / np.sqrt(dim)
        offsets -= offsets.mean(axis=0)
        self.node_optima = xstar + heterogeneity * offsets
        self._optimum = self.node_optima.mean(axis=0)
        self._noise_coord_std = noise_std / np.sqrt(dim)

    def optimum(self):
        """Exact global minimizer (the mean of the per-node optima); a copy."""
        return self._optimum.copy()

    def f_star(self):
        return self.loss(self.optimum())

    def node_loss(self, i, x):
        r = x - self.node_optima[i]
        return 0.5 * float(r @ self.hessian @ r)

    def loss(self, x):
        # every node_loss at once, of one x or of each of (b, dim) rows:
        # stacked products evaluate r_i @ H @ r_i as the 1-D expression does
        x = np.asarray(x)
        r = (x[..., None, :] - self.node_optima).reshape(-1, 1, self.dim)
        quad = np.matmul(np.matmul(r, self.hessian), r.reshape(-1, self.dim, 1))
        losses = sum_in_order((0.5 * quad[:, 0, 0]).reshape(-1, self.n).T) / self.n
        return float(losses[0]) if x.ndim == 1 else losses

    def node_gradient(self, i, x):
        return self.hessian @ (x - self.node_optima[i])

    def full_gradient(self, x):
        r = x - self._optimum
        if r.ndim == 1:
            return self.hessian @ r
        # (b, dim) rows: one gemv per row, as for one x
        return np.matmul(self.hessian, r[:, :, None])[:, :, 0]

    def loss_and_gradient(self, x):
        """``(loss(x), full_gradient(x))``; of each of ``(b, dim)`` rows, a
        ``(b,)`` loss and ``(b, dim)`` gradients, each row's bit for bit."""
        return self.loss(x), self.full_gradient(x)

    def stochastic_gradient(self, i, x, rng, t=0):
        return self.stochastic_gradients(np.asarray(x)[None], rng, t, [i])[0]

    def stochastic_gradients(self, x_rows, rng, t=0, nodes=None):
        """Node gradients plus one ``(k, dim)`` noise block: row r is
        ``(x_rows[r] - s_i) H`` for node ``i = nodes[r]`` (node r without
        ``nodes``) plus its row of scaled draws, the rows drawing in row
        order. The ``k`` rows are one gemm ``r @ H`` (H is symmetric), which
        rounds unlike ``node_gradient``'s gemv, within a few ulps."""
        k = x_rows.shape[0]
        # the noise block is drawn into the result and scaled there
        g = rng.standard_normal(k * self.dim).reshape(k, self.dim)
        np.multiply(self._noise_coord_std, g, out=g)
        optima = self.node_optima if nodes is None else self.node_optima[nodes]
        r = np.subtract(x_rows, optima, order="C")
        return np.add(np.matmul(r, self.hessian), g, out=g)

    def smoothness(self):
        return self.l_smooth


class _DatasetProblem:
    """Shared machinery for problems defined over a partitioned dataset.

    A subclass defines ``_kernel(z, y, x, out, losses=False)``, the one
    place its loss and gradient are computed: ``z`` and ``y`` are ``(k, m,
    p)`` and ``(k, m)`` sample stacks, ``x`` is ``(k, dim)`` rows, row j's
    gradient on sample set j is written into ``out[j]``, and the ``(k,)``
    losses are returned when ``losses`` is true.

    The problem deals its own split: ``n``, ``mode``, ``by_label`` and
    ``seed`` describe the :attr:`partition` of its samples, and the node
    count ``n`` is that partition's. Each sample is held once, in a store
    laid out in epoch-0 deal order: node 0's shard, then node 1's, each in
    increasing sample order. The full-batch oracles read it as one stack per
    run of equal shard sizes (``array_split`` deals the larger first: at
    most two), in chunks of about ``EVAL_CHUNK_BYTES``, a call each; every
    stack is a view of the store. A minibatch gathers its samples from the
    store by the store rows of its epoch's split. ``features`` and
    ``labels`` are the samples in input order, gathered on each access.
    """

    def __init__(self, n, features, labels, mode, by_label, seed, batch):
        features = np.asarray(features, dtype=float)
        labels = np.asarray(labels, dtype=float)
        require_finite(features, "dataset features")
        if features.shape[0] != labels.shape[0]:
            raise ValueError("feature/label row counts differ")
        if not ((labels == -1.0) | (labels == 1.0)).all():
            raise ValueError("labels must be -1/+1")
        if not (is_integer(batch) and batch >= 1):
            raise ValueError("batch must be an integer >= 1")
        self._split = dict(mode=mode, n_nodes=n, n_samples=features.shape[0], seed=seed,
                           by_label=by_label)
        partition = Partition(**self._split, labels=labels if by_label else None)
        self.n = partition.n_nodes
        self.batch = int(batch)
        shards = partition.shards(0)
        self._sizes = np.array([shard.shape[0] for shard in shards])  # every epoch's
        self._starts = np.concatenate(([0], np.cumsum(self._sizes[:-1])))
        # the store: row j holds sample dealt[j], and sample i sits in row _where[i]
        dealt = np.concatenate(shards)
        self._z, self._y = features[dealt], labels[dealt]
        self._where = np.empty_like(dealt)
        self._where[dealt] = np.arange(dealt.shape[0])
        self.__setstate__({})  # the stacks and the epoch-0 split, as an unpickled copy builds them

    def __getstate__(self):
        # the samples pickle once, in the store with each one's row: the stacks and split derive
        return {k: v for k, v in vars(self).items() if k not in ("_dealt", "_chunks")}

    def __setstate__(self, state):
        vars(self).update(state)
        self._dealt = (0, np.arange(self._y.shape[0]))  # epoch 0 is the store's own order
        self._chunks = self._stack()

    @property
    def features(self):
        """The features in input order, gathered from the store: a fresh array."""
        return self._z[self._where]

    @property
    def labels(self):
        """The labels in input order, gathered from the store: a fresh array."""
        return self._y[self._where]

    @property
    def partition(self):
        """The :class:`Partition` of the samples, built on each access; a
        ``by_label`` split reads :attr:`labels`."""
        return Partition(**self._split, labels=self.labels if self._split["by_label"] else None)

    def _deal(self, epoch):
        """The store rows of an epoch's shards, node after node, cached: the
        problem's only mutable state, a pure function of the epoch, so runs may
        share the problem. Every epoch's shards have the sizes ``_sizes``."""
        if self._split["mode"] == "fixed-split":
            epoch = 0
        if self._dealt[0] != epoch:
            self._dealt = (epoch, self._where[np.concatenate(self.partition.shards(epoch))])
        return self._dealt[1]

    def _epoch(self, t):
        if not (is_integer(t) and t >= 0):  # a float, bool or negative is refused
            raise ValueError(f"iteration must be an integer >= 0, got {t!r}")
        # draws per epoch: the whole batches in a node's share of the samples, at least one
        return int(t) // max(1, self._y.shape[0] // self.n // self.batch)

    def _minibatches(self, rng, t, nodes):
        """``(k, m)`` store rows, row r drawn from the shard of node
        ``nodes[r]`` (of node r without ``nodes``), ``m = min(batch, shard
        size)`` uniform draws each, in row order; ``None``, drawing
        nothing, when the minibatch sizes differ."""
        rows, sizes, starts = self._deal(self._epoch(t)), self._sizes, self._starts
        if nodes is not None:
            sizes, starts = sizes[nodes], starts[nodes]
        m = min(self.batch, sizes.min())
        if min(self.batch, sizes.max()) != m:
            return None
        k = sizes.shape[0]
        offsets = rng.integers(0, np.repeat(sizes, m), size=k * m).reshape(k, m)
        return rows[starts[:, None] + offsets]

    def _stack(self):
        """The store's ``(first node, z, y)`` stacks, a few shards each, in node order."""
        z, y = self._z, self._y
        chunks, first = [], 0
        for m, group in itertools.groupby(self._sizes.tolist()):
            count, lo = len(list(group)), self._starts[first]
            stack = z[lo : lo + count * m].reshape(count, m, z.shape[1])
            labels = y[lo : lo + count * m].reshape(count, m)
            step = max(1, EVAL_CHUNK_BYTES // stack[0].nbytes)
            chunks += [(first + j, stack[j : j + step], labels[j : j + step])
                       for j in range(0, count, step)]
            first += count
        return chunks

    def _one(self, i, x, losses=False):
        """The kernel on node i's epoch-0 samples, a view into their chunk, at
        one ``x``: ``(loss, gradient)``, the loss ``None`` without ``losses``."""
        i = range(self.n)[i]  # a list's index rules
        first, z, y = next(chunk for chunk in reversed(self._chunks) if chunk[0] <= i)
        j = slice(i - first, i - first + 1)
        out = np.empty((1, self.dim))
        with np.errstate(over="ignore"):
            loss = self._kernel(z[j], y[j], np.asarray(x)[None], out, losses)
        return (None if loss is None else float(loss[0])), out[0]

    def node_loss(self, i, x):
        return self._one(i, x, losses=True)[0]

    def node_gradient(self, i, x):
        return self._one(i, x)[1]

    def stochastic_gradients(self, x_rows, rng, t=0, nodes=None):
        """Row r is the minibatch gradient of node ``nodes[r]`` (of node r
        without ``nodes``) at ``x_rows[r]``: one ``(k, m)`` index draw and
        one kernel call on the stacked ``(k, m, p)`` batch, or, when the
        minibatch sizes differ, a one-row call per row, in row order."""
        idx = self._minibatches(rng, t, nodes)
        if idx is None:
            nodes = range(len(x_rows)) if nodes is None else nodes
            return np.concatenate([self.stochastic_gradients(x[None], rng, t, [i])
                                   for i, x in zip(nodes, x_rows)])
        g = np.empty(x_rows.shape)
        with np.errstate(over="ignore"):
            self._kernel(self._z[idx], self._y[idx], x_rows, g)
        return g

    def loss(self, x):
        return self.loss_and_gradient(x)[0]

    def full_gradient(self, x):
        return self.loss_and_gradient(x, losses=False)[1]

    def loss_and_gradient(self, x, losses=True):
        """``(f(x), grad f(x))``: the mean of ``node_loss`` and of
        ``node_gradient`` over the nodes; of each of ``(b, dim)`` rows, a
        ``(b,)`` loss and ``(b, dim)`` gradients; without ``losses``, no
        loss is computed and it is ``None``. A row is broadcast over each
        chunk; its node gradients and losses, written into an ``(n, dim)``
        and an ``(n,)`` buffer, are each summed in node order."""
        rows = np.atleast_2d(x)
        g, grads = np.empty(rows.shape), np.empty((self.n, self.dim))
        f, node_losses = np.empty(len(rows)), np.empty(self.n)
        with np.errstate(over="ignore"):
            for k, row in enumerate(rows):
                wide = np.broadcast_to(row, grads.shape)
                for node, z, y in self._chunks:
                    chunk = self._kernel(z, y, wide[: len(z)], grads[node : node + len(z)], losses)
                    node_losses[node : node + len(z)] = chunk if losses else 0.0
                g[k], f[k] = sum_in_order(grads), sum_in_order(node_losses) / self.n
        g /= self.n
        f = (float(f[0]) if np.ndim(x) == 1 else f) if losses else None
        return f, (g[0] if np.ndim(x) == 1 else g)


class LogisticProblem(_DatasetProblem):
    """L2-regularized binary logistic regression.

    ``f_i`` averages the logistic loss over node i's shard plus
    ``reg/2 ||x||^2``. The exact smoothness constant is
    ``lambda_max(Z^T Z) / (4 N) + reg``.
    """

    kind = "logistic"

    def __init__(self, n, features, labels, mode, by_label, seed, reg, batch):
        super().__init__(n, features, labels, mode, by_label, seed, batch)
        if not (is_number(reg) and reg >= 0.0):
            raise ValueError("reg must be a number >= 0")  # below 0 the objective is unbounded
        self.reg = float(reg)
        self.dim = self._z.shape[1]
        self.layer_boundaries = None

    def _kernel(self, z, y, x, out, losses=False):
        margins = y * np.matmul(z, x[:, :, None])[:, :, 0]
        weights = _neg_y_sigmoid(y, margins)
        np.add(np.matmul(weights[:, None, :], z)[:, 0, :] / z.shape[1], self.reg * x, out=out)
        if losses:
            penalty = 0.5 * self.reg * row_dots(x)
            return np.add.reduce(np.logaddexp(0.0, -margins), axis=1) / z.shape[1] + penalty

    def stochastic_gradient(self, i, x, rng, t=0):
        return self.stochastic_gradients(np.asarray(x)[None], rng, t, [i])[0]

    def smoothness(self):
        z = self.features  # input order: the Gram matrix's sums run in it
        gram = z.T @ z / (4.0 * z.shape[0])
        return float(sym_eigenvalues(0.5 * (gram + gram.T))[0]) + self.reg


class MlpProblem(_DatasetProblem):
    """One-hidden-layer tanh classifier with the logistic loss.

    Parameters are packed into a flat vector in blocks
    ``[W1, b1, w2, b2]``; ``layer_boundaries`` exposes the block edges so
    compression can treat each layer separately. The kernel reads its own
    copy of the edges, so ``layer_boundaries = None`` (one block) leaves
    the losses and gradients as they are.
    """

    kind = "mlp"

    def __init__(self, n, features, labels, mode, by_label, seed, hidden, batch):
        super().__init__(n, features, labels, mode, by_label, seed, batch)
        if not (is_integer(hidden) and hidden >= 1):
            raise ValueError("hidden must be an integer >= 1")
        self.hidden = int(hidden)
        p = self._z.shape[1]
        h = self.hidden
        self.dim = h * p + h + h + 1
        self.layer_boundaries = [0, h * p, h * p + h, h * p + 2 * h, self.dim]
        self._bounds = tuple(self.layer_boundaries)  # the kernel's: see the class docstring

    def _kernel(self, z, y, x, out, losses=False):
        """Forward and backward in place: ``out`` is written block by block,
        and the hidden activations are overwritten once the ``w2`` block is
        done with them."""
        k, m, p = z.shape
        h, b = self.hidden, self._bounds
        w2 = x[:, b[2] : b[3]]
        hidden = np.matmul(z, x[:, b[0] : b[1]].reshape(k, h, p).transpose(0, 2, 1))
        hidden += x[:, None, b[1] : b[2]]
        np.tanh(hidden, out=hidden)
        logits = np.matmul(hidden, w2[:, :, None])[:, :, 0] + x[:, b[3], None]
        dlogit = _neg_y_sigmoid(y, y * logits) / m
        out[:, b[2] : b[3]] = np.matmul(hidden.transpose(0, 2, 1), dlogit[:, :, None])[:, :, 0]
        out[:, b[3]] = dlogit.sum(axis=1)
        deriv = np.multiply(hidden, hidden, out=hidden)  # 1 - hidden**2
        np.subtract(1.0, deriv, out=deriv)
        dhidden = dlogit[:, :, None] * w2[:, None, :]
        dhidden *= deriv
        np.matmul(dhidden.transpose(0, 2, 1), z, out=out[:, b[0] : b[1]].reshape(k, h, p))
        out[:, b[1] : b[2]] = dhidden.sum(axis=1)
        if losses:
            return np.add.reduce(np.logaddexp(0.0, -y * logits), axis=1) / m

    def stochastic_gradient(self, i, x, rng, t=0):
        return self.stochastic_gradients(np.asarray(x)[None], rng, t, [i])[0]

    def smoothness(self):
        return None  # no closed form; use estimate_constants


def make_quadratic(n=8, dim=10, heterogeneity=1.0, noise_std=1.0, seed=0,
                   mu=0.1, l_smooth=1.0, xstar_scale=1.0):
    return QuadraticProblem(n, dim, heterogeneity, noise_std, seed,
                            mu, l_smooth, xstar_scale)


def _dataset(data, samples, dim, seed, margin):
    """The ``data=`` arrays, or the blob dataset when there are none."""
    return make_blob_dataset(samples, dim, seed=seed, margin=margin) if data is None else data


def make_logistic(n=8, dim=10, samples=2000, mode="iid-reshuffled", by_label=False,
                  reg=1e-3, batch=32, seed=0, margin=1.5, data=None):
    return LogisticProblem(n, *_dataset(data, samples, dim, seed, margin), mode=mode,
                           by_label=by_label, seed=seed, reg=reg, batch=batch)


def make_mlp(n=8, input_dim=8, hidden=16, samples=1024, mode="iid-reshuffled",
             by_label=False, batch=32, seed=0, margin=1.5, data=None):
    return MlpProblem(n, *_dataset(data, samples, input_dim, seed, margin), mode=mode,
                      by_label=by_label, seed=seed, hidden=hidden, batch=batch)


@dataclass(frozen=True)
class ConstantEstimates:
    """Monte-Carlo estimates of the constants the stepsize theory needs."""

    l_smooth: float   # smoothness L
    sigma_sq: float   # node-averaged gradient noise variance
    g_sq: float       # uniform second-moment bound on stochastic gradients


def estimate_constants(problem, seed=0, trials=8, grad_samples=16,
                       center=None, radius=1.0, power_iters=120):
    """Estimate ``(L, sigma^2, G^2)`` from the problem's oracles alone.

    ``L`` comes from Hessian power iteration at ``center`` using finite
    differences of the exact full gradient; for quadratics this converges to
    the true largest curvature. ``sigma^2`` and ``G^2`` are sampled at
    ``trials`` random points (``center + radius * gaussian``) by comparing
    stochastic gradients against the exact per-node gradients: a node's
    ``grad_samples`` gradients at a point are one stacked oracle call on the
    node's own stream, and their errors and squared norms are summed in
    sample order.
    """
    for name, value in (("trials", trials), ("grad_samples", grad_samples),
                        ("power_iters", power_iters)):
        if not (is_integer(value) and value >= 1):
            rule = ">= 1" if is_integer(value) else "an integer"
            raise ValueError(f"estimate_constants: {name} must be {rule}, got {value!r}")
    dim = problem.dim
    stream = RandomStream(seed, 0, "estimate")
    rng = stream.generator()  # v and the points; node samples use stream.at(k)
    if center is None:
        center = np.zeros(dim)
    center = np.asarray(center, dtype=float)

    eps = 1e-5 * max(1.0, float(np.linalg.norm(center)))
    g0 = problem.full_gradient(center)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    l_est = 0.0
    for _ in range(power_iters):
        u = (problem.full_gradient(center + eps * v) - g0) / eps
        norm = np.linalg.norm(u)
        if norm == 0.0:
            break
        l_est = float(u @ v)
        v = u / norm
    l_est = abs(l_est)

    sigma_acc = np.zeros(problem.n)
    g_sq = 0.0
    for trial in range(trials):
        point = center + radius * rng.standard_normal(dim)
        points = np.tile(point, (grad_samples, 1))
        for i in range(problem.n):
            exact = problem.node_gradient(i, point)
            g = problem.stochastic_gradients(points, stream.at(trial * problem.n + i), 0,
                                             np.full(grad_samples, i))
            # each row's pairwise sum, as np.sum of one row
            errors = np.add.reduce((g - exact) ** 2, axis=1)
            sigma_acc[i] += sum_in_order(errors) / grad_samples
            g_sq = max(g_sq, float(sum_in_order(row_dots(g))) / grad_samples)
    sigma_sq = float(sigma_acc.mean() / trials)
    return ConstantEstimates(l_smooth=l_est, sigma_sq=sigma_sq, g_sq=g_sq)
