"""One iteration runs on all nodes' rows at once; every batched layer must
equal, bit for bit, the per-node loop it replaced. The references below are
those loops, written out literally: an iteration's randomness comes from one
generator, and the nodes draw from it one after another, in node order. The
quadratic's stochastic oracle is the one exception: its definition is one
product of the stacked residuals with the Hessian, written out as that."""

import functools
import operator
import time

import numpy as np
import pytest

from chocosim import optim, problems
from chocosim.compression import bit_cost, compress, compress_blocks, parse_compressor
from chocosim.consensus import consensus_distance
from chocosim.metrics import TrafficLedger
from chocosim.numerics import RandomStream
from chocosim.optim import (ALGORITHMS, LOG_BLOCK_BYTES, NORM_BLOCK, OptimizerConfig, Streams,
                            resolve_gamma, run)
from chocosim.problems import Partition, make_logistic, make_mlp, make_quadratic
from chocosim.topology import mixing_matrix, ring

SPECS = ("identity", "sign", "topk:0.2", "topk:0.5", "gsgd:2", "gsgd:4",
         "gsgd:4:unbiased", "random:0.3", "random:0.3:unbiased")


def _in_order(values):
    # the floats added one after another, the order the loss docstrings
    # promise; Python's sum() compensates floats from 3.12 on
    return functools.reduce(operator.add, values, 0.0)


def _rng(seed=0):
    # one iteration's generator; calling again gives the same draws
    return RandomStream(seed, 0, "compress").at(3)


def _reference_compress(comp, x, rng):
    # the operators as first written, on one 1-D vector
    d = x.shape[0]
    if comp.kind == "identity":
        return x.copy()
    if comp.kind == "sign":
        return (np.abs(x).sum() / d) * np.sign(x)
    if comp.kind == "gsgd":
        norm = np.linalg.norm(x)
        if norm == 0.0:
            return np.zeros_like(x)
        levels = 2.0 ** (comp.bits - 1)
        sig = np.where(x >= 0.0, 1.0, -1.0)
        out = norm * sig * np.floor(levels * np.abs(x) / norm + rng.random(d)) / levels
        if not comp.unbiased:
            out = out / (1.0 + min(d / levels**2, np.sqrt(d) / levels))
        return out
    k = max(1, int(np.floor(comp.fraction * d)))
    if comp.kind == "topk":
        idx = np.argsort(-np.abs(x), kind="stable")[:k]
    else:
        keys = rng.random(d)
        idx = np.argsort(-keys, kind="stable")[:k]
    out = np.zeros_like(x)
    out[idx] = x[idx]
    if comp.unbiased:
        out *= d / k
    return out


def _per_row(comp, rows, rng, boundaries):
    # the per-node definition: block by block, each node in node order
    # compresses its part as one 1-D vector, all drawing from ``rng``;
    # returns the payload and each row's bits
    d = rows.shape[1]
    edges = boundaries if boundaries is not None else [0, d]
    payload = np.empty_like(rows)
    bits = [0] * rows.shape[0]
    for start, stop in zip(edges[:-1], edges[1:]):
        for i in range(rows.shape[0]):
            payload[i, start:stop] = _reference_compress(comp, rows[i, start:stop], rng)
            bits[i] += bit_cost(comp, stop - start)
    return payload, bits


def _rows_with_ties_and_zeros(n, d, seed):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, d))
    rows[0] = rng.integers(-2, 3, size=d).astype(float)  # repeated magnitudes
    if n > 2:
        rows[1] = 0.0
        rows[2, : d // 2] = 0.0
    return rows


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("n, d, boundaries", [
    (1, 9, None),
    (5, 19, None),
    (16, 19, [0, 12, 15, 18, 19]),  # MLP layout [W1, b1, w2, b2]
    (4, 40, [0, 1, 2, 40]),
    (8, 300, [0, 256, 288, 299, 300]),  # long blocks: SIMD sums and sorts
])
def test_row_batched_compression_equals_per_row(spec, n, d, boundaries):
    comp = parse_compressor(spec)
    rows = _rows_with_ties_and_zeros(n, d, seed=n * d)
    msg = compress_blocks(comp, rows, _rng(), boundaries)
    payload, bits = _per_row(comp, rows, _rng(), boundaries)
    assert np.array_equal(msg.payload, payload)
    assert msg.bits == sum(bits)
    # a vector is the one-row case
    assert np.array_equal(compress_blocks(comp, rows[0], _rng(), boundaries).payload,
                          _per_row(comp, rows[:1], _rng(), boundaries)[0][0])


def test_gsgd_zero_block_draws_nothing():
    # a row whose first block is all zero sends zeros there and draws
    # nothing: the next row, and the next block, see the generator untouched
    comp = parse_compressor("gsgd:4")
    rows = np.random.default_rng(5).standard_normal((3, 10))
    rows[1, :6] = 0.0
    msg = compress_blocks(comp, rows, _rng(), [0, 6, 10])
    assert np.array_equal(msg.payload[1, :6], np.zeros(6))
    rng = _rng()
    first = [compress(comp, rows[i, :6], rng).payload for i in (0, 2)]
    second = [compress(comp, rows[i, 6:], rng).payload for i in range(3)]
    assert np.array_equal(msg.payload[[0, 2], :6], np.stack(first))
    assert np.array_equal(msg.payload[:, 6:], np.stack(second))


def test_gsgd_payload_bytes_equal_the_1d_operator_on_signed_zeros_and_nans():
    # array_equal calls -0.0 and 0.0 equal and NaN unequal; the payload
    # bytes tell both apart: sig(+0.0) = sig(-0.0) = +1, sig(NaN) = -1
    rows = np.random.default_rng(4).standard_normal((5, 12))
    rows[0, [1, 4]] = 0.0
    rows[0, [2, 7]] = -0.0
    rows[1, 3] = np.nan
    rows[2] = 0.0  # a zero row draws nothing
    rows[3, :6] = -0.0
    for spec in ("gsgd:2", "gsgd:4", "gsgd:4:unbiased"):
        comp = parse_compressor(spec)
        for v in (rows, np.delete(rows, 2, axis=0)):  # with and without the zero row
            payload = compress_blocks(comp, v, _rng(), None).payload
            rng = _rng()
            literal = np.stack([_reference_compress(comp, row, rng) for row in v])
            assert payload.tobytes() == literal.tobytes(), spec


def _topk_block(kind, d=10):
    # tie-free rows, plus one row of the named kind: "ties" has surplus
    # ties at the k-th largest magnitude; "nan-last" has so many NaNs that
    # they tie at the k-th rank, "nan-some" so few that all are dropped
    rows = np.random.default_rng(8).standard_normal((4, d))
    if kind == "ties":
        rows[2] = [3.0, -1.0, 1.0, 0.5, -1.0, 1.0, 0.2, 0.1, -0.3, 1.0][:d]
    elif kind == "zero":
        rows[2] = 0.0
    elif kind == "nan-last":
        rows[2, 1:] = np.nan
    elif kind == "nan-some":
        rows[2, [0, 4, 7]] = np.nan
    return rows


@pytest.mark.parametrize("kind, fraction, fast", [
    ("tie-free", 0.2, True),
    ("nan-some", 0.2, True),
    ("ties", 0.2, False),
    ("ties", 0.3, False),
    ("zero", 0.2, False),
    ("nan-last", 0.2, False),
    ("ties", 1.0, True),  # k = d: every entry is kept
    ("zero", 1.0, True),
    ("nan-last", 1.0, True),
])
def test_topk_branches_keep_the_stable_argsort_set(kind, fraction, fast, monkeypatch):
    rows = _topk_block(kind)
    scans, cumsum = [], np.cumsum

    def counted(*args, **kwargs):  # the tie scan's cumsum runs only on the fallback
        scans.append(1)
        return cumsum(*args, **kwargs)

    monkeypatch.setattr(np, "cumsum", counted)
    comp = parse_compressor(f"topk:{fraction}")
    got = compress_blocks(comp, rows).payload
    monkeypatch.undo()
    assert len(scans) == (0 if fast else 1)
    literal = np.stack([_reference_compress(comp, row, None) for row in rows])
    assert got.tobytes() == literal.tobytes()


class _TiedKeys:
    # a generator stand-in whose uniform keys repeat: 0.5 at every even
    # coordinate of a row, 0.25 at every odd one
    def random(self, shape):  # a block (n, d) or a row d
        keys = np.where(np.arange(np.atleast_1d(shape)[-1]) % 2 == 0, 0.5, 0.25)
        return np.broadcast_to(keys, shape).copy()


@pytest.mark.parametrize("spec", ["random:0.3", "random:0.3:unbiased"])
def test_random_tied_keys_keep_the_stable_argsort_set(spec, monkeypatch):
    rows = np.arange(1.0, 37.0).reshape(4, 9)  # k = 2 of five tied keys
    scans, cumsum = [], np.cumsum

    def counted(*args, **kwargs):  # the tie scan's cumsum runs only on the fallback
        scans.append(1)
        return cumsum(*args, **kwargs)

    monkeypatch.setattr(np, "cumsum", counted)
    comp = parse_compressor(spec)
    got = compress_blocks(comp, rows, _TiedKeys()).payload
    monkeypatch.undo()
    assert len(scans) == 1
    assert all(np.flatnonzero(row).tolist() == [0, 2] for row in got)  # the lowest indices
    literal = np.stack([_reference_compress(comp, row, _TiedKeys()) for row in rows])
    assert got.tobytes() == literal.tobytes()


def test_batched_compression_needs_a_generator():
    rows = np.ones((3, 4))
    for spec in ("gsgd:4", "random:0.5"):
        with pytest.raises(ValueError):
            compress_blocks(parse_compressor(spec), rows, None)
        with pytest.raises(ValueError):
            compress(parse_compressor(spec), rows[0])
    assert compress_blocks(parse_compressor("sign"), rows, None).bits == 3 * (4 + 32)


# ------------------------------------------------------------------ problems

def _literal_gradients(problem, x_rows, rng, t=0, nodes=None):
    """The stochastic gradients of rows drawing in row order from one
    generator, row r for node ``nodes[r]`` (node r without ``nodes``): a
    dataset problem's one-row oracle call per row; a quadratic's one ``(k,
    dim)`` noise block, then the residuals times the symmetric Hessian in
    one product plus the scaled noise."""
    nodes = range(len(x_rows)) if nodes is None else nodes
    if problem.kind != "quadratic":
        return np.stack([problem.stochastic_gradient(i, x, rng, t)
                         for i, x in zip(nodes, x_rows)])
    noise = rng.standard_normal((len(x_rows), problem.dim))
    scale = problem.noise_std / np.sqrt(problem.dim)
    return (x_rows - problem.node_optima[list(nodes)]) @ problem.hessian + scale * noise


@pytest.mark.parametrize("n", [1, 16, 64])
@pytest.mark.parametrize("d", [1, 10, 200])
def test_quadratic_batched_oracle_and_loss_equal_node_loops(n, d):
    problem = make_quadratic(n, d, heterogeneity=1.0, noise_std=0.7, seed=n + d)
    x_rows = np.random.default_rng(d).standard_normal((n, d))
    batched = problem.stochastic_gradients(x_rows, RandomStream(9, 0, "grad").at(4), 4)
    # the iteration's noise block, drawn once; then the gradients in one product
    literal = _literal_gradients(problem, x_rows, RandomStream(9, 0, "grad").at(4))
    assert batched.tobytes() == literal.tobytes()
    # the per-node oracle is the one-row case: nodes drawing in order from
    # one generator draw the block's noise rows
    rng, ref = RandomStream(9, 0, "grad").at(4), RandomStream(9, 0, "grad").at(4)
    for i in range(n):
        assert (problem.stochastic_gradient(i, x_rows[i], rng, 4).tobytes()
                == _literal_gradients(problem, x_rows[i : i + 1], ref, 4, [i])[0].tobytes())
    # a row-to-node map, repeats and any order: the rows draw in row order
    nodes = np.random.default_rng(n).integers(0, n, size=n + 3)
    rows = np.random.default_rng(d + 1).standard_normal((n + 3, d))
    mapped = problem.stochastic_gradients(rows, RandomStream(9, 0, "grad").at(4), 4, nodes)
    assert mapped.tobytes() == _literal_gradients(problem, rows, RandomStream(9, 0, "grad").at(4),
                                                  4, nodes).tobytes()
    for x in (x_rows[0], x_rows.mean(axis=0), problem.optimum()):
        assert problem.loss(x) == _in_order(problem.node_loss(i, x) for i in range(n)) / n


@pytest.mark.parametrize("make", [
    lambda: make_logistic(4, dim=5, samples=200, batch=8, seed=3),
    lambda: make_mlp(4, input_dim=3, hidden=4, samples=64, batch=8, seed=3),
    # the shapes of the mlp-gsgd-ef workload: BLAS picks kernels by shape
    pytest.param(lambda: make_mlp(16, input_dim=32, hidden=64, samples=4096, batch=32, seed=5),
                 id="mlp-workload"),
    pytest.param(lambda: make_logistic(16, dim=32, samples=4096, batch=32, seed=5),
                 id="logistic-workload"),
    # shards of 6 and 7 samples, below the batch: unequal minibatch sizes
    pytest.param(lambda: make_mlp(16, samples=100, batch=32, seed=5), id="mlp-ragged"),
    # shards of 34 and 33 samples, above the batch: equal minibatch sizes
    # drawn from unequal shards
    pytest.param(lambda: make_logistic(3, dim=4, samples=100, batch=8, seed=2),
                 id="logistic-unequal-shards"),
    pytest.param(lambda: make_mlp(3, input_dim=3, hidden=4, samples=100, batch=8, seed=2),
                 id="mlp-unequal-shards"),
    pytest.param(lambda: make_mlp(8, input_dim=5, hidden=8, samples=200, batch=16,
                                  mode="fixed-split", by_label=True, seed=5),
                 id="mlp-by-label"),
    pytest.param(lambda: make_logistic(8, dim=5, samples=200, batch=16,
                                       mode="fixed-split", by_label=True, seed=5),
                 id="logistic-by-label"),
])
def test_dataset_batched_oracle_equals_node_loop(make):
    problem = make()
    n = problem.n
    x_rows = np.random.default_rng(1).standard_normal((n, problem.dim))
    for t in (7, 57):  # 57 is a later epoch, which iid-reshuffled deals anew
        batched = problem.stochastic_gradients(x_rows, RandomStream(2, 0, "grad").at(t), t)
        rng = RandomStream(2, 0, "grad").at(t)  # node after node, one generator
        for i in range(n):
            assert np.array_equal(batched[i],
                                  problem.stochastic_gradient(i, x_rows[i], rng, t))
    for x in (x_rows[0], x_rows.mean(axis=0)):
        loss, grad = problem.loss_and_gradient(x)
        assert loss == _in_order(problem.node_loss(i, x) for i in range(n)) / n
        g = problem.node_gradient(0, x)
        for i in range(1, n):
            g = g + problem.node_gradient(i, x)
        assert np.array_equal(grad, g / n)


def _literal_shard(problem, idx, x):
    # node_loss and node_gradient of the samples idx, the expressions as
    # first written: one fresh array per step, pieces concatenated
    z, y = problem.features[idx], problem.labels[idx]
    with np.errstate(over="ignore"):
        if problem.kind == "logistic":
            margins = y * (z @ x)
            loss = (float(np.mean(np.logaddexp(0.0, -margins)))
                    + 0.5 * problem.reg * float(x @ x))
            return loss, (-y / (1.0 + np.exp(margins)) @ z) / z.shape[0] + problem.reg * x
        b = problem.layer_boundaries
        w1 = x[b[0] : b[1]].reshape(problem.hidden, z.shape[1])
        b1, w2, b2 = x[b[1] : b[2]], x[b[2] : b[3]], x[b[3]]
        hidden = np.tanh(z @ w1.T + b1)
        logits = hidden @ w2 + b2
        loss = float(np.mean(np.logaddexp(0.0, -y * logits)))
        dlogit = -y / (1.0 + np.exp(y * logits)) / z.shape[0]
        dhidden = np.outer(dlogit, w2) * (1.0 - hidden**2)
    return loss, np.concatenate([(dhidden.T @ z).ravel(), dhidden.sum(axis=0),
                                 hidden.T @ dlogit, [dlogit.sum()]])


def _literal_minibatch(problem, i, rng, t):
    # node i's minibatch as first drawn: min(batch, shard size) uniform picks
    shard = problem.partition.shards(problem._epoch(t))[i]
    return shard[rng.integers(0, shard.shape[0], size=min(problem.batch, shard.shape[0]))]


@pytest.mark.parametrize("make", [
    lambda: make_logistic(4, dim=5, samples=200, batch=8, seed=3),
    pytest.param(lambda: make_logistic(16, dim=32, samples=4096, batch=32, seed=5),
                 id="logistic-workload"),
    pytest.param(lambda: make_logistic(16, dim=4, samples=100, batch=32, seed=5),
                 id="logistic-ragged"),
    pytest.param(lambda: make_logistic(3, dim=4, samples=100, batch=8, seed=2),
                 id="logistic-unequal-shards"),
    pytest.param(lambda: make_logistic(8, dim=5, samples=200, batch=16,
                                       mode="fixed-split", by_label=True, seed=5),
                 id="logistic-by-label"),
    lambda: make_mlp(4, input_dim=3, hidden=4, samples=64, batch=8, seed=3),
    pytest.param(lambda: make_mlp(16, input_dim=32, hidden=64, samples=4096, batch=32, seed=5),
                 id="mlp-workload"),
    pytest.param(lambda: make_mlp(16, samples=100, batch=32, seed=5), id="mlp-ragged"),
    pytest.param(lambda: make_mlp(3, input_dim=3, hidden=4, samples=100, batch=8, seed=2),
                 id="mlp-unequal-shards"),
    pytest.param(lambda: make_mlp(8, input_dim=5, hidden=8, samples=200, batch=16,
                                  mode="fixed-split", by_label=True, seed=5),
                 id="mlp-by-label"),
])
def test_dataset_oracles_equal_the_expressions_as_first_written(make):
    problem = make()
    n = problem.n
    x_rows = 0.5 * np.random.default_rng(2).standard_normal((n, problem.dim))
    x = x_rows.mean(axis=0)
    pairs = [_literal_shard(problem, idx, x) for idx in problem.partition.shards(0)]
    g = pairs[0][1]
    for _, g_i in pairs[1:]:
        g = g + g_i
    f = _in_order(loss_i for loss_i, _ in pairs) / n
    loss, grad = problem.loss_and_gradient(x)
    assert loss == f and problem.loss(x) == f
    assert grad.tobytes() == problem.full_gradient(x).tobytes() == (g / n).tobytes()
    for i in range(n):
        assert problem.node_loss(i, x) == pairs[i][0]
        assert problem.node_gradient(i, x).tobytes() == pairs[i][1].tobytes()
    for t in (9, 57):
        batched = problem.stochastic_gradients(x_rows, RandomStream(2, 0, "grad").at(t), t)
        rng = RandomStream(2, 0, "grad").at(t)  # node after node, one generator
        per_node = RandomStream(2, 0, "grad").at(t)
        for i in range(n):
            literal = _literal_shard(problem, _literal_minibatch(problem, i, rng, t),
                                     x_rows[i])[1].tobytes()
            assert batched[i].tobytes() == literal
            assert problem.stochastic_gradient(i, x_rows[i], per_node, t).tobytes() == literal
        # a row-to-node map, repeats and any order: the rows draw in row order,
        # as one stacked call or, where the minibatch sizes differ, row by row
        nodes = np.random.default_rng(t).integers(0, n, size=n + 3)
        rows = 0.5 * np.random.default_rng(t + 1).standard_normal((n + 3, problem.dim))
        mapped = problem.stochastic_gradients(rows, RandomStream(2, 0, "grad").at(t), t, nodes)
        rng = RandomStream(2, 0, "grad").at(t)
        for i, row, got in zip(nodes, rows, mapped):
            idx = _literal_minibatch(problem, i, rng, t)
            assert got.tobytes() == _literal_shard(problem, idx, row)[1].tobytes()
    # a (b, dim) block of rows: each row's values, as it gives them alone
    block = x_rows[:3]
    assert problem.loss(block).tolist() == [problem.loss(row) for row in block]
    assert problem.full_gradient(block).tobytes() == np.stack(
        [problem.full_gradient(row) for row in block]).tobytes()


def _literal_estimates(problem, seed=0, trials=8, grad_samples=16, power_iters=120):
    # estimate_constants as first written, at center 0 and radius 1: one
    # oracle call per sample (a quadratic's gradient rows in the oracle's
    # gemm form), the sums taken sample by sample
    stream = RandomStream(seed, 0, "estimate")
    rng = stream.generator()
    center = np.zeros(problem.dim)
    eps = 1e-5
    g0 = problem.full_gradient(center)
    v = rng.standard_normal(problem.dim)
    v /= np.linalg.norm(v)
    l_est = 0.0
    for _ in range(power_iters):
        u = (problem.full_gradient(center + eps * v) - g0) / eps
        norm = np.linalg.norm(u)
        if norm == 0.0:
            break
        l_est = float(u @ v)
        v = u / norm
    sigma_acc, g_sq = np.zeros(problem.n), 0.0
    for trial in range(trials):
        point = center + rng.standard_normal(problem.dim)
        for i in range(problem.n):
            exact = problem.node_gradient(i, point)
            node_rng = stream.at(trial * problem.n + i)
            sq_err = sq_norm = 0.0
            if problem.kind == "quadratic":
                # the node's gradient at the point: a row per sample of one product
                rows = (np.tile(point, (grad_samples, 1)) - problem.node_optima[i]) @ problem.hessian
            for sample in range(grad_samples):
                if problem.kind == "quadratic":
                    noise = problem.noise_std / np.sqrt(problem.dim) * node_rng.standard_normal(
                        problem.dim)
                    g = rows[sample] + noise
                else:
                    g = _literal_shard(problem, _literal_minibatch(problem, i, node_rng, 0),
                                       point)[1]
                sq_err += float(np.sum((g - exact) ** 2))
                sq_norm += float(g @ g)
            sigma_acc[i] += sq_err / grad_samples
            g_sq = max(g_sq, sq_norm / grad_samples)
    return abs(l_est), float(sigma_acc.mean() / trials), g_sq


@pytest.mark.parametrize("make, kw", [
    # the four problems of tools/corpus_digest.py, at the default counts
    (lambda: make_quadratic(6, 7, heterogeneity=1.0, noise_std=0.5, seed=8), {}),
    (lambda: make_logistic(6, dim=5, samples=120, batch=8, seed=8), {}),
    (lambda: make_mlp(6, input_dim=3, hidden=4, samples=96, batch=8, seed=8), {}),
    (lambda: make_mlp(6, input_dim=3, hidden=4, samples=100, batch=8, seed=8), {}),
    # rows past one pairwise-summation block, shards below the batch
    (lambda: make_quadratic(3, 300, noise_std=2.0, seed=4),
     dict(trials=2, grad_samples=5, power_iters=3)),
    (lambda: make_mlp(16, samples=100, batch=32, seed=5),
     dict(seed=3, trials=2, grad_samples=3, power_iters=3)),
])
def test_estimate_constants_equals_the_per_sample_loop(make, kw):
    problem = make()
    est = problems.estimate_constants(problem, **kw)
    literal = _literal_estimates(problem, **kw)
    assert [value.hex() for value in (est.l_smooth, est.sigma_sq, est.g_sq)] == [
        value.hex() for value in literal]


@pytest.mark.parametrize("shards_per_call", [1, 2, 3])
@pytest.mark.parametrize("make", [
    # 4 shards of 7 samples, then 12 of 6
    pytest.param(lambda: make_mlp(16, samples=100, batch=32, seed=5), id="mlp-ragged"),
    pytest.param(lambda: make_logistic(3, dim=4, samples=100, batch=8, seed=2),
                 id="logistic-unequal-shards"),
    pytest.param(lambda: make_mlp(8, input_dim=5, hidden=8, samples=202, batch=16,
                                  mode="fixed-split", by_label=True, seed=5),
                 id="mlp-by-label"),
])
def test_chunked_evaluation_equals_the_node_loop_at_any_chunk_size(make, shards_per_call,
                                                                   monkeypatch):
    problem = make()
    n, width = problem.n, problem.features.shape[1] * 8
    sizes = [shard.shape[0] for shard in problem.partition.shards(0)]
    budget = shards_per_call * max(sizes) * width
    monkeypatch.setattr(problems, "EVAL_CHUNK_BYTES", budget)
    problem = make()  # the chunks are laid out when the problem is built
    calls = []
    kernel = type(problem)._kernel

    def spied(self, z, y, x, out, losses=False):
        calls.append(z.shape[0])
        return kernel(self, z, y, x, out, losses)

    monkeypatch.setattr(type(problem), "_kernel", spied)
    x_rows = 0.5 * np.random.default_rng(4).standard_normal((3, problem.dim))
    loss, grad = problem.loss_and_gradient(x_rows)
    # one call per chunk of each run of equal shard sizes, per row
    chunks = []
    for m in sorted(set(sizes), reverse=True):
        step = budget // (m * width)
        chunks += [min(step, sizes.count(m) - j) for j in range(0, sizes.count(m), step)]
    assert calls == chunks * 3
    for x, f_x, g_x in zip(x_rows, loss.tolist(), grad):
        assert f_x == _in_order(problem.node_loss(i, x) for i in range(n)) / n
        g = problem.node_gradient(0, x)
        for i in range(1, n):
            g = g + problem.node_gradient(i, x)
        assert g_x.tobytes() == (g / n).tobytes()


def test_shards_are_dealt_once_per_training_epoch(monkeypatch):
    # the mlp-gsgd-ef workload: 150 iterations at 8 minibatches per epoch
    # train on epochs 0..18, while every logged row evaluates on epoch 0
    dealt = []
    deal = Partition.shards

    def counted(self, epoch=0):
        dealt.append(epoch)
        return deal(self, epoch)

    monkeypatch.setattr(Partition, "shards", counted)
    problem = make_mlp(16, input_dim=32, hidden=64, samples=4096, batch=32, seed=1)
    cfg = OptimizerConfig(algorithm="choco-errorfeedback", eta=0.5, gamma=0.5,
                          iterations=150)
    rec = run(problem, cfg, mixing_matrix(ring(16)), parse_compressor("identity"), seed=1,
              log_every=1, broadcast=True)
    assert rec.rows() == 150
    assert dealt == list(range(19))


# -------------------------------------------------------------------- ledger

def test_array_ledger_calls_equal_scalar_calls():
    src = np.array([0, 0, 1, 2, 2, 2, 3])
    dst = np.array([1, 3, 0, 0, 1, 3, 2])
    bits = np.array([5, 5, 7, 9, 9, 9, 11])
    scalar, batched = TrafficLedger(5), TrafficLedger(5)
    for s, t, b in zip(src, dst, bits):
        scalar.add_message(int(s), int(t), int(b))
        scalar.add_broadcast(int(s), int(b))
        scalar.add_upload(int(s), 4, int(b))
    scalar.add_upload(4, 4, 3)  # the hub uploading to itself is charged once
    batched.add_message(src, dst, bits)
    batched.add_broadcast(src, bits)
    batched.add_upload(np.append(src, 4), 4, np.append(bits, 3))
    assert np.array_equal(batched.per_node, scalar.per_node)
    assert batched.per_node[4] == 3 + bits.sum()


def test_array_ledger_calls_are_validated():
    led = TrafficLedger(3)
    for call in (lambda: led.add_message(np.array([0, 1]), np.array([1, 3]), 4),
                 lambda: led.add_message(np.array([0, -1]), np.array([1, 0]), 4),
                 lambda: led.add_message(np.array([0, 1]), np.array([1, 0]),
                                         np.array([4, -1])),
                 lambda: led.add_broadcast(np.array([0, 3]), np.array([1, 1])),
                 lambda: led.add_upload(np.array([0, 1]), 5, np.array([1, 1])),
                 lambda: led.add_upload(np.array([0, 1]), 2, np.array([-1, 1]))):
        with pytest.raises(ValueError):
            call()
    assert not led.per_node.any()  # a rejected call charges nothing


# ------------------------------------------------------------------ run loop

def _reference_run(problem, cfg, mixing, comp, seed, broadcast, x0, boundaries):
    """``optim.run`` written node by node and edge by edge, logging every
    iteration; returns the logged rows, the largest gradient norm after each
    iteration, the final node mean, the ledger and every iteration's ``(x,
    xhat)``. A diverged iteration (an entry NaN, infinite or beyond 1e12)
    ends the loop before it is charged or logged; its ``(x, xhat)`` is the
    last state, and its gradients count in the largest norm."""
    n, d = problem.n, problem.dim
    streams = Streams(seed)
    gamma = resolve_gamma(cfg, mixing, comp, d, boundaries)
    centralized = cfg.algorithm == "centralized"
    ledger = TrafficLedger(n + 1 if centralized else n)
    rows, states, max_grads, max_grad = [], [], [], 0.0

    def gradients(x_rows, t):
        return _literal_gradients(problem, x_rows, streams.grad.at(t), t)

    def compress_nodes(v, t):
        return _per_row(comp, v, streams.compress.at(t) if comp.stochastic else None,
                        boundaries)

    x = x0.copy() if centralized else np.tile(x0, (n, 1))
    xhat = np.zeros((n, d))
    velocity, memory, x_prev = np.zeros((n, d)), np.zeros((n, d)), np.zeros((n, d))
    for t in range(cfg.iterations):
        if centralized:
            g = gradients(np.tile(x, (n, 1)), t)
            x = x - cfg.eta * g.mean(axis=0)
        elif cfg.algorithm == "decentralized-exact":
            g = gradients(x, t)
            x = mixing.w @ (x - cfg.eta * g)
            bits = [32 * d] * n
        else:
            if cfg.algorithm == "choco-errorfeedback":
                v = (x - x_prev) + memory
                q, bits = compress_nodes(v, t)
                memory = v - q
                xhat_next = xhat + q
            else:
                v = x - xhat
                q, bits = compress_nodes(v, t)
                xhat_next = x - (v - q)
            g = gradients(x, t)
            direction = g
            if cfg.algorithm == "choco-momentum":
                pull = g + cfg.weight_decay * x
                velocity = pull + cfg.momentum_factor * velocity
                direction = pull + cfg.momentum_factor * velocity if cfg.nesterov else velocity
            if cfg.algorithm == "choco-errorfeedback":
                x_prev = x
            x = ((x - gamma * xhat_next) + gamma * (mixing.w @ xhat_next)) - cfg.eta * direction
            xhat = xhat_next
        max_grad = max(max_grad, float(np.sqrt((g * g).sum(axis=1).max())))
        max_grads.append(max_grad)
        if not (np.isfinite(x).all() and np.abs(x).max() <= 1e12):
            states.append((x, xhat))
            xbar = x if centralized else x.mean(axis=0)
            break
        if centralized:
            for i in range(n):
                ledger.add_upload(i, n, 32 * d)
        else:
            for i in range(n):
                if broadcast:
                    ledger.add_broadcast(i, bits[i])
                for j in range(n):
                    if not broadcast and j != i and mixing.w[i, j] != 0.0:
                        ledger.add_message(i, j, bits[i])
        state = x[None, :] if centralized else x
        xbar = state.mean(axis=0)
        grad = problem.full_gradient(xbar)
        psi = 0.0
        if not centralized:
            psi = ((x - xbar) ** 2).sum()
            if cfg.algorithm.startswith("choco"):
                psi = psi + ((x - xhat) ** 2).sum()
        rows.append((t + 1, _in_order(problem.node_loss(i, xbar) for i in range(n)) / n,
                     float(grad @ grad), 0.0 if centralized else consensus_distance(x),
                     float(psi), ledger.busiest()))
        states.append((x, xhat))
    return rows, max_grads, xbar, ledger.per_node, states


def _reference_problem(kind):
    if kind == "quadratic":
        return make_quadratic(6, 7, heterogeneity=1.0, noise_std=0.5, seed=8)
    if kind == "logistic":
        return make_logistic(6, dim=5, samples=120, batch=8, seed=8)
    return make_mlp(6, input_dim=3, hidden=4, samples=96, batch=8, seed=8)


def _assert_run_equals_reference(rec, reference):
    rows, max_grads, final_mean, per_node, states = reference
    got = list(zip(rec.t, rec.f_avg, rec.grad_sq, rec.consensus, rec.psi,
                   rec.bits_busiest))
    assert got == rows
    assert rec.max_grad_norm == max_grads[-1]
    assert np.array_equal(rec.final_x_mean, final_mean, equal_nan=True)
    assert np.array_equal(rec.ledger.per_node, per_node)
    # the state the run ended in, updated in place; the centralized one is one row
    x, xhat = states[-1]
    assert np.array_equal(rec.workers.x, x.reshape(-1, x.shape[-1]), equal_nan=True)
    if rec.workers.xhat is not None:
        assert np.array_equal(rec.workers.xhat, xhat, equal_nan=True)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("broadcast", [False, True])
@pytest.mark.parametrize("kind", ["quadratic", "logistic", "mlp"])
def test_run_equals_the_per_node_reference_loop(algorithm, broadcast, kind):
    problem = _reference_problem(kind)
    mixing = mixing_matrix(ring(6))
    x0 = np.linspace(-0.5, 0.5, problem.dim)
    cfg = OptimizerConfig(algorithm=algorithm, eta=0.05, gamma=0.3, iterations=12,
                          momentum_factor=0.5 if algorithm == "choco-momentum" else 0.0,
                          weight_decay=0.01 if algorithm == "choco-momentum" else 0.0,
                          nesterov=algorithm == "choco-momentum" and broadcast)
    for spec in ("identity", "sign", "topk:0.3", "gsgd:4", "random:0.4", "gsgd:2:unbiased"):
        comp = parse_compressor(spec)
        rec = run(problem, cfg, mixing, comp, seed=4, broadcast=broadcast, x0=x0,
                  record_iterates=True)
        reference = _reference_run(problem, cfg, mixing, comp, 4, broadcast, x0,
                                   problem.layer_boundaries)
        assert not rec.diverged
        _assert_run_equals_reference(rec, reference)
        # every recorded iterate is the iteration's state, kept apart from it
        states = reference[4]
        for t, (x, _) in enumerate(states, start=1):
            assert np.array_equal(rec.iterates[t], x[None, :] if x.ndim == 1 else x), spec


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("spec", ["sign", "gsgd:4"])
def test_every_algorithm_diverging_mid_run_equals_the_reference(algorithm, spec):
    problem = _reference_problem("quadratic")
    mixing = mixing_matrix(ring(6))
    comp = parse_compressor(spec)
    x0 = np.linspace(-0.5, 0.5, problem.dim)
    cfg = OptimizerConfig(algorithm=algorithm, eta=50.0, gamma=0.5, iterations=60,
                          momentum_factor=0.5 if algorithm == "choco-momentum" else 0.0)
    rec = run(problem, cfg, mixing, comp, seed=4, x0=x0)
    reference = _reference_run(problem, cfg, mixing, comp, 4, False, x0, None)
    assert rec.diverged and 2 < rec.diverged_at < 60  # mid-run
    assert rec.diverged_at == len(reference[0]) + 1
    _assert_run_equals_reference(rec, reference)


# ------------------------------------------------------- fixed bookkeeping

def _literal_choco_until_divergence(problem, mixing, comp, gamma, eta, iterations, seed,
                                    x0):
    """Plain CHOCO node by node, charging every message edge by edge after
    every iteration, with the three-pass divergence check; stops at the
    first diverged iterate, which it returns along with the index of its
    first failing row."""
    n, d = problem.n, problem.dim
    streams = Streams(seed)
    ledger = TrafficLedger(n)
    x, xhat = np.tile(x0, (n, 1)), np.zeros((n, d))
    rows = []
    for t in range(iterations):
        v = x - xhat
        q, bits = _per_row(comp, v, streams.compress.at(t) if comp.stochastic else None,
                           None)
        xhat_next = x - (v - q)
        g = _literal_gradients(problem, x, streams.grad.at(t), t)
        x = ((x - gamma * xhat_next) + gamma * (mixing.w @ xhat_next)) - eta * g
        xhat = xhat_next
        if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > 1e12:
            failing = next(i for i in range(n)
                           if not np.all(np.isfinite(x[i])) or np.max(np.abs(x[i])) > 1e12)
            return rows, ledger.per_node, t + 1, failing
        for i in range(n):
            for j in range(n):
                if j != i and mixing.w[i, j] != 0.0:
                    ledger.add_message(i, j, bits[i])
        xbar = x.mean(axis=0)
        grad = problem.full_gradient(xbar)
        psi = ((x - xbar) ** 2).sum() + ((x - xhat) ** 2).sum()
        rows.append((t + 1, _in_order(problem.node_loss(i, xbar) for i in range(n)) / n,
                     float(grad @ grad), consensus_distance(x), float(psi),
                     ledger.busiest()))
    return rows, ledger.per_node, None, None


@pytest.mark.parametrize("spec", ["sign", "gsgd:4"])
def test_a_run_diverging_mid_run_equals_the_per_edge_reference(spec):
    problem = make_quadratic(6, 7, heterogeneity=1.0, noise_std=0.5, seed=8)
    mixing = mixing_matrix(ring(6))
    comp = parse_compressor(spec)
    x0 = np.linspace(-0.5, 0.5, problem.dim)
    cfg = OptimizerConfig(algorithm="choco", eta=50.0, gamma=0.5, iterations=60)
    rec = run(problem, cfg, mixing, comp, seed=4, x0=x0)
    rows, per_node, diverged_at, failing = _literal_choco_until_divergence(
        problem, mixing, comp, 0.5, 50.0, 60, 4, x0)
    assert diverged_at is not None and 2 < diverged_at < 60  # mid-run
    assert rec.diverged and rec.diverged_at == diverged_at
    assert rec.diverged_node == failing
    assert list(zip(rec.t, rec.f_avg, rec.grad_sq, rec.consensus, rec.psi,
                    rec.bits_busiest)) == rows
    # the diverged iteration is not charged
    assert rec.ledger.per_node.dtype == np.int64
    assert np.array_equal(rec.ledger.per_node, per_node)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_nan_start_is_flagged_at_iteration_one_with_nothing_charged(algorithm):
    problem = make_quadratic(5, 4, seed=3)
    x0 = np.array([0.1, np.nan, 0.2, 0.3])
    cfg = OptimizerConfig(algorithm=algorithm, eta=0.05, gamma=0.5, iterations=20)
    rec = run(problem, cfg, mixing_matrix(ring(5)), parse_compressor("sign"), seed=1,
              broadcast=algorithm == "choco-momentum", x0=x0)
    assert rec.diverged and rec.diverged_at == 1 and rec.rows() == 0
    centralized = algorithm == "centralized"
    # every node's row is NaN; the centralized iterate is the coordinator's
    assert rec.diverged_node == (5 if centralized else 0)
    assert np.array_equal(rec.ledger.per_node, np.zeros(6 if centralized else 5, np.int64))
    reference = _reference_run(problem, cfg, mixing_matrix(ring(5)), parse_compressor("sign"),
                               1, algorithm == "choco-momentum", x0, None)
    _assert_run_equals_reference(rec, reference)


def test_divergence_names_the_first_failing_node():
    problem = make_quadratic(6, 3, seed=2)
    clean = problem.stochastic_gradients

    def poisoned(x_rows, rng, t=0):
        g = clean(x_rows, rng, t)
        if t == 4:
            g[3, 1] = np.inf
            g[5, 0] = np.nan
        return g

    problem.stochastic_gradients = poisoned
    cfg = OptimizerConfig(algorithm="choco", eta=0.05, gamma=0.5, iterations=10)
    rec = run(problem, cfg, mixing_matrix(ring(6)), parse_compressor("topk:0.5"), seed=1,
              log_every=2)
    assert rec.diverged and rec.diverged_at == 5 and rec.diverged_node == 3
    assert rec.t == [2, 4]
    # four iterations of two out-links, each one message of one kept entry
    assert rec.bits_busiest == [2 * 2 * 64, 4 * 2 * 64]
    assert np.array_equal(rec.ledger.per_node, np.full(6, 4 * 2 * 64))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_run_times_its_layers_outside_the_rows(algorithm):
    problem = make_quadratic(4, 3, seed=2)
    cfg = OptimizerConfig(algorithm=algorithm, eta=0.05, gamma=0.5, iterations=30)
    rec = run(problem, cfg, mixing_matrix(ring(4)), parse_compressor("sign"), seed=1,
              log_every=7)
    assert sorted(rec.timings) == ["eval_s", "stats_s", "step_s"]
    assert all(v >= 0.0 for v in rec.timings.values())
    assert rec.timings["step_s"] > 0.0
    assert sum(rec.timings.values()) <= rec.elapsed_s


def test_run_reads_the_clock_around_its_loop_not_around_each_step(monkeypatch):
    # step_s is the loop's time less the rows' block work, so a longer run
    # with the same one block of rows reads the clock as often
    reads = []
    clock = time.perf_counter
    monkeypatch.setattr(optim.time, "perf_counter", lambda: reads.append(1) or clock())
    counts = []
    for iterations in (10, 40):
        reads.clear()
        cfg = OptimizerConfig(algorithm="choco-momentum", eta=0.05, gamma=0.5,
                              iterations=iterations)
        rec = run(make_quadratic(4, 3, seed=2), cfg, mixing_matrix(ring(4)),
                  parse_compressor("sign"), seed=1, log_every=iterations // 2)
        assert rec.t == [iterations // 2, iterations]
        counts.append(len(reads))
    assert counts[0] == counts[1]


# ------------------------------------------------------ logged rows in blocks

def _block_size(algorithm, problem):
    # the logged states one block holds: x, and xhat for the compressed family
    rows = 1 if algorithm == "centralized" else problem.n
    copies = 2 if algorithm.startswith("choco") else 1
    return max(1, LOG_BLOCK_BYTES // (rows * problem.dim * 8 * copies))


def _rows_by_definition(problem, algorithm, states, bits, ts):
    """The logged rows of iterations ``ts``, each computed alone from that
    iteration's state: ``x.mean(axis=0)``, the consensus distance and
    Lyapunov quantity written out, ``loss_and_gradient`` and ``grad @ grad``;
    the floats as ``float.hex``."""
    out = []
    for t in ts:
        x, xhat = states[t - 1]
        xbar = (x[None, :] if algorithm == "centralized" else x).mean(axis=0)
        f_avg, grad = problem.loss_and_gradient(xbar)
        consensus = psi = 0.0
        if algorithm != "centralized":
            consensus = float(((x - xbar) ** 2).sum() / x.shape[0])
            psi = ((x - xbar) ** 2).sum()
            if algorithm.startswith("choco"):
                psi = psi + ((x - xhat) ** 2).sum()
        out.append((t, float(f_avg).hex(), float(grad @ grad).hex(), consensus.hex(),
                    float(psi).hex(), bits[t - 1]))
    return out


def _logged_rows(rec):
    return [(t, f.hex(), g.hex(), c.hex(), p.hex(), b) for t, f, g, c, p, b in
            zip(rec.t, rec.f_avg, rec.grad_sq, rec.consensus, rec.psi, rec.bits_busiest)]


def _spy_blocks(problem, monkeypatch):
    # the number of rows in each block call of loss_and_gradient
    blocks, evaluate = [], problem.loss_and_gradient

    def spied(x):
        if np.ndim(x) == 2:
            blocks.append(len(x))
        return evaluate(x)

    monkeypatch.setattr(problem, "loss_and_gradient", spied)
    return blocks


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("kind", ["quadratic", "mlp", "wide"])
def test_logged_rows_equal_their_definitions_at_every_block_edge(algorithm, kind,
                                                                 monkeypatch):
    if kind == "quadratic":
        problem = make_quadratic(8, 96, heterogeneity=1.0, noise_std=0.5, seed=8)
    elif kind == "mlp":
        problem = make_mlp(8, input_dim=16, hidden=16, samples=256, batch=8, seed=8)
    else:  # one state above NumPy's 8192-element reduction buffer
        problem = make_quadratic(16, 520, heterogeneity=1.0, noise_std=0.5, seed=8)
    mixing = mixing_matrix(ring(problem.n))
    comp = parse_compressor("gsgd:4")
    x0 = np.linspace(-0.5, 0.5, problem.dim)
    momentum = algorithm == "choco-momentum"
    block = _block_size(algorithm, problem)
    # (iterations, log_every): 1 row, a block - 1, a block, a block + 1,
    # several blocks, and a stride that does not divide the iterations
    edges = {1, block - 1, block, block + 1, 3 * block + 2}
    if kind == "quadratic":  # the same edges of the gradient-norm fold's block
        edges |= {NORM_BLOCK - 1, NORM_BLOCK, NORM_BLOCK + 1, 3 * NORM_BLOCK + 2}
    cases = [(count, 1) for count in sorted(edges) if count > 0] + [(3 * (block + 1) + 1, 3)]
    horizon = max(iterations for iterations, _ in cases)
    cfg = OptimizerConfig(algorithm=algorithm, eta=0.05, gamma=0.3, iterations=horizon,
                          momentum_factor=0.5 if momentum else 0.0,
                          weight_decay=0.01 if momentum else 0.0)
    reference, max_grads, _, _, states = _reference_run(problem, cfg, mixing, comp, 4, False,
                                                        x0, problem.layer_boundaries)
    bits = [row[5] for row in reference]
    blocks = _spy_blocks(problem, monkeypatch)
    for iterations, log_every in cases:
        blocks.clear()
        cfg.iterations = iterations
        rec = run(problem, cfg, mixing, comp, seed=4, log_every=log_every, x0=x0)
        ts = list(range(log_every, iterations + 1, log_every))
        if ts[-1] != iterations:
            ts.append(iterations)
        assert _logged_rows(rec) == _rows_by_definition(problem, algorithm, states, bits, ts)
        assert rec.max_grad_norm == max_grads[iterations - 1]
        # the rows really were computed in blocks of that size
        full, rest = divmod(len(ts), block)
        assert blocks == [block] * full + ([rest] if rest else [])


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_run_diverging_mid_block_logs_the_rows_before_it(algorithm, monkeypatch):
    problem = make_quadratic(8, 96, heterogeneity=1.0, noise_std=0.5, seed=8)
    mixing = mixing_matrix(ring(8))
    comp = parse_compressor("sign")
    x0 = np.linspace(-0.5, 0.5, problem.dim)
    # eta * L > 2: the iterates grow until they pass the divergence limit,
    # the centralized ones after more than one of its longer blocks
    eta = 2.08 if algorithm == "centralized" else 2.6
    cfg = OptimizerConfig(algorithm=algorithm, eta=eta, gamma=0.3, iterations=500)
    reference, max_grads, _, _, states = _reference_run(problem, cfg, mixing, comp, 4, False,
                                                        x0, None)
    x_rows = [np.atleast_2d(x) for x, _ in states]
    failed = [t for t, x in enumerate(x_rows, 1) if not np.max(np.abs(x)) <= 1e12]
    diverged_at = failed[0]
    bad = ~(np.abs(x_rows[diverged_at - 1]) <= 1e12).all(axis=1)
    diverged_node = 8 if algorithm == "centralized" else int(np.argmax(bad))
    block = _block_size(algorithm, problem)
    blocks = _spy_blocks(problem, monkeypatch)
    rec = run(problem, cfg, mixing, comp, seed=4, x0=x0)
    ts = list(range(1, diverged_at))
    # at least one full block, and the divergence inside the next one
    assert len(ts) > block and len(ts) % block
    assert blocks == [block] * (len(ts) // block) + [len(ts) % block]
    assert rec.diverged and rec.diverged_at == diverged_at
    assert rec.diverged_node == diverged_node
    bits = [row[5] for row in reference]
    assert _logged_rows(rec) == _rows_by_definition(problem, algorithm, states, bits, ts)
    # the largest gradient norm counts the diverged iteration's gradients,
    # drawn inside a fold block
    assert len(max_grads) == diverged_at and diverged_at % NORM_BLOCK
    assert rec.max_grad_norm == max_grads[-1]
