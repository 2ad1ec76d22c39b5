"""The compressed-gossip step updates its state in place, in buffers owned by
``Workers``, as does the gossip round. What a caller keeps must never
share memory with that state, the functions that take an ``out`` buffer
must not write to their inputs without one, and the in-place forms give
the same floats as the fresh-array forms."""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from chocosim.compression import compress_blocks, parse_compressor
from chocosim.consensus import choco_gossip_round, mix_with_public, sync_public
from chocosim.numerics import RandomStream
from chocosim.optim import ALGORITHMS, OptimizerConfig, Streams, Workers, choco_step, run
from chocosim.problems import make_logistic, make_mlp, make_quadratic
from chocosim.topology import mixing_matrix, ring

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
# every corpus spec, plus the unbiased variants
SPECS = ("identity", "sign", "topk:0.3", "gsgd:4", "random:0.4", "gsgd:2:unbiased",
         "random:0.4:unbiased", "topk:0.2", "random:0.3")
# one block, the MLP layout, and a ragged layout with a 1-column block inside
LAYOUTS = (None, tuple(make_mlp(6, input_dim=3, hidden=4, samples=96, batch=8,
                                seed=8).layer_boundaries), (0, 9, 10, 21))


def _rows(n=6, d=7, seed=2):
    return RandomStream(seed, 0, "rows").generator().standard_normal(n * d).reshape(n, d)


def _state_arrays(workers):
    return [a for a in (workers.x, workers.xhat, workers.velocity, workers.memory,
                        workers.x_prev, workers.scratch) if a is not None]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_recorded_iterates_share_no_memory(algorithm):
    problem = make_quadratic(6, 7, heterogeneity=1.0, noise_std=0.5, seed=8)
    cfg = OptimizerConfig(algorithm=algorithm, eta=0.05, gamma=0.3, iterations=5,
                          momentum_factor=0.5 if algorithm == "choco-momentum" else 0.0)
    rec = run(problem, cfg, mixing_matrix(ring(6)), parse_compressor("sign"), seed=1,
              x0=np.linspace(-0.5, 0.5, 7), record_iterates=True)
    history = rec.iterates
    assert len(history) == 6
    for k, a in enumerate(history):
        assert not any(np.shares_memory(a, b) for b in history[k + 1:])
        assert not any(np.shares_memory(a, b) for b in _state_arrays(rec.workers))
    # the iterates moved, so a shared buffer would have shown as equal entries
    assert not np.array_equal(history[1], history[2])
    assert not np.shares_memory(rec.final_x_mean, history[-1])


def test_workers_arrays_are_distinct_buffers():
    for algorithm in ALGORITHMS[:-1]:
        arrays = _state_arrays(Workers.start(np.tile(np.arange(3.0), (4, 1)), algorithm))
        assert all(a.shape == (4, 3) for a in arrays)
        assert not any(np.shares_memory(a, b)
                       for k, a in enumerate(arrays) for b in arrays[k + 1:])


def test_errorfeedback_x_prev_is_a_copy_of_the_previous_iterate():
    problem = make_quadratic(6, 7, heterogeneity=1.0, noise_std=0.5, seed=8)
    mixing = mixing_matrix(ring(6))
    comp = parse_compressor("gsgd:4")
    cfg = OptimizerConfig(algorithm="choco-errorfeedback", eta=0.05, iterations=10)
    workers = Workers.start(np.tile(np.linspace(-0.5, 0.5, 7), (6, 1)), cfg.algorithm)
    streams = Streams(3)
    for t in range(4):
        before = workers.x.copy()
        choco_step(workers, problem, mixing, comp, 0.3, 0.05, streams, t, cfg=cfg)
        assert workers.x_prev is not workers.x
        assert not np.shares_memory(workers.x_prev, workers.x)
        assert np.array_equal(workers.x_prev, before)
        assert not np.array_equal(workers.x, before)
    rec = run(problem, cfg, mixing, comp, seed=3, x0=np.linspace(-0.5, 0.5, 7))
    assert not np.shares_memory(rec.workers.x_prev, rec.workers.x)


def test_choco_step_runs_on_fresh_workers_without_cfg_or_record():
    # plain CHOCO called directly, as the acceptance tests do
    problem = make_quadratic(4, 5, heterogeneity=1.0, noise_std=0.5, seed=2)
    mixing = mixing_matrix(ring(4))
    comp = parse_compressor("sign")
    x0 = np.linspace(-1.0, 1.0, 5)
    workers = Workers.start(np.tile(x0, (4, 1)), "choco")
    streams = Streams(7)
    x, xhat = np.tile(x0, (4, 1)), np.zeros((4, 5))
    for t in range(5):
        choco_step(workers, problem, mixing, comp, 0.4, 0.05, streams, t)
        v = x - xhat
        xhat = x - (v - compress_blocks(comp, v).payload)
        g = problem.stochastic_gradients(x, Streams(7).grad.at(t), t)
        x = mix_with_public(x, xhat, mixing.w, 0.4) - 0.05 * g
        assert np.array_equal(workers.x, x) and np.array_equal(workers.xhat, xhat)


@pytest.mark.parametrize("spec", SPECS)
def test_sync_public_leaves_its_inputs_and_out_gives_the_same_floats(spec):
    comp = parse_compressor(spec)
    for boundaries in LAYOUTS:
        x, xhat = _rows(d=21), 0.5 * _rows(d=21, seed=3)
        x_bytes, xhat_bytes = x.tobytes(), xhat.tobytes()
        fresh = sync_public(x, xhat, comp, RandomStream(1).at(0), boundaries)
        assert x.tobytes() == x_bytes and xhat.tobytes() == xhat_bytes
        assert not np.shares_memory(fresh, x) and not np.shares_memory(fresh, xhat)
        into = xhat.copy()
        got = sync_public(x, into, comp, RandomStream(1).at(0), boundaries, out=into)
        assert got is into and got.tobytes() == fresh.tobytes()
        # the step's form: the payload in a work buffer, every entry written
        into, work = xhat.copy(), np.full_like(x, np.nan)
        got = sync_public(x, into, comp, RandomStream(1).at(0), boundaries, out=into,
                          work=work)
        assert got is into and got.tobytes() == fresh.tobytes(), boundaries
        assert x.tobytes() == x_bytes


def test_mix_with_public_leaves_its_inputs_and_out_gives_the_same_floats():
    w = mixing_matrix(ring(6)).w
    x, xhat = _rows(), 0.5 * _rows(seed=3)
    x_bytes, xhat_bytes, w_bytes = x.tobytes(), xhat.tobytes(), w.tobytes()
    fresh = mix_with_public(x, xhat, w, 0.37)
    assert x.tobytes() == x_bytes and xhat.tobytes() == xhat_bytes
    assert w.tobytes() == w_bytes and not np.shares_memory(fresh, x)
    # the temporaries in a work buffer, into a fresh result and into x
    work = np.full_like(x, np.nan)
    got = mix_with_public(x, xhat, w, 0.37, work=work)
    assert got.tobytes() == fresh.tobytes() and not np.shares_memory(got, work)
    assert x.tobytes() == x_bytes and xhat.tobytes() == xhat_bytes
    got = mix_with_public(x, xhat, w, 0.37, out=x, work=work)  # the form the step uses
    assert got is x and x.tobytes() == fresh.tobytes()
    assert xhat.tobytes() == xhat_bytes
    x = _rows()
    got = mix_with_public(x, xhat, w, 0.37, out=x)
    assert got is x and x.tobytes() == fresh.tobytes()
    assert xhat.tobytes() == xhat_bytes and w.tobytes() == w_bytes


@pytest.mark.parametrize("spec", ["sign", "gsgd:4", "topk:0.3"])
def test_gossip_rounds_in_the_states_buffers_equal_the_fresh_forms(spec):
    comp = parse_compressor(spec)
    mixing = mixing_matrix(ring(6))
    for boundaries in LAYOUTS:
        state = Workers.start(_rows(d=21), "choco")
        buffers = [a.__array_interface__["data"][0] for a in (state.x, state.xhat,
                                                               state.scratch)]
        assert not any(np.shares_memory(a, b) for a, b in
                       [(state.x, state.xhat), (state.x, state.scratch),
                        (state.xhat, state.scratch)])
        x, xhat = state.x.copy(), state.xhat.copy()
        rng, ref_rng = RandomStream(4).generator(), RandomStream(4).generator()
        for _ in range(3):
            choco_gossip_round(state, mixing, comp, rng, 0.3, boundaries)
            x = mix_with_public(x, xhat, mixing.w, 0.3)
            xhat = sync_public(x, xhat, comp, ref_rng, boundaries)
            assert state.x.tobytes() == x.tobytes() and state.xhat.tobytes() == xhat.tobytes()
        assert buffers == [a.__array_interface__["data"][0] for a in (state.x, state.xhat,
                                                                      state.scratch)]


def test_block_layout_errors_repeat():
    comp = parse_compressor("sign")
    for _ in range(2):  # a bad layout is rejected every time it is asked for
        with pytest.raises(ValueError, match="start at 0"):
            compress_blocks(comp, np.ones(6), boundaries=[1, 6])
        with pytest.raises(ValueError, match="strictly increasing"):
            compress_blocks(comp, np.ones(6), boundaries=[0, 4, 4, 6])


@pytest.mark.parametrize("problem", [
    make_logistic(4, dim=5, samples=64, batch=8, seed=1),
    make_mlp(4, input_dim=3, hidden=4, samples=64, batch=8, seed=1),
], ids=["logistic", "mlp"])
def test_dataset_full_gradient_skips_the_loss_and_equals_loss_and_gradient(problem,
                                                                          monkeypatch):
    x = np.linspace(-0.5, 0.5, problem.dim)
    rows = np.stack([x, -2.0 * x, x + 0.25])
    for point in (x, rows):
        assert problem.full_gradient(point).tobytes() == \
            problem.loss_and_gradient(point)[1].tobytes()

    asked = []
    kernel = type(problem)._kernel

    def spied(self, z, y, x, out, losses=False):
        asked.append(losses)
        return kernel(self, z, y, x, out, losses)

    monkeypatch.setattr(type(problem), "_kernel", spied)
    problem.full_gradient(x)
    problem.full_gradient(rows)
    assert asked == [False] * (1 + 3)  # the 4 shards are one chunk: a call per row, no loss


def test_tracer_counts_one_call_per_layer_per_iteration(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    for name in ("tracer", "worker", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    tracer = importlib.import_module("tracer")
    worker = importlib.import_module("worker")
    workloads = importlib.import_module("workloads")

    config = workloads.make_config("ring16-sign", 5)
    config["iterations"] = 30
    t = tracer.Tracer("ring16-sign")
    t.install()
    worker.execute_run(config, str(tmp_path), 0.0, t)  # removes the tracer
    layers = tracer.layer_metrics(t.spans)
    for layer in ("optim.step", "consensus.sync", "consensus.mix", "compression"):
        assert layers[f"{layer}.calls"] == 30, layer
    assert layers["compression.bits"] == 30 * 16 * (10 + 32) == 20160
    assert layers["metrics.ledger.bits_busiest"] == 30 * 2 * (10 + 32) == 2520
