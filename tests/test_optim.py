import math
import zlib

import numpy as np
import pytest

from chocosim.compression import message_bits, parse_compressor
from chocosim.consensus import consensus_stepsize
from chocosim.numerics import RandomStream
from chocosim.optim import (ALGORITHM_TABLE, ALGORITHMS, OptimizerConfig, Workers,
                            consensus_bound, effective_contraction, resolve_gamma, run,
                            theoretical_stepsize, tune_stepsize)
from chocosim.problems import make_logistic, make_mlp, make_quadratic
from chocosim.topology import Graph, fully_connected, mixing_matrix, ring


def _point_mass_problem(n=4, eta_scale=1.0):
    # f_i(x) = 1/2 x^2 in one dimension, no noise, identical nodes
    return make_quadratic(n, 1, heterogeneity=0.0, noise_std=0.0, seed=0,
                          mu=1.0, l_smooth=1.0, xstar_scale=0.0)


# ------------------------------------------------------------ configuration

def test_optimizer_config_validation():
    OptimizerConfig()  # defaults are valid
    with pytest.raises(ValueError):
        OptimizerConfig(algorithm="sgd")
    with pytest.raises(ValueError):
        OptimizerConfig(eta=-0.1)
    with pytest.raises(ValueError):
        OptimizerConfig(momentum_factor=1.0)
    with pytest.raises(ValueError):
        OptimizerConfig(gamma=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(gamma="big")
    with pytest.raises(ValueError):
        OptimizerConfig(iterations=0)
    with pytest.raises(ValueError):
        OptimizerConfig(delta_override=1.5)


def test_worker_buffers_per_algorithm():
    x0 = np.arange(3.0)
    plain = Workers.start(np.tile(x0, (4, 1)), "choco")
    assert plain.x.shape == (4, 3)
    assert np.all(plain.xhat == 0.0) and plain.velocity is None
    mom = Workers.start(np.tile(x0, (4, 1)), "choco-momentum")
    assert mom.velocity.shape == (4, 3)
    ef = Workers.start(np.tile(x0, (4, 1)), "choco-errorfeedback")
    assert np.all(ef.memory == 0.0) and np.all(ef.x_prev == 0.0)
    exact = Workers.start(np.tile(x0, (4, 1)), "decentralized-exact")
    assert exact.xhat is None
    # each algorithm holds exactly the arrays its table row lists
    for algorithm in ALGORITHMS:
        workers = Workers.start(np.tile(x0, (4, 1)), algorithm)
        held = [name for name in ("xhat", "velocity", "memory", "x_prev")
                if getattr(workers, name) is not None]
        assert held == list(ALGORITHM_TABLE[algorithm].keeps)


# ------------------------------------------------------- baseline identities

def test_full_graph_exact_gossip_tracks_centralized():
    problem = make_quadratic(4, 6, heterogeneity=1.0, noise_std=0.5, seed=1)
    cfg_d = OptimizerConfig(algorithm="decentralized-exact", eta=0.1, iterations=60)
    cfg_c = OptimizerConfig(algorithm="centralized", eta=0.1, iterations=60)
    rec_d = run(problem, cfg_d, mixing_matrix(fully_connected(4)), seed=7)
    rec_c = run(problem, cfg_c, seed=7)
    np.testing.assert_allclose(rec_d.final_x_mean, rec_c.final_x_mean, atol=1e-12)
    np.testing.assert_allclose(rec_d.f_avg, rec_c.f_avg, atol=1e-12)
    assert rec_d.consensus[-1] == 0.0  # uniform averaging collapses every step


def test_single_node_gossip_reduces_to_centralized():
    problem = make_quadratic(1, 5, heterogeneity=0.0, noise_std=0.3, seed=2)
    mixing = mixing_matrix(Graph(1, []))
    cfg = OptimizerConfig(algorithm="choco", eta=0.05, gamma=1.0, iterations=50)
    rec = run(problem, cfg, mixing, parse_compressor("identity"), seed=3)
    rec_c = run(problem, OptimizerConfig(algorithm="centralized", eta=0.05,
                                         iterations=50), seed=3)
    np.testing.assert_allclose(rec.final_x_mean, rec_c.final_x_mean, atol=1e-12)


def test_centralized_single_step_hand_example():
    # f(x) = 1/2 x^2, eta = 1, x0 = 2: one step lands exactly on the optimum
    problem = _point_mass_problem()
    cfg = OptimizerConfig(algorithm="centralized", eta=1.0, iterations=2)
    rec = run(problem, cfg, seed=0, x0=np.array([2.0]))
    assert rec.f_avg == [0.0, 0.0]
    np.testing.assert_array_equal(rec.final_x_mean, [0.0])


def test_centralized_matches_the_literal_gradient_loop():
    # bitwise: the n gradients sit in C-ordered (n, d) rows, and their mean
    # sums in that order (n >= 8 takes NumPy's unrolled summation path)
    n, d, eta, steps = 16, 7, 0.1, 5
    problem = make_quadratic(n, d, heterogeneity=1.0, noise_std=0.5, seed=3)
    x0 = np.linspace(-1.0, 1.0, d)
    rec = run(problem, OptimizerConfig(algorithm="centralized", eta=eta, iterations=steps),
              seed=2, x0=x0, record_iterates=True)

    from chocosim.optim import Streams
    streams = Streams(2)
    scale = problem.noise_std / np.sqrt(d)
    x = x0.copy()
    for t in range(steps):
        noise = streams.grad.at(t).standard_normal((n, d))  # the iteration's block
        g = np.empty((n, d))
        for i in range(n):
            g[i] = problem.node_gradient(i, x) + scale * noise[i]
        x = x - eta * g.mean(axis=0)
        np.testing.assert_array_equal(rec.iterates[t + 1], x[None, :])
    np.testing.assert_array_equal(rec.final_x_mean, x)
    # the shared iterate is the one row of the run's state, with no public copy
    assert rec.workers.x.shape == (1, d) and rec.workers.xhat is None
    np.testing.assert_array_equal(rec.final_x_mean, rec.workers.x[0])


def test_lossless_gossip_matches_matrix_recursion():
    # identity compression, gamma=1: from the second iteration onward the
    # iterate matrix follows x <- W x - eta * g for the same gradient draws
    problem = make_quadratic(4, 5, heterogeneity=1.0, noise_std=0.4, seed=4)
    mixing = mixing_matrix(ring(4))
    cfg = OptimizerConfig(algorithm="choco", eta=0.1, gamma=1.0, iterations=12)
    rec = run(problem, cfg, mixing, parse_compressor("identity"), seed=5,
              record_iterates=True)

    from chocosim.optim import Streams
    streams = Streams(5)
    scale = problem.noise_std / np.sqrt(problem.dim)
    for t in range(1, 12):
        x = rec.iterates[t]
        noise = streams.grad.at(t).standard_normal((4, problem.dim))  # the iteration's block
        g = np.stack([problem.node_gradient(i, x[i]) + scale * noise[i] for i in range(4)])
        np.testing.assert_array_equal(rec.iterates[t + 1], mixing.w @ x - 0.1 * g)


# ----------------------------------------------------------------- momentum

def test_momentum_follows_scalar_recurrence():
    problem = _point_mass_problem()
    mixing = mixing_matrix(fully_connected(4))
    cfg = OptimizerConfig(algorithm="choco-momentum", eta=0.1, gamma=1.0,
                          momentum_factor=0.5, weight_decay=0.25, iterations=6)
    rec = run(problem, cfg, mixing, parse_compressor("identity"), seed=0,
              x0=np.array([2.0]), record_iterates=True)

    x, v = 2.0, 0.0
    for t in range(6):
        pull = x + 0.25 * x  # gradient is x itself, plus weight decay
        v = pull + 0.5 * v
        x = x - 0.1 * v
        assert rec.iterates[t + 1][0, 0] == pytest.approx(x, rel=1e-12)


def test_nesterov_differs_from_heavy_ball():
    problem = make_quadratic(4, 4, heterogeneity=0.5, noise_std=0.0, seed=6)
    mixing = mixing_matrix(ring(4))
    base = dict(algorithm="choco-momentum", eta=0.05, gamma=1.0,
                momentum_factor=0.9, iterations=20)
    plain = run(problem, OptimizerConfig(**base), mixing,
                parse_compressor("identity"), seed=1)
    nest = run(problem, OptimizerConfig(nesterov=True, **base), mixing,
               parse_compressor("identity"), seed=1)
    assert not np.allclose(plain.final_x_mean, nest.final_x_mean)


def test_zero_momentum_matches_plain_variant():
    problem = make_quadratic(4, 4, noise_std=0.3, seed=7)
    mixing = mixing_matrix(ring(4))
    comp = parse_compressor("topk:0.5")
    kw = dict(eta=0.05, gamma=0.2, iterations=30)
    plain = run(problem, OptimizerConfig(algorithm="choco", **kw), mixing, comp, seed=2)
    mom = run(problem, OptimizerConfig(algorithm="choco-momentum",
                                       momentum_factor=0.0, **kw), mixing, comp, seed=2)
    np.testing.assert_array_equal(plain.final_x_mean, mom.final_x_mean)


# ---------------------------------------------------------------- stepsizes

def test_tuned_stepsize_formula_cases():
    assert tune_stepsize(1.0, 0.0, 0.0, 4.0, 100) == 0.25
    assert tune_stepsize(1.0, 1.0, 0.0, 1.0, 99) == pytest.approx(0.1)
    assert tune_stepsize(1.0, 0.0, 1000.0, 1.0, 999) == pytest.approx(0.01)
    with pytest.raises(ValueError):
        tune_stepsize(1.0, 0.0, 0.0, math.inf, 10)
    with pytest.raises(ValueError):
        tune_stepsize(-1.0, 1.0, 1.0, 1.0, 10)
    with pytest.raises(ValueError):
        tune_stepsize(1.0, 1.0, 1.0, 1.0, 0)


def test_theoretical_stepsize_recomputation():
    got = theoretical_stepsize(f0=4.0, l_smooth=1.0, sigma_sq=2.0, g_sq=4.0,
                               n=8, rate_c=0.5, horizon=999)
    expected = min(
        math.sqrt(16.0 / (0.5 * 1000)),
        (16.0 / (576.0 * 1000)) ** (1 / 3),
        0.25,
    )
    assert got == pytest.approx(expected, rel=1e-12)


def test_consensus_bound_hand_value():
    assert consensus_bound(0.01, 8, 4.0, 0.5) == pytest.approx(0.1536)


def test_resolve_gamma_paths():
    mixing = mixing_matrix(fully_connected(4))
    comp = parse_compressor("identity")
    for alg in ("decentralized-exact", "centralized"):
        assert resolve_gamma(OptimizerConfig(algorithm=alg), mixing, comp, 10) == 1.0
    assert resolve_gamma(OptimizerConfig(gamma=0.3), mixing, comp, 10) == 0.3
    auto = resolve_gamma(OptimizerConfig(), mixing, comp, 10)
    assert auto == pytest.approx(1 / 15, abs=1e-15)
    override = OptimizerConfig(delta_override=0.5)
    assert resolve_gamma(override, mixing, comp, 10) == pytest.approx(
        consensus_stepsize(mixing, 0.5))


def test_effective_contraction_minimizes_over_blocks():
    sign = parse_compressor("sign")
    assert effective_contraction(sign, 100) == pytest.approx(0.01)
    assert effective_contraction(sign, 110, [0, 10, 110]) == pytest.approx(0.01)
    assert effective_contraction(sign, 110, [0, 100, 110]) == pytest.approx(0.01)
    ident = parse_compressor("identity")
    assert effective_contraction(ident, 110, [0, 10, 110]) == 1.0


# ----------------------------------------------------------------- run loop

def test_divergence_is_detected_and_flagged():
    problem = _point_mass_problem()
    cfg = OptimizerConfig(algorithm="centralized", eta=2.5, iterations=400)
    rec = run(problem, cfg, seed=0, x0=np.array([1.0]))
    assert rec.diverged and rec.diverged_at is not None
    assert rec.rows() < 400
    assert all(np.isfinite(v) for v in rec.f_avg)  # logged rows stay clean


def test_log_every_row_schedule():
    problem = make_quadratic(4, 3, seed=8)
    cfg = OptimizerConfig(eta=0.01, gamma=0.2, iterations=10)
    rec = run(problem, cfg, mixing_matrix(ring(4)), parse_compressor("sign"),
              seed=0, log_every=3)
    assert rec.t == [3, 6, 9, 10]  # final iteration always logged
    assert run(problem, cfg, mixing_matrix(ring(4)), log_every=np.int64(4)).t == [4, 8, 10]
    for bad in (0, -1, 2.5, 3.0, True, "3", None):
        with pytest.raises(ValueError, match="^log_every must be an integer >= 1$"):
            run(problem, cfg, mixing_matrix(ring(4)), log_every=bad)


def test_recorded_iterates_cover_every_step():
    problem = make_quadratic(4, 3, seed=9)
    cfg = OptimizerConfig(eta=0.01, gamma=0.2, iterations=7)
    rec = run(problem, cfg, mixing_matrix(ring(4)), parse_compressor("sign"),
              seed=0, record_iterates=True)
    assert len(rec.iterates) == 8
    assert rec.iterates[0].shape == (4, 3)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_recorded_iterates_have_the_shape_of_the_state_rows(algorithm):
    # the start included: one row per node, or the one centralized iterate
    problem = make_quadratic(4, 3, seed=9)
    cfg = OptimizerConfig(algorithm=algorithm, eta=0.01, gamma=0.2, iterations=3)
    rec = run(problem, cfg, mixing_matrix(ring(4)), parse_compressor("sign"),
              seed=0, record_iterates=True)
    rows = 1 if algorithm == "centralized" else 4
    assert [x.shape for x in rec.iterates] == [(rows, 3)] * 4


def test_zero_stepsize_preserves_the_mean():
    problem = make_quadratic(8, 6, noise_std=1.0, seed=10)
    cfg = OptimizerConfig(eta=0.0, iterations=40)
    x0 = np.arange(6.0)
    rec = run(problem, cfg, mixing_matrix(ring(8)), parse_compressor("sign"),
              seed=4, x0=x0)
    np.testing.assert_allclose(rec.final_x_mean, x0, atol=1e-12)


def test_mixing_matrix_is_required_and_sized():
    problem = make_quadratic(4, 3, seed=11)
    cfg = OptimizerConfig(iterations=2)
    with pytest.raises(ValueError):
        run(problem, cfg)
    with pytest.raises(ValueError):
        run(problem, cfg, mixing_matrix(ring(6)))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("x0", [[0.5], np.zeros(4), np.zeros((1, 3)), np.zeros((4, 3))],
                         ids=["scalar", "too-long", "one-row", "per-node"])
def test_a_wrong_length_start_is_rejected(algorithm, x0):
    # no algorithm broadcasts a start of another shape over the coordinates
    problem = make_quadratic(4, 3, seed=11)
    cfg = OptimizerConfig(algorithm=algorithm, iterations=2)
    with pytest.raises(ValueError, match=r"x0 must have shape \(3,\), got"):
        run(problem, cfg, mixing_matrix(ring(4)), seed=0, x0=x0)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_run_leaves_the_callers_start_unchanged(algorithm):
    problem = make_quadratic(4, 3, noise_std=0.5, seed=11)
    cfg = OptimizerConfig(algorithm=algorithm, eta=0.05, gamma=0.3, iterations=4)
    x0 = np.array([0.5, -1.0, 2.0])
    rec = run(problem, cfg, mixing_matrix(ring(4)), parse_compressor("sign"), seed=0, x0=x0)
    assert x0.tolist() == [0.5, -1.0, 2.0]
    assert not np.shares_memory(rec.workers.x, x0)


def test_errorfeedback_tracks_plain_variant_closely():
    problem = make_quadratic(4, 5, noise_std=0.2, seed=12)
    mixing = mixing_matrix(ring(4))
    comp = parse_compressor("topk:0.4")
    kw = dict(eta=0.02, gamma=0.3, iterations=80)
    plain = run(problem, OptimizerConfig(algorithm="choco", **kw), mixing, comp, seed=5)
    ef = run(problem, OptimizerConfig(algorithm="choco-errorfeedback", **kw),
             mixing, comp, seed=5)
    np.testing.assert_allclose(ef.final_x_mean, plain.final_x_mean, rtol=1e-8,
                               atol=1e-10)


class _OneBlock:
    """``problem`` as a run sees it, with no layer boundaries; its kernel still reads them."""

    layer_boundaries = None

    def __init__(self, problem):
        self.problem = problem

    def __getattr__(self, name):
        return getattr(self.problem, name)


def test_per_layer_false_compresses_each_row_as_one_block():
    def problem():
        return make_mlp(4, input_dim=3, hidden=4, samples=64, batch=8, seed=1)

    comp = parse_compressor("gsgd:4")  # a per-block norm: layers price and draw otherwise
    cfg = OptimizerConfig(algorithm="choco", eta=0.1, iterations=20)
    mixing = mixing_matrix(ring(4))
    whole = run(problem(), cfg, mixing, comp, seed=3, per_layer=False)
    same = run(_OneBlock(problem()), cfg, mixing, comp, seed=3)
    layered = run(problem(), cfg, mixing, comp, seed=3)
    for name in ("gamma", "f_avg", "grad_sq", "consensus", "psi", "bits_busiest"):
        assert getattr(whole, name) == getattr(same, name), name
    assert whole.workers.x.tobytes() == same.workers.x.tobytes()
    assert whole.workers.xhat.tobytes() == same.workers.xhat.tobytes()
    # every iteration, every node sends one one-block message on each of its two links
    one_block = message_bits(comp, whole.workers.x.shape[1])
    assert np.array_equal(whole.ledger.per_node, np.full(4, 20 * 2 * one_block))
    assert layered.ledger.busiest() > whole.ledger.busiest()
    assert layered.f_avg != whole.f_avg


def test_broadcast_mode_charges_less_traffic_on_a_ring():
    problem = make_quadratic(8, 4, seed=13)
    cfg = OptimizerConfig(eta=0.01, gamma=0.2, iterations=5)
    mixing = mixing_matrix(ring(8))
    comp = parse_compressor("sign")
    pair = run(problem, cfg, mixing, comp, seed=0)
    bcast = run(problem, cfg, mixing, comp, seed=0, broadcast=True)
    assert pair.ledger.busiest() == 2 * bcast.ledger.busiest()
    np.testing.assert_array_equal(pair.final_x_mean, bcast.final_x_mean)


# --------------------------------------------------- random-stream contract

def _literal_at(self, iteration):
    # RandomStream.at written out: the stream's one SeedSequence key, and
    # the iteration in counter word 2
    spawn = (self.worker, zlib.crc32(self.purpose.encode("utf-8")))
    seq = np.random.SeedSequence(self.seed, spawn_key=spawn)
    counter = np.array([0, 0, int(iteration) + 1, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(seq, counter=counter))


def _run_fingerprint(problem, algorithm, spec):
    cfg = OptimizerConfig(algorithm=algorithm, eta=0.05, iterations=70,
                          momentum_factor=0.5 if algorithm == "choco-momentum" else 0.0)
    rec = run(problem, cfg, mixing_matrix(ring(4)), parse_compressor(spec), seed=11)
    return (rec.t, rec.f_avg, rec.grad_sq, rec.consensus, rec.psi, rec.bits_busiest,
            rec.diverged, rec.max_grad_norm, rec.final_x_mean.tobytes())


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
def test_runs_replay_the_literal_stream_construction(kind, monkeypatch):
    # pins every trajectory to one Philox per (seed, purpose), iteration t
    # addressed by the counter
    if kind == "quadratic":
        problem = make_quadratic(4, 5, heterogeneity=1.0, noise_std=0.5, seed=2)
    else:
        problem = make_logistic(4, dim=5, samples=200, batch=8, seed=3)
    specs = ["identity", "sign", "topk:0.2", "gsgd:4", "random:0.3"]
    current = {(a, c): _run_fingerprint(problem, a, c) for a in ALGORITHMS for c in specs}
    derived = []

    def counted_at(self, iteration):
        derived.append((self.seed, self.worker, self.purpose))
        return _literal_at(self, iteration)

    monkeypatch.setattr(RandomStream, "at", counted_at)
    for (algorithm, spec), fingerprint in current.items():
        assert _run_fingerprint(problem, algorithm, spec) == fingerprint, (algorithm, spec)
    # one generator per purpose and iteration: 70 for the gradients, 70 more
    # for a stochastic compressor in the compressed family
    stochastic = sum(a.startswith("choco") and c in ("gsgd:4", "random:0.3")
                     for a in ALGORITHMS for c in specs)
    assert len(derived) == 70 * (len(current) + stochastic)
    assert set(derived) == {(11, 0, "grad"), (11, 0, "compress")}
