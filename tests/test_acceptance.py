"""End-to-end acceptance suite: ten numbered checks covering spectral gaps,
compression quality, bit accounting, gossip contraction, algorithm
equivalences, consensus and variance bounds, end-to-end convergence, worker
speedup, and interface determinism, with companions to criteria 06, 08 and
09 that read what the gossip moves: the consensus at a gamma that gossips,
each node's iterate, and non-IID shards, under sign and under topk at 64
bits a message. Criterion 07's companion reads the oracle away from the
optimum, where the Hessian product is not zero.
Run with ``pytest -v`` to get one pass/fail line per criterion.
"""

import json
import os

import numpy as np
import pytest

from chocosim import cli
from chocosim.compression import (bit_cost, compress, contraction_factor,
                                  parse_compressor)
from chocosim.config import ExperimentConfig, read_config
from chocosim.consensus import (choco_gossip_round, consensus_stepsize, lyapunov,
                                rate_constant)
from chocosim.numerics import RandomStream
from chocosim.optim import (OptimizerConfig, Streams, Workers, choco_step,
                            consensus_bound, run, theoretical_stepsize)
from chocosim.problems import estimate_constants, make_logistic, make_quadratic
from chocosim.topology import fully_connected, mixing_matrix, ring, torus

COMPRESSOR_SPECS = ("gsgd:4", "random:0.1", "topk:0.1", "sign")

PUBLISHED_GAPS = [
    ("ring", 4, 0.67), ("ring", 16, 0.05), ("ring", 36, 0.01), ("ring", 64, 0.003),
    ("torus", 16, 0.4), ("torus", 36, 0.2), ("torus", 64, 0.12),
    ("full", 4, 1.0), ("full", 16, 1.0), ("full", 36, 1.0), ("full", 64, 1.0),
]

_BUILDERS = {"ring": ring, "torus": torus, "full": fully_connected}


def test_criterion_01_spectral_gap_table():
    for kind, n, expected in PUBLISHED_GAPS:
        rho = mixing_matrix(_BUILDERS[kind](n)).rho
        assert abs(rho - expected) <= 0.005, (kind, n, rho)
    # the 2x2 torus is excluded: its side is below the minimum of 3
    with pytest.raises(ValueError):
        torus(4)


def test_criterion_02_compression_contraction():
    d, draws = 100, 1000
    vectors = RandomStream(20, 0, "compress").generator().standard_normal(draws * d)
    vectors = vectors.reshape(draws, d)

    for spec in COMPRESSOR_SPECS:
        comp = parse_compressor(spec)
        delta = contraction_factor(comp, d)
        rng = RandomStream(21, 0, "compress").generator()
        ratios = np.empty(draws)
        for k in range(draws):
            x = vectors[k]
            q = compress(comp, x, rng).payload
            ratios[k] = float(np.sum((q - x) ** 2) / np.sum(x * x))
        sem = ratios.std(ddof=1) / np.sqrt(draws)
        assert ratios.mean() <= (1.0 - delta) + 3.0 * sem, spec

    # unbiased variants: repeated compression of one vector averages back to it
    x = RandomStream(22, 0, "compress").generator().standard_normal(d)
    for spec in ("gsgd:4:unbiased", "random:0.1:unbiased"):
        comp = parse_compressor(spec)
        rng = RandomStream(23, 0, "compress").generator()
        samples = np.stack([compress(comp, x, rng).payload for _ in range(draws)])
        se = samples.std(axis=0, ddof=1) / np.sqrt(draws)
        dev = np.abs(samples.mean(axis=0) - x)
        assert np.all(dev < 3.0 * se), spec


def test_criterion_03_bit_accounting():
    d = 260_000
    megabytes = lambda bits: bits / 8.0 / 1e6
    for bits_per_level, expected in ((16, 0.52), (8, 0.26), (4, 0.13), (2, 0.065)):
        cost = megabytes(bit_cost(parse_compressor(f"gsgd:{bits_per_level}"), d))
        assert abs(cost - expected) <= 0.01 * expected, bits_per_level
    sign_cost = megabytes(bit_cost(parse_compressor("sign"), d))
    assert abs(sign_cost - 0.032) <= 0.02 * 0.032
    ident_cost = megabytes(bit_cost(parse_compressor("identity"), d))
    assert abs(ident_cost - 1.04) <= 0.01 * 1.04


def test_criterion_04_gossip_linear_convergence():
    n, d, rounds, trials = 8, 20, 500, 20
    mixing = mixing_matrix(ring(n))
    x0 = RandomStream(40, 0, "init").generator().standard_normal(n * d).reshape(n, d)
    mean0 = x0.mean(axis=0)
    mean_scale = float(np.linalg.norm(mean0))

    for spec in COMPRESSOR_SPECS:
        comp = parse_compressor(spec)
        delta = contraction_factor(comp, d)
        gamma = consensus_stepsize(mixing, delta)
        c = rate_constant(mixing, delta)

        psi0 = lyapunov(Workers.start(x0, "choco"))
        finals = []
        for trial in range(trials):
            state = Workers.start(x0, "choco")
            rng = RandomStream(trial, 0, "compress").generator()  # one per run, all nodes
            for _ in range(rounds):
                choco_gossip_round(state, mixing, comp, rng, gamma)
                drift = float(np.linalg.norm(state.x.mean(axis=0) - mean0))
                assert drift < 1e-10 * mean_scale, spec
            finals.append(lyapunov(state))
        assert np.mean(finals) <= (1.0 - c) ** rounds * psi0, spec


def test_criterion_05_equivalence_triangle():
    n, d, eta = 4, 6, 0.05
    mixing = mixing_matrix(ring(n))
    problem = make_quadratic(n, d, heterogeneity=1.0, noise_std=0.5, seed=50)
    x0 = RandomStream(50, 1, "init").generator().standard_normal(d)

    # (a) difference-compression form vs error-feedback form, shared streams
    comp = parse_compressor("sign")
    gamma = consensus_stepsize(mixing, contraction_factor(comp, d))
    plain = Workers.start(np.tile(x0, (n, 1)), "choco")
    ef = Workers.start(np.tile(x0, (n, 1)), "choco-errorfeedback")
    ef_cfg = OptimizerConfig(algorithm="choco-errorfeedback", eta=eta, iterations=100)
    streams_a = Streams(5)
    streams_b = Streams(5)
    for t in range(100):
        choco_step(plain, problem, mixing, comp, gamma, eta, streams_a, t)
        choco_step(ef, problem, mixing, comp, gamma, eta, streams_b, t, cfg=ef_cfg)
        rel = np.linalg.norm(ef.x - plain.x) / max(np.linalg.norm(plain.x), 1.0)
        assert rel <= 1e-9
        memory_dev = np.max(np.abs(ef.memory - (ef.x_prev - ef.xhat)))
        assert memory_dev <= 1e-10

    # (b) lossless compression at gamma=1 reproduces exact-gossip SGD bitwise
    cfg = OptimizerConfig(algorithm="choco", eta=eta, gamma=1.0, iterations=60)
    rec = run(problem, cfg, mixing, parse_compressor("identity"), seed=6,
              x0=x0, record_iterates=True)
    oracle = Streams(6)
    scale = problem.noise_std / np.sqrt(d)
    for t in range(1, 60):
        x = rec.iterates[t]
        noise = oracle.grad.at(t).standard_normal((n, d))  # the iteration's block
        g = (x - problem.node_optima) @ problem.hessian + scale * noise  # H is symmetric
        assert np.array_equal(rec.iterates[t + 1], mixing.w @ x - eta * g)

    # (c) momentum with zero factor and zero weight decay is bit-identical
    kw = dict(eta=eta, gamma=0.3, iterations=60)
    rec_plain = run(problem, OptimizerConfig(algorithm="choco", **kw), mixing,
                    comp, seed=7, x0=x0, record_iterates=True)
    rec_zero = run(problem, OptimizerConfig(algorithm="choco-momentum",
                                            momentum_factor=0.0, weight_decay=0.0,
                                            **kw), mixing, comp, seed=7, x0=x0,
                   record_iterates=True)
    for a, b in zip(rec_plain.iterates, rec_zero.iterates):
        assert np.array_equal(a, b)


def test_criterion_06_consensus_bound_under_sgd():
    n, d, iters, trials, eta = 8, 20, 500, 20, 0.05
    mixing = mixing_matrix(ring(n))
    problem = make_quadratic(n, d, heterogeneity=1.0, noise_std=1.0, seed=60)
    for spec in COMPRESSOR_SPECS:
        comp = parse_compressor(spec)
        c = rate_constant(mixing, contraction_factor(comp, d))
        cfg = OptimizerConfig(algorithm="choco", eta=eta, iterations=iters)
        for seed in range(trials):
            rec = run(problem, cfg, mixing, comp, seed=seed)
            bound = consensus_bound(eta, n, rec.max_grad_norm ** 2, c)
            worst = n * max(rec.consensus)
            assert worst <= bound, (spec, seed, worst, bound)


def test_criterion_06_companion_gossip_bounds_consensus():
    # criterion 06's gamma "auto" barely gossips (value/bound at most 1.1e-6),
    # so a step that never mixed would pass it too; this gossips at a numeric
    # gamma, on criterion 06's problem and graph with sign
    n, d = 8, 20
    problem = make_quadratic(n, d, heterogeneity=1.0, noise_std=1.0, seed=60)
    cfg = OptimizerConfig(algorithm="choco", eta=0.05, gamma=0.2, iterations=500)
    worst = max(n * max(run(problem, cfg, mixing_matrix(ring(n)), parse_compressor("sign"),
                            seed=seed).consensus) for seed in range(4))
    # measured 0.513, x1.95 below the bound; no gossip (a step that skips
    # mix_with_public) reads 6.57 to 7.26, x6.6 above it
    assert worst <= 1.0, worst


def test_criterion_07_averaged_gradient_variance():
    samples = 10_000
    for n in (4, 16):
        problem = make_quadratic(n, 20, heterogeneity=0.0, noise_std=1.0, seed=70)
        x = problem.optimum()  # the full gradient vanishes here
        rngs = [RandomStream(71, i, "grad").generator() for i in range(n)]
        acc = 0.0
        for _ in range(samples):
            g = np.mean([problem.stochastic_gradient(i, x, rngs[i])
                         for i in range(n)], axis=0)
            acc += float(g @ g)
        variance = acc / samples
        assert 0.9 / n <= variance <= 1.1 / n, (n, variance)


def test_criterion_07_companion_the_oracle_is_unbiased_away_from_the_optimum():
    # criterion 07 reads the oracle at r = 0, where r @ H vanishes; here each
    # node's row sits away from its optimum, so the mean of 2,000 iterations'
    # draws is held against node_gradient, coordinate by coordinate
    problem = make_quadratic(16, 10, heterogeneity=1.0, noise_std=1.0, seed=61)
    x = RandomStream(62, 0, "init").generator().standard_normal((16, 10))
    stream, trials = RandomStream(63, 0, "grad"), 2000
    draws = np.stack([problem.stochastic_gradients(x, stream.at(t), t) for t in range(trials)])
    exact = np.stack([problem.node_gradient(i, row) for i, row in enumerate(x)])
    se = draws.std(axis=0) / np.sqrt(trials)
    z = float(np.max(np.abs(draws.mean(axis=0) - exact) / se))
    # measured 3.27 over the 160 coordinates, x1.38 below the bound; a
    # mutant oracle that drops the r @ H term reads 221
    assert z <= 4.5, z


def test_criterion_08_end_to_end_convergence():
    n, d, horizon = 8, 10, 5000
    problem = make_quadratic(n, d, heterogeneity=1.0, noise_std=0.5, seed=80)
    mixing = mixing_matrix(ring(n))
    comp = parse_compressor("sign")
    c = rate_constant(mixing, contraction_factor(comp, d))
    est = estimate_constants(problem, seed=0)
    f0 = problem.loss(np.zeros(d)) - problem.f_star()
    eta = theoretical_stepsize(f0, est.l_smooth, est.sigma_sq, est.g_sq,
                               n, c, horizon)

    # centralized oracle first: it sets the pass threshold
    central = run(problem, OptimizerConfig(algorithm="centralized", eta=eta,
                                           iterations=horizon), seed=8)
    central_gap = central.f_avg[-1] - problem.f_star()
    assert central_gap > 0.0

    rec = run(problem, OptimizerConfig(algorithm="choco", eta=eta,
                                       iterations=horizon), mixing, comp, seed=8)
    gap = rec.f_avg[-1] - problem.f_star()
    assert gap < 10.0 * central_gap

    running_mean = np.cumsum(rec.grad_sq) / np.arange(1, len(rec.grad_sq) + 1)
    start = len(running_mean) // 10
    tail = running_mean[start:]
    assert np.all(np.diff(tail) <= 0.0)


def test_criterion_08_companion_every_node_converges():
    # criterion 08 reads f at the node mean, which the gossip never moves on a
    # quadratic; this reads each node. At a numeric gamma: "auto" (4.4e-4 here)
    # barely gossips and reads 0.435 and 0.210, as no gossip does
    problem = make_quadratic(8, 8, heterogeneity=0.5, noise_std=1.0, seed=5)
    cfg = OptimizerConfig(algorithm="choco", eta=0.1, gamma=0.2, iterations=800)
    rec = run(problem, cfg, mixing_matrix(ring(8)), parse_compressor("sign"), seed=4,
              x0=np.zeros(8), log_every=cfg.iterations)
    worst = max(problem.loss(x) for x in rec.workers.x) - problem.f_star()
    # measured 0.0753 and 0.0611, each bound x2 above; no gossip (gamma 1e-12)
    # reads 0.444 and 0.213, x3.0 and x1.8 above them
    assert rec.consensus[-1] <= 0.15
    assert worst <= 0.12


def test_criterion_09_companion_speedup_on_non_iid_shards():
    # criterion 09 on label-split logistic shards, where no node sees the
    # whole data: the tail grad_sq at the node mean, over the last 20% of rows
    tails = {}
    for n in (4, 16):
        problem = make_logistic(n, dim=10, samples=2048, mode="fixed-split", by_label=True,
                                seed=0)
        mixing = mixing_matrix(ring(n))
        cfg = OptimizerConfig(algorithm="choco", eta=0.1, gamma=0.1, iterations=1500)
        per_seed = []
        for seed in range(1, 5):
            grad_sq = run(problem, cfg, mixing, parse_compressor("sign"), seed=seed,
                          log_every=10).grad_sq
            per_seed.append(float(np.mean(grad_sq[-(len(grad_sq) // 5):])))
        tails[n] = float(np.mean(per_seed))
    # measured 0.506, x1.58 below the bound (seeds 5-8 and 9-12: 0.577 and
    # 0.414); no gossip (gamma 1e-12) reads 2.57, x3.2 above it
    assert tails[16] <= 0.8 * tails[4], tails


def test_criterion_09_companion_arbitrary_compression_on_non_iid_shards():
    # topk:0.02 sends one of 50 coordinates, 64 bits a message; on label-split
    # logistic shards its tail grad_sq at the node mean (last 20% of rows)
    # stays within a factor of uncompressed exact gossip's
    problem = make_logistic(16, dim=50, samples=2048, mode="fixed-split", by_label=True,
                            seed=0)
    mixing = mixing_matrix(ring(16))
    tails = {}
    for algorithm, spec in (("choco", "topk:0.02"), ("decentralized-exact", "identity")):
        cfg = OptimizerConfig(algorithm=algorithm, eta=0.1, gamma=0.1, iterations=3000)
        per_seed = []
        for seed in (1, 2):
            grad_sq = run(problem, cfg, mixing, parse_compressor(spec), seed=seed,
                          log_every=10).grad_sq
            per_seed.append(float(np.mean(grad_sq[-(len(grad_sq) // 5):])))
        tails[algorithm] = float(np.mean(per_seed))
    # measured 4.44 (seeds 5-6: 4.28), x1.8 below the bound; no gossip
    # (gamma 1e-12) reads 63, x7.9 above it
    assert tails["choco"] <= 8.0 * tails["decentralized-exact"], tails


def test_criterion_09_worker_speedup_in_noise():
    eta, iters, trials, d = 0.05, 2000, 10, 10
    averages = {}
    for n in (4, 16):
        problem = make_quadratic(n, d, heterogeneity=0.0, noise_std=3.0, seed=90)
        mixing = mixing_matrix(ring(n))
        comp = parse_compressor("sign")
        cfg = OptimizerConfig(algorithm="choco", eta=eta, iterations=iters)
        x0 = problem.optimum()  # start at the noise floor
        per_seed = []
        for seed in range(trials):
            rec = run(problem, cfg, mixing, comp, seed=seed, x0=x0)
            per_seed.append(float(np.mean(rec.grad_sq)))
        averages[n] = float(np.mean(per_seed))
    assert averages[16] <= 0.5 * averages[4], averages


def test_criterion_10_determinism_and_interfaces(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CHOCO_THREADS", "1")
    config_data = {
        "topology": "ring:4",
        "compressor": "sign",
        "algorithm": "choco",
        "eta": 0.05,
        "iterations": 30,
        "seeds": [1],
        "problem": {"kind": "quadratic", "n": 4, "dim": 4},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_data))

    # byte-identical replay of the run command
    for name in ("a", "b"):
        code = cli.main(["run", "--config", str(config_path),
                         "--out", str(tmp_path / name)])
        assert code == 0
    capsys.readouterr()
    csv_a = sorted(p for p in os.listdir(tmp_path / "a") if p.endswith(".csv"))
    csv_b = sorted(p for p in os.listdir(tmp_path / "b") if p.endswith(".csv"))
    assert csv_a == csv_b and len(csv_a) == 1
    assert (tmp_path / "a" / csv_a[0]).read_bytes() == \
        (tmp_path / "b" / csv_b[0]).read_bytes()

    # config round-trip stability
    cfg = ExperimentConfig.from_dict(read_config(str(config_path)))
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    echo = json.dumps(cfg.to_dict())
    assert json.dumps(ExperimentConfig.from_dict(json.loads(echo)).to_dict()) == echo

    # the full invariant suite passes through the CLI entry point
    assert cli.main(["verify", "all"]) == 0
    capsys.readouterr()
