"""Built-in invariant suites: fast, fixed-seed checks of the properties the
library is supposed to guarantee.

Each check returns a name, a pass flag, and a margin (how much headroom was
left before the check would have failed; 1.0 for exact equalities that hold).
The CLI ``verify`` subcommand prints one line per check and exits nonzero if
any fail.

The optimizer runs here log only their last row (``log_every`` equal to
their iterations), the one row a check reads; a logged row's values do not
depend on which other rows are logged.
"""

import tempfile
from typing import NamedTuple

import numpy as np

from .compression import (bit_cost, compress, compress_blocks, contraction_factor,
                          parse_compressor, sign_contraction)
from .consensus import (choco_gossip_round, consensus_distance, consensus_stepsize, lyapunov,
                        rate_constant)
from .metrics import CSV_HEADER
from .numerics import RandomStream, row_dots, sum_in_order
from .optim import OptimizerConfig, Streams, Workers, run, theoretical_stepsize
from .problems import estimate_constants, make_quadratic
from .topology import build_topology, fully_connected, mixing_matrix, ring


class Check(NamedTuple):
    name: str
    passed: bool
    margin: float
    detail: str = ""


def _bound_check(name, value, bound, detail=""):
    """value must stay below bound; margin is the normalized headroom."""
    if bound == 0:
        return Check(name, value <= 0, 1.0 if value <= 0 else -abs(value), detail)
    margin = 1.0 - value / bound
    return Check(name, value <= bound, margin, detail or f"value={value:.3g} bound={bound:.3g}")


def _exact_check(name, ok, detail=""):
    return Check(name, bool(ok), 1.0 if ok else 0.0, detail)


# ---------------------------------------------------------------- compression

def suite_compression():
    """Contraction and bit-cost checks of the compression operators.

    Each Monte-Carlo check compresses its draws as one ``(trials, d)`` block
    in one :func:`compress_blocks` call. A block's rows draw from the one
    generator in row order, and its inputs are drawn as one block too, so
    every payload, error and ratio is, bit for bit, the one a loop of
    per-vector :func:`compress` calls gives.
    """
    checks = []
    rng = RandomStream(7, 0, "verify").at(0)
    d = 32

    # deterministic operators respect their worst-case energy guarantee per draw
    for spec in ("sign", "topk:0.25"):
        comp = parse_compressor(spec)
        delta = contraction_factor(comp, d)
        x = rng.standard_normal(50 * d).reshape(50, d)  # 50 draws of d, in order
        err = ((x - compress_blocks(comp, x).payload) ** 2).sum(axis=1)
        worst = max((err / ((1.0 - delta) * row_dots(x))).tolist())
        checks.append(_bound_check(f"{spec}-energy", worst, 1.0 + 1e-12,
                                   f"worst err ratio {worst:.6f}"))

    # the per-input sign factor is an equality, not just a bound
    x = rng.standard_normal(d)
    comp = parse_compressor("sign")
    err = float(np.sum((x - compress(comp, x).payload) ** 2))
    predicted = (1.0 - sign_contraction(x)) * float(x @ x)
    checks.append(_bound_check("sign-energy-identity", abs(err - predicted),
                               1e-9 * float(x @ x)))

    # randomized operators respect the guarantee in expectation
    for spec, trials in (("random:0.25", 600), ("gsgd:4", 600)):
        comp = parse_compressor(spec)
        delta = contraction_factor(comp, d)
        x = rng.standard_normal(d)
        q = compress_blocks(comp, np.tile(x, (trials, 1)), rng).payload
        errs = ((x - q) ** 2).sum(axis=1)
        ratio = float(np.mean(errs)) / ((1.0 - delta) * float(x @ x))
        checks.append(_bound_check(f"{spec}-mean-energy", ratio, 1.05,
                                   f"mean err ratio {ratio:.4f}"))

    # unbiased sparsification: per-coordinate mean error within 4 standard errors
    comp = parse_compressor("random:0.25:unbiased")
    trials = 3000
    x = rng.standard_normal(8)
    e = compress_blocks(comp, np.tile(x, (trials, 1)), rng).payload - x
    mean = sum_in_order(e) / trials
    se = np.sqrt(np.maximum(sum_in_order(e * e) / trials - mean ** 2, 1e-30) / trials)
    z = float(np.max(np.abs(mean) / se))
    checks.append(_bound_check("random-unbiased-mean", z, 4.0, f"max z {z:.2f}"))

    # bit accounting formulas at a large dimension
    big = 260_000
    expect = {
        "identity": 32 * big,
        "gsgd:8": 8 * big + 32,
        "sign": big + 32,
        "random:0.01": 32 * (big // 100),
        "topk:0.01": 64 * (big // 100),
    }
    ok = all(bit_cost(parse_compressor(k), big) == v for k, v in expect.items())
    checks.append(_exact_check("bit-costs", ok, f"d={big}"))
    return checks


# ------------------------------------------------------------------ consensus

def _gossip_trajectory(graph, comp_spec, dim, rounds, seed=3, gamma=None):
    """Run ``rounds`` compressed gossip rounds from a fixed random start;
    returns ``(mixing, state, x0, psi)`` with ``psi`` the Lyapunov quantity
    at the start and after the last round, the two values the checks read."""
    mixing = mixing_matrix(graph)
    comp = parse_compressor(comp_spec)
    if gamma is None:
        gamma = consensus_stepsize(mixing, contraction_factor(comp, dim))
    x0 = RandomStream(seed, 0, "verify").generator().standard_normal(graph.n * dim)
    x0 = x0.reshape(graph.n, dim)
    state = Workers.start(x0, "choco")
    # one generator for the whole run: each round draws where the last stopped
    rng = RandomStream(seed, 0, "compress").generator()
    psi_start = lyapunov(state)
    for _ in range(rounds):
        choco_gossip_round(state, mixing, comp, rng, gamma)
    return mixing, state, x0, np.array([psi_start, lyapunov(state)])


SPECTRAL_GAPS = {
    ("ring", 4): 0.67, ("ring", 16): 0.05, ("ring", 36): 0.01, ("ring", 64): 0.003,
    ("torus", 16): 0.4, ("torus", 36): 0.2, ("torus", 64): 0.12,
    ("full", 4): 1.0, ("full", 16): 1.0, ("full", 36): 1.0, ("full", 64): 1.0,
}


def suite_consensus():
    checks = []

    # published spectral gaps for the reference topologies, to +-0.005
    worst = 0.0
    for (kind, n), expected in SPECTRAL_GAPS.items():
        rho = mixing_matrix(build_topology(f"{kind}:{n}")).rho
        worst = max(worst, abs(rho - expected))
    checks.append(_bound_check("spectral-gap-table", worst, 0.005,
                               f"worst deviation {worst:.5f}"))

    # closed-form stepsize at full connectivity and exact compression
    full = mixing_matrix(fully_connected(4))
    gamma = consensus_stepsize(full, 1.0)
    checks.append(_bound_check("stepsize-full-graph", abs(gamma - 1.0 / 15.0), 1e-15))

    # exact gossip drives disagreement to machine zero
    mixing, state, x0, _ = _gossip_trajectory(ring(8), "identity", 4, 300, gamma=1.0)
    ratio = consensus_distance(state.x) / consensus_distance(x0)
    checks.append(_bound_check("exact-gossip-decay", ratio, 1e-20))

    # compressed gossip beats its theoretical envelope (with generous slack)
    graph = ring(8)
    mixing, state, x0, psi = _gossip_trajectory(graph, "topk:0.5", 16, 2000)
    c = rate_constant(mixing, 0.5)
    envelope = psi[0] * (1.0 - c) ** 2000 * 20.0
    checks.append(_bound_check("compressed-gossip-envelope", psi[-1], envelope,
                               f"psi {psi[-1]:.3g} envelope {envelope:.3g}"))
    checks.append(_bound_check("compressed-gossip-progress", psi[-1], 0.5 * psi[0]))

    # gossip never moves the network average
    drift = float(np.max(np.abs(state.x.mean(axis=0) - x0.mean(axis=0))))
    scale = float(np.max(np.abs(x0.mean(axis=0)))) + 1.0
    checks.append(_bound_check("average-preservation", drift, 1e-12 * scale))
    return checks


# ---------------------------------------------------------------- equivalence

def _run_quadratic(algorithm, comp_spec, eta, iters, seed=11, gamma="auto", **opt_kw):
    problem = make_quadratic(4, 6, heterogeneity=1.0, noise_std=0.5, seed=2)
    mixing = mixing_matrix(ring(4))
    cfg = OptimizerConfig(algorithm=algorithm, eta=eta, gamma=gamma,
                          iterations=iters, **opt_kw)
    record = run(problem, cfg, mixing=mixing,
                 compressor=parse_compressor(comp_spec), seed=seed, log_every=iters)
    return problem, mixing, record


def suite_equivalence():
    checks = []
    eta, iters, seed = 0.05, 40, 11

    # lossless compression at unit consensus rate collapses to plain exact gossip
    problem, mixing, record = _run_quadratic("choco", "identity", eta, iters,
                                             seed=seed, gamma=1.0)
    streams = Streams(seed)
    scale = problem.noise_std / np.sqrt(problem.dim)
    x = np.zeros((4, problem.dim))
    for t in range(iters):
        noise = streams.grad.at(t).standard_normal((4, problem.dim))  # the iteration's block
        x = (mixing.w @ x) - eta * ((x - problem.node_optima) @ problem.hessian + scale * noise)
    checks.append(_exact_check("lossless-collapse",
                               np.array_equal(record.workers.x, x),
                               "final iterates identical to plain gossip loop"))

    # zero momentum reproduces the plain method exactly
    _, _, plain = _run_quadratic("choco", "sign", eta, iters, seed=seed)
    _, _, mom = _run_quadratic("choco-momentum", "sign", eta, iters, seed=seed,
                               momentum_factor=0.0)
    checks.append(_exact_check("zero-momentum-collapse",
                               np.array_equal(plain.workers.x, mom.workers.x)))

    # the error-feedback formulation walks the same trajectory
    _, _, ef = _run_quadratic("choco-errorfeedback", "sign", eta, 100, seed=seed)
    _, _, base = _run_quadratic("choco", "sign", eta, 100, seed=seed)
    scale = float(np.max(np.abs(base.workers.x))) + 1e-30
    diff = float(np.max(np.abs(ef.workers.x - base.workers.x))) / scale
    checks.append(_bound_check("errorfeedback-trajectory", diff, 1e-9))

    # its memory buffer always equals previous iterate minus public copy
    mem_gap = float(np.max(np.abs(ef.workers.memory
                                  - (ef.workers.x_prev - ef.workers.xhat))))
    checks.append(_bound_check("errorfeedback-memory", mem_gap, 1e-10))
    return checks


# ---------------------------------------------------------------- convergence

def suite_convergence():
    checks = []
    problem = make_quadratic(8, 8, heterogeneity=0.5, noise_std=1.0, seed=5)
    mixing = mixing_matrix(ring(8))
    comp = parse_compressor("sign")
    x0 = np.zeros(8)
    gap0 = problem.loss(x0) - problem.f_star()

    cfg = OptimizerConfig(algorithm="choco", eta=0.1, gamma="auto", iterations=800)
    record = run(problem, cfg, mixing=mixing, compressor=comp, seed=4, x0=x0,
                 log_every=cfg.iterations)
    gap = record.f_avg[-1] - problem.f_star()
    checks.append(_bound_check("compressed-sgd-descent", gap, 0.2 * gap0,
                               f"gap {gap:.4f} from {gap0:.4f}"))

    cfg = OptimizerConfig(algorithm="choco-momentum", eta=0.05, gamma="auto",
                          momentum_factor=0.9, iterations=800)
    record = run(problem, cfg, mixing=mixing, compressor=comp, seed=4, x0=x0,
                 log_every=cfg.iterations)
    gap_m = record.f_avg[-1] - problem.f_star()
    checks.append(_bound_check("momentum-descent", gap_m, 0.2 * gap0,
                               f"gap {gap_m:.4f} from {gap0:.4f}"))

    # noiseless baseline with exact communication reaches the true optimum
    noiseless = make_quadratic(8, 8, heterogeneity=1.0, noise_std=0.0, seed=5)
    cfg = OptimizerConfig(algorithm="decentralized-exact", eta=0.5, iterations=400)
    record = run(noiseless, cfg, mixing=mixing,
                 compressor=parse_compressor("identity"), seed=4, x0=x0,
                 log_every=cfg.iterations)
    err = float(np.linalg.norm(record.final_x_mean - noiseless.optimum()))
    checks.append(_bound_check("exact-baseline-optimum", err, 1e-6))

    # theoretical stepsize machinery produces a finite usable value
    est = estimate_constants(problem, seed=0)
    c = rate_constant(mixing, contraction_factor(comp, 8))
    eta = theoretical_stepsize(gap0, est.l_smooth, est.sigma_sq, est.g_sq,
                               8, c, 800)
    ok = np.isfinite(eta) and 0.0 < eta <= 1.0 / est.l_smooth
    checks.append(_exact_check("tuned-stepsize-range", ok, f"eta={eta:.3g}"))
    return checks


# -------------------------------------------------------------------- traffic

def suite_traffic():
    checks = []
    problem = make_quadratic(8, 10, noise_std=0.5, seed=1)
    mixing = mixing_matrix(ring(8))
    comp = parse_compressor("sign")
    iters = 25
    per_msg = 10 + 32

    cfg = OptimizerConfig(algorithm="choco", eta=0.05, gamma="auto", iterations=iters)
    record = run(problem, cfg, mixing=mixing, compressor=comp, seed=2, log_every=iters)
    checks.append(_exact_check("ring-pairwise-bits",
                               record.ledger.busiest() == iters * 2 * per_msg,
                               f"busiest={record.ledger.busiest()}"))

    record = run(problem, cfg, mixing=mixing, compressor=comp, seed=2, broadcast=True,
                 log_every=iters)
    checks.append(_exact_check("ring-broadcast-bits",
                               record.ledger.busiest() == iters * per_msg))

    cfg = OptimizerConfig(algorithm="centralized", eta=0.05, iterations=iters)
    record = run(problem, cfg, seed=2, log_every=iters)
    checks.append(_exact_check("centralized-hub-bits",
                               record.ledger.busiest() == iters * 8 * 32 * 10,
                               f"busiest={record.ledger.busiest()}"))

    # identical config and seed reproduce the log byte for byte
    from .config import ExperimentConfig, execute_config

    cfg_dict = {"topology": "ring:4", "compressor": "sign", "algorithm": "choco",
                "eta": 0.05, "iterations": 30, "seeds": [9],
                "problem": {"kind": "quadratic", "n": 4, "dim": 6}}
    blobs = []
    for _ in range(2):
        with tempfile.TemporaryDirectory() as tmp:
            _, paths = execute_config(ExperimentConfig.from_dict(cfg_dict), out_dir=tmp)
            csv_path = [p for p in paths if p.endswith(".csv")][0]
            with open(csv_path, "rb") as fh:
                blobs.append(fh.read())
    ok = blobs[0] == blobs[1] and blobs[0].startswith(CSV_HEADER.encode())
    checks.append(_exact_check("replay-byte-identical", ok,
                               f"{len(blobs[0])} bytes"))
    return checks


SUITES = {
    "compression": suite_compression,
    "consensus": suite_consensus,
    "equivalence": suite_equivalence,
    "convergence": suite_convergence,
    "traffic": suite_traffic,
}


def run_suite(name):
    if name == "all":
        checks = []
        for key in SUITES:
            checks.extend(run_suite(key))
        return checks
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return [check._replace(name=f"{name}.{check.name}") for check in SUITES[name]()]


def format_report(checks):
    lines = []
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        line = f"{status} {check.name} margin={check.margin:.3g}"
        if check.detail:
            line += f" ({check.detail})"
        lines.append(line)
    failed = sum(1 for c in checks if not c.passed)
    lines.append(f"{len(checks) - failed}/{len(checks)} checks passed")
    return "\n".join(lines)
