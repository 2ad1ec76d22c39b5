"""The verify suites compute their checks in blocks; each check must equal,
field for field, the one the per-vector loop it replaced gives. The
references below are those loops, written out literally."""

import numpy as np

from chocosim import verify
from chocosim.compression import compress, contraction_factor, parse_compressor
from chocosim.consensus import choco_gossip_round, consensus_stepsize, lyapunov
from chocosim.numerics import RandomStream
from chocosim.optim import Workers
from chocosim.topology import mixing_matrix, ring


def _per_vector_compression_checks():
    # suite_compression's Monte-Carlo checks as first written, one compress
    # call per draw, each check drawing in turn from the stream of its name
    checks = []
    d = 32
    for spec in ("sign", "topk:0.25"):
        comp = parse_compressor(spec)
        delta = contraction_factor(comp, d)
        rng = RandomStream(7, 0, f"verify.{spec}-energy").generator()
        worst = -np.inf
        for _ in range(50):
            x = rng.standard_normal(d)
            err = float(np.sum((x - compress(comp, x).payload) ** 2))
            worst = max(worst, err / ((1.0 - delta) * float(x @ x)))
        checks.append(verify._bound_check(f"{spec}-energy", worst, 1.0 + 1e-12,
                                          f"worst err ratio {worst:.6f}"))
    for spec, trials in (("random:0.25", 600), ("gsgd:4", 600)):
        comp = parse_compressor(spec)
        delta = contraction_factor(comp, d)
        rng = RandomStream(7, 0, f"verify.{spec}-mean-energy").generator()
        x = rng.standard_normal(d)
        errs = [float(np.sum((x - compress(comp, x, rng=rng).payload) ** 2))
                for _ in range(trials)]
        ratio = float(np.mean(errs)) / ((1.0 - delta) * float(x @ x))
        checks.append(verify._bound_check(f"{spec}-mean-energy", ratio, 1.05,
                                          f"mean err ratio {ratio:.4f}"))
    comp = parse_compressor("random:0.25:unbiased")
    trials = 3000
    rng = RandomStream(7, 0, "verify.random-unbiased-mean").generator()
    x = rng.standard_normal(8)
    acc = np.zeros(8)
    sq = np.zeros(8)
    for _ in range(trials):
        e = compress(comp, x, rng=rng).payload - x
        acc += e
        sq += e * e
    mean = acc / trials
    se = np.sqrt(np.maximum(sq / trials - mean ** 2, 1e-30) / trials)
    z = float(np.max(np.abs(mean) / se))
    checks.append(verify._bound_check("random-unbiased-mean", z, 4.0, f"max z {z:.2f}"))
    return checks


def test_blocked_compression_checks_equal_the_per_vector_loop():
    got = {check.name: check for check in verify.suite_compression()}
    want = _per_vector_compression_checks()
    assert len(want) == 5
    for check in want:
        block = got[check.name]
        assert block.passed == check.passed
        assert type(block.margin) is type(check.margin)
        assert block.margin == check.margin
        assert block.detail == check.detail


def test_each_compression_check_draws_from_the_stream_of_its_name(monkeypatch):
    # one generator per Monte-Carlo check, keyed by the name the report
    # prints, so no check's draws depend on how many another one took
    keys, generator = [], RandomStream.generator

    def recorded(self):
        keys.append((self.seed, self.worker, self.purpose))
        return generator(self)

    monkeypatch.setattr(RandomStream, "generator", recorded)
    names = [check.name for check in verify.suite_compression() if check.name != "bit-costs"]
    assert len(names) == 6
    assert keys == [(7, 0, f"verify.{name}") for name in names]


def test_a_bound_check_fails_just_above_its_bound():
    bound = 1.05
    assert verify._bound_check("c", bound, bound).passed
    above = verify._bound_check("c", float(np.nextafter(bound, np.inf)), bound)
    assert not above.passed and above.margin < 0.0
    # a zero bound: any positive value fails, the smallest one too
    assert verify._bound_check("z", 0.0, 0.0).passed
    above = verify._bound_check("z", 5e-324, 0.0)
    assert not above.passed and above.margin < 0.0


def _per_round_psi(graph, comp_spec, dim, rounds, seed=3, gamma=None):
    # _gossip_trajectory as first written: psi after every round
    mixing = mixing_matrix(graph)
    comp = parse_compressor(comp_spec)
    if gamma is None:
        gamma = consensus_stepsize(mixing, contraction_factor(comp, dim))
    x0 = RandomStream(seed, 0, "verify").generator().standard_normal(graph.n * dim)
    state = Workers.start(x0.reshape(graph.n, dim), "choco")
    rng = RandomStream(seed, 0, "compress").generator()
    psi = [lyapunov(state)]
    for _ in range(rounds):
        choco_gossip_round(state, mixing, comp, rng, gamma)
        psi.append(lyapunov(state))
    return state, np.array(psi)


def test_gossip_trajectory_psi_ends_equal_the_per_round_list():
    # the two trajectories suite_consensus reads, and a stochastic compressor
    for args, kwargs in ((("identity", 4, 300), {"gamma": 1.0}),
                         (("topk:0.5", 16, 2000), {}),
                         (("gsgd:4", 8, 40), {})):
        _, state, _, psi = verify._gossip_trajectory(ring(8), *args, **kwargs)
        ref_state, ref_psi = _per_round_psi(ring(8), *args, **kwargs)
        assert psi.shape == (2,)
        assert psi[0] == ref_psi[0] and psi[-1] == ref_psi[-1]
        assert type(psi[-1]) is type(ref_psi[-1])
        assert np.array_equal(state.x, ref_state.x)
        assert np.array_equal(state.xhat, ref_state.xhat)


def test_checks_do_not_depend_on_how_many_rows_their_runs_log(monkeypatch):
    # the suite's runs log only their last row; logging every row instead
    # must give the same checks, field for field, so no check reads another
    expected = verify.run_suite("all")
    logged, run = [], verify.run

    def every_row(*args, **kwargs):
        record = run(*args, **dict(kwargs, log_every=1))
        logged.append(record.rows())
        return record

    monkeypatch.setattr(verify, "run", every_row)
    got = verify.run_suite("all")
    # every iteration of the 11 runs: 40 x 3, 100 x 2, 800 x 2, 400 and 25 x 3
    assert len(logged) == 11 and sum(logged) == 2395
    assert [tuple(check) for check in got] == [tuple(check) for check in expected]
    assert all(type(a.margin) is type(b.margin) for a, b in zip(got, expected))
