import numpy as np
import pytest

from chocosim.compression import contraction_factor, parse_compressor
from chocosim.consensus import (DIVERGENCE_LIMIT, choco_gossip_round, consensus_distance,
                                consensus_stepsize, diverged, lyapunov, mix_with_public,
                                rate_constant, state_statistics, sync_public)
from chocosim.numerics import RandomStream
from chocosim.optim import Workers
from chocosim.topology import MixingMatrix, fully_connected, mixing_matrix, ring


def _rng(seed=0):
    # one random source for every node of a gossip run
    return RandomStream(seed, 0, "compress").generator()


def _start(n, dim, seed=0):
    x0 = RandomStream(seed, 0, "init").generator().standard_normal(n * dim).reshape(n, dim)
    return Workers.start(x0, "choco"), x0


# ----------------------------------------------------------------- stepsize

def test_stepsize_closed_form_full_graph():
    # rho = beta = delta = 1: gamma = 1/(16 + 1 + 4 + 2 - 8) = 1/15
    for n in (2, 4):
        m = mixing_matrix(fully_connected(n))
        assert consensus_stepsize(m, 1.0) == pytest.approx(1 / 15, abs=1e-15)


def test_stepsize_vanishes_with_delta():
    m = mixing_matrix(ring(16))
    tiny = consensus_stepsize(m, 1e-6)
    assert 0.0 < tiny < 1e-6  # numerator is proportional to delta


def test_stepsize_ring16_sign_positive():
    m = mixing_matrix(ring(16))
    delta = contraction_factor(parse_compressor("sign"), 100)
    assert consensus_stepsize(m, delta) > 0.0


def test_stepsize_monotone_in_delta():
    m = mixing_matrix(ring(8))
    gammas = [consensus_stepsize(m, d) for d in (0.01, 0.1, 0.5, 1.0)]
    assert all(a < b for a, b in zip(gammas, gammas[1:]))


def test_stepsize_validates_inputs():
    m = mixing_matrix(ring(8))
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            consensus_stepsize(m, bad)
    # only a hand-built matrix can carry such a gap: mixing_matrix's rho lies in (0, 1]
    with pytest.raises(ValueError, match=r"^rho must be in \(0, 1\]$"):
        consensus_stepsize(MixingMatrix(m.w, 1.5, m.beta), 0.5)


# ------------------------------------------------------------ rate constant

def test_rate_constant_formulas():
    full = mixing_matrix(fully_connected(4))
    assert rate_constant(full, 1.0) == pytest.approx(1 / 82)
    # rho=0.4 (torus-16 value), delta=0.1: 0.16 * 0.1 / 82
    assert 0.4 ** 2 * 0.1 / 82 == pytest.approx(1.9512e-4, rel=1e-3)


# ------------------------------------------------------------ round algebra

def test_fixed_point_when_all_equal():
    m = mixing_matrix(ring(4))
    x0 = np.tile(np.array([2.0, -1.0]), (4, 1))
    state = Workers.start(x0, "choco")
    comp = parse_compressor("identity")
    choco_gossip_round(state, m, comp, _rng(), 1.0)
    # first round: gossip term zero, public copies catch up to x
    np.testing.assert_array_equal(state.x, x0)
    np.testing.assert_array_equal(state.xhat, x0)
    choco_gossip_round(state, m, comp, _rng(), 1.0)
    np.testing.assert_array_equal(state.x, x0)
    np.testing.assert_array_equal(state.xhat, x0)


def test_two_node_hand_simulation():
    # x = (0), (2); identity compression; gamma = 1; W = [[.5,.5],[.5,.5]]
    m = mixing_matrix(fully_connected(2))
    state = Workers.start(np.array([[0.0], [2.0]]), "choco")
    comp = parse_compressor("identity")
    choco_gossip_round(state, m, comp, _rng(), 1.0)
    # round 1: xhat was 0 so x is unchanged; xhat becomes (0), (2)
    np.testing.assert_array_equal(state.x, [[0.0], [2.0]])
    np.testing.assert_array_equal(state.xhat, [[0.0], [2.0]])
    choco_gossip_round(state, m, comp, _rng(), 1.0)
    np.testing.assert_array_equal(state.x, [[1.0], [1.0]])


def test_average_preserved_for_every_compressor():
    m = mixing_matrix(ring(8))
    for spec in ("identity", "sign", "topk:0.3", "random:0.3", "gsgd:4"):
        comp = parse_compressor(spec)
        gamma = consensus_stepsize(m, contraction_factor(comp, 12))
        state, x0 = _start(8, 12, seed=3)
        rng = _rng(seed=3)
        mean0 = x0.mean(axis=0)
        scale = float(np.max(np.abs(mean0))) + 1.0
        for _ in range(100):
            choco_gossip_round(state, m, comp, rng, gamma)
            drift = float(np.max(np.abs(state.x.mean(axis=0) - mean0)))
            assert drift < 1e-12 * scale, spec


def test_exact_mode_is_plain_matrix_gossip_from_round_two():
    m = mixing_matrix(ring(8))
    state, _ = _start(8, 5, seed=9)
    comp = parse_compressor("identity")
    rng = _rng()
    choco_gossip_round(state, m, comp, rng, 1.0)  # warm-up round
    for _ in range(10):
        prev = state.x.copy()
        choco_gossip_round(state, m, comp, rng, 1.0)
        np.testing.assert_array_equal(state.x, m.w @ prev)


def test_gossip_contracts_disagreement():
    m = mixing_matrix(ring(8))
    comp = parse_compressor("topk:0.5")
    gamma = consensus_stepsize(m, 0.5)
    state, x0 = _start(8, 16, seed=5)
    psi0 = lyapunov(state)
    c = rate_constant(m, 0.5)
    T = 1500
    for _ in range(T):
        choco_gossip_round(state, m, comp, _rng(seed=5), gamma)
    # theory envelope (one-sided) and actual progress
    assert lyapunov(state) <= (1.0 - c) ** T * psi0
    assert consensus_distance(state.x) < consensus_distance(x0)


def test_divergence_guard():
    m = mixing_matrix(ring(4))
    state, _ = _start(4, 3)
    comp = parse_compressor("identity")
    with pytest.raises(FloatingPointError):
        for _ in range(200):  # absurd stepsize oscillates and blows up
            choco_gossip_round(state, m, comp, _rng(), 50.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2e12])
def test_divergence_guard_flags_any_bad_entry(bad):
    m = mixing_matrix(ring(4))
    state, _ = _start(4, 3)
    state.x[2, 1] = bad  # nothing else is out of range
    with pytest.raises(FloatingPointError):
        choco_gossip_round(state, m, parse_compressor("identity"), _rng(), 0.1)


def test_divergence_guard_passes_the_limit_itself():
    state = Workers(x=np.full((2, 1), 1e12), xhat=np.full((2, 1), 1e12))
    choco_gossip_round(state, mixing_matrix(ring(2)), parse_compressor("identity"), _rng(), 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2e12, -2e12])
def test_diverged_names_the_first_failing_row(bad):
    x = np.zeros((5, 3))
    x[1, 2] = -DIVERGENCE_LIMIT  # exactly at the limit: not a failure
    x[3, 0] = x[4, 1] = bad
    assert diverged(x, np.empty_like(x)) == 3
    x[3, 0] = 0.0
    assert diverged(x, np.empty_like(x)) == 4
    x[4, 1] = DIVERGENCE_LIMIT
    assert diverged(x, np.empty_like(x)) is None


# ----------------------------------------------------------------- lyapunov

def test_lyapunov_zero_at_consensus():
    x = np.tile(np.array([1.0, 2.0]), (3, 1))
    state = Workers(x=x.copy(), xhat=x.copy())
    assert lyapunov(state) == 0.0


def test_lyapunov_hand_value():
    # x = (0), (2) scalar, xhat = 0: disagreement 2 plus tracking error 4
    state = Workers(x=np.array([[0.0], [2.0]]), xhat=np.zeros((2, 1)))
    assert lyapunov(state) == pytest.approx(6.0)


def test_lyapunov_dominates_consensus_distance():
    for seed in range(5):
        state, _ = _start(6, 4, seed=seed)
        state.xhat = RandomStream(seed, 1, "init").generator().standard_normal(24).reshape(6, 4)
        assert lyapunov(state) >= 6 * consensus_distance(state.x) - 1e-12


def test_consensus_distance_hand_value():
    assert consensus_distance(np.array([[0.0], [2.0]])) == pytest.approx(1.0)


@pytest.mark.parametrize("n, dim", [(1, 3), (5, 7), (16, 1), (16, 2177)])
@pytest.mark.parametrize("public", [True, False])
def test_block_statistics_equal_each_states_own_bit_for_bit(n, dim, public):
    # an optimizer's logged rows are the block case, lyapunov and
    # consensus_distance the one-state case
    draw = RandomStream(n, dim, "init").generator()
    x = draw.standard_normal((3, n, dim))
    xhat = draw.standard_normal((3, n, dim)) if public else None
    xbar, consensus, psi = state_statistics(x, xhat)
    for k in range(3):
        state = Workers(x=x[k], xhat=None if xhat is None else xhat[k])
        assert xbar[k].tobytes() == x[k].mean(axis=0).tobytes()
        assert consensus[k].item() == consensus_distance(x[k])
        assert psi[k].item() == lyapunov(state)
        one = state_statistics(x[k], state.xhat)
        assert (one[0].tobytes(), one[1].item(), one[2].item()) == (
            xbar[k].tobytes(), consensus[k].item(), psi[k].item())


# ------------------------------------------------------------ sync building

def test_sync_public_identity_is_lossless():
    x = RandomStream(2, 0, "init").generator().standard_normal(12).reshape(4, 3)
    xhat = np.zeros_like(x)
    new_hat = sync_public(x, xhat, parse_compressor("identity"), _rng())
    np.testing.assert_array_equal(new_hat, x)


def test_mix_with_public_matches_naive_formula():
    w = mixing_matrix(ring(4)).w
    x = RandomStream(4, 0, "init").generator().standard_normal(12).reshape(4, 3)
    xhat = RandomStream(4, 1, "init").generator().standard_normal(12).reshape(4, 3)
    got = mix_with_public(x, xhat, w, 0.37)
    naive = x + 0.37 * (w @ xhat - xhat)
    np.testing.assert_allclose(got, naive, atol=1e-14)


def test_state_start_validation():
    m = mixing_matrix(ring(2))
    with pytest.raises(ValueError):  # gamma must be positive
        choco_gossip_round(Workers.start(np.zeros((2, 2)), "choco"), m,
                           parse_compressor("identity"), _rng(), 0.0)
    with pytest.raises(ValueError):
        Workers.start(np.zeros(4), "choco")  # needs (n, d) array
    with pytest.raises(ValueError, match="^mixing matrix size does not match state$"):
        choco_gossip_round(Workers.start(np.zeros((3, 2)), "choco"), mixing_matrix(ring(4)),
                           parse_compressor("identity"), _rng(), 0.5)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf, True])
def test_gossip_round_rejects_a_bad_stepsize_before_touching_the_state(bad):
    # NaN and inf compare False with `gamma <= 0`, and True is an int to Python
    state, x0 = _start(4, 3)
    with pytest.raises(ValueError, match="gamma"):
        choco_gossip_round(state, mixing_matrix(ring(4)), parse_compressor("identity"),
                           _rng(), bad)
    assert np.array_equal(state.x, x0) and not state.xhat.any()


@pytest.mark.parametrize("rows", [np.zeros((2, 2, 2)), 1.0])
def test_workers_start_rejects_rows_that_are_not_2d(rows):
    with pytest.raises(ValueError, match=r"\(n, dim\)"):
        Workers.start(rows, "choco")


def test_gossip_rounds_leave_the_callers_start_unchanged():
    # verify's average-preservation check reads x0 after the rounds: a state
    # that aliased it would move it with the average and hide any drift
    x0 = RandomStream(6, 0, "init").generator().standard_normal(20).reshape(5, 4)
    kept = x0.copy()
    state = Workers.start(x0, "choco")
    assert not np.shares_memory(state.x, x0)
    for _ in range(5):
        choco_gossip_round(state, mixing_matrix(ring(5)), parse_compressor("sign"), _rng(), 0.3)
    assert not np.array_equal(state.x, kept)
    assert x0.tobytes() == kept.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_start_row_raises_on_the_first_round(bad):
    x0 = np.ones((4, 3))
    x0[1, 2] = bad
    state = Workers.start(x0, "choco")
    with pytest.raises(FloatingPointError, match="diverged"):
        choco_gossip_round(state, mixing_matrix(ring(4)), parse_compressor("identity"),
                           _rng(), 0.5)
