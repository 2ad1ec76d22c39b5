import numpy as np
import pytest

from chocosim.compression import contraction_factor, parse_compressor
from chocosim.consensus import (ConsensusState, choco_gossip_round,
                                consensus_distance, consensus_stepsize,
                                lyapunov, mix_with_public, rate_constant,
                                sync_public)
from chocosim.numerics import RandomStream
from chocosim.topology import fully_connected, mixing_matrix, ring


def _stream(seed=0):
    # one random source for every node of a gossip run
    return RandomStream(seed, 0, "compress")


def _start(n, dim, gamma, seed=0):
    x0 = RandomStream(seed, 0, "init").normal(n * dim).reshape(n, dim)
    return ConsensusState.start(x0, gamma), x0


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


# ------------------------------------------------------------ rate constant

def test_rate_constant_formulas():
    full = mixing_matrix(fully_connected(4))
    assert rate_constant(full, 1.0) == pytest.approx(1 / 82)
    ring16 = mixing_matrix(ring(16))
    assert rate_constant(ring16, 1.0, scheme="exact") == pytest.approx(ring16.rho)
    # rho=0.4 (torus-16 value), delta=0.1: 0.16 * 0.1 / 82
    assert 0.4 ** 2 * 0.1 / 82 == pytest.approx(1.9512e-4, rel=1e-3)


def test_rate_constant_rejects_unknown_scheme():
    with pytest.raises(ValueError):
        rate_constant(mixing_matrix(ring(8)), 0.5, scheme="fast")


# ------------------------------------------------------------ round algebra

def test_fixed_point_when_all_equal():
    m = mixing_matrix(ring(4))
    x0 = np.tile(np.array([2.0, -1.0]), (4, 1))
    state = ConsensusState.start(x0, 1.0)
    comp = parse_compressor("identity")
    choco_gossip_round(state, m, comp, _stream())
    # first round: gossip term zero, public copies catch up to x
    np.testing.assert_array_equal(state.x, x0)
    np.testing.assert_array_equal(state.xhat, x0)
    choco_gossip_round(state, m, comp, _stream())
    np.testing.assert_array_equal(state.x, x0)
    np.testing.assert_array_equal(state.xhat, x0)


def test_two_node_hand_simulation():
    # x = (0), (2); identity compression; gamma = 1; W = [[.5,.5],[.5,.5]]
    m = mixing_matrix(fully_connected(2))
    state = ConsensusState.start(np.array([[0.0], [2.0]]), 1.0)
    comp = parse_compressor("identity")
    choco_gossip_round(state, m, comp, _stream())
    # round 1: xhat was 0 so x is unchanged; xhat becomes (0), (2)
    np.testing.assert_array_equal(state.x, [[0.0], [2.0]])
    np.testing.assert_array_equal(state.xhat, [[0.0], [2.0]])
    choco_gossip_round(state, m, comp, _stream())
    np.testing.assert_array_equal(state.x, [[1.0], [1.0]])


def test_average_preserved_for_every_compressor():
    m = mixing_matrix(ring(8))
    for spec in ("identity", "sign", "topk:0.3", "random:0.3", "gsgd:4"):
        comp = parse_compressor(spec)
        gamma = consensus_stepsize(m, contraction_factor(comp, 12))
        state, x0 = _start(8, 12, gamma, seed=3)
        stream = _stream(seed=3)
        mean0 = x0.mean(axis=0)
        scale = float(np.max(np.abs(mean0))) + 1.0
        for _ in range(100):
            choco_gossip_round(state, m, comp, stream)
            drift = float(np.max(np.abs(state.x.mean(axis=0) - mean0)))
            assert drift < 1e-12 * scale, spec


def test_exact_mode_is_plain_matrix_gossip_from_round_two():
    m = mixing_matrix(ring(8))
    state, _ = _start(8, 5, 1.0, seed=9)
    comp = parse_compressor("identity")
    stream = _stream()
    choco_gossip_round(state, m, comp, stream)  # warm-up round
    for _ in range(10):
        prev = state.x.copy()
        choco_gossip_round(state, m, comp, stream)
        np.testing.assert_array_equal(state.x, m.w @ prev)


def test_round_reports_per_node_bits():
    m = mixing_matrix(ring(4))
    state, _ = _start(4, 10, 0.01)
    bits = choco_gossip_round(state, m, parse_compressor("sign"), _stream())
    np.testing.assert_array_equal(bits, [42, 42, 42, 42])


def test_gossip_contracts_disagreement():
    m = mixing_matrix(ring(8))
    comp = parse_compressor("topk:0.5")
    gamma = consensus_stepsize(m, 0.5)
    state, x0 = _start(8, 16, gamma, seed=5)
    psi0 = lyapunov(state)
    c = rate_constant(m, 0.5)
    T = 1500
    for _ in range(T):
        choco_gossip_round(state, m, comp, _stream(seed=5))
    # theory envelope (one-sided) and actual progress
    assert lyapunov(state) <= (1.0 - c) ** T * psi0
    assert consensus_distance(state.x) < consensus_distance(x0)


def test_divergence_guard():
    m = mixing_matrix(ring(4))
    state, _ = _start(4, 3, 50.0)  # absurd stepsize oscillates and blows up
    comp = parse_compressor("identity")
    with pytest.raises(FloatingPointError):
        for _ in range(200):
            choco_gossip_round(state, m, comp, _stream())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2e12])
def test_divergence_guard_flags_any_bad_entry(bad):
    m = mixing_matrix(ring(4))
    state, _ = _start(4, 3, 0.1)
    state.x[2, 1] = bad  # nothing else is out of range
    with pytest.raises(FloatingPointError):
        choco_gossip_round(state, m, parse_compressor("identity"), _stream())


def test_divergence_guard_passes_the_limit_itself():
    state = ConsensusState(x=np.full((2, 1), 1e12), xhat=np.full((2, 1), 1e12), gamma=0.5)
    choco_gossip_round(state, mixing_matrix(ring(2)), parse_compressor("identity"), _stream())


# ----------------------------------------------------------------- lyapunov

def test_lyapunov_zero_at_consensus():
    x = np.tile(np.array([1.0, 2.0]), (3, 1))
    state = ConsensusState(x=x.copy(), xhat=x.copy(), gamma=0.1)
    assert lyapunov(state) == 0.0


def test_lyapunov_hand_value():
    # x = (0), (2) scalar, xhat = 0: disagreement 2 plus tracking error 4
    state = ConsensusState(x=np.array([[0.0], [2.0]]),
                           xhat=np.zeros((2, 1)), gamma=0.1)
    assert lyapunov(state) == pytest.approx(6.0)


def test_lyapunov_dominates_consensus_distance():
    for seed in range(5):
        state, _ = _start(6, 4, 0.1, seed=seed)
        state.xhat = RandomStream(seed, 1, "init").normal(24).reshape(6, 4)
        assert lyapunov(state) >= 6 * consensus_distance(state.x) - 1e-12


def test_consensus_distance_hand_value():
    assert consensus_distance(np.array([[0.0], [2.0]])) == pytest.approx(1.0)


# ------------------------------------------------------------ sync building

def test_sync_public_identity_is_lossless():
    x = RandomStream(2, 0, "init").normal(12).reshape(4, 3)
    xhat = np.zeros_like(x)
    new_hat, bits = sync_public(x, xhat, parse_compressor("identity"), _stream())
    np.testing.assert_array_equal(new_hat, x)
    np.testing.assert_array_equal(bits, [96, 96, 96, 96])


def test_mix_with_public_matches_naive_formula():
    w = mixing_matrix(ring(4)).w
    x = RandomStream(4, 0, "init").normal(12).reshape(4, 3)
    xhat = RandomStream(4, 1, "init").normal(12).reshape(4, 3)
    got = mix_with_public(x, xhat, w, 0.37)
    naive = x + 0.37 * (w @ xhat - xhat)
    np.testing.assert_allclose(got, naive, atol=1e-14)


def test_state_start_validation():
    with pytest.raises(ValueError):
        ConsensusState.start(np.zeros((2, 2)), 0.0)  # gamma must be positive
    with pytest.raises(ValueError):
        ConsensusState.start(np.zeros(4), 0.5)  # needs (n, d) array
