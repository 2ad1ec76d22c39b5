import functools
import operator
import zlib

import numpy as np
import pytest

from chocosim.compression import Compressor
from chocosim.consensus import consensus_stepsize, rate_constant
from chocosim.metrics import TrafficLedger
from chocosim.numerics import (RandomStream, is_integer, require_finite, row_dots, sum_in_order,
                               sym_eigenvalues)
from chocosim.optim import tune_stepsize
from chocosim.problems import (Partition, estimate_constants, make_logistic, make_mlp,
                               make_quadratic)
from chocosim.topology import Graph, from_edge_list, mixing_matrix, ring

NAN = float("nan")


# --------------------------------------------------------------- reductions

def test_sum_in_order_adds_row_after_row_where_numpy_sum_does_not():
    columns = RandomStream(0, 0, "sum").generator().standard_normal((20, 16, 1))
    loops = [functools.reduce(operator.add, column) for column in columns]
    for column, loop in zip(columns, loops):
        assert sum_in_order(column).tobytes() == loop.tobytes()
    # NumPy adds a one-column block pairwise, not in row order
    assert any(column.sum(axis=0).tobytes() != loop.tobytes()
               for column, loop in zip(columns, loops))


def test_row_dots_are_each_rows_ddot():
    rows = RandomStream(1, 0, "dots").generator().standard_normal((6, 7))
    assert row_dots(rows).tolist() == [row @ row for row in rows]
    assert row_dots(rows[:, ::2]).tolist() == [row @ row for row in rows[:, ::2]]


# -------------------------------------------------------------- eigenvalues

def test_identity_matrix_eigenvalues():
    vals = sym_eigenvalues(np.eye(3))
    np.testing.assert_allclose(vals, [1.0, 1.0, 1.0], atol=1e-14)


def test_rank_one_averaging_matrix():
    vals = sym_eigenvalues(np.full((2, 2), 0.5))
    np.testing.assert_allclose(vals, [1.0, 0.0], atol=1e-14)


def test_two_by_two_closed_form():
    # [[2,1],[1,2]] has eigenvalues 3 and 1
    vals = sym_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(vals, [3.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 17, 40, 64])
def test_matches_reference_solver(n):
    # oracle: numpy's LAPACK-backed eigvalsh on random symmetric matrices
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    a = (a + a.T) / 2
    expected = np.linalg.eigvalsh(a)[::-1]
    got = sym_eigenvalues(a)
    scale = max(1.0, float(np.max(np.abs(expected))))
    np.testing.assert_allclose(got, expected, atol=1e-10 * scale)


@pytest.mark.parametrize("n", [4, 16, 64])
def test_eigenvalue_sum_equals_trace(n):
    rng = np.random.default_rng(100 + n)
    a = rng.standard_normal((n, n))
    a = a + a.T
    vals = sym_eigenvalues(a)
    trace = float(np.trace(a))
    assert abs(np.sum(vals) - trace) <= 1e-9 * max(1.0, abs(trace))
    # second moment identity pins the whole spectrum, not just its sum
    assert np.isclose(np.sum(vals ** 2), np.sum(a * a), rtol=1e-9)


def test_descending_order():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((12, 12))
    vals = sym_eigenvalues(a + a.T)
    assert np.all(np.diff(vals) <= 1e-12)


def test_rejects_bad_matrices():
    with pytest.raises(ValueError):
        sym_eigenvalues(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        sym_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(FloatingPointError):
        sym_eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    # no size ceiling: a 300 x 300 matrix is solved, not rejected
    np.testing.assert_array_equal(sym_eigenvalues(np.zeros((300, 300))), np.zeros(300))


# ------------------------------------------------------------ random streams

def _setup_draws(seed, worker, purpose, size=16):
    return RandomStream(seed, worker, purpose).generator().standard_normal(size)


def test_stream_determinism():
    a = _setup_draws(42, 3, "grad")
    b = _setup_draws(42, 3, "grad")
    np.testing.assert_array_equal(a, b)


def test_streams_differ_across_workers_and_purposes():
    base = _setup_draws(42, 0, "grad")
    other_worker = _setup_draws(42, 1, "grad")
    other_purpose = _setup_draws(42, 0, "compress")
    other_seed = _setup_draws(43, 0, "grad")
    assert not np.array_equal(base, other_worker)
    assert not np.array_equal(base, other_purpose)
    assert not np.array_equal(base, other_seed)


def test_per_iteration_substreams_are_order_independent():
    s1 = RandomStream(5, 0, "grad")
    s2 = RandomStream(5, 0, "grad")
    early_then_late = (s1.at(1).standard_normal(4), s1.at(9).standard_normal(4))
    late_then_early = (s2.at(9).standard_normal(4), s2.at(1).standard_normal(4))
    np.testing.assert_array_equal(early_then_late[0], late_then_early[1])
    np.testing.assert_array_equal(early_then_late[1], late_then_early[0])


def test_substream_distinct_from_base_stream():
    s = RandomStream(5, 0, "grad")
    base = s.generator().standard_normal(8)
    sub = s.at(0).standard_normal(8)
    assert not np.array_equal(base, sub)


# Oracle for the per-iteration generators: one Philox key per stream, from
# NumPy's SeedSequence, and iteration t in counter word 2 as t + 1.
SEEDS = [0, 1, 2**32, 2**64 - 1, 2**130]  # 2**130 has five entropy words
SEED_IDS = ["0", "1", "2**32", "2**64-1", "2**130"]
PURPOSES = ["grad", "compress", "init", "verify", "estimate"]
LAST_ITERATION = 2**64 - 2  # t + 1 fills one uint64 counter word


def _reference_seq(seed, worker, purpose):
    return np.random.SeedSequence(seed, spawn_key=(worker, zlib.crc32(purpose.encode("utf-8"))))


def _reference_generator(seed, worker, purpose, t):
    counter = np.array([0, 0, t + 1, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_reference_seq(seed, worker, purpose),
                                                counter=counter))


def _iterations_under_test(seed):
    large = np.random.default_rng(seed % 2**32).integers(2, 2**63, size=3)
    return [0, 1, 2**32 - 2, 2**32 - 1, LAST_ITERATION, *large.tolist()]


@pytest.mark.parametrize("seed", SEEDS, ids=SEED_IDS)
def test_substream_keys_equal_seed_sequence(seed):
    # every iteration's generator runs on the stream's one key and differs
    # from the others only in counter word 2
    for purpose in PURPOSES:
        for worker in (0, 255):
            stream = RandomStream(seed, worker, purpose)
            key = _reference_seq(seed, worker, purpose).generate_state(2, np.uint64)
            for t in _iterations_under_test(seed):
                state = stream.at(t).bit_generator.state["state"]
                np.testing.assert_array_equal(state["key"], key)
                np.testing.assert_array_equal(
                    state["counter"], np.array([0, 0, t + 1, 0], dtype=np.uint64))
            # the set-up generator: the same key at counter 0
            state = stream.generator().bit_generator.state["state"]
            np.testing.assert_array_equal(state["key"], key)
            np.testing.assert_array_equal(state["counter"], np.zeros(4, dtype=np.uint64))


_SETUP_DRAWS = (  # a sequence of each kind of draw the set-up code makes
    lambda g: g.standard_normal(5), lambda g: 0.3 * g.standard_normal(4),
    lambda g: g.random(3), lambda g: g.choice(20, size=4, replace=False),
    lambda g: g.integers(0, 9, size=6),
)


@pytest.mark.parametrize("seed", [0, 7, 2**63], ids=["0", "7", "2**63"])
def test_generator_draws_equal_seed_sequence(seed):
    # generator() is NumPy's own Generator(Philox(SeedSequence(...))) at
    # counter 0, every draw of a sequence included, and each call starts over
    for purpose in ("problem", "compress"):
        for worker in (0, 255):
            stream = RandomStream(seed, worker, purpose)
            for _ in range(2):
                rng = stream.generator()
                want = np.random.Generator(np.random.Philox(_reference_seq(seed, worker, purpose)))
                for draw in _SETUP_DRAWS:
                    np.testing.assert_array_equal(draw(rng), draw(want))


@pytest.mark.parametrize("seed", SEEDS, ids=SEED_IDS)
def test_at_draws_equal_seed_sequence_in_any_order(seed):
    # out of order, revisiting iterations, and interleaved across two streams
    order = [65, 0, 64, 63, 130, 1, LAST_ITERATION, 5000, 64, 63, 0, 127, 128]
    for purpose in PURPOSES:
        streams = {w: RandomStream(seed, w, purpose) for w in (0, 17, 255)}
        for t in order:
            for w, stream in streams.items():
                got = stream.at(t).standard_normal(3)
                want = _reference_generator(seed, w, purpose, t).standard_normal(3)
                np.testing.assert_array_equal(got, want)


def test_at_generators_held_together_stay_independent():
    stream = RandomStream(9, 2, "compress")
    first, again, later = stream.at(3), stream.at(3), stream.at(67)
    draws = {"first": [], "again": [], "later": []}
    for _ in range(4):  # interleave draws from all three generators
        draws["first"].append(first.random(2))
        draws["later"].append(later.random(2))
        draws["again"].append(again.random(2))
    want_3 = _reference_generator(9, 2, "compress", 3).random(8)
    want_later = _reference_generator(9, 2, "compress", 67).random(8)
    np.testing.assert_array_equal(np.concatenate(draws["first"]), want_3)
    np.testing.assert_array_equal(np.concatenate(draws["again"]), want_3)
    np.testing.assert_array_equal(np.concatenate(draws["later"]), want_later)


def test_stateful_draws_do_not_move_the_iteration_generators():
    stream, fresh = RandomStream(6, 0, "grad"), RandomStream(6, 0, "grad")
    setup = stream.generator()
    setup.standard_normal(1000)
    np.testing.assert_array_equal(stream.at(2).random(5), fresh.at(2).random(5))
    # nor the next set-up generator, which starts over at counter 0
    want = np.random.Generator(np.random.Philox(_reference_seq(6, 0, "grad"))).random(4)
    np.testing.assert_array_equal(stream.generator().random(4), want)


def test_at_iteration_range():
    stream = RandomStream(4, 1, "grad")
    np.testing.assert_array_equal(
        stream.at(LAST_ITERATION).random(4),
        _reference_generator(4, 1, "grad", LAST_ITERATION).random(4))
    np.testing.assert_array_equal(stream.at(np.int64(7)).random(4), stream.at(7).random(4))
    for bad in (-1, LAST_ITERATION + 1, 2**70):
        with pytest.raises(ValueError):
            stream.at(bad)


def test_is_integer_accepts_python_and_numpy_integers_only():
    for value in (0, -3, 2**70, np.int64(5), np.uint8(1), np.intp(-1)):
        assert is_integer(value)
    for value in (True, np.True_, 1.0, np.float64(2.0), 2.5, "1", None, np.array(1)):
        assert not is_integer(value)


@pytest.mark.parametrize("build, error, match", [
    (lambda: from_edge_list(3, [(0, 1.5), (1, 2)]), ValueError, r"edge \(0, 1.5\)"),
    (lambda: from_edge_list(3, [(True, 2), (0, 1)]), ValueError, r"edge \(True, 2\)"),
    # a float equal to an integer would otherwise collapse into that edge unseen
    (lambda: from_edge_list(3, [(0, 1), (1.0, 0), (1, 2)]), ValueError, r"edge \(1.0, 0\)"),
    (lambda: Graph(2.5, ((0, 1),)), ValueError, "node count n"),
    (lambda: ring(2.5), ValueError, "node count n"),
    (lambda: TrafficLedger(2.9), ValueError, "n_nodes"),
    (lambda: Compressor("gsgd", bits=2.5), ValueError, "bits"),
    (lambda: Partition("fixed-split", 2.5, 10), ValueError, "n_nodes"),
    (lambda: Partition("iid-reshuffled", 2, 10, seed=1.5), ValueError, "seed"),
    (lambda: Compressor("topk", fraction=True), ValueError, "fraction"),
    (lambda: make_mlp(hidden=2.5), ValueError, "hidden"),
    (lambda: make_logistic(batch=3.7), ValueError, "batch"),
    (lambda: make_quadratic(noise_std=float("nan")), ValueError, "noise_std"),
    (lambda: make_quadratic(heterogeneity=float("inf")), ValueError, "heterogeneity"),
    (lambda: estimate_constants(make_quadratic(2, 3), trials=1.5), ValueError, "trials"),
    (lambda: RandomStream(True), TypeError, "seed"),
    (lambda: RandomStream(1, worker=0.7), ValueError, "worker"),
    (lambda: RandomStream(1).at(2.7), ValueError, "iteration"),
    (lambda: RandomStream(1).at(True), ValueError, "iteration"),
    (lambda: consensus_stepsize(mixing_matrix(ring(4)), True), ValueError, "delta"),
    (lambda: rate_constant(mixing_matrix(ring(4)), "0.5"), ValueError, "delta"),
    (lambda: tune_stepsize(1, NAN, 1, 4, 10), ValueError, "^b must"),
    (lambda: tune_stepsize(NAN, 1, 1, 4, 10), ValueError, "^r0 must"),
    (lambda: tune_stepsize(1, 1, float("inf"), 4, 10), ValueError, "^e must"),
    (lambda: tune_stepsize(1, 1, 1, NAN, 10), ValueError, "^d_cap must"),
    (lambda: tune_stepsize(1, 1, 1, True, 10), ValueError, "^d_cap must"),
    (lambda: tune_stepsize(1, 1, 1, 4, True), ValueError, "^horizon must"),
    (lambda: tune_stepsize(1, 1, 1, 4, 1.5), ValueError, "^horizon must"),
], ids=["edge-float", "edge-bool", "edge-float-duplicate", "graph-n", "ring-n",
        "ledger-nodes", "gsgd-bits", "partition-nodes", "partition-seed", "topk-bool-fraction",
        "mlp-hidden", "logistic-batch",
        "quadratic-nan-noise", "quadratic-inf-heterogeneity", "estimate-trials",
        "stream-bool-seed", "stream-worker", "stream-float-iteration", "stream-bool-iteration",
        "stepsize-bool-delta", "rate-string-delta", "tune-nan-b", "tune-nan-r0", "tune-inf-e",
        "tune-nan-d-cap", "tune-bool-d-cap",
        "tune-bool-horizon", "tune-float-horizon"])
def test_constructors_refuse_what_they_used_to_truncate_or_let_through(build, error, match):
    # each of these was truncated by int(), read as 1, or accepted as a
    # non-finite real; one integer and one number rule now refuse them
    with pytest.raises(error, match=match):
        build()


def test_require_finite():
    require_finite(np.ones(3), "ok")
    with pytest.raises(FloatingPointError):
        require_finite(np.array([1.0, np.inf]), "bad")
    with pytest.raises(FloatingPointError):
        require_finite(np.array([np.nan]), "bad")
