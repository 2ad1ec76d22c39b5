import pickle

import numpy as np
import pytest

from chocosim import compression
from chocosim.compression import (COMPRESSOR_TABLE, CompressedMessage, Compressor, Kind, bit_cost,
                                  compress, compress_blocks, contraction_factor,
                                  parse_compressor, sign_contraction)
from chocosim.numerics import RandomStream


def _rng(seed=0):
    return RandomStream(seed, 0, "compress").at(0)


# -------------------------------------------------------------------- parse

def test_parse_round_trip():
    for text, fields in (("identity", ("identity", 0, 0.0, False)),
                         ("sign", ("sign", 0, 0.0, False)),
                         ("gsgd:4", ("gsgd", 4, 0.0, False)),
                         ("gsgd:8:unbiased", ("gsgd", 8, 0.0, True)),
                         ("gsgd:64", ("gsgd", 64, 0.0, False)),
                         ("random:0.25", ("random", 0, 0.25, False)),
                         ("random:0.1:unbiased", ("random", 0, 0.1, True)),
                         ("topk:0.01", ("topk", 0, 0.01, False)),
                         ("topk:1", ("topk", 0, 1.0, False))):
        comp = parse_compressor(text)
        assert (comp.kind, comp.bits, comp.fraction, comp.unbiased) == fields
        assert list(map(type, (comp.bits, comp.fraction))) == [int, float]
        assert comp == Compressor(*fields)


@pytest.mark.parametrize("bad", [
    "", "huffman", "gsgd", "gsgd:x", "gsgd:1", "random", "random:0",
    "random:1.5", "topk:0", "topk:0.1:unbiased", "sign:unbiased",
    "identity:4", "sign:2", "identity:5", "gsgd:4:5", "gsgd:4.0", "unbiased", "gsgd:65",
])
def test_parse_rejects_bad_specs(bad):
    with pytest.raises(ValueError, match=r"^bad compressor spec .*; expected identity \| "):
        parse_compressor(bad)


@pytest.mark.parametrize("spec", ["gsgd:1_6", "gsgd:\u0664", "gsgd:\uff14", "random:0.1_0",
                                  "topk:0.\u0661", "random:\u0660.5:unbiased"])
def test_spec_arguments_are_plain_ascii_numerals(spec):
    # int() and float() read these as 16, 4, 4, 0.1, 0.1 and 0.5; a spec refuses them
    with pytest.raises(ValueError, match=r"^bad compressor spec .*; expected identity \| "):
        parse_compressor(spec)


def test_compressor_validation():
    with pytest.raises(ValueError):
        Compressor("gsgd", bits=1)
    with pytest.raises(ValueError, match=r"gsgd needs an integer bits in \[2, 64\]"):
        Compressor("gsgd", bits=65)
    with pytest.raises(ValueError):
        Compressor("topk", fraction=0.5, unbiased=True)
    with pytest.raises(ValueError):
        Compressor("random", fraction=0.0)


@pytest.mark.parametrize("kind, field, value", [
    ("identity", "fraction", 2.0), ("sign", "bits", 3), ("gsgd", "fraction", 0.5),
    ("topk", "bits", 4), ("random", "bits", 2), ("identity", "bits", float("nan")),
])
def test_a_compressor_refuses_a_field_its_kind_does_not_take(kind, field, value):
    takes = {"gsgd": {"bits": 4}, "topk": {"fraction": 0.5}, "random": {"fraction": 0.5}}
    with pytest.raises(ValueError, match=f"{kind} takes no {field}"):
        Compressor(kind, **takes.get(kind, {}), **{field: value})


# ----------------------------------------------------------------- identity

def test_identity_is_lossless():
    x = _rng().standard_normal(9)
    msg = compress(parse_compressor("identity"), x)
    np.testing.assert_array_equal(msg.payload, x)
    assert msg.bits == 32 * 9


# --------------------------------------------------------------------- sign

def test_sign_formula():
    x = np.array([3.0, -1.0, 0.0, 2.0])
    msg = compress(parse_compressor("sign"), x)
    # (||x||_1 / d) * sign(x), with sign(0) = 0
    np.testing.assert_allclose(msg.payload, (6.0 / 4.0) * np.array([1, -1, 0, 1]))
    assert msg.bits == 4 + 32


def test_sign_on_constant_vector_is_exact():
    x = np.ones(4)
    msg = compress(parse_compressor("sign"), x)
    np.testing.assert_array_equal(msg.payload, x)
    assert sign_contraction(x) == 1.0


def test_sign_contraction_of_zeros_is_one():
    # Q(0) = 0 is exact: the zero vector loses nothing
    assert sign_contraction(np.zeros(5)) == 1.0


def test_sign_contraction_identity():
    # ||x - Q(x)||^2 == (1 - delta(x)) ||x||^2 with delta(x) = ||x||_1^2/(d ||x||_2^2)
    x = _rng(3).standard_normal(50)
    err = float(np.sum((x - compress(parse_compressor("sign"), x).payload) ** 2))
    predicted = (1.0 - sign_contraction(x)) * float(x @ x)
    assert abs(err - predicted) < 1e-10 * float(x @ x)
    assert sign_contraction(x) >= 1.0 / 50


# --------------------------------------------------------------------- topk

def test_topk_full_fraction_is_identity():
    x = _rng(1).standard_normal(7)
    msg = compress(parse_compressor("topk:1"), x)
    np.testing.assert_array_equal(msg.payload, x)


def test_topk_keeps_largest_magnitudes():
    x = np.array([1.0, -5.0, 0.5, 4.0])
    payload = compress(parse_compressor("topk:0.5"), x).payload
    np.testing.assert_array_equal(payload, [0.0, -5.0, 0.0, 4.0])


def test_topk_tie_break_lowest_index():
    x = np.array([2.0, -2.0, 2.0, 1.0])
    payload = compress(parse_compressor("topk:0.5"), x).payload
    # |x| ties at 2 for indices 0,1,2; the two lowest indices win
    np.testing.assert_array_equal(payload, [2.0, -2.0, 0.0, 0.0])


def test_topk_keeps_at_least_one_coordinate():
    x = np.array([0.1, 9.0, 0.2])
    payload = compress(parse_compressor("topk:0.1"), x).payload  # floor(0.3) -> 1
    np.testing.assert_array_equal(payload, [0.0, 9.0, 0.0])


def test_topk_support_scale_invariant():
    x = _rng(5).standard_normal(40)
    comp = parse_compressor("topk:0.2")
    base = compress(comp, x).payload != 0
    scaled = compress(comp, 3.7 * x).payload != 0
    np.testing.assert_array_equal(base, scaled)


# ------------------------------------------------------------------- random

def test_random_mask_size_and_values():
    x = _rng(2).standard_normal(30)
    payload = compress(parse_compressor("random:0.2"), x, rng=_rng(9)).payload
    kept = payload != 0
    assert kept.sum() == 6
    np.testing.assert_array_equal(payload[kept], x[kept])


def test_random_two_coordinate_case_has_constant_error():
    # d=2, a=0.5 keeps one coordinate; both masks give error exactly 4
    x = np.array([2.0, 2.0])
    comp = parse_compressor("random:0.5")
    rng = _rng(4)
    for _ in range(20):
        err = float(np.sum((x - compress(comp, x, rng=rng).payload) ** 2))
        assert err == 4.0


def test_random_unbiased_scaling():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    payload = compress(parse_compressor("random:0.5:unbiased"), x, rng=_rng(6)).payload
    kept = payload != 0
    np.testing.assert_allclose(payload[kept], x[kept] * 2.0)  # d/k = 4/2


def test_random_requires_rng():
    with pytest.raises(ValueError):
        compress(parse_compressor("random:0.5"), np.ones(4))


# --------------------------------------------------------------------- gsgd

def test_gsgd_zero_vector():
    msg = compress(parse_compressor("gsgd:4"), np.zeros(10), rng=_rng())
    np.testing.assert_array_equal(msg.payload, np.zeros(10))
    assert msg.bits == 4 * 10 + 32


def test_gsgd_tau_values():
    # tau = 1 + min(d/2^(2(b-1)), sqrt(d)/2^(b-1))
    assert contraction_factor(parse_compressor("gsgd:4"), 256) == pytest.approx(1 / 3)
    assert contraction_factor(parse_compressor("gsgd:4"), 100) == pytest.approx(4 / 9)


def test_gsgd_unbiased_lands_on_quantization_grid():
    x = _rng(8).standard_normal(24)
    comp = parse_compressor("gsgd:4:unbiased")
    payload = compress(comp, x, rng=_rng(13)).payload
    norm = np.linalg.norm(x)
    levels = 2.0 ** 3
    # each |coordinate| must be one of the two grid points bracketing |x_i|
    lo = np.floor(levels * np.abs(x) / norm)
    steps = np.abs(payload) * levels / norm
    assert np.all((np.abs(steps - lo) < 1e-9) | (np.abs(steps - lo - 1.0) < 1e-9))
    nonzero = payload != 0
    np.testing.assert_array_equal(np.sign(payload[nonzero]), np.sign(x[nonzero]))


def test_gsgd_biased_is_unbiased_over_tau():
    x = _rng(10).standard_normal(16)
    biased = compress(parse_compressor("gsgd:4"), x, rng=_rng(21)).payload
    unbiased = compress(parse_compressor("gsgd:4:unbiased"), x, rng=_rng(21)).payload
    tau = 1.0 + min(16 / 64, 4 / 8)
    np.testing.assert_allclose(biased, unbiased / tau, atol=1e-15)


def test_gsgd_exact_scale_homogeneity():
    # doubling x doubles the output exactly (norm scales by a power of two)
    x = _rng(12).standard_normal(20)
    comp = parse_compressor("gsgd:6")
    a = compress(comp, x, rng=_rng(30)).payload
    b = compress(comp, 2.0 * x, rng=_rng(30)).payload
    np.testing.assert_array_equal(b, 2.0 * a)


def test_gsgd_unbiased_monte_carlo_mean():
    # coordinate-wise mean of many draws within 1% of x
    x = np.array([0.9, -0.4, 0.1, 1.4, -1.1, 0.6])
    comp = parse_compressor("gsgd:4:unbiased")
    rng = _rng(17)
    acc = np.zeros_like(x)
    trials = 100_000
    for _ in range(trials):
        acc += compress(comp, x, rng=rng).payload
    np.testing.assert_allclose(acc / trials, x, rtol=0.01, atol=0.005)


# ------------------------------------------------------------- determinism

def test_compress_deterministic_under_stream_replay():
    x = _rng(14).standard_normal(32)
    for spec in ("gsgd:4", "random:0.25"):
        comp = parse_compressor(spec)
        a = compress(comp, x, rng=RandomStream(3, 1, "compress").at(5))
        b = compress(comp, x, rng=RandomStream(3, 1, "compress").at(5))
        np.testing.assert_array_equal(a.payload, b.payload)


# ---------------------------------------------------------------- bit costs

def test_bit_cost_formulas():
    d = 260_000
    assert bit_cost(parse_compressor("identity"), d) == 32 * d
    assert bit_cost(parse_compressor("gsgd:16"), d) == 16 * d + 32  # 4,160,032
    assert bit_cost(parse_compressor("sign"), d) == d + 32  # 260,032
    assert bit_cost(parse_compressor("topk:1"), 10) == 640  # 64 per kept coord
    assert bit_cost(parse_compressor("random:0.5"), 10) == 32 * 5
    assert bit_cost(parse_compressor("random:0.01"), 50) == 32  # k clamps to 1


def test_bit_cost_positive_dim_required():
    with pytest.raises(ValueError):
        bit_cost(parse_compressor("sign"), 0)
    for empty in (np.zeros(0), np.zeros((3, 0))):  # an empty message, not a bad layout
        with pytest.raises(ValueError, match="dim must be >= 1"):
            compress_blocks(parse_compressor("sign"), empty)
    with pytest.raises(ValueError, match="dim must be >= 1"):
        compress(parse_compressor("sign"), np.zeros(0))


# --------------------------------------------------------------- contraction

def test_contraction_factor_closed_forms():
    assert contraction_factor(parse_compressor("identity"), 10) == 1.0
    assert contraction_factor(parse_compressor("topk:0.1"), 100) == 0.1
    assert contraction_factor(parse_compressor("random:0.3"), 100) == 0.3
    assert contraction_factor(parse_compressor("sign"), 100) == 0.01
    # a sparsifier's delta is k/d, k = max(1, floor(a*d)) the count it keeps
    assert contraction_factor(parse_compressor("topk:0.3"), 5) == 0.2
    assert contraction_factor(parse_compressor("random:0.3"), 5) == 0.2
    assert contraction_factor(parse_compressor("topk:0.01"), 10) == 0.1  # k clamps to 1
    assert contraction_factor(parse_compressor("topk:0.29"), 100) == 0.28  # 0.29 * 100 < 29
    # the benchmark MLP's layers: its 64-wide blocks keep 6
    layers = [0, 2048, 2112, 2176, 2177]
    assert contraction_factor(parse_compressor("topk:0.1"), 2177, layers) == 0.09375


def test_sparsifier_delta_is_what_a_draw_keeps():
    # topk:0.3 keeps 1 of 5 equal entries: error ratio 0.8 = 1 - delta, on every draw
    comp = parse_compressor("topk:0.3")
    x = np.ones(5)
    err = float(np.sum((x - compress(comp, x).payload) ** 2))
    assert err / float(x @ x) <= 1.0 - contraction_factor(comp, 5)
    # random:0.3 keeps 1 of 5 entries: the mean error ratio is 0.8 = 1 - delta
    comp = parse_compressor("random:0.3")
    rng = _rng(29)
    x = rng.standard_normal((300, 5))
    q = compress_blocks(comp, x, rng).payload
    ratios = np.sum((x - q) ** 2, axis=1) / np.sum(x ** 2, axis=1)
    bound = (1.0 - contraction_factor(comp, 5)) + 3.0 * ratios.std() / np.sqrt(len(ratios))
    assert ratios.mean() <= bound


def test_contraction_factor_rejects_unbiased():
    with pytest.raises(ValueError):
        contraction_factor(parse_compressor("random:0.5:unbiased"), 10)


def test_contraction_monte_carlo():
    # Definition-style bound: mean relative error <= (1 - delta) + 3 se
    rng = _rng(19)
    d = 100
    for spec in ("gsgd:4", "random:0.1", "topk:0.1", "sign"):
        comp = parse_compressor(spec)
        delta = contraction_factor(comp, d)
        ratios = []
        for _ in range(300):
            x = rng.standard_normal(d)
            q = compress(comp, x, rng=rng).payload
            ratios.append(float(np.sum((x - q) ** 2) / (x @ x)))
        ratios = np.asarray(ratios)
        bound = (1.0 - delta) + 3.0 * ratios.std() / np.sqrt(len(ratios))
        assert ratios.mean() <= bound, spec


# ------------------------------------------------------------------- blocks

def test_compress_blocks_identity_matches_whole():
    x = _rng(23).standard_normal(12)
    whole = compress(parse_compressor("identity"), x)
    blocked = compress_blocks(parse_compressor("identity"), x,
                              boundaries=[0, 5, 12])
    np.testing.assert_array_equal(whole.payload, blocked.payload)
    assert blocked.bits == whole.bits


def test_compress_blocks_sign_costs_and_locality():
    x = np.array([1.0, -2.0, 3.0, 10.0, 10.0, -10.0, 10.0])
    msg = compress_blocks(parse_compressor("sign"), x, boundaries=[0, 3, 7])
    assert msg.bits == (3 + 32) + (4 + 32)
    # each block uses its own scale
    np.testing.assert_allclose(msg.payload[:3], 2.0 * np.sign(x[:3]))
    np.testing.assert_allclose(msg.payload[3:], 10.0 * np.sign(x[3:]))


def test_compress_blocks_validates_boundaries():
    x = np.ones(6)
    comp = parse_compressor("sign")
    with pytest.raises(ValueError):
        compress_blocks(comp, x, boundaries=[0, 7])
    with pytest.raises(ValueError):
        compress_blocks(comp, x, boundaries=[1, 6])
    with pytest.raises(ValueError):
        compress_blocks(comp, x, boundaries=[0, 4, 3, 6])


# every corpus spec, plus the unbiased variants
BUFFER_SPECS = ("identity", "sign", "topk:0.2", "gsgd:4", "random:0.3", "gsgd:2:unbiased",
                "random:0.4:unbiased")
# one block, the layout of make_mlp(n, input_dim=3, hidden=4), and a ragged
# layout with a 1-column block inside
LAYOUTS = (None, (0, 12, 16, 20, 21), (0, 9, 10, 21))


def _buffer_rows():
    # (6, 21) rows with a zero row and a row of ties
    x = _rng(31).standard_normal((6, 21))
    x[2] = 0.0
    x[4] = np.round(x[4])
    return x


@pytest.mark.parametrize("spec", BUFFER_SPECS)
def test_compress_blocks_into_a_caller_buffer_equals_the_fresh_payload(spec):
    comp = parse_compressor(spec)
    rows = _buffer_rows()
    for boundaries in LAYOUTS:
        for x in (rows, rows[1]):
            x_bytes = x.tobytes()
            fresh = compress_blocks(comp, x, _rng(5), boundaries)
            buf = np.full_like(x, np.nan)  # every entry must be written
            got = compress_blocks(comp, x, _rng(5), boundaries, out=buf)
            assert got.payload is buf and got.bits == fresh.bits
            assert buf.tobytes() == fresh.payload.tobytes(), boundaries
            assert x.tobytes() == x_bytes


def test_block_plans_are_keyed_by_the_compressors_values(monkeypatch):
    x = _buffer_rows()
    first = compress_blocks(Compressor("topk", fraction=0.2), x, boundaries=LAYOUTS[2])

    def compared(self, other):
        raise AssertionError("a plan lookup compared two compressors")

    # an equal compressor, a new object, finds the plan without __eq__
    monkeypatch.setattr(Compressor, "__eq__", compared)
    again = compress_blocks(Compressor("topk", fraction=0.2), x, boundaries=LAYOUTS[2])
    assert again.bits == first.bits == 6 * 64 * (1 + 1 + 2)
    assert again.payload.tobytes() == first.payload.tobytes()


@pytest.mark.parametrize("boundaries, match, dim", [
    ([0, 5], "start at 0 and end at the row length", 10),  # half a row
    ([0, 7, 3, 10], "strictly increasing", 10),
    ([0, 5, 5, 10], "strictly increasing", 10),
    ([], "start at 0 and end at the row length", 10),
    ([0, 5.0, 10], "must be integers", 10),
    ([0, True, 10], "must be integers", 10),
    (None, "dim must be an integer, got 10.0", 10.0),
    (None, "dim must be an integer, got True", True),
    ([0, 5, 10], "dim must be an integer", 10.0),
])
def test_a_bad_layout_fails_the_same_way_for_bits_delta_and_payload(boundaries, match, dim):
    sign = parse_compressor("sign")
    prices = [lambda: bit_cost(sign, dim, boundaries),
              lambda: contraction_factor(sign, dim, boundaries)]
    # an array's row length is an int; a float or bool size reaches only the pricing
    if type(dim) is int:
        prices += [lambda: compress_blocks(sign, np.ones(dim), boundaries=boundaries),
                   lambda: compress_blocks(sign, np.ones((3, dim)), boundaries=boundaries)]
    for price in prices:
        with pytest.raises(ValueError, match=match):
            price()


def test_a_float_boundary_is_refused_after_its_integer_layout_is_planned():
    # the plan cache compares keys by value, and 5.0 == 5
    sign = parse_compressor("sign")
    assert compress_blocks(sign, np.ones(10), boundaries=(0, 5, 10)).bits == 74
    for boundaries in ((0, 5.0, 10), [0, 5.0, 10], np.array([0, 5.0, 10])):
        with pytest.raises(ValueError, match="must be integers"):
            compress_blocks(sign, np.ones(10), boundaries=boundaries)


def test_a_planned_layout_is_validated_once_and_a_bad_one_every_time(monkeypatch):
    sign = parse_compressor("sign")
    for _ in range(2):  # a float, a bool or an unhashable bound misses the plan cache
        for boundaries in ([0, 3.0, 10], (0, True, 10), [0, [3], 10]):
            with pytest.raises(ValueError, match="^block boundaries must be integers$"):
                compress_blocks(sign, np.ones(10), boundaries=boundaries)
    planned = compress_blocks(sign, np.ones((2, 10)), boundaries=[0, 3, 10])
    checked = []
    monkeypatch.setattr(compression, "is_integer", lambda value: checked.append(value) or True)
    for boundaries in ([0, 3, 10], (0, 3, 10), np.array([0, 3, 10]), np.array([0, 3, 10])):
        checked.clear()
        again = compress_blocks(sign, np.ones((2, 10)), boundaries=boundaries)
        assert again.bits == planned.bits == 2 * (3 + 32 + 7 + 32)
        assert again.payload.tobytes() == planned.payload.tobytes()
    # NumPy bounds key a plan of their own, validated on its first call only
    assert checked == []


def test_bits_and_delta_read_the_payloads_blocks():
    x = _buffer_rows()
    for spec in BUFFER_SPECS:
        comp = parse_compressor(spec)
        for boundaries in LAYOUTS:
            per_row = bit_cost(comp, 21, boundaries)
            assert compress_blocks(comp, x, _rng(5), boundaries).bits == x.shape[0] * per_row
            blocks = [21] if boundaries is None else np.diff(boundaries).tolist()
            assert type(per_row) is int and per_row == sum(bit_cost(comp, d) for d in blocks)
            if not comp.unbiased:
                assert contraction_factor(comp, 21, boundaries) == min(
                    contraction_factor(comp, d) for d in blocks)
    # NumPy integer boundaries and row lengths price as the Python ints they equal
    layout = np.array(LAYOUTS[1])
    assert type(bit_cost(parse_compressor("sign"), 21, layout)) is int
    assert type(bit_cost(parse_compressor("sign"), np.int64(21))) is int


def test_compress_requires_one_dimensional_input():
    with pytest.raises(ValueError):
        compress(parse_compressor("sign"), np.ones((2, 3)))
    with pytest.raises(ValueError, match=r"^compress_blocks expects a vector or \(n, d\) rows$"):
        compress_blocks(parse_compressor("sign"), np.ones((2, 3, 4)))


def test_message_type_fields():
    msg = compress(parse_compressor("sign"), np.ones(3))
    assert isinstance(msg, CompressedMessage)
    assert isinstance(msg.bits, int)


# -------------------------------------------------------------------- table

@pytest.mark.parametrize("spec", BUFFER_SPECS)
def test_stochastic_is_the_rows_flag_and_is_what_compress_draws(spec):
    comp = parse_compressor(spec)
    assert comp.stochastic is COMPRESSOR_TABLE[comp.kind].stochastic
    rng = _rng(3)
    compress(comp, np.linspace(-1.0, 1.0, 9), rng)
    assert (rng.random() != _rng(3).random()) is comp.stochastic
    # the flag is not a field value: equality, hashing, repr and pickling are as before
    twin = Compressor(comp.kind, comp.bits, comp.fraction, comp.unbiased)
    assert comp == twin and hash(comp) == hash((comp.kind, comp.bits, comp.fraction,
                                                comp.unbiased))
    assert repr(comp) == (f"Compressor(kind={comp.kind!r}, bits={comp.bits!r}, "
                          f"fraction={comp.fraction!r}, unbiased={comp.unbiased!r})")
    assert pickle.loads(pickle.dumps(comp)).stochastic is comp.stochastic


def test_a_new_kind_is_one_kernel_and_one_row(monkeypatch):
    def halve(comp, v, rng, out):
        np.multiply(v, 0.5, out=out)

    monkeypatch.setitem(COMPRESSOR_TABLE, "half", Kind(None, False, halve,
                                                        lambda comp, d: 16 * d + 1,
                                                        lambda comp, d: 0.75))
    comp = parse_compressor("half")
    assert comp == Compressor("half") and not comp.stochastic
    x = np.arange(10.0).reshape(2, 5)
    msg = compress_blocks(comp, x, boundaries=[0, 2, 5])
    assert msg.payload.tobytes() == (x / 2).tobytes()
    assert msg.bits == 2 * bit_cost(comp, 5, [0, 2, 5]) == 2 * (33 + 49)
    assert contraction_factor(comp, 5, [0, 2, 5]) == contraction_factor(comp, 5) == 0.75
    for bad in ("half:3", "half:unbiased"):
        with pytest.raises(ValueError, match="bad compressor spec"):
            parse_compressor(bad)
    with pytest.raises(ValueError, match="half takes no fraction"):
        Compressor("half", fraction=0.5)
