"""Property tests over generated inputs: the compression operators, and
the degrees, connectivity and mixing weights of graphs."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from chocosim.compression import (bit_cost, compress, compress_blocks,  # noqa: E402
                                  contraction_factor, parse_compressor)
from chocosim.numerics import RandomStream  # noqa: E402
from chocosim.topology import (Graph, from_edge_list, fully_connected,  # noqa: E402
                               mixing_matrix, ring, torus)

SPECS = ("identity", "sign", "topk:0.3", "topk:0.5", "gsgd:2", "gsgd:4",
         "gsgd:3:unbiased", "random:0.3", "random:0.5:unbiased")
# small integers make ties and all-zero blocks common; magnitudes stay far
# from underflow so the energy bounds need only a relative slack
VALUES = st.one_of(st.floats(1e-6, 1e3), st.floats(-1e3, -1e-6),
                   st.integers(-2, 2).map(float))


@st.composite
def blocked_rows(draw, max_rows=5, max_dim=24):
    n = draw(st.integers(1, max_rows))
    d = draw(st.integers(1, max_dim))
    rows = draw(arrays(np.float64, (n, d), elements=VALUES))
    cuts = draw(st.sets(st.integers(1, d - 1), max_size=4)) if d > 1 else set()
    return rows, [0, *sorted(cuts), d]


def _rng(seed):
    return RandomStream(seed, 0, "compress").at(0)


@settings(max_examples=80, deadline=None)
@given(spec=st.sampled_from(SPECS), data=blocked_rows(max_rows=1), seed=st.integers(0, 2**32))
def test_block_compression_is_the_concatenation_of_per_block_compression(spec, data, seed):
    comp = parse_compressor(spec)
    rows, boundaries = data
    x = rows[0]
    msg = compress_blocks(comp, x, _rng(seed), boundaries)
    rng = _rng(seed)
    parts = [compress(comp, x[a:b], rng) for a, b in zip(boundaries[:-1], boundaries[1:])]
    assert np.array_equal(msg.payload, np.concatenate([p.payload for p in parts]))
    assert msg.bits == sum(p.bits for p in parts)


@settings(max_examples=80, deadline=None)
@given(spec=st.sampled_from(SPECS), data=blocked_rows(), seed=st.integers(0, 2**32))
def test_row_batched_equals_per_row(spec, data, seed):
    # rows share one generator: block by block, row after row
    comp = parse_compressor(spec)
    rows, boundaries = data
    msg = compress_blocks(comp, rows, _rng(seed), boundaries)
    rng = _rng(seed)
    blocks = [[compress(comp, row[a:b], rng) for row in rows]
              for a, b in zip(boundaries[:-1], boundaries[1:])]
    payload = np.concatenate([np.stack([m.payload for m in block]) for block in blocks], axis=1)
    assert np.array_equal(msg.payload, payload)
    assert msg.bits == sum(m.bits for block in blocks for m in block)


@settings(max_examples=120, deadline=None)
@given(spec=st.sampled_from(SPECS), x=arrays(np.float64, st.integers(1, 40), elements=VALUES),
       seed=st.integers(0, 2**32))
def test_per_draw_contraction_bound(spec, x, seed):
    comp = parse_compressor(spec)
    q = compress(comp, x, _rng(seed)).payload
    d = x.shape[0]
    sq = float(x @ x)
    err = float(np.sum((x - q) ** 2))
    slack = 1e-12 * sq
    if comp.kind == "identity":
        assert np.array_equal(q, x)
    elif comp.kind == "sign":
        # ||x - Q(x)||^2 = ||x||^2 - ||x||_1^2 / d <= (1 - 1/d) ||x||^2 on every input
        assert err <= (1.0 - contraction_factor(comp, d)) * sq + slack
    elif comp.kind == "topk":
        # keeping the k largest magnitudes keeps at least delta = k/d of the energy
        assert err <= (1.0 - contraction_factor(comp, d)) * sq + slack
    elif comp.kind == "random":
        # a draw keeps at most k coordinates exactly (rescaled by d/k when unbiased)
        kept = max(1, int(np.floor(comp.fraction * d)))
        support = q != 0.0
        assert support.sum() <= kept
        assert np.array_equal(q[support], x[support] * (d / kept if comp.unbiased else 1.0))
        if not comp.unbiased:
            # err drops terms of x's sum of squares; against that sum taken in
            # the same order the bound is exact, while x @ x (ddot) rounds
            # differently and can sit one ulp below err
            assert err <= float(np.sum(x ** 2))
    else:
        # every coordinate lands within one grid step ||x|| / 2^(b-1) of x
        # (of x / tau for the biased variant), so the unbiased error is at
        # most d / 4^(b-1) ||x||^2
        levels = 2.0 ** (comp.bits - 1)
        tau = 1.0 if comp.unbiased else 1.0 + min(d / levels**2, np.sqrt(d) / levels)
        gap = np.abs(q * tau - x)
        assert np.all(gap <= np.sqrt(sq) / levels * (1.0 + 1e-12))
        assert float(gap @ gap) <= d / levels**2 * sq * (1.0 + 1e-12)


# few distinct magnitudes, zeros and NaN included: ties at the k-th largest
# are common
TIED = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -0.5, np.nan])


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(1, 6).flatmap(lambda n: st.integers(1, 30).flatmap(
           lambda d: arrays(np.float64, (n, d), elements=st.one_of(TIED, VALUES)))),
       fraction=st.sampled_from([0.01, 0.1, 0.3, 0.5, 0.9, 1.0]))
def test_topk_keeps_the_stable_argsort_set(rows, fraction):
    comp = parse_compressor(f"topk:{fraction}")
    got = compress_blocks(comp, rows).payload
    k = max(1, int(np.floor(fraction * rows.shape[1])))
    want = np.zeros_like(rows)
    for i, row in enumerate(rows):
        # literal reference: a stable sort of -|v| keeps the lowest index of a tie
        keep = np.argsort(-np.abs(row), kind="stable")[:k]
        want[i, keep] = row[keep]
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@settings(max_examples=120, deadline=None)
@given(data=blocked_rows(max_rows=6, max_dim=40),
       fraction=st.sampled_from([0.01, 0.1, 0.3, 0.5, 0.9, 1.0]), seed=st.integers(0, 2**32))
def test_random_keeps_exactly_k_entries_of_each_row(data, fraction, seed):
    rows = data[0]
    rows[rows == 0.0] = 1.0  # no zeros: a kept entry is a nonzero one
    comp = parse_compressor(f"random:{fraction}")
    got = compress_blocks(comp, rows, _rng(seed)).payload
    k = max(1, int(np.floor(fraction * rows.shape[1])))
    kept = got != 0.0
    assert (kept.sum(axis=1) == k).all()
    assert np.array_equal(got[kept], rows[kept])


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 10**7), bits=st.integers(2, 64),
       fraction=st.floats(0.0, 1.0, exclude_min=True), unbiased=st.booleans())
def test_bit_cost_is_the_readme_table(d, bits, fraction, unbiased):
    # README "Compressor specs": bits per message of length d, with
    # k = max(1, floor(a * d)); the unbiased variants cost the same
    k = max(1, math.floor(fraction * d))
    suffix = ":unbiased" if unbiased else ""
    table = {
        "identity": 32 * d,
        f"gsgd:{bits}{suffix}": bits * d + 32,
        f"random:{fraction!r}{suffix}": 32 * k,
        f"topk:{fraction!r}": 64 * k,
        "sign": d + 32,
    }
    for spec, expected in table.items():
        assert bit_cost(parse_compressor(spec), d) == expected, spec


# ------------------------------------------------------------------ graphs

def _reference_graph(graph):
    """``(degrees, connected, w)`` by the per-edge loops they were first
    written as; ``w`` is None for a disconnected graph."""
    deg = np.zeros(graph.n, dtype=int)
    for i, j in graph.edges:
        deg[i] += 1
        deg[j] += 1
    adj = [[] for _ in range(graph.n)]
    for i, j in graph.edges:
        adj[i].append(j)
        adj[j].append(i)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) < graph.n:
        return deg, False, None
    w = np.zeros((graph.n, graph.n))
    for i, j in graph.edges:
        w[i, j] = w[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return deg, True, w


def _reference_validation(n, edges):
    """The message of the first rule the first failing edge breaks, checked
    edge by edge; None for a valid edge tuple."""
    seen = set()
    for i, j in edges:
        if any(type(v) is not int for v in (i, j)):  # a float or a bool
            return f"edge ({i}, {j}) has a non-integer endpoint"
        if not (0 <= i < n and 0 <= j < n):
            return f"edge ({i}, {j}) out of range for n={n}"
        if i == j:
            return f"self-loop ({i}, {j}) not allowed"
        if i > j:
            return "edges must be stored as (i, j) with i < j"
        if (i, j) in seen:
            return f"duplicate edge ({i}, {j})"
        seen.add((i, j))
    return None


@st.composite
def graphs(draw):
    """Edge lists on 1 to 12 nodes (often disconnected, sometimes full),
    and the ring, torus and full generators."""
    kind = draw(st.sampled_from(["edges", "edges", "ring", "torus", "full"]))
    if kind == "ring":
        return ring(draw(st.integers(2, 40)))
    if kind == "torus":
        return torus(draw(st.sampled_from([9, 16, 25, 36])))
    if kind == "full":
        return fully_connected(draw(st.integers(1, 24)))
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return from_edge_list(n, draw(st.lists(st.sampled_from(pairs), max_size=3 * n))
                          if pairs else [])


@settings(max_examples=200, deadline=None)
@given(graph=graphs())
def test_graph_quantities_equal_the_per_edge_loops(graph):
    deg, connected, w = _reference_graph(graph)
    assert graph.degrees().dtype == deg.dtype and np.array_equal(graph.degrees(), deg)
    assert graph.is_connected() is connected
    if connected:
        assert mixing_matrix(graph).w.tobytes() == w.tobytes()
    else:
        with pytest.raises(ValueError, match="graph must be connected"):
            mixing_matrix(graph)


# mostly integers; now and then a float (integral or not) or a bool, which
# an integer array would truncate to an endpoint
ENDPOINTS = st.one_of(st.integers(-1, 6), st.integers(-1, 6), st.integers(-1, 6),
                      st.sampled_from([0.5, 2.0, -0.5, True, False]))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 6), edges=st.lists(st.tuples(ENDPOINTS, ENDPOINTS), max_size=8))
@example(n=3, edges=[(0.5, 2)])
@example(n=3, edges=[(True, 2)])
def test_graph_validation_names_the_first_failing_edge_and_rule(n, edges):
    expected = _reference_validation(n, edges)
    if expected is None:
        assert Graph(n, tuple(edges)).edges == tuple(edges)
    else:
        with pytest.raises(ValueError) as info:
            Graph(n, tuple(edges))
        assert str(info.value) == expected
