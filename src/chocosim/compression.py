"""Lossy message compression operators and their analytic bit costs.

Five operator families: identity, stochastic b-bit quantization (``gsgd``),
uniform-random sparsification (``random``), largest-magnitude sparsification
(``topk``), and 1-bit sign with an L1 magnitude (``sign``). Payloads stay
dense float64 arrays; wire size is accounted analytically through
``bit_cost`` instead of being serialized.

Every operator runs on ``(n, d)`` rows at once, one message per row; a
single vector is the one-row case. The stochastic kinds draw every row's
randomness from one ``numpy.random.Generator``, ``rng``, row by row in row
order, so a block of rows compressed at once equals, bit for bit, the rows
compressed one after another from that generator. A one-row call draws
exactly what the 1-D operator draws. ``topk`` and ``random`` share one
selection kernel: a row keeps its k largest magnitudes, or its k largest
uniform keys, drawn as one ``(n, d)`` block per message block.

Every kind is one row of :data:`COMPRESSOR_TABLE`, the one place that says
what it does, and its kernel: adding a kind adds a kernel and a row.

Payloads are fresh arrays owned by the caller, or a buffer the caller
passes as ``out``, each kernel writing its block's slice; a kernel never
writes to its input. The block layout of a row and its wire size depend
only on ``(comp, d, boundaries)``, so :func:`compress_blocks` validates and
prices each such triple once, keyed by the compressor's field values and
the bounds' values and types; the bits and the worst-case delta read the
same validated layout.
"""

import functools
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .numerics import is_integer, is_number, row_dots

FLOAT_BITS = 32  # accounted wire width of one scalar / one norm


@dataclass(frozen=True)
class Compressor:
    """Configured compression operator.

    ``bits`` is the quantization exponent for ``gsgd`` (levels = 2^(bits-1));
    ``fraction`` is the kept-coordinate fraction for ``random``/``topk``.
    ``unbiased`` selects the unscaled (gsgd) or rescaled (random) unbiased
    variants; the default variants are the biased, contraction-friendly ones.
    A kind that does not take ``bits`` or ``fraction`` leaves it at 0.
    ``stochastic``, set from the kind's row and neither compared nor hashed,
    is whether :func:`compress` draws from its ``rng``.
    """

    kind: str
    bits: int = 0
    fraction: float = 0.0
    unbiased: bool = False
    stochastic: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in COMPRESSOR_TABLE:
            raise ValueError(f"unknown compressor kind {self.kind!r}")
        takes = COMPRESSOR_TABLE[self.kind].takes
        # a float64 significand holds 53 bits: more levels quantize nothing,
        # and from 513 bits on the levels' square overflows
        if takes == "bits" and not (is_integer(self.bits) and 2 <= self.bits <= 64):
            raise ValueError("gsgd needs an integer bits in [2, 64]")
        if takes == "fraction" and not (is_number(self.fraction) and 0.0 < self.fraction <= 1.0):
            raise ValueError("sparsifier fraction must be a number in (0, 1]")
        for name in ("bits", "fraction"):
            if name != takes and getattr(self, name) != 0:
                raise ValueError(f"{self.kind} takes no {name}")
        object.__setattr__(self, "stochastic", COMPRESSOR_TABLE[self.kind].stochastic)
        if self.unbiased and not self.stochastic:  # the kinds that draw have an unbiased variant
            raise ValueError(f"{self.kind} has no unbiased variant")


@dataclass(frozen=True)
class CompressedMessage:
    """One compressed payload plus its analytic wire size in bits."""

    payload: np.ndarray
    bits: int


def parse_compressor(text):
    """Parse a spec ``kind[:arg][:unbiased]``, like ``gsgd:4``,
    ``random:0.1:unbiased`` or ``sign``: ``arg`` sets the field the kind
    takes, read as that field's type, and :class:`Compressor` checks the rest."""
    kind, *args = str(text).strip().split(":")
    unbiased = args[-1:] == ["unbiased"]
    takes = COMPRESSOR_TABLE[kind].takes if kind in COMPRESSOR_TABLE else None
    try:
        if len(args) - unbiased != (takes is not None):
            raise ValueError
        fields = {takes: type(getattr(Compressor, takes))(args[0])} if takes else {}
        return Compressor(kind, unbiased=unbiased, **fields)
    except ValueError:
        raise ValueError(f"bad compressor spec {text!r}; expected identity | gsgd:<b>[:unbiased] "
                         "| random:<a>[:unbiased] | topk:<a> | sign (b: an integer in [2, 64]; "
                         "a: a number in (0, 1])") from None


def _kept_count(comp, dim):
    # floor(a*d), clamped so the operator never degenerates to zero
    return max(1, int(np.floor(comp.fraction * dim)))


def _gsgd(comp, v, rng, out):
    norm = np.sqrt(row_dots(v))  # each row's 1-D np.linalg.norm
    zero = norm == 0.0
    if zero.any():
        drawn = np.flatnonzero(~zero)  # a zero row draws nothing
        uniforms = np.zeros_like(v)
        uniforms[drawn] = rng.random(drawn.size * v.shape[1]).reshape(drawn.size, v.shape[1])
        norm = np.where(zero, 1.0, norm)  # zero rows then quantize to zeros
    else:
        uniforms = rng.random(v.size).reshape(v.shape)
    norm = norm[:, None]
    levels = 2.0 ** (comp.bits - 1)
    # norm * sig(v) * floor(levels * |v| / norm + u) / levels, each step in
    # place: a fresh (n, d) temporary costs more than the arithmetic on it.
    # levels * |v| / norm is formed in out, which then takes sig(v); sig(0)
    # = +1 and sig(NaN) = -1, the signs np.where(v >= 0, 1, -1) gives.
    np.abs(v, out=out)
    out *= levels
    out /= norm
    uniforms += out
    np.copyto(out, ~(v >= 0.0))
    out *= -2.0
    out += 1.0
    out *= norm
    out *= np.floor(uniforms, out=uniforms)
    out /= levels
    if not comp.unbiased:
        out /= _gsgd_tau(comp.bits, v.shape[1])


def _gsgd_tau(bits, dim):
    levels = 2.0 ** (bits - 1)
    return 1.0 + min(dim / levels**2, np.sqrt(dim) / levels)


def _sparsify(comp, v, rng, out):
    """``topk`` and ``random``: keep each row's k largest scores, ties at the
    k-th largest going to the lowest indices, the set a stable argsort of
    ``-score`` keeps. The deterministic ``topk`` scores by magnitude
    (``fmax`` ranks a NaN below every number, as the sort does); the
    stochastic ``random`` by uniform keys drawn as one block, whose row i is
    what a per-row ``rng.random(d)`` draws.

    Fast path: when every row has exactly k scores ``>= thr`` (the k-th
    largest), as continuous scores almost always do, those entries are that
    set and no tie is scanned. Otherwise a row has surplus ties at ``thr``
    (repeated values, a zero row, NaNs ranked last), and the ties are kept
    in index order up to k.
    """
    n, d = v.shape
    k = _kept_count(comp, d)
    score = rng.random(v.shape) if comp.stochastic else np.fmax(np.abs(v), -1.0)
    part = score.copy()
    part.partition(d - k, axis=1)
    thr = part[:, d - k, None]
    keep = score >= thr
    # every row keeps at least its k scores >= thr, so n * k means exactly k each
    if np.count_nonzero(keep) != n * k:
        above = score > thr
        tied = score == thr
        room = k - np.count_nonzero(above, axis=1)[:, None]
        keep = above | (tied & (np.cumsum(tied, axis=1) <= room))
    out[...] = 0.0
    np.copyto(out, v, where=keep)
    if comp.unbiased:
        out *= d / k


def _sign(comp, v, rng, out):
    # (sum_j |v_ij| / d) * sign(v_ij), each step after |v| in its own result
    scale = np.add.reduce(np.abs(v), axis=1)
    scale /= v.shape[1]
    np.multiply(scale[:, None], np.sign(v, out=out), out=out)


# every kind: the field its spec argument sets, or None when it takes none;
# whether its kernel draws from the rng; its kernel(comp, v, rng, out), which
# writes the payload of each row of the 2-D v into out, the rows drawing from
# rng in row order; the wire bits(comp, d) of one block of length d; and the
# worst-case delta(comp, d) of one such block
Kind = namedtuple("Kind", "takes stochastic kernel bits delta")
COMPRESSOR_TABLE = {
    "identity": Kind(None, False, lambda comp, v, rng, out: np.copyto(out, v),
                     lambda comp, d: FLOAT_BITS * d, lambda comp, d: 1.0),
    "gsgd": Kind("bits", True, _gsgd, lambda comp, d: comp.bits * d + FLOAT_BITS,
                 lambda comp, d: 1.0 / _gsgd_tau(comp.bits, d)),
    "random": Kind("fraction", True, _sparsify, lambda comp, d: FLOAT_BITS * _kept_count(comp, d),
                   lambda comp, d: _kept_count(comp, d) / d),
    # value plus coordinate index per kept entry
    "topk": Kind("fraction", False, _sparsify,
                 lambda comp, d: 2 * FLOAT_BITS * _kept_count(comp, d),
                 lambda comp, d: _kept_count(comp, d) / d),
    # one bit per coordinate plus the L1 norm
    "sign": Kind(None, False, _sign, lambda comp, d: d + FLOAT_BITS, lambda comp, d: 1.0 / d),
}


def compress(comp, x, rng=None):
    """Apply ``comp`` to a 1-D vector; returns a :class:`CompressedMessage`.

    ``rng`` (a ``numpy.random.Generator``) is required for the stochastic
    kinds (``gsgd``, ``random``; see :attr:`Compressor.stochastic`) and
    ignored by the deterministic ones. It is the one-block, one-row case of
    :func:`compress_blocks`, which rows of a matrix go through.
    """
    if np.ndim(x) != 1:
        raise ValueError("compress expects a 1-D vector")
    return compress_blocks(comp, x, rng)


def _check_dim(dim):
    if not is_integer(dim):  # a float or bool row length is refused, never priced
        raise ValueError(f"dim must be an integer, got {dim!r}")
    if dim < 1:
        raise ValueError("dim must be >= 1")


def _layout(d, boundaries):
    """The ``(start, stop)`` blocks, Python ints, of a row of length ``d``
    (``boundaries`` as in :func:`compress_blocks`): the one reading of a
    layout, so bits, deltas and payloads take the same blocks and a bad
    layout fails the same way for each."""
    _check_dim(d)
    if boundaries is None:
        return ((0, d),)
    bounds = list(boundaries)
    if not all(map(is_integer, bounds)):
        raise ValueError("block boundaries must be integers")
    bounds = list(map(int, bounds))
    if not bounds or bounds[0] != 0 or bounds[-1] != d:
        raise ValueError("block boundaries must start at 0 and end at the row length")
    blocks = tuple(zip(bounds[:-1], bounds[1:]))
    if any(stop <= start for start, stop in blocks):
        raise ValueError("block boundaries must be strictly increasing")
    return blocks


@functools.cache
def _block_plan(kind, bits, fraction, unbiased, d, boundaries, types):
    """``(blocks, bits)`` of a row of length ``d`` under the compressor with
    these field values: its :func:`_layout` and the wire size of one row;
    ``boundaries`` is a tuple or ``None``, ``types`` its bounds' types. The
    key is the field values, not a :class:`Compressor`, so a hit hashes and
    compares them without the dataclass's Python-level ``__hash__`` and
    ``__eq__``; the types are in it because 5.0 == 5 and True == 1, so a
    float or bool bound misses. A layout is validated on a miss, and a bad
    one raises each time it is asked for (a raising call is not cached)."""
    comp = Compressor(kind, bits, fraction, unbiased)
    return _layout(d, boundaries), message_bits(comp, d, boundaries)


def compress_blocks(comp, x, rng=None, boundaries=None, out=None):
    """Compress each block of ``x`` separately, summing bit costs.

    ``x`` is one vector or ``(n, d)`` rows, and ``rng`` is one generator for
    all of them, as in :func:`compress` (``None`` for the deterministic
    kinds). Each row is compressed on its own, and ``bits`` is the total
    over rows. ``boundaries`` is an increasing index sequence ``[0, ...,
    d]`` along the last axis; ``None`` means a single block. Model
    parameters are compressed per layer this way, each block carrying its
    own norms/percentiles. Blocks draw in block order, and within a block
    the rows draw in row order: the payload equals :func:`compress` called
    block by block, row by row, on the one generator. The payload is a
    fresh array, or ``out``, a float buffer of ``x``'s shape that the caller
    owns and that is not ``x``: every entry is written, with the same
    floats.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError("compress_blocks expects a vector or (n, d) rows")
    rows = x if x.ndim == 2 else x[None, :]
    if boundaries is not None:
        boundaries = tuple(boundaries)
    try:
        blocks, bits = _block_plan(comp.kind, comp.bits, comp.fraction, comp.unbiased,
                                   rows.shape[1], boundaries, tuple(map(type, boundaries or ())))
    except TypeError:  # an unhashable bound is refused as any bound that is no integer
        _layout(rows.shape[1], boundaries)
        raise
    kernel = COMPRESSOR_TABLE[comp.kind].kernel
    if comp.stochastic and rng is None:
        raise ValueError(f"{comp.kind} compression needs a random generator")
    if out is None:
        out = np.empty_like(x)
    payload = out if x.ndim == 2 else out[None, :]
    if len(blocks) == 1:  # no column views: a small row pays for each one
        kernel(comp, rows, rng, payload)
    else:
        # each block in contiguous buffers: in-place ufuncs run slower on strided slices
        for start, stop in blocks:
            block = rows[:, start:stop].copy()
            part = np.empty_like(block)
            kernel(comp, block, rng, part)
            payload[:, start:stop] = part
    return CompressedMessage(payload=out, bits=bits * rows.shape[0])


def bit_cost(comp, dim):
    """Analytic wire size in bits of one compressed message of length ``dim``."""
    _check_dim(dim)
    return COMPRESSOR_TABLE[comp.kind].bits(comp, dim)


def message_bits(comp, dim, boundaries=None):
    """Wire size of one row of length ``dim`` compressed block by block
    (``boundaries`` as in :func:`compress_blocks`; ``None`` is one block)."""
    return sum(bit_cost(comp, stop - start) for start, stop in _layout(dim, boundaries))


def effective_contraction(comp, dim, boundaries=None):
    """Worst-case compression quality across blocks (min over block deltas),
    ``boundaries`` as in :func:`message_bits`."""
    return min(contraction_factor(comp, stop - start) for start, stop in _layout(dim, boundaries))


def contraction_factor(comp, dim):
    """Compression quality ``delta`` in (0, 1] used by stepsize formulas.

    Worst-case value for the configured operator at dimension ``dim``:
    1 for identity, ``k/dim`` for the sparsifiers, k the count they keep
    and :func:`bit_cost` prices, ``1/tau`` for biased gsgd, ``1/dim`` for
    sign. Unbiased variants have no contraction guarantee and raise.
    """
    _check_dim(dim)
    if comp.unbiased:
        raise ValueError("unbiased variants do not satisfy the contraction bound")
    return COMPRESSOR_TABLE[comp.kind].delta(comp, dim)


def sign_contraction(x):
    """Per-input contraction of the sign operator, ``||x||_1^2 / (d ||x||_2^2)``."""
    x = np.asarray(x, dtype=float)
    sq = float(np.dot(x, x))
    if sq == 0.0:
        return 1.0
    return float(np.abs(x).sum() ** 2 / (x.shape[0] * sq))
