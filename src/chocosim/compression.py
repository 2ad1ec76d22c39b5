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

Payloads are fresh arrays owned by the caller, each kernel writing its
block's slice; a kernel never writes to its input. The block layout of a
row and its wire size depend only on ``(comp, d, boundaries)``, so
:func:`compress_blocks` validates and prices each such triple once.
"""

import functools
from dataclasses import dataclass

import numpy as np

FLOAT_BITS = 32  # accounted wire width of one scalar / one norm
_KINDS = ("identity", "gsgd", "random", "topk", "sign")
_STOCHASTIC_KINDS = ("gsgd", "random")


@dataclass(frozen=True)
class Compressor:
    """Configured compression operator.

    ``bits`` is the quantization exponent for ``gsgd`` (levels = 2^(bits-1));
    ``fraction`` is the kept-coordinate fraction for ``random``/``topk``.
    ``unbiased`` selects the unscaled (gsgd) or rescaled (random) unbiased
    variants; the default variants are the biased, contraction-friendly ones.
    """

    kind: str
    bits: int = 0
    fraction: float = 0.0
    unbiased: bool = False

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown compressor kind {self.kind!r}")
        if self.kind == "gsgd" and self.bits < 2:
            raise ValueError("gsgd needs bits >= 2")
        if self.kind in ("random", "topk") and not (0.0 < self.fraction <= 1.0):
            raise ValueError("sparsifier fraction must be in (0, 1]")
        if self.unbiased and self.kind not in ("gsgd", "random"):
            raise ValueError(f"{self.kind} has no unbiased variant")

    @property
    def stochastic(self):
        """Whether :func:`compress` draws from its ``rng``."""
        return self.kind in _STOCHASTIC_KINDS

    def spec(self):
        """Canonical spec string, parseable by :func:`parse_compressor`."""
        suffix = ":unbiased" if self.unbiased else ""
        if self.kind == "gsgd":
            return f"gsgd:{self.bits}{suffix}"
        if self.kind in ("random", "topk"):
            return f"{self.kind}:{self.fraction:g}{suffix}"
        return self.kind


@dataclass(frozen=True)
class CompressedMessage:
    """One compressed payload plus its analytic wire size in bits."""

    payload: np.ndarray
    bits: int


def parse_compressor(text):
    """Parse spec strings like ``gsgd:4``, ``random:0.1:unbiased``, ``sign``."""
    parts = str(text).strip().split(":")
    kind = parts[0]
    unbiased = False
    if parts and parts[-1] == "unbiased":
        unbiased = True
        parts = parts[:-1]
    try:
        if kind in ("identity", "sign"):
            if len(parts) != 1 or unbiased:
                raise ValueError
            return Compressor(kind=kind)
        if kind == "gsgd":
            if len(parts) != 2:
                raise ValueError
            return Compressor(kind="gsgd", bits=int(parts[1]), unbiased=unbiased)
        if kind in ("random", "topk"):
            if len(parts) != 2 or (unbiased and kind == "topk"):
                raise ValueError
            return Compressor(kind=kind, fraction=float(parts[1]), unbiased=unbiased)
    except ValueError:
        pass
    raise ValueError(
        f"bad compressor spec {text!r}; expected identity | gsgd:<b>[:unbiased] | "
        f"random:<a>[:unbiased] | topk:<a> | sign"
    )


def _kept_count(fraction, dim):
    # floor(a*d), clamped so the operator never degenerates to zero
    return max(1, int(np.floor(fraction * dim)))


def _gsgd(v, bits, unbiased, rng, out):
    # sqrt(row @ row), the 1-D np.linalg.norm; np.linalg.norm(v, axis=1) and
    # einsum round differently
    norm = np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])
    zero = norm == 0.0
    if zero.any():
        drawn = np.flatnonzero(~zero)  # a zero row draws nothing
        uniforms = np.zeros_like(v)
        uniforms[drawn] = rng.random(drawn.size * v.shape[1]).reshape(drawn.size, v.shape[1])
        norm = np.where(zero, 1.0, norm)  # zero rows then quantize to zeros
    else:
        uniforms = rng.random(v.size).reshape(v.shape)
    norm = norm[:, None]
    levels = 2.0 ** (bits - 1)
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
    if not unbiased:
        out /= _gsgd_tau(bits, v.shape[1])


def _gsgd_tau(bits, dim):
    levels = 2.0 ** (bits - 1)
    return 1.0 + min(dim / levels**2, np.sqrt(dim) / levels)


def _sparsify(comp, v, rng, out):
    """``topk`` and ``random``: keep each row's k largest scores, ties at the
    k-th largest going to the lowest indices, the set a stable argsort of
    ``-score`` keeps. ``topk`` scores by magnitude (``fmax`` ranks a NaN
    below every number, as the sort does); ``random`` by uniform keys drawn
    as one block, whose row i is what a per-row ``rng.random(d)`` draws.

    Fast path: when every row has exactly k scores ``>= thr`` (the k-th
    largest), as continuous scores almost always do, those entries are that
    set and no tie is scanned. Otherwise a row has surplus ties at ``thr``
    (repeated values, a zero row, NaNs ranked last), and the ties are kept
    in index order up to k.
    """
    n, d = v.shape
    k = _kept_count(comp.fraction, d)
    score = np.fmax(np.abs(v), -1.0) if comp.kind == "topk" else rng.random(v.shape)
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


def _sign(v, out):
    # (sum_j |v_ij| / d) * sign(v_ij), each step after |v| in its own result
    scale = np.add.reduce(np.abs(v), axis=1)
    scale /= v.shape[1]
    np.multiply(scale[:, None], np.sign(v, out=out), out=out)


def _row_payloads(comp, v, rng, out):
    """Payload of ``comp`` applied to each row of the 2-D ``v``, the rows
    drawing from ``rng`` in row order, written into ``out`` (same shape)."""
    if comp.kind == "identity":
        np.copyto(out, v)
    elif comp.kind == "sign":
        _sign(v, out)
    elif comp.stochastic and rng is None:
        raise ValueError(f"{comp.kind} compression needs a random generator")
    elif comp.kind == "gsgd":
        _gsgd(v, comp.bits, comp.unbiased, rng, out)
    else:
        _sparsify(comp, v, rng, out)


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


@functools.cache
def _block_plan(comp, d, boundaries):
    """``(blocks, bits)`` of a row of length ``d``: its ``(start, stop)``
    blocks and the wire size of one row; ``boundaries`` is a tuple or
    ``None``. A bad layout raises each time it is asked for (a raising
    call is not cached)."""
    if d < 1:
        raise ValueError("dim must be >= 1")
    if boundaries is None:
        boundaries = (0, d)
    if boundaries[0] != 0 or boundaries[-1] != d:
        raise ValueError("block boundaries must start at 0 and end at the row length")
    blocks = tuple(zip(boundaries[:-1], boundaries[1:]))
    if any(stop <= start for start, stop in blocks):
        raise ValueError("block boundaries must be strictly increasing")
    return blocks, message_bits(comp, d, boundaries)


def compress_blocks(comp, x, rng=None, boundaries=None):
    """Compress each block of ``x`` separately, summing bit costs.

    ``x`` is one vector or ``(n, d)`` rows, and ``rng`` is one generator for
    all of them, as in :func:`compress` (``None`` for the deterministic
    kinds). Each row is compressed on its own, and ``bits`` is the total
    over rows. ``boundaries`` is an increasing index sequence ``[0, ...,
    d]`` along the last axis; ``None`` means a single block. Model
    parameters are compressed per layer this way, each block carrying its
    own norms/percentiles. Blocks draw in block order, and within a block
    the rows draw in row order: the payload equals :func:`compress` called
    block by block, row by row, on the one generator.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError("compress_blocks expects a vector or (n, d) rows")
    rows = x if x.ndim == 2 else x[None, :]
    if boundaries is not None:
        boundaries = tuple(boundaries)
    blocks, bits = _block_plan(comp, rows.shape[1], boundaries)
    payload = np.empty_like(rows)
    if len(blocks) == 1:  # no column views: a small row pays for each one
        _row_payloads(comp, rows, rng, payload)
    else:
        for start, stop in blocks:
            _row_payloads(comp, rows[:, start:stop], rng, payload[:, start:stop])
    return CompressedMessage(payload=payload if x.ndim == 2 else payload[0],
                             bits=bits * rows.shape[0])


def bit_cost(comp, dim):
    """Analytic wire size in bits of one compressed message of length ``dim``."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if comp.kind == "identity":
        return FLOAT_BITS * dim
    if comp.kind == "gsgd":
        return comp.bits * dim + FLOAT_BITS
    if comp.kind == "random":
        return FLOAT_BITS * _kept_count(comp.fraction, dim)
    if comp.kind == "topk":
        # value plus coordinate index per kept entry
        return 2 * FLOAT_BITS * _kept_count(comp.fraction, dim)
    return dim + FLOAT_BITS  # sign: one bit per coordinate plus the L1 norm


def message_bits(comp, dim, boundaries=None):
    """Wire size of one row of length ``dim`` compressed block by block
    (``boundaries`` as in :func:`compress_blocks`; ``None`` is one block)."""
    if boundaries is None:
        return bit_cost(comp, dim)
    return sum(bit_cost(comp, int(stop - start))
               for start, stop in zip(boundaries[:-1], boundaries[1:]))


def contraction_factor(comp, dim):
    """Compression quality ``delta`` in (0, 1] used by stepsize formulas.

    Worst-case value for the configured operator at dimension ``dim``:
    1 for identity, the kept fraction for the sparsifiers, ``1/tau`` for
    biased gsgd, ``1/dim`` for sign. Unbiased variants have no contraction
    guarantee and raise.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if comp.unbiased:
        raise ValueError("unbiased variants do not satisfy the contraction bound")
    if comp.kind == "identity":
        return 1.0
    if comp.kind in ("random", "topk"):
        return comp.fraction
    if comp.kind == "gsgd":
        return 1.0 / _gsgd_tau(comp.bits, dim)
    return 1.0 / dim


def sign_contraction(x):
    """Per-input contraction of the sign operator, ``||x||_1^2 / (d ||x||_2^2)``."""
    x = np.asarray(x, dtype=float)
    sq = float(np.dot(x, x))
    if sq == 0.0:
        return 1.0
    return float(np.abs(x).sum() ** 2 / (x.shape[0] * sq))
