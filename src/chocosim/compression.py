"""Lossy message compression operators and their analytic bit costs.

Five operator families: identity, stochastic b-bit quantization (``gsgd``),
uniform-random sparsification (``random``), largest-magnitude sparsification
(``topk``), and 1-bit sign with an L1 magnitude (``sign``). Payloads stay
dense float64 arrays; wire size is accounted analytically through
``bit_cost`` instead of being serialized.
"""

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


def _gsgd(x, bits, unbiased, rng):
    norm = np.linalg.norm(x)
    if norm == 0.0:
        return np.zeros_like(x)
    levels = 2.0 ** (bits - 1)
    sig = np.where(x >= 0.0, 1.0, -1.0)  # sig(0) = +1
    quantized = np.floor(levels * np.abs(x) / norm + rng.random(x.shape[0]))
    out = norm * sig * quantized / levels
    if not unbiased:
        out = out / _gsgd_tau(bits, x.shape[0])
    return out


def _gsgd_tau(bits, dim):
    levels = 2.0 ** (bits - 1)
    return 1.0 + min(dim / levels**2, np.sqrt(dim) / levels)


def _random_sparsify(x, fraction, unbiased, rng):
    k = _kept_count(fraction, x.shape[0])
    idx = rng.choice(x.shape[0], size=k, replace=False)
    out = np.zeros_like(x)
    out[idx] = x[idx]
    if unbiased:
        out *= x.shape[0] / k
    return out


def _topk(x, fraction):
    k = _kept_count(fraction, x.shape[0])
    # stable sort on -|x|: ties at the threshold keep the lowest index
    order = np.argsort(-np.abs(x), kind="stable")[:k]
    out = np.zeros_like(x)
    out[order] = x[order]
    return out


def _sign(x):
    return (np.abs(x).sum() / x.shape[0]) * np.sign(x)


def compress(comp, x, rng=None):
    """Apply ``comp`` to a 1-D vector; returns a :class:`CompressedMessage`.

    ``rng`` (a ``numpy.random.Generator``) is required for the stochastic
    kinds (``gsgd``, ``random``; see :attr:`Compressor.stochastic`) and
    ignored by the deterministic ones.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("compress expects a 1-D vector")
    d = x.shape[0]
    if comp.kind == "identity":
        payload = x.copy()
    elif comp.kind == "gsgd":
        payload = _gsgd(x, comp.bits, comp.unbiased, _require_rng(rng, comp))
    elif comp.kind == "random":
        payload = _random_sparsify(x, comp.fraction, comp.unbiased, _require_rng(rng, comp))
    elif comp.kind == "topk":
        payload = _topk(x, comp.fraction)
    else:
        payload = _sign(x)
    return CompressedMessage(payload=payload, bits=bit_cost(comp, d))


def _require_rng(rng, comp):
    if rng is None:
        raise ValueError(f"{comp.kind} compression needs a random generator")
    return rng


def compress_blocks(comp, x, rng=None, boundaries=None):
    """Compress each block of ``x`` separately, summing bit costs.

    ``boundaries`` is an increasing index sequence ``[0, ..., d]``; ``None``
    means a single block. Model parameters are compressed per layer this
    way, each block carrying its own norms/percentiles.
    """
    x = np.asarray(x, dtype=float)
    if boundaries is None:
        return compress(comp, x, rng)
    if boundaries[0] != 0 or boundaries[-1] != x.shape[0]:
        raise ValueError("block boundaries must start at 0 and end at len(x)")
    if len(boundaries) == 2:
        return compress(comp, x, rng)
    payload = np.empty_like(x)
    bits = 0
    for start, stop in zip(boundaries[:-1], boundaries[1:]):
        if stop <= start:
            raise ValueError("block boundaries must be strictly increasing")
        msg = compress(comp, x[start:stop], rng)
        payload[start:stop] = msg.payload
        bits += msg.bits
    return CompressedMessage(payload=payload, bits=bits)


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
