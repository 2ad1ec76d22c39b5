"""Shared numerical kernel: deterministic random streams and the symmetric
eigenvalues of LAPACK's ``eigvalsh``, with no cap on the matrix size.

Conventions used across the package: vectors are 1-D ``float64`` arrays,
per-node iterate blocks are ``(n_nodes, dim)`` ``float64`` arrays, square
matrices are ``(n, n)`` ``float64`` arrays. Helpers here raise instead of
letting NaN/Inf propagate silently.

Random streams: one stream per ``(seed, worker, purpose)`` and one
substream per iteration ``t`` of it, ``Philox`` keyed by NumPy's
``SeedSequence(seed, spawn_key=(worker, crc32(purpose), t + 1))``. Philox is
counter based, so streams never overlap however many draws other streams
consume. Its key is a pure function of the spawn key, so
:func:`substream_keys` computes the keys of a block of iterations in one
vectorized pass, bit for bit what ``SeedSequence`` gives, and
:meth:`RandomStream.at` derives them ``KEY_BLOCK`` iterations at a time with
no change to any draw. The run loop derives no compression substreams for
deterministic compressors, which never draw from them. Seeds are
non-negative, and ``t + 1`` must fit one 32-bit word, so ``t`` runs from 0 to
``MAX_ITERATION`` = 2**32 - 2.
"""

import zlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

MAX_ITERATION = 2**32 - 2  # t + 1 is one uint32 word of the spawn key
KEY_BLOCK = 64  # iterations whose keys RandomStream.at derives together

# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK = 0xFFFFFFFF
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)  # Philox copies it


def _purpose_code(purpose):
    # stable across processes and platforms, unlike hash()
    return zlib.crc32(purpose.encode("utf-8"))


def _uint32_words(n):
    # SeedSequence's encoding of a non-negative int: little-endian 32-bit words
    words = [n & _MASK]
    while n >> 32:
        n >>= 32
        words.append(n & _MASK)
    return words


# The helpers below take Python ints below 2**32 or uint32 arrays, so words
# that are the same for every substream stay cheap scalars.

def _wrap(value):
    # Python ints are reduced mod 2**32; uint32 arrays wrap by themselves
    return value & _MASK if isinstance(value, int) else value


def _hash_chain(init, mult):
    # SeedSequence's running hash constant, (before, after) for each use
    h = init
    while True:
        after = h * mult & _MASK
        yield h, after
        h = after


def _hashmix(value, chain):
    before, after = next(chain)
    value = _wrap((value ^ before) * after)
    return value ^ (value >> 16)


def _mix(x, y):
    result = _wrap(_wrap(_MIX_MULT_L * x) - _wrap(_MIX_MULT_R * y))
    return result ^ (result >> 16)


def _word(values, name, limit):
    values = np.asarray(values)
    if values.dtype.kind not in "iu" or (values.size and not (
            0 <= values.min() and values.max() <= limit)):
        raise ValueError(f"{name} must be integers in [0, {limit}]")
    return int(values) if values.ndim == 0 else values.astype(np.uint32)


def substream_keys(seed, workers, purpose, iterations):
    """Philox keys of the substreams ``(seed, worker, purpose, iteration)``.

    Equal, word for word, to ``SeedSequence(seed, spawn_key=(worker,
    crc32(purpose), iteration + 1)).generate_state(2, np.uint64)``, computed
    for all workers and iterations at once. ``workers`` and ``iterations``
    broadcast against each other; the result is a ``uint64`` array of their
    broadcast shape plus a trailing axis of 2.
    """
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError("seed must be a non-negative integer")
    shape = np.broadcast_shapes(np.shape(workers), np.shape(iterations))
    iterations = _word(iterations, "iterations", MAX_ITERATION)
    run_entropy = _uint32_words(int(seed))
    # a spawn key follows a run entropy zero-padded to the pool size
    entropy = run_entropy + [0] * (_POOL_SIZE - len(run_entropy)) + [
        _word(workers, "workers", _MASK), _purpose_code(purpose), iterations + 1]

    chain = _hash_chain(_INIT_A, _MULT_A)
    pool = [_hashmix(word, chain) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], chain))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, chain))

    # generate_state(2, uint64): four uint32 words, read as two little-endian uint64
    chain = _hash_chain(_INIT_B, _MULT_B)
    state = [np.asarray(_hashmix(word, chain), dtype=np.uint64) for word in pool]
    keys = np.empty(shape + (2,), dtype=np.uint64)
    keys[..., 0] = state[0] | state[1] << np.uint64(32)
    keys[..., 1] = state[2] | state[3] << np.uint64(32)
    return keys


class _PhiloxKey(ISeedSequence):
    """Seeds ``Philox`` with a precomputed key; ``Philox(key=...)`` would
    first build a throwaway ``SeedSequence`` from OS entropy."""

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def _draw_count(size):
    # draws are 1-D by convention; (n, dim) blocks are built by stacking
    if not isinstance(size, (int, np.integer)):
        raise TypeError(f"size must be a single integer count, got {size!r}")
    if size < 0:
        raise ValueError("size must be >= 0")
    return int(size)


class RandomStream:
    """Replayable, splittable source of randomness.

    A stream is identified by ``(seed, worker, purpose)``. Two streams with
    the same identity replay the same sequence; streams with different
    identities are statistically independent. :meth:`at` derives the
    substream for one iteration index, so randomness consumed elsewhere can
    never shift what iteration ``t`` sees.

    Parameters
    ----------
    seed : int
        Root seed, any non-negative Python int (64-bit range is typical).
    worker : int, optional
        Node index the stream belongs to.
    purpose : str, optional
        Free-form tag, e.g. ``"grad"`` or ``"compress"``.
    """

    def __init__(self, seed, worker=0, purpose="main"):
        if not isinstance(seed, (int, np.integer)):
            raise TypeError("seed must be an integer")
        if seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if worker < 0:
            raise ValueError("worker index must be >= 0")
        self.seed = int(seed)
        self.worker = int(worker)
        self.purpose = str(purpose)
        self.counter = 0
        self._generator = np.random.Generator(np.random.Philox(self._key()))
        self._block = None  # index of the key block cached in _keys
        self._keys = None

    def _key(self):
        spawn = (self.worker, _purpose_code(self.purpose))
        return np.random.SeedSequence(self.seed, spawn_key=spawn)

    def normal(self, size, std=1.0):
        """Draw ``size`` i.i.d. zero-mean normal entries with deviation ``std``.

        Advances the draw counter by ``size``. ``std = 0`` returns exact
        zeros (and still advances, so replay alignment is preserved).
        """
        size = _draw_count(size)
        if std < 0:
            raise ValueError("std must be >= 0")
        self.counter += size
        return std * self._generator.standard_normal(size)

    def uniform(self, size):
        """Draw ``size`` i.i.d. uniform [0, 1) entries; advances the counter."""
        size = _draw_count(size)
        self.counter += size
        return self._generator.random(size)

    # numpy.random.Generator-compatible aliases, so a RandomStream can be
    # passed anywhere a Generator is expected (e.g. compression).
    def random(self, size):
        return self.uniform(size)

    def choice(self, n, size, replace=False):
        size = _draw_count(size)
        self.counter += size
        return self._generator.choice(int(n), size=size, replace=replace)

    def standard_normal(self, size):
        return self.normal(size)

    def integers(self, low, high, size):
        size = _draw_count(size)
        self.counter += size
        return self._generator.integers(low, high, size=size)

    def at(self, iteration):
        """Return a fresh ``numpy.random.Generator`` for one iteration.

        The substream depends only on ``(seed, worker, purpose, iteration)``,
        never on how many draws were made from this or any other stream:
        ``Philox`` keyed by ``SeedSequence(seed, spawn_key=(worker,
        crc32(purpose), iteration + 1))``. Keys are derived
        ``KEY_BLOCK`` iterations at a time; ``iteration`` must be in
        ``[0, MAX_ITERATION]``.
        """
        iteration = int(iteration)
        if iteration < 0:
            raise ValueError("iteration must be >= 0")
        if iteration > MAX_ITERATION:
            raise ValueError(f"iteration must be <= {MAX_ITERATION} (2**32 - 2)")
        block, offset = divmod(iteration, KEY_BLOCK)
        if block != self._block:
            start = block * KEY_BLOCK
            stop = min(start + KEY_BLOCK, MAX_ITERATION + 1)
            self._keys = substream_keys(self.seed, self.worker, self.purpose,
                                        np.arange(start, stop))
            self._block = block
        # an explicit zero counter, the default, skips Philox's int conversion
        return np.random.Generator(np.random.Philox(_PhiloxKey(self._keys[offset]),
                                                    counter=_ZERO_COUNTER))

    def clone(self):
        """Fresh stream with the same identity, rewound to the start."""
        return RandomStream(self.seed, self.worker, self.purpose)

    def __repr__(self):
        return (
            f"RandomStream(seed={self.seed}, worker={self.worker}, "
            f"purpose={self.purpose!r}, counter={self.counter})"
        )


def require_finite(arr, context="array"):
    """Raise ``FloatingPointError`` if ``arr`` contains NaN or Inf."""
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"non-finite values in {context}")
    return arr


def sym_eigenvalues(a):
    """Eigenvalues of a real symmetric matrix, descending order.

    LAPACK's symmetric solver (``numpy.linalg.eigvalsh``), with no cap on
    the matrix size.

    Parameters
    ----------
    a : (n, n) array_like
        Symmetric matrix. Asymmetry beyond ``1e-12`` (relative to the
        largest entry) is rejected.

    Returns
    -------
    (n,) ndarray
        Eigenvalues sorted from largest to smallest.
    """
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    require_finite(a, "eigensolver input")
    scale = np.max(np.abs(a)) if a.size else 0.0
    if np.max(np.abs(a - a.T)) > 1e-12 * max(1.0, scale):
        raise ValueError("matrix is not symmetric")
    return np.linalg.eigvalsh(a)[::-1]
