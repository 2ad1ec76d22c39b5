"""Shared numerical kernel: deterministic random streams and the symmetric
eigenvalues of LAPACK's ``eigvalsh``, with no cap on the matrix size.

Conventions used across the package: vectors are 1-D ``float64`` arrays,
per-node iterate blocks are ``(n_nodes, dim)`` ``float64`` arrays, square
matrices are ``(n, n)`` ``float64`` arrays. Helpers here raise instead of
letting NaN/Inf propagate silently.

Random streams are counter based (``Philox``). A stream ``(seed, worker,
purpose)`` has one key, from NumPy's ``SeedSequence(seed,
spawn_key=(worker, crc32(purpose)))``. Its stateful draws start at counter 0
and advance the low counter words only. Iteration ``t`` is addressed by the
counter instead: :meth:`RandomStream.at` returns a generator on the same key
with counter word 2 set to ``t + 1``, which no stateful draw and no other
iteration reaches. The key's two words are hashed out of the
``SeedSequence`` once per stream, not once per iteration. A run keeps one
stream per purpose (``grad``, ``compress``), and each iteration draws the
randomness of all n nodes from that one generator: row i of an ``(n, .)``
block is node i's. Seeds are non-negative integers.
"""

import zlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence


class _PhiloxKey(ISeedSequence):
    """A ``SeedSequence``'s two ``Philox`` key words, derived once: a
    ``Philox`` seeded with this asks for exactly those words, so it gets the
    key the sequence itself would give without hashing it again."""

    __slots__ = ("words",)

    def __init__(self, seq):
        self.words = seq.generate_state(2, np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or dtype is not np.uint64:
            raise ValueError("a Philox key is two uint64 words")
        return self.words.copy()


class RandomStream:
    """Replayable, splittable source of randomness.

    A stream is identified by ``(seed, worker, purpose)``. Two streams with
    the same identity replay the same sequence; streams with different
    identities are statistically independent. :meth:`at` gives the
    generator of one iteration index, so randomness consumed elsewhere can
    never shift what iteration ``t`` sees. The draw methods follow
    ``numpy.random.Generator`` with flat counts, so a stream can stand in
    for a generator (e.g. in compression).

    Parameters
    ----------
    seed : int
        Root seed, any non-negative Python int (64-bit range is typical).
    worker : int, optional
        Index that splits one seed into independent streams.
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
        # crc32 is stable across processes and platforms, unlike hash()
        spawn = (self.worker, zlib.crc32(self.purpose.encode("utf-8")))
        seq = np.random.SeedSequence(self.seed, spawn_key=spawn)
        self._key = _PhiloxKey(seq)
        self._generator = np.random.Generator(np.random.Philox(seq))

    def _advance(self, size):
        # draws are flat counts by convention; callers reshape them into blocks
        if not isinstance(size, (int, np.integer)):
            raise TypeError(f"size must be a single integer count, got {size!r}")
        if size < 0:
            raise ValueError("size must be >= 0")
        self.counter += int(size)
        return int(size)

    def normal(self, size, std=1.0):
        """Draw ``size`` i.i.d. zero-mean normal entries with deviation ``std``.

        Advances the draw counter by ``size``. ``std = 0`` returns exact
        zeros (and still advances, so replay alignment is preserved).
        """
        if std < 0:
            raise ValueError("std must be >= 0")
        return std * self._generator.standard_normal(self._advance(size))

    def uniform(self, size):
        """Draw ``size`` i.i.d. uniform [0, 1) entries; advances the counter."""
        return self._generator.random(self._advance(size))

    random = uniform  # the numpy.random.Generator names
    standard_normal = normal

    def choice(self, n, size, replace=False):
        return self._generator.choice(int(n), size=self._advance(size), replace=replace)

    def integers(self, low, high, size):
        return self._generator.integers(low, high, size=self._advance(size))

    def at(self, iteration):
        """Return a fresh ``numpy.random.Generator`` for one iteration.

        It depends only on ``(seed, worker, purpose, iteration)``, never on
        how many draws were made from this or any other stream: ``Philox``
        on this stream's key, counter ``(0, 0, iteration + 1, 0)``.
        ``iteration`` must be in ``[0, 2**64 - 2]``.
        """
        iteration = int(iteration)
        if not 0 <= iteration < 2**64 - 1:  # t + 1 fills one uint64 word
            raise ValueError("iteration must be in [0, 2**64 - 2]")
        counter = np.zeros(4, dtype=np.uint64)
        counter[2] = iteration + 1
        return np.random.Generator(np.random.Philox(self._key, counter=counter))

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
    """Eigenvalues of a real symmetric ``(n, n)`` matrix, largest first.

    LAPACK's symmetric solver (``numpy.linalg.eigvalsh``), with no cap on
    the matrix size. Non-finite entries and asymmetry beyond ``1e-12``
    (relative to the largest entry) are rejected.
    """
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    require_finite(a, "eigensolver input")
    scale = np.max(np.abs(a)) if a.size else 0.0
    if np.max(np.abs(a - a.T)) > 1e-12 * max(1.0, scale):
        raise ValueError("matrix is not symmetric")
    return np.linalg.eigvalsh(a)[::-1]
