"""Shared numerical kernel: deterministic random streams, two order-pinned
reductions, and LAPACK's symmetric eigenvalues, with no cap on the size.

Conventions used across the package: vectors are 1-D ``float64`` arrays,
per-node iterate blocks are ``(n_nodes, dim)`` ``float64`` arrays, square
matrices are ``(n, n)`` ``float64`` arrays. Helpers here raise instead of
letting NaN/Inf propagate silently.

Random streams are counter based (``Philox``). A stream ``(seed, worker,
purpose)`` has one key, from NumPy's ``SeedSequence(seed,
spawn_key=(worker, crc32(purpose)))``, and holds nothing else: every draw
comes from a ``numpy.random.Generator`` on that key. Set-up code (problem,
dataset, starting point, constant estimates) draws from
:meth:`RandomStream.generator`, counter 0, which advances the low counter
words only. Iteration ``t`` is addressed by the counter instead:
:meth:`RandomStream.at` returns a generator on the same key with counter
word 2 set to ``t + 1``, which no set-up draw and no other iteration
reaches. The key's two words are hashed out of the ``SeedSequence`` once
per stream, not once per generator. A run keeps one stream per purpose
(``grad``, ``compress``), and each iteration draws the randomness of all n
nodes from that one generator: row i of an ``(n, .)`` block is node i's.
Seeds are non-negative integers.
"""

import math
import numbers
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
    """The key of a replayable, splittable source of randomness.

    A stream is identified by ``(seed, worker, purpose)``. Two streams with
    the same identity replay the same draws; streams with different
    identities are statistically independent. :meth:`generator` gives the
    set-up generator and :meth:`at` the generator of one iteration index,
    so randomness consumed elsewhere can never shift what iteration ``t``
    sees.

    Parameters
    ----------
    seed : int
        Root seed, a non-negative Python or NumPy integer (64-bit range is typical).
    worker : int, optional
        Non-negative index that splits one seed into independent streams.
    purpose : str, optional
        Free-form tag, e.g. ``"grad"`` or ``"compress"``.
    """

    def __init__(self, seed, worker=0, purpose="main"):
        if not is_integer(seed):
            raise TypeError("seed must be an integer")
        if seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if not (is_integer(worker) and worker >= 0):
            raise ValueError("worker must be an integer >= 0")
        self.seed = int(seed)
        self.worker = int(worker)
        self.purpose = str(purpose)
        # crc32 is stable across processes and platforms, unlike hash()
        spawn = (self.worker, zlib.crc32(self.purpose.encode("utf-8")))
        self._key = _PhiloxKey(np.random.SeedSequence(self.seed, spawn_key=spawn))

    def generator(self):
        """Return a fresh ``numpy.random.Generator`` for set-up draws:
        ``Philox`` on this stream's key at counter 0. Each call starts over,
        so a caller keeps one for a sequence of draws."""
        return np.random.Generator(np.random.Philox(self._key))

    def at(self, iteration):
        """Return a fresh ``numpy.random.Generator`` for one iteration.

        It depends only on ``(seed, worker, purpose, iteration)``, never on
        how many draws were made from this or any other stream: ``Philox``
        on this stream's key, counter ``(0, 0, iteration + 1, 0)``.
        ``iteration`` must be an integer in ``[0, 2**64 - 2]``.
        """
        if not is_integer(iteration):  # a float or bool is refused, never truncated
            raise ValueError(f"iteration must be an integer, got {iteration!r}")
        iteration = int(iteration)
        if not 0 <= iteration < 2**64 - 1:  # t + 1 fills one uint64 word
            raise ValueError("iteration must be in [0, 2**64 - 2]")
        counter = np.zeros(4, dtype=np.uint64)
        counter[2] = iteration + 1
        return np.random.Generator(np.random.Philox(self._key, counter=counter))


def is_integer(value):
    """A Python or NumPy integer, not a bool (which Python counts as an int)."""
    return type(value) is int or (  # a plain int skips the slower abstract-class test
        isinstance(value, numbers.Integral) and not isinstance(value, bool))


def numeral(text, kind=int):
    """``kind(text)``, refusing the underscores, non-ASCII digits and outer whitespace it takes."""
    if "_" in text or not text.isascii() or text != text.strip():
        raise ValueError(f"{text!r} is not a plain ASCII numeral")
    return kind(text)


def is_number(value):
    """A finite real, not a bool (which Python counts as an int)."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def require_finite(arr, context="array"):
    """Raise ``FloatingPointError`` if ``arr`` contains NaN or Inf."""
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"non-finite values in {context}")
    return arr


def sum_in_order(terms):
    """``terms[0] + terms[1] + ...`` along axis 0, each row added to the
    total before it, so no sum's order depends on NumPy's layout or Python's
    version. ``terms.sum(axis=0)`` adds pairwise along a contiguous axis: a
    ``(16, 1)`` column's sum differs from this in most random draws,
    ``(16, 2)``'s never. Python's ``sum()`` compensates floats from 3.12 on."""
    return np.add.accumulate(terms)[-1]


def row_dots(rows):
    """Each row's ``row @ row``, the 1-D ddot (``np.linalg.norm`` of a vector is
    its root); ``einsum`` and ``np.linalg.norm(rows, axis=1)`` round differently."""
    return np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0]


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
