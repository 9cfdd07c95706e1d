"""Entry moments, sparse adjacencies and a deterministic RNG.

Adjacencies are immutable, undirected CSR structures; each propagation
operator is built from one when a convolution reads it and is not kept.
"""

import math

import numpy as np

from . import _kernels
from .errors import DomainError, ShapeError


class Moments:
    """Streaming count, sum and sum of squares over matrix entries, for the
    mean and population standard deviation of everything added."""

    __slots__ = ("count", "total", "sq")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.sq = 0.0

    def add(self, x: np.ndarray) -> None:
        self.count += x.size
        self.total += float(x.sum())
        self.sq += float(np.square(x).sum())

    def mean(self) -> float:
        if self.count == 0:
            raise DomainError("statistics of an empty matrix are undefined")
        return self.total / self.count

    def std(self) -> float:
        mean = self.mean()
        return math.sqrt(max(self.sq / self.count - mean * mean, 0.0))


class SparseAdj:
    """Undirected adjacency pattern in CSR form, every edge stored once in
    each direction, every entry of unit weight. Immutable once constructed."""

    __slots__ = ("n", "indptr", "indices")

    def __init__(self, n, indptr, indices):
        self.n = int(n)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)

    @classmethod
    def from_edges(cls, n, edges):
        """Build from (i, j) pairs (an array or any iterable, such as a set),
        storing both directions of each once, however often either is given.
        Raises :class:`ShapeError` for an endpoint outside ``[0, n)``."""
        pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges),
                           dtype=np.int64).reshape(-1, 2)
        if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
            raise ShapeError(f"edge endpoint out of range for n={n}")
        # row-major entry keys of both directions, sorted, each run of equal keys kept once
        keys = np.concatenate([pairs[:, 0] * n + pairs[:, 1], pairs[:, 1] * n + pairs[:, 0]])
        keys.sort()  # in place: np.unique took 5x as long (numpy 2.4)
        first = np.ones(keys.shape[0], dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        keys = keys[first]
        return cls(n, np.searchsorted(keys, np.arange(n + 1) * n), keys % n)

    @property
    def weights(self) -> np.ndarray:
        """Every stored entry's weight: all ones (read-only)."""
        return np.ones(self.indices.shape[0])

    def degrees(self) -> np.ndarray:
        """Degree (stored-entry count) per node."""
        return np.diff(self.indptr)

    def normalized(self):
        """Propagation operator ``(w, diag)``; see ``_kernels.gcn_norm``."""
        return _kernels.gcn_norm(self.indptr, self.indices)

    def induced(self, kept) -> "SparseAdj":
        """Subgraph on ``kept`` original node ids (must be ascending)."""
        kept = np.ascontiguousarray(kept, dtype=np.int64)
        indptr, indices = _kernels.induced_subgraph(self.indptr, self.indices, kept)
        return SparseAdj(kept.shape[0], indptr, indices)


class Rng:
    """Seed-keyed RNG with platform-stable streams.

    Sub-streams are derived with ``derive(*key)``; the same (seed, key) always
    yields the same sequence, so experiments are reproducible end to end.
    """

    def __init__(self, seed: int, _key: tuple = ()):
        self.seed = int(seed)
        self._key = tuple(int(k) for k in _key)
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=self._key)))

    def derive(self, *key: int) -> "Rng":
        return Rng(self.seed, self._key + tuple(key))

    def normal(self, rows: int, cols: int, std: float) -> np.ndarray:
        if std < 0:
            raise DomainError("std must be non-negative")
        return self._gen.normal(0.0, std, size=(rows, cols))

    def uniform(self, rows: int, cols: int, bound: float) -> np.ndarray:
        if bound < 0:
            raise DomainError("bound must be non-negative")
        return self._gen.uniform(-bound, bound, size=(rows, cols))

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def integers(self, low, high=None) -> int:
        return int(self._gen.integers(low, high))

