"""Dense matrices, sparse adjacencies, entry moments and a deterministic RNG.

Matrices are plain 2-D float64 numpy arrays. Adjacencies are immutable CSR
structures; the propagation operators derived from them are memoised on the
instance because graphs are revisited every epoch.
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
    """Weighted sparse adjacency in CSR form. Immutable once constructed."""

    __slots__ = ("n", "indptr", "indices", "weights", "symmetric", "_norm_cache")

    def __init__(self, n, indptr, indices, weights, symmetric=True, validate=True):
        self.n = int(n)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.weights = np.ascontiguousarray(weights, dtype=np.float64)
        self.symmetric = bool(symmetric)
        self._norm_cache = {}
        if validate:
            self._validate()

    def _validate(self):
        if self.indptr.shape[0] != self.n + 1 or self.indptr[0] != 0:
            raise ShapeError(f"bad indptr for {self.n} nodes")
        if self.indices.shape[0] != self.weights.shape[0] or (
            self.indices.shape[0] and int(self.indptr[-1]) != self.indices.shape[0]
        ):
            raise ShapeError("indices/weights length mismatch")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= self.n):
            raise ShapeError(f"neighbor index out of range for n={self.n}")
        seen = set()
        for i in range(self.n):
            for e in range(self.indptr[i], self.indptr[i + 1]):
                key = (i, int(self.indices[e]))
                if key in seen:
                    raise ShapeError(f"duplicate entry {key}")
                seen.add(key)
        if self.symmetric:
            entries = {}
            for i in range(self.n):
                for e in range(self.indptr[i], self.indptr[i + 1]):
                    entries[(i, int(self.indices[e]))] = float(self.weights[e])
            for (i, j), w in entries.items():
                if entries.get((j, i)) != w:
                    raise ShapeError(f"asymmetric entry ({i},{j})")

    @classmethod
    def from_edges(cls, n, edges, weights=None, symmetric=True):
        """Build from (i, j) pairs (an array or any iterable, such as a set);
        symmetric graphs get both directions stored. A repeated entry keeps
        the weight of its last occurrence."""
        pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges),
                           dtype=np.int64).reshape(-1, 2)
        w = (np.ones(pairs.shape[0]) if weights is None
             else np.asarray(weights, dtype=np.float64).reshape(-1))
        keys = pairs[:, 0] * n + pairs[:, 1]  # row-major entry order
        if symmetric:  # (i, j) then (j, i) for each pair, in input order
            keys = np.stack([keys, pairs[:, 1] * n + pairs[:, 0]], axis=1).reshape(-1)
            w = np.repeat(w, 2)
        order = np.argsort(keys, kind="stable")  # equal keys stay in input order
        keys = keys[order]
        last = np.ones(keys.shape[0], dtype=bool)  # the last of each run of equal keys
        last[:-1] = keys[1:] != keys[:-1]
        keys = keys[last]
        indptr = np.searchsorted(keys, np.arange(n + 1) * n)
        return cls(n, indptr, keys % n, w[order][last], symmetric=symmetric, validate=False)

    @classmethod
    def block_diag(cls, adjs) -> "SparseAdj":
        """Disjoint union: ``adjs`` as diagonal blocks, nodes numbered in order."""
        sizes = np.array([a.n for a in adjs], dtype=np.int64)
        nnz = np.array([a.indices.shape[0] for a in adjs], dtype=np.int64)
        node_off = np.cumsum(sizes) - sizes
        entry_off = np.cumsum(nnz) - nnz
        indptr = np.concatenate([[0]] + [a.indptr[1:] + e for a, e in zip(adjs, entry_off)])
        indices = np.concatenate([a.indices + o for a, o in zip(adjs, node_off)])
        weights = np.concatenate([a.weights for a in adjs])
        return cls(int(sizes.sum()), indptr, indices, weights,
                   symmetric=all(a.symmetric for a in adjs), validate=False)

    @classmethod
    def empty(cls, n):
        return cls(n, np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64),
                   np.empty(0, dtype=np.float64), validate=False)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n), dtype=np.float64)
        for i in range(self.n):
            for e in range(self.indptr[i], self.indptr[i + 1]):
                out[i, self.indices[e]] = self.weights[e]
        return out

    def degrees(self) -> np.ndarray:
        """Unweighted degree (stored-entry count) per node."""
        return np.diff(self.indptr)

    def edge_set(self):
        """Set of (i, j) stored entries; handy for oracles."""
        out = set()
        for i in range(self.n):
            for e in range(self.indptr[i], self.indptr[i + 1]):
                out.add((i, int(self.indices[e])))
        return out

    def normalized(self, self_weight=2.0, symmetric_norm=True):
        """Propagation operator CSR (indptr, indices, w, w_t), memoised."""
        key = (float(self_weight), bool(symmetric_norm))
        hit = self._norm_cache.get(key)
        if hit is None:
            hit = _kernels.gcn_norm(self.indptr, self.indices, self.weights,
                                    float(self_weight), bool(symmetric_norm))
            self._norm_cache[key] = hit
        return hit

    def induced(self, kept) -> "SparseAdj":
        """Subgraph on ``kept`` original node ids (must be ascending)."""
        kept = np.ascontiguousarray(kept, dtype=np.int64)
        indptr, indices, weights = _kernels.induced_subgraph(
            self.indptr, self.indices, self.weights, kept)
        return SparseAdj(kept.shape[0], indptr, indices, weights,
                         symmetric=self.symmetric, validate=False)


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
        if std == 0:
            return np.zeros((rows, cols), dtype=np.float64)
        return self._gen.normal(0.0, std, size=(rows, cols))

    def uniform(self, rows: int, cols: int, bound: float) -> np.ndarray:
        if bound < 0:
            raise DomainError("bound must be non-negative")
        if bound == 0:
            return np.zeros((rows, cols), dtype=np.float64)
        return self._gen.uniform(-bound, bound, size=(rows, cols))

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def integers(self, low, high=None) -> int:
        return int(self._gen.integers(low, high))

