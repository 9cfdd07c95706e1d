"""Differentiable building blocks with hand-derived backward passes.

Every layer caches what its backward pass needs during forward, and the
backward pass releases it; a layer instance is therefore single-owner within
a training step, and each forward allows one backward. Dense layers,
readouts and stages take ``input_grad``: with False, backward computes no
gradient on its input (a dense layer skips ``grad @ W.T``; a readout only
releases its cache), for an input whose gradient reaches no trained
parameter. Layers whose state grows with the node count drop the previous
state before computing, so a forward-only sweep never holds two chunks'
state at once. Gradients are exact (checked against central finite
differences in the test suite).

The layers run on the disjoint union of several graphs as well as on one:
node rows of consecutive graphs are stacked, and ``sizes`` gives each graph's
node count. Convolutions and dense layers need nothing more (a block-diagonal
adjacency keeps the graphs apart); top-k pools select within each graph and
readouts return one row per graph.

The stages of a block stack, :class:`GcnLayer` and :class:`TopKPool`, share
one contract: ``forward`` maps a :class:`~gnnlab.graphdata.State` to the next
State; ``backward(grad, input_grad)`` returns (input gradient or None,
{name: gradient}); ``rescale(sigma)`` divides every later output by sigma;
and ``last_preactivation`` is what tracing reads (None for a pool). A
convolution is a :class:`DenseLayer` whose input is propagated first: the
two share one affine map and one gradient formula.
"""

import numpy as np

from . import _kernels
from .errors import DomainError, ShapeError, StateError
from .graphdata import State

PNORM_EPS = 1e-12  # guards the projection-vector norm in top-k scoring


def relu(x):
    return np.maximum(x, 0.0)


class DenseLayer:
    """Affine map plus optional ReLU."""

    def __init__(self, w, b, activation="relu"):
        if activation not in ("relu", "none"):
            raise ValueError(f"unknown activation {activation!r}")
        self.w = np.asarray(w, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        if self.w.ndim != 2 or self.b.shape != self.w.shape[1:]:
            raise ShapeError(f"{type(self).__name__} needs a 2-D weight and one bias "
                             f"per output, got {self.w.shape} and {self.b.shape}")
        self.activation = activation
        self._cache = None

    def _affine(self, x):
        """(preactivation, output) of the map on ``x``."""
        if x.shape[1] != self.w.shape[0]:
            raise ShapeError(
                f"{type(self).__name__} expects {self.w.shape[0]} input features, "
                f"got {x.shape[1]}")
        pre = x @ self.w + self.b
        return pre, relu(pre) if self.activation == "relu" else pre

    def _gradients(self, grad_out, x, pre, input_grad=True):
        """Gradient on ``x`` (None unless ``input_grad``) and on W and b, for
        the map that took ``x`` to ``pre``."""
        grad_pre = grad_out * (pre > 0) if self.activation == "relu" else grad_out
        grad_x = grad_pre @ self.w.T if input_grad else None
        return grad_x, {"W": x.T @ grad_pre, "b": grad_pre.sum(axis=0)}

    def forward(self, x: np.ndarray) -> np.ndarray:
        pre, out = self._affine(x)
        self._cache = {"x": x, "pre": pre}
        return out

    def backward(self, grad_out: np.ndarray, input_grad: bool = True):
        """Input gradient (None unless ``input_grad``) and parameter gradients."""
        if self._cache is None:
            raise StateError("dense backward called before forward")
        c, self._cache = self._cache, None
        return self._gradients(grad_out, c["x"], c["pre"], input_grad)


def _propagate(layout, indices, w, diag, x):
    """``spmm`` over an operator's entries ``w``, then its self-loop term, last
    in each row's sum."""
    out = _kernels.spmm(layout, indices, w, x)
    out += diag[:, None] * x
    return out


class GcnLayer(DenseLayer):
    """Graph convolution with weighted self-loops and symmetric degree normalisation.

    Propagates features with P = D^-1/2 (A + 2I) D^-1/2, D holding the row
    sums of A + 2I, then applies the dense layer's affine map and optional
    ReLU. A divisor from :meth:`rescale` is folded into W and b. Forward
    lays the adjacency out for ``spmm`` once; P is its own transpose, so
    backward propagates the gradient through the same cached operator.
    """

    def forward(self, state: State) -> State:
        adj, x, sizes = state
        self._cache = None
        w_p, diag = adj.normalized()
        prop = (_kernels.spmm_layout(adj.indptr), adj.indices, w_p, diag)
        m = _propagate(*prop, x)
        pre, out = self._affine(m)
        self._cache = {"m": m, "pre": pre, "prop": prop}
        return State(adj, out, sizes)

    def resume(self, m: np.ndarray) -> np.ndarray:
        """The rows a forward that propagated to ``m`` returns under the current W and b."""
        return self._affine(m)[1]

    def rescale(self, sigma: float) -> None:
        """Divide every later output by ``sigma`` > 0, folded into W and b."""
        self.w /= sigma
        self.b /= sigma

    def backward(self, grad_out: np.ndarray, input_grad: bool = True):
        """Input gradient (None unless ``input_grad``) and parameter gradients."""
        if self._cache is None:
            raise StateError("gcn backward called before forward")
        c, self._cache = self._cache, None
        grad_m, grads = self._gradients(grad_out, c["m"], c["pre"], input_grad)
        return None if grad_m is None else _propagate(*c["prop"], grad_m), grads

    @property
    def last_preactivation(self):
        if self._cache is None:
            raise StateError("no cached forward state")
        return self._cache["pre"]

    @property
    def half(self):
        """The last forward's ``m = P x``, untouched by W and b, for :meth:`resume`."""
        return self._cache["m"]


def keep_count(k: float, n):
    """Nodes retained by a top-k pool: max(1, ceil(k*n)), float-dust guarded.
    ``n`` may be an array of per-graph node counts."""
    return np.maximum(1, np.ceil(k * np.asarray(n) - 1e-9)).astype(np.int64)


def _starts(sizes) -> np.ndarray:
    """First row of each graph in a stack of graphs with ``sizes`` rows."""
    return np.cumsum(sizes) - sizes


class TopKPool:
    """Node-dropping pool ranked by the normalised projection of features.

    Scores are the projection of each feature row onto ``p`` divided by the
    norm of ``p``; in each graph the highest-scoring max(1, ceil(k*N)) nodes
    survive (ties broken toward lower node index) and their features are
    gated by the tanh of their score. The selection itself is treated as
    constant in backward; gradients flow through the feature term and the
    gate, including the gate's dependence on features and on ``p``.
    """

    last_preactivation = None  # a pool has no preactivation to trace

    def __init__(self, p, k):
        if not (0 <= k < 1):
            raise ValueError("k must lie in [0, 1)")
        self.p = np.asarray(p, dtype=np.float64)
        if self.p.ndim != 1:
            raise ShapeError(f"pool projection must be 1-D, got shape {self.p.shape}")
        self.k = float(k)
        self.scale = 1.0  # forward divisor, see rescale
        self._cache = None

    def forward(self, state: State) -> State:
        """Pool every graph of the stack: the induced subgraph on the kept
        rows, the pooled rows and each graph's kept row count."""
        adj, x, sizes = state
        if x.shape[1] != self.p.shape[0]:
            raise ShapeError(
                f"pool projection has {self.p.shape[0]} entries, features have {x.shape[1]}")
        self._cache = None
        nrm = float(np.linalg.norm(self.p))
        denom = max(nrm, PNORM_EPS)
        # One product per graph: BLAS rounds a row of one matrix-vector
        # product differently depending on where the row sits, and exact
        # score ties at the keep cut must resolve as in a one-graph stack.
        starts = _starts(sizes)
        scores = np.concatenate([x[a:a + n] @ self.p
                                 for a, n in zip(starts.tolist(), sizes.tolist())]) / denom
        graph = np.repeat(np.arange(sizes.shape[0]), sizes)
        # by graph, then by descending score; the sort is stable, so ties go
        # to the lower node index. Position i of ``ranked`` still belongs to
        # graph[i], so i - starts[graph[i]] is the rank within that graph.
        ranked = np.lexsort((-scores, graph))
        rank = np.arange(x.shape[0]) - starts[graph]
        kept_sizes = keep_count(self.k, sizes)
        kept = np.sort(ranked[rank < kept_sizes[graph]])  # row ids, ascending
        gate = np.tanh(scores[kept])
        x_kept = x[kept]
        gated = x_kept * gate[:, None]
        self._cache = {"x": x, "kept": kept, "gate": gate, "x_kept": x_kept, "gated": gated,
                       "scores": scores, "norm": nrm, "denom": denom}
        return State(adj.induced(kept), self.resume(gated), kept_sizes)

    def resume(self, gated: np.ndarray) -> np.ndarray:
        """The pooled rows a forward that gated to ``gated`` returns under the current scale."""
        return gated / self.scale

    def rescale(self, sigma: float) -> None:
        """Divide every later output by ``sigma``, kept as ``scale`` (no weight can absorb it)."""
        self.scale *= sigma

    @property
    def half(self):
        """The last forward's gated rows, untouched by ``scale``, for :meth:`resume`."""
        return self._cache["gated"]

    def backward(self, grad_out: np.ndarray, input_grad: bool = True):
        """Gradient on ``p``, and the input gradient (None unless ``input_grad``)."""
        if self._cache is None:
            raise StateError("top-k backward called before forward")
        c, self._cache = self._cache, None
        kept, gate, x_kept = c["kept"], c["gate"], c["x_kept"]
        denom = c["denom"]
        phat = self.p / denom
        # d out / d gate, chained through tanh
        g_dot_x = np.einsum("ij,ij->i", grad_out, x_kept) / self.scale
        d_score = g_dot_x * (1.0 - gate * gate)
        grad_in = None
        if input_grad:
            grad_in = np.zeros_like(c["x"])
            grad_in[kept] = grad_out * gate[:, None] / self.scale + np.outer(d_score, phat)
        if c["norm"] >= PNORM_EPS:
            # quotient rule: d score_i / d p = (x_i - score_i * phat) / |p|
            grad_p = (x_kept.T @ d_score - float(d_score @ c["scores"][kept]) * phat) / denom
        else:
            grad_p = (x_kept.T @ d_score) / denom
        return grad_in, {"p": grad_p}


READOUT_KINDS = ("mean", "sum", "max", "max_and_sum")


class Readout:
    """Permutation-invariant reduction of node rows to one vector per graph."""

    def __init__(self, kind: str):
        if kind not in READOUT_KINDS:
            raise ValueError(f"unknown readout {kind!r}")
        self.kind = kind
        self._cache = None

    def width(self, feature_dim: int) -> int:
        return 2 * feature_dim if self.kind == "max_and_sum" else feature_dim

    def forward(self, x: np.ndarray, sizes) -> np.ndarray:
        """One row per graph of the stack, whose graphs have ``sizes`` rows."""
        sizes = np.asarray(sizes)
        if x.shape[0] < 1 or sizes.min() < 1:
            raise DomainError("readout of an empty matrix")
        starts = _starts(sizes)
        self._cache = {"sizes": sizes}
        if self.kind in ("mean", "sum"):
            out = np.add.reduceat(x, starts, axis=0)
            if self.kind == "mean":
                out = out / sizes[:, None]
        else:
            # ties route the gradient to the lowest row index of each graph
            # (argmax does exactly that)
            argmax = np.stack([a + np.argmax(x[a:a + n], axis=0)
                               for a, n in zip(starts.tolist(), sizes.tolist())])
            self._cache["argmax"] = argmax
            out = x[argmax, np.arange(x.shape[1])]
            if self.kind == "max_and_sum":
                out = np.concatenate([out, np.add.reduceat(x, starts, axis=0)], axis=1)
        return out

    def backward(self, grad: np.ndarray, input_grad: bool = True):
        """Gradient on the node rows, from one gradient row per graph; None,
        and nothing computed, unless ``input_grad``."""
        if self._cache is None:
            raise StateError("readout backward called before forward")
        cache, self._cache = self._cache, None
        if not input_grad:
            return None
        sizes = cache["sizes"]
        graph = np.repeat(np.arange(sizes.shape[0]), sizes)
        if self.kind == "mean":
            return (grad / sizes[:, None])[graph]
        if self.kind == "sum":
            return grad[graph]
        argmax = cache["argmax"]
        f = argmax.shape[1]
        out = np.zeros((graph.shape[0], f), dtype=np.float64)
        out[argmax, np.arange(f)] = grad[:, :f]
        if self.kind == "max_and_sum":
            out += grad[graph, f:]
        return out
