"""Model zoo: declarative specs wired into layer stacks with JK-style taps.

Five kinds are supported:

* ``mlp`` — structure-blind baseline: global readout of the input features
  into a three-layer MLP; the adjacency is never touched.
* ``gcn_mlp`` / ``gcn_r_mlp`` — a single graph convolution whose readout is
  concatenated with the readout of the raw input (the skip from the input
  graph) before the MLP; the ``_r`` variant keeps the convolution frozen at
  its random initial values.
* ``jk_sum`` — three convolution+pool blocks, the max-and-sum readout of
  every convolution output fed to the MLP through skip taps.
* ``probe4`` — four convolution+pool blocks, global mean of the final
  representation into the MLP, no skip taps (the diagnostics probe).

A model runs on a :class:`~gnnlab.graphdata.Batch`, the disjoint union of
one or more graphs, and emits one row of class scores per graph.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, ShapeError, SpecError, StateError
from .graphdata import Batch
from .init import init_standard
from .layers import DenseLayer, GcnLayer, Readout, TopKPool
from .numcore import Rng

MODEL_KINDS = ("mlp", "gcn_r_mlp", "gcn_mlp", "jk_sum", "probe4")
JK_AGGS = ("concat", "sum")


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    hidden_dim: int = 128
    mlp_dims: tuple = (128, 128)
    k: float = 0.8
    readout_kind: str = "mean"
    jk_agg: str = "concat"
    freeze_gcn: bool = False
    tap_pooled: bool = False  # tap block outputs after the pool instead of the GCN
    gcn_norm: str = "sym"     # "sym" or "row" degree normalisation

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise SpecError(f"unknown model kind {self.kind!r}")
        if len(self.mlp_dims) != 2:
            raise SpecError("the MLP head has exactly three layers; give two hidden widths")
        if self.jk_agg not in JK_AGGS:
            raise SpecError(f"unknown jk aggregation {self.jk_agg!r}")
        if not (0 <= self.k < 1):
            raise SpecError("pool keep fraction must lie in [0, 1)")
        if self.gcn_norm not in ("sym", "row"):
            raise SpecError(f"unknown gcn normalisation {self.gcn_norm!r}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "hidden_dim": self.hidden_dim,
                "mlp_dims": list(self.mlp_dims), "k": self.k,
                "readout_kind": self.readout_kind, "jk_agg": self.jk_agg,
                "freeze_gcn": self.freeze_gcn, "tap_pooled": self.tap_pooled,
                "gcn_norm": self.gcn_norm}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown model key(s): {sorted(unknown)}")
        if "kind" not in d:
            raise ConfigError("model config needs a 'kind'")
        kwargs = dict(d)
        if "mlp_dims" in kwargs:
            kwargs["mlp_dims"] = tuple(kwargs["mlp_dims"])
        try:
            return cls(**kwargs)
        except SpecError as exc:
            raise ConfigError(str(exc)) from exc


def _num_blocks(kind: str) -> int:
    return {"mlp": 0, "gcn_mlp": 1, "gcn_r_mlp": 1, "jk_sum": 3, "probe4": 4}[kind]


class Model:
    """An instantiated layer stack with a named-parameter registry.

    ``taps`` lists (source, Readout) pairs feeding the MLP head; a source is
    ``"input"``, ``"final"``, ``("gcn", i)`` or ``("pool", i)``. Forward
    caches per-layer state, so an instance is single-owner during a step.
    """

    def __init__(self, spec, num_features, num_classes, blocks, taps, mlp, frozen):
        self.spec = spec
        self.num_features = num_features
        self.num_classes = num_classes
        self.blocks = blocks  # list of (GcnLayer, TopKPool | None)
        self.taps = taps
        self.mlp = mlp
        self.frozen = frozen
        self.params = {}
        for i, (gcn, pool) in enumerate(blocks, start=1):
            self.params[f"gcn{i}.W"] = gcn.w
            self.params[f"gcn{i}.b"] = gcn.b
            if pool is not None:
                self.params[f"pool{i}.p"] = pool.p
        for j, layer in enumerate(mlp, start=1):
            self.params[f"mlp{j}.W"] = layer.w
            self.params[f"mlp{j}.b"] = layer.b
        self._cache = None
        self.last_grads = None

    # ---------------------------------------------------------------- forward

    def forward(self, batch: Batch) -> np.ndarray:
        """Class scores, one row per graph of the batch."""
        if batch.features.shape[1] != self.num_features:
            raise ShapeError(f"model expects {self.num_features} features, "
                             f"graphs have {batch.features.shape[1]}")
        self._cache = None  # let the previous batch's outputs go first
        adj, x, sizes = batch.adj, batch.features, batch.sizes
        gcn_outs = []
        # stage_x[i] is the input to block i, stage_x[-1] the final output;
        # stage_sizes[i] the per-graph row counts of stage_x[i]
        stage_x, stage_sizes = [x], [sizes]
        for gcn, pool in self.blocks:
            h = gcn.forward(adj, x)
            gcn_outs.append(h)
            if pool is not None:
                adj, x, _ = pool.forward(adj, h, sizes)
                sizes = pool.kept_sizes(sizes)
            else:
                x = h
            stage_x.append(x)
            stage_sizes.append(sizes)
        tap_mats = [ro.forward(*self._tap_input(source, gcn_outs, stage_x, stage_sizes))
                    for source, ro in self.taps]
        if self.spec.jk_agg == "sum" and len(tap_mats) > 1:
            a = np.sum(tap_mats, axis=0)
        else:
            a = np.concatenate(tap_mats, axis=1)
        for layer in self.mlp:
            a = layer.forward(a)
        self._cache = {"gcn_outs": gcn_outs, "stage_x": stage_x}
        return a

    @staticmethod
    def _tap_input(source, gcn_outs, stage_x, stage_sizes):
        """The node matrix a tap reads, and its per-graph row counts."""
        if source == "input":
            return stage_x[0], stage_sizes[0]
        if source == "final":
            return stage_x[-1], stage_sizes[-1]
        kind, i = source
        if kind == "gcn":  # a convolution keeps the rows of its input
            return gcn_outs[i], stage_sizes[i]
        return stage_x[i + 1], stage_sizes[i + 1]

    def backward(self, grad_scores: np.ndarray) -> dict:
        """Gradients for every registered parameter from the gradient of the
        scores of the last forward, summed over its graphs; frozen entries
        are zeroed. Gradients on the raw input are never used."""
        if self._cache is None:
            raise StateError("model backward called before forward")
        self._cache = None
        grads = {}
        z_grad = np.asarray(grad_scores, dtype=np.float64)
        for j in range(len(self.mlp), 0, -1):
            z_grad, layer_grads = self.mlp[j - 1].backward(z_grad)
            grads[f"mlp{j}.W"] = layer_grads["W"]
            grads[f"mlp{j}.b"] = layer_grads["b"]
        if self.spec.jk_agg == "sum" and len(self.taps) > 1:
            tap_grads = [z_grad] * len(self.taps)
        else:
            widths = _tap_widths(self.taps, self.num_features, self.spec.hidden_dim)
            offsets = np.concatenate(([0], np.cumsum(widths)))
            tap_grads = [z_grad[:, offsets[i]:offsets[i + 1]] for i in range(len(self.taps))]
        # gradient on each node matrix; None where nothing downstream reads it
        gcn_grads = [None] * len(self.blocks)
        stage_grads = [None] * (len(self.blocks) + 1)
        for (source, ro), gmat in zip(self.taps, tap_grads):
            mat = ro.backward(gmat)
            if source == "input":
                # nothing upstream of the raw input has parameters, so this
                # gradient is dropped; the backward still runs because
                # perfbench expects layers.readout.bwd on every workload, and
                # the mlp model has no other readout (ROADMAP item 3)
                continue
            if source == "final":
                stage_grads[-1] = _add(stage_grads[-1], mat)
            elif source[0] == "gcn":
                gcn_grads[source[1]] = _add(gcn_grads[source[1]], mat)
            else:
                stage_grads[source[1] + 1] = _add(stage_grads[source[1] + 1], mat)
        x_grad = stage_grads[-1]
        for i in range(len(self.blocks) - 1, -1, -1):
            gcn, pool = self.blocks[i]
            h_grad = x_grad
            if pool is not None:
                if x_grad is None:  # the pooled output feeds nothing
                    grads[f"pool{i + 1}.p"] = np.zeros_like(pool.p)
                else:
                    h_grad, pool_grads = pool.backward(x_grad)
                    grads[f"pool{i + 1}.p"] = pool_grads["p"]
            h_grad = _add(h_grad, gcn_grads[i])
            x_grad, layer_grads = gcn.backward(h_grad, input_grad=i > 0)
            grads[f"gcn{i + 1}.W"] = layer_grads["W"]
            grads[f"gcn{i + 1}.b"] = layer_grads["b"]
            x_grad = _add(x_grad, stage_grads[i])
        for name in self.frozen:
            grads[name] = np.zeros_like(self.params[name])
        self.last_grads = grads
        return grads

    def predict(self, batch: Batch) -> np.ndarray:
        """Predicted class per graph; ties resolve to the lowest class index."""
        return np.argmax(self.forward(batch), axis=1)

    # ------------------------------------------------------------ inspection

    def block_stages(self):
        """(layer id, layer) pairs for the convolution/pool stack, in order."""
        out = []
        for i, (gcn, pool) in enumerate(self.blocks, start=1):
            out.append((f"gcn{i}", gcn))
            if pool is not None:
                out.append((f"pool{i}", pool))
        return out

    def run_blocks(self, batch: Batch, upto: int) -> list:
        """Forward through the block stack only, returning the outputs of flat
        stages 0..``upto`` (0 = first convolution, 1 = its pool, and so on)."""
        if not 0 <= upto < len(self.block_stages()):
            raise StateError(f"block stage {upto} out of range")
        adj, x, sizes = batch.adj, batch.features, batch.sizes
        outs = []
        for gcn, pool in self.blocks:
            x = gcn.forward(adj, x)
            outs.append(x)
            if pool is not None and len(outs) <= upto:
                adj, x, _ = pool.forward(adj, x, sizes)
                sizes = pool.kept_sizes(sizes)
                outs.append(x)
            if len(outs) > upto:
                return outs

    def trace_states(self):
        """(layer id, output, preactivation-or-None) per block stage of the
        most recent forward."""
        if self._cache is None:
            raise StateError("no cached forward state to trace")
        gcn_outs = self._cache["gcn_outs"]
        stage_x = self._cache["stage_x"]
        out = []
        for i, (gcn, pool) in enumerate(self.blocks, start=1):
            out.append((f"gcn{i}", gcn_outs[i - 1], gcn.last_preactivation))
            if pool is not None:
                out.append((f"pool{i}", stage_x[i], None))
        return out


def _tap_widths(taps, num_features: int, hidden: int) -> list:
    """Columns each tap's readout contributes to the MLP input."""
    return [ro.width(num_features if source == "input" else hidden) for source, ro in taps]


def _add(a, b):
    """Sum of two gradients, either of which may be None (no gradient)."""
    if a is None:
        return b
    return a if b is None else a + b


def build(spec: ModelSpec, num_features: int, num_classes: int, rng: Rng) -> Model:
    """Allocate a model for the spec and apply the standard initialisation."""
    if num_features < 1 or num_classes < 1:
        raise SpecError("need at least one feature and one class")
    nblocks = _num_blocks(spec.kind)
    hidden = spec.hidden_dim
    blocks = []
    for i in range(nblocks):
        fan_in = num_features if i == 0 else hidden
        gcn = GcnLayer(np.zeros((fan_in, hidden)), np.zeros(hidden),
                       activation="relu", norm=spec.gcn_norm)
        pool = None
        if spec.kind in ("jk_sum", "probe4"):
            pool = TopKPool(np.zeros(hidden), k=spec.k)
        blocks.append((gcn, pool))

    taps = []
    if spec.kind == "mlp":
        taps.append(("input", Readout(spec.readout_kind)))
    elif spec.kind in ("gcn_mlp", "gcn_r_mlp"):
        taps.append(("input", Readout(spec.readout_kind)))
        taps.append((("gcn", 0), Readout(spec.readout_kind)))
    elif spec.kind == "jk_sum":
        source_kind = "pool" if spec.tap_pooled else "gcn"
        for i in range(nblocks):
            taps.append(((source_kind, i), Readout("max_and_sum")))
    else:  # probe4
        taps.append(("final", Readout("mean")))
    widths = _tap_widths(taps, num_features, hidden)
    # summed taps add elementwise; concatenated ones side by side
    mlp_in = widths[0] if spec.jk_agg == "sum" and len(taps) > 1 else sum(widths)

    dims = [mlp_in, spec.mlp_dims[0], spec.mlp_dims[1], num_classes]
    mlp = [DenseLayer(np.zeros((dims[j], dims[j + 1])), np.zeros(dims[j + 1]),
                      activation="relu" if j < 2 else "none")
           for j in range(3)]

    frozen = set()
    if spec.kind == "gcn_r_mlp" or spec.freeze_gcn:
        for i in range(1, nblocks + 1):
            frozen.add(f"gcn{i}.W")
            frozen.add(f"gcn{i}.b")

    model = Model(spec, num_features, num_classes, blocks, taps, mlp, frozen)
    init_standard(model, rng)
    return model
