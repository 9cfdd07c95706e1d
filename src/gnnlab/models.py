"""Model zoo: declarative specs wired into layer stacks with JK-style taps.

A :class:`~gnnlab.config.ModelSpec` (declared with the other settings in
:mod:`gnnlab.config`) names one of five kinds:

* ``mlp`` — structure-blind baseline: global readout of the input features
  into a three-layer MLP; the adjacency is never touched.
* ``gcn_mlp`` / ``gcn_r_mlp`` — a single graph convolution whose readout is
  concatenated with the readout of the raw input (the skip from the input
  graph) before the MLP; the ``_r`` variant keeps the convolution frozen at
  its random initial values (the fixed-weight baseline, and the only kind
  with frozen parameters).
* ``jk_sum`` — three convolution+pool blocks, the max-and-sum readout of
  every convolution output fed to the MLP through skip taps.
* ``probe4`` — four convolution+pool blocks, global mean of the final
  representation into the MLP, no skip taps (the diagnostics probe).

A model runs on a :class:`~gnnlab.graphdata.Batch`, the disjoint union of
one or more graphs, and emits one row of class scores per graph. One stage
walk over the flat convolution/pool stack serves forward, reinit
(:meth:`Model.run_blocks`, which can start at any stage from a given state)
and tracing. Every stage maps a :class:`~gnnlab.graphdata.State` to a State
(:mod:`gnnlab.layers`), so the walk is a fold that never asks a stage's kind.
Each tap reads one state of that walk, and forward stops at the last state a
tap reads: with convolution taps, ``jk_sum`` never runs its third pool. The
batch's adjacency is built only when a stage runs, so ``mlp`` never builds one.
"""

import numpy as np

from .config import ModelSpec
from .errors import ShapeError, SpecError, StateError
from .graphdata import Batch, State
from .init import init_standard
from .layers import DenseLayer, GcnLayer, Readout, TopKPool
from .numcore import Rng


def _num_blocks(kind: str) -> int:
    return {"mlp": 0, "gcn_mlp": 1, "gcn_r_mlp": 1, "jk_sum": 3, "probe4": 4}[kind]


class Model:
    """An instantiated layer stack with a named-parameter registry.

    ``taps`` lists (source, Readout) pairs feeding the MLP head; a source is
    ``"input"``, ``"final"``, ``("gcn", i)`` or ``("pool", i)``. Each source
    resolves once to an index into the state list of the stage walk: 0 is the
    input, s the output of flat stage s - 1 (see :meth:`block_stages`), and S
    the final output. Forward runs stages up to the highest tap index only,
    so a pool no tap reads is skipped, and caches the states, so an instance
    is single-owner during a step.
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
        self._stages = []
        for i, (gcn, pool) in enumerate(blocks, start=1):
            self.params[f"gcn{i}.W"] = gcn.w
            self.params[f"gcn{i}.b"] = gcn.b
            self._stages.append((f"gcn{i}", gcn))
            if pool is not None:
                self.params[f"pool{i}.p"] = pool.p
                self._stages.append((f"pool{i}", pool))
        for j, layer in enumerate(mlp, start=1):
            self.params[f"mlp{j}.W"] = layer.w
            self.params[f"mlp{j}.b"] = layer.b
        names = [name for name, _ in self._stages]
        self._tap_index = [0 if source == "input" else
                           len(names) if source == "final" else
                           names.index(f"{source[0]}{source[1] + 1}") + 1
                           for source, _ in taps]
        self._live = max(self._tap_index)  # stages a forward runs
        # whether the gradient on state i reaches a trained parameter: some
        # stage before state i has one
        self._grad_into = [False]
        for name, _ in self._stages:
            trained = any(p.startswith(f"{name}.") and p not in frozen for p in self.params)
            self._grad_into.append(self._grad_into[-1] or trained)
        self._head_grad = any(self._grad_into[t] for t in self._tap_index)
        # entries of the widest node row a forward holds: the input's, and
        # the hidden rows of any stage; chunks are budgeted by it
        self.width = max(num_features, spec.hidden_dim) if blocks else num_features
        self._cache = None
        self.last_grads = None

    def _walk(self, state: State, upto: int, first: int = 0) -> list:
        """``state``, the state entering flat stage ``first`` of the block
        stack, followed by the state after each stage from ``first`` up to,
        not including, ``upto``."""
        states = [state]
        for _, layer in self._stages[first:upto]:
            states.append(layer.forward(states[-1]))
        return states

    # ---------------------------------------------------------------- forward

    def forward(self, batch: Batch) -> np.ndarray:
        """Class scores, one row per graph of the batch."""
        if batch.features.shape[1] != self.num_features:
            raise ShapeError(f"model expects {self.num_features} features, "
                             f"graphs have {batch.features.shape[1]}")
        self._cache = None  # let the previous batch's outputs go first
        # with no stage to run, the batch's adjacency is never built
        states = self._walk(State(batch.adj if self._live else None, batch.features,
                                  batch.sizes), self._live)
        tap_mats = [ro.forward(states[t].x, states[t].sizes)
                    for t, (_, ro) in zip(self._tap_index, self.taps)]
        if self.spec.jk_agg == "sum":
            a = np.sum(tap_mats, axis=0)
        else:
            a = np.concatenate(tap_mats, axis=1)
        for layer in self.mlp:
            a = layer.forward(a)
        self._cache = states
        return a

    def backward(self, grad_scores: np.ndarray) -> dict:
        """Gradients for every registered parameter from the gradient of the
        scores of the last forward, summed over its graphs; frozen entries,
        and those of stages the forward did not run, are zero. Only gradients
        that reach a trained parameter are computed: none on the raw input,
        and none through a frozen stage with nothing trained before it,
        which is not run backward."""
        if self._cache is None:
            raise StateError("model backward called before forward")
        self._cache = None
        grads = {}
        z_grad = np.asarray(grad_scores, dtype=np.float64)
        for j in range(len(self.mlp), 0, -1):
            z_grad, layer_grads = self.mlp[j - 1].backward(
                z_grad, input_grad=j > 1 or self._head_grad)
            grads.update({f"mlp{j}.{k}": g for k, g in layer_grads.items()})
        if self.spec.jk_agg == "sum" or z_grad is None:
            tap_grads = [z_grad] * len(self.taps)
        else:
            widths = _tap_widths(self.taps, self.num_features, self.spec.hidden_dim)
            offsets = np.concatenate(([0], np.cumsum(widths)))
            tap_grads = [z_grad[:, offsets[i]:offsets[i + 1]] for i in range(len(self.taps))]
        # gradient on each state's node matrix; None where nothing reads it
        # or it reaches no trained parameter
        state_grads = [None] * (self._live + 1)
        for t, (_, ro), gmat in zip(self._tap_index, self.taps, tap_grads):
            # every readout the forward ran gets its one backward, which
            # releases its cache, also where it computes nothing
            mat = ro.backward(gmat, input_grad=self._grad_into[t])
            state_grads[t] = _add(state_grads[t], mat)
        for s in range(self._live, 0, -1):
            name, layer = self._stages[s - 1]
            if not self._grad_into[s]:
                layer._cache = None  # frozen, nothing trained before it: no backward
                continue
            x_grad, layer_grads = layer.backward(state_grads[s],
                                                 input_grad=self._grad_into[s - 1])
            grads.update({f"{name}.{k}": g for k, g in layer_grads.items()})
            state_grads[s - 1] = _add(state_grads[s - 1], x_grad)
        self.last_grads = {name: grads[name] if name in grads and name not in self.frozen
                           else np.zeros_like(p) for name, p in self.params.items()}
        return self.last_grads

    def predict(self, batch: Batch) -> np.ndarray:
        """Predicted class per graph; ties resolve to the lowest class index."""
        return np.argmax(self.forward(batch), axis=1)

    # ------------------------------------------------------------ inspection

    def block_stages(self):
        """(layer id, layer) pairs for the convolution/pool stack, in order."""
        return list(self._stages)

    def run_blocks(self, state: State, upto: int, first: int = 0) -> list:
        """Forward through flat stages ``first``..``upto`` of the block stack
        only (0 = first convolution, 1 = its pool, and so on), from the state
        entering stage ``first`` (``Batch.state`` for stage 0); returns the
        output state of each of those stages."""
        if not 0 <= first <= upto < len(self._stages):
            raise StateError(f"block stages {first}..{upto} out of range")
        return self._walk(state, upto + 1, first)[1:]

    def trace_states(self):
        """(layer id, output, preactivation-or-None) per block stage the most
        recent forward ran."""
        if self._cache is None:
            raise StateError("no cached forward state to trace")
        return [(name, st.x, layer.last_preactivation)
                for (name, layer), st in zip(self._stages, self._cache[1:])]


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
        gcn = GcnLayer(np.zeros((fan_in, hidden)), np.zeros(hidden), activation="relu")
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
    if spec.jk_agg == "sum" and len(set(widths)) > 1:
        raise SpecError(f"jk_agg 'sum' needs taps of equal width, {spec.kind} has {widths}")
    mlp_in = widths[0] if spec.jk_agg == "sum" else sum(widths)

    dims = [mlp_in, spec.mlp_dims[0], spec.mlp_dims[1], num_classes]
    mlp = [DenseLayer(np.zeros((dims[j], dims[j + 1])), np.zeros(dims[j + 1]),
                      activation="relu" if j < 2 else "none")
           for j in range(3)]

    frozen = set()
    if spec.kind == "gcn_r_mlp":
        for i in range(1, nblocks + 1):
            frozen.add(f"gcn{i}.W")
            frozen.add(f"gcn{i}.b")

    model = Model(spec, num_features, num_classes, blocks, taps, mlp, frozen)
    init_standard(model, rng)
    return model
