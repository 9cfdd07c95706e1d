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
Each tap reads one state of that walk, named by its index: 0 the input, s the
output of flat stage s - 1. Forward stops at the last state a tap reads: with
convolution taps, ``jk_sum`` never runs its third pool. The
batch's adjacency is gathered only when a stage runs: never for ``mlp``.
"""

import functools

import numpy as np

from .config import ModelSpec
from .errors import ShapeError, SpecError, StateError
from .graphdata import Batch, State
from .init import init_standard
from .layers import DenseLayer, GcnLayer, Readout, TopKPool
from .numcore import Rng


_BLOCKS = {"mlp": 0, "gcn_mlp": 1, "gcn_r_mlp": 1, "jk_sum": 3, "probe4": 4}


@functools.cache
def _layout(spec: ModelSpec, num_features: int, num_classes: int) -> tuple:
    """A model of the spec as far as the arguments fix it, worked out once
    for each, off every build's cost: the state each tap reads, whether each
    state's gradient reaches a trained parameter, readout kind, MLP-input
    columns, each parameter's (name, shape, span of ``theta``) in registry
    order (trained spans first), the frozen names, trained and total sizes."""
    if num_features < 1 or num_classes < 1:
        raise SpecError("need at least one feature and one class")
    nblocks, hidden = _BLOCKS[spec.kind], spec.hidden_dim
    pooled = spec.kind in ("jk_sum", "probe4")
    nstages = nblocks * (1 + pooled)
    # state 0 is the input, state s the output of flat stage s - 1; jk_sum's
    # block i convolves into state 2i + 1 and pools into 2i + 2
    taps = {"mlp": (0,), "gcn_mlp": (0, 1), "gcn_r_mlp": (0, 1), "probe4": (nstages,),
            "jk_sum": tuple(2 * i + 1 + spec.tap_pooled for i in range(nblocks))}[spec.kind]
    readout = {"jk_sum": "max_and_sum", "probe4": "mean"}.get(spec.kind, spec.readout_kind)
    widths = [Readout(readout).width(hidden if t else num_features) for t in taps]
    # summed taps add elementwise; concatenated ones side by side
    if spec.jk_agg == "sum" and len(set(widths)) > 1:
        raise SpecError(f"jk_agg 'sum' needs taps of equal width, {spec.kind} has {widths}")
    tap_cols = tuple(slice(e - w, e) for w, e in zip(widths, np.cumsum(widths).tolist()))
    shapes = {}
    for i in range(1, nblocks + 1):
        shapes[f"gcn{i}.W"] = (num_features if i == 1 else hidden, hidden)
        shapes[f"gcn{i}.b"] = (hidden,)
        if pooled:
            shapes[f"pool{i}.p"] = (hidden,)
    dims = [widths[0] if spec.jk_agg == "sum" else sum(widths), *spec.mlp_dims, num_classes]
    for j in range(1, 4):
        shapes[f"mlp{j}.W"] = (dims[j - 1], dims[j])
        shapes[f"mlp{j}.b"] = (dims[j],)
    # the fixed-weight baseline keeps its convolution at its initial values
    frozen = frozenset(n for n in shapes if spec.kind == "gcn_r_mlp" and n.startswith("gcn"))
    spans, end = {}, 0
    for name in sorted(shapes, key=frozen.__contains__):  # stable: trained first
        spans[name] = slice(end, end + int(np.prod(shapes[name])))
        end = spans[name].stop
    # the gradient on state s reaches a trained parameter when a stage before
    # it has one: every stage does, save gcn_r_mlp's one frozen convolution
    grad_into = tuple(s > 0 and not frozen for s in range(nstages + 1))
    return (taps, grad_into, readout, tap_cols,
            tuple((name, shape, spans[name]) for name, shape in shapes.items()), frozen,
            sum(int(np.prod(shape)) for name, shape in shapes.items() if name not in frozen), end)


class Model:
    """An instantiated layer stack with a named-parameter registry.

    Every parameter is a view into ``theta``, held by its layer, and its
    gradient one into ``grad``; both start with the ``n_trained`` trained
    entries. ``params`` and ``last_grads`` name the views in registry order.

    ``taps`` lists (state, Readout) pairs feeding the MLP head; a state is
    an index into the state list of the stage walk: 0 is the input, s the
    output of flat stage s - 1 (see :meth:`block_stages`). Forward runs
    stages up to the highest tap state only, so a pool no tap reads is
    skipped, and caches the states, so an instance is single-owner during a
    step.
    """

    def __init__(self, spec: ModelSpec, num_features: int, num_classes: int):
        """The layer stack for the spec; :func:`build` draws its parameters."""
        (states, self._grad_into, readout, self._tap_cols, self._registry, self.frozen,
         self.n_trained, size) = _layout(spec, num_features, num_classes)
        self.spec, self.num_features, self.num_classes = spec, num_features, num_classes
        nblocks = _BLOCKS[spec.kind]
        self.taps = [(t, Readout(readout)) for t in states]
        self._live = max(states)  # stages a forward runs
        self.theta = np.zeros(size)
        self.params = p = self._views(self.theta)
        self.blocks = [(GcnLayer(p[f"gcn{i}.W"], p[f"gcn{i}.b"]),
                        TopKPool(p[f"pool{i}.p"], k=spec.k) if f"pool{i}.p" in p else None)
                       for i in range(1, nblocks + 1)]
        self.mlp = [DenseLayer(p[f"mlp{j}.W"], p[f"mlp{j}.b"],
                               activation="relu" if j < 3 else "none") for j in range(1, 4)]
        self._stages = [(f"{kind}{i}", layer) for i, block in enumerate(self.blocks, start=1)
                        for kind, layer in zip(("gcn", "pool"), block) if layer is not None]
        # entries of the widest node row a forward holds: the input's, and
        # the hidden rows of any stage; chunks are budgeted by it
        self.width = max(num_features, spec.hidden_dim) if nblocks else num_features
        self._cache = None

    def _views(self, flat) -> dict:
        """Each parameter's view of ``flat``, laid out as ``theta``, in registry order."""
        return {name: flat[span].reshape(shape) for name, shape, span in self._registry}

    @functools.cached_property
    def grad(self) -> np.ndarray:
        """The gradient vector, laid out as ``theta``; made on first use, off a build's cost."""
        return np.zeros_like(self.theta)

    @functools.cached_property
    def last_grads(self) -> dict:
        """Each parameter's gradient, its view of ``grad``, in registry order."""
        return self._views(self.grad)

    def __reduce__(self):
        """Pickle and deep copy alike rebuild the layer stack, whose parameters
        are views of its own ``theta``, and restore ``theta`` and the pool
        divisors: everything a build and its initialisation set."""
        return _restore, (self.spec, self.num_features, self.num_classes, self.theta,
                          [pool.scale for _, pool in self.blocks if pool is not None])

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
        x = batch.features
        if x.shape[1] != self.num_features:
            raise ShapeError(f"model expects {self.num_features} features, got {x.shape[1]}")
        self._cache = None  # let the previous batch's outputs go first
        # with no stage to run, the batch's adjacency is never gathered
        states = self._walk(State(batch.adj if self._live else None, x, batch.sizes), self._live)
        tap_mats = [ro.forward(states[t].x, states[t].sizes) for t, ro in self.taps]
        if self.spec.jk_agg == "sum":
            a = np.sum(tap_mats, axis=0)
        else:
            a = np.concatenate(tap_mats, axis=1)
        for layer in self.mlp:
            a = layer.forward(a)
        self._cache = states
        return a

    def backward(self, grad_scores: np.ndarray) -> dict:
        """Add the gradients of the scores of the last forward, summed over
        its graphs, into ``last_grads`` and return it. Nothing here clears
        them, so successive backwards sum. Only gradients that reach a
        trained parameter are computed: none on the raw input, and none
        through a frozen stage with nothing trained before it, which is not
        run backward; a frozen parameter's gradient thus stays zero."""
        if self._cache is None:
            raise StateError("model backward called before forward")
        self._cache = None
        grads = self.last_grads
        z_grad = np.asarray(grad_scores, dtype=np.float64)
        # reach only grows along the walk, so the last tapped state's is the head's
        for j in range(len(self.mlp), 0, -1):
            z_grad, layer_grads = self.mlp[j - 1].backward(
                z_grad, input_grad=j > 1 or self._grad_into[self._live])
            for k, g in layer_grads.items():
                grads[f"mlp{j}.{k}"] += g
        if self.spec.jk_agg == "sum" or z_grad is None:
            tap_grads = [z_grad] * len(self.taps)
        else:
            tap_grads = [z_grad[:, cols] for cols in self._tap_cols]
        # gradient on each state's node matrix; None where nothing reads it
        # or it reaches no trained parameter
        state_grads = [None] * (self._live + 1)
        for (t, ro), gmat in zip(self.taps, tap_grads):
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
            for k, g in layer_grads.items():
                grads[f"{name}.{k}"] += g
            state_grads[s - 1] = _add(state_grads[s - 1], x_grad)
        return grads

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


def _add(a, b):
    """Sum of two gradients, either of which may be None (no gradient)."""
    if a is None:
        return b
    return a if b is None else a + b


def _restore(spec, num_features, num_classes, theta, scales) -> Model:
    """The model :meth:`Model.__reduce__` describes."""
    model = Model(spec, num_features, num_classes)
    model.theta[...] = theta
    for pool, scale in zip((pool for _, pool in model.blocks if pool is not None), scales):
        pool.scale = scale
    return model


def build(spec: ModelSpec, num_features: int, num_classes: int, rng: Rng) -> Model:
    """Allocate a model for the spec and apply the standard initialisation."""
    model = Model(spec, num_features, num_classes)
    init_standard(model, rng)
    return model
