"""In-memory span tracer and the hooks that time gnnlab from outside.

Every hook replaces the attribute its caller resolves at call time (a module
function such as ``gnnlab.training.cross_entropy`` or a class attribute such
as ``GcnLayer.forward``) with a wrapper that records a span: name, start, end
and parent span. A hook whose target no longer exists is reported as absent
instead of failing the run. Spans stay in memory until the run ends.
"""

import importlib
import inspect
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Hook:
    name: str          # span name; layer hooks append ".fwd"/".bwd" themselves
    module: str
    path: str          # attribute path inside the module, e.g. "SparseAdj.induced"
    layer: str = ""    # layer kind for forward/backward methods of a layer class
    phase: str = ""    # "fwd" or "bwd" for layer hooks


def _spmm_madds(args):
    """Multiply-adds of ``spmm(indptr, indices, data, x)``: nnz times F."""
    return int(args[1].shape[0]) * int(args[3].shape[1])


COUNTERS = {"kernels.spmm": ("kernels.spmm.madds", _spmm_madds)}

HOOKS = (
    Hook("kernels.spmm", "gnnlab._kernels", "spmm"),
    Hook("kernels.gcn_norm", "gnnlab._kernels", "gcn_norm"),
    Hook("kernels.induced_subgraph", "gnnlab._kernels", "induced_subgraph"),
    Hook("numcore.from_edges", "gnnlab.numcore", "SparseAdj.from_edges"),
    Hook("numcore.normalized", "gnnlab.numcore", "SparseAdj.normalized"),
    Hook("numcore.induced", "gnnlab.numcore", "SparseAdj.induced"),
    Hook("graphdata.parse_tu", "gnnlab.graphdata", "parse_tu"),
    Hook("graphdata.stratified_folds", "gnnlab.graphdata", "stratified_folds"),
    Hook("layers.gcn", "gnnlab.layers", "GcnLayer.forward", "gcn", "fwd"),
    Hook("layers.gcn", "gnnlab.layers", "GcnLayer.backward", "gcn", "bwd"),
    Hook("layers.pool", "gnnlab.layers", "TopKPool.forward", "pool", "fwd"),
    Hook("layers.pool", "gnnlab.layers", "TopKPool.backward", "pool", "bwd"),
    Hook("layers.readout", "gnnlab.layers", "Readout.forward", "readout", "fwd"),
    Hook("layers.readout", "gnnlab.layers", "Readout.backward", "readout", "bwd"),
    Hook("layers.dense", "gnnlab.layers", "DenseLayer.forward", "dense", "fwd"),
    Hook("layers.dense", "gnnlab.layers", "DenseLayer.backward", "dense", "bwd"),
    Hook("models.forward", "gnnlab.models", "Model.forward"),
    Hook("models.backward", "gnnlab.models", "Model.backward"),
    Hook("models.run_blocks", "gnnlab.models", "Model.run_blocks"),
    # prepare_fold_model resolves reinit in the training module's namespace
    Hook("init.reinit", "gnnlab.training", "reinit"),
    Hook("training.train_model", "gnnlab.training", "train_model"),
    Hook("training.cross_entropy", "gnnlab.training", "cross_entropy"),
    Hook("training.adam.step", "gnnlab.training", "Adam.step"),
    Hook("training.evaluate", "gnnlab.training", "evaluate"),
    Hook("diagnostics.record_forward", "gnnlab.diagnostics", "record_forward"),
    Hook("diagnostics.record_backward", "gnnlab.diagnostics", "record_backward"),
)

STEP_HOOK = Hook("training.adam.step", "gnnlab.training", "Adam.step")


class Tracer:
    """Spans in parallel typed arrays; a span is opened before its children,
    so a parent's index is always lower than its children's."""

    def __init__(self):
        self.names = []
        self._index = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.counters = {}
        self.layer_ids = {}  # id(layer object) -> layer id such as "gcn1"

    def open(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_of.append(idx)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    def count(self, name: str, amount) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def register_layers(self, stages) -> None:
        for layer_id, layer in stages:
            self.layer_ids[id(layer)] = layer_id

    def arrays(self) -> dict:
        return {"name_of": np.array(self.name_of, dtype=np.int64),
                "parent": np.array(self.parent, dtype=np.int64),
                "start": np.array(self.start, dtype=np.float64),
                "end": np.array(self.end, dtype=np.float64)}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self, windows=None) -> dict:
        """Per span name: calls, self time and total time of the spans that
        start inside one of the ``(start, end)`` windows (all spans if None)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_t = dur - child
        keep = np.ones(dur.shape[0], dtype=bool)
        if windows is not None:
            keep[:] = False
            for lo, hi in windows:
                keep |= (a["start"] >= lo) & (a["start"] <= hi)
        out = {}
        names = a["name_of"][keep]
        calls = np.bincount(names, minlength=len(self.names))
        selfs = np.bincount(names, weights=self_t[keep], minlength=len(self.names))
        totals = np.bincount(names, weights=dur[keep], minlength=len(self.names))
        for k, name in enumerate(self.names):
            if calls[k]:
                out[name] = {"calls": int(calls[k]), "self_s": float(selfs[k]),
                             "total_s": float(totals[k])}
        return out

    def windows(self, name: str) -> list:
        """(start, end) of every span with this name."""
        idx = self._index.get(name)
        if idx is None:
            return []
        a = self.arrays()
        sel = a["name_of"] == idx
        return list(zip(a["start"][sel].tolist(), a["end"][sel].tolist()))

    def count_under(self, child: str, parent: str) -> int:
        """Spans named ``child`` whose direct parent is named ``parent``."""
        ci, pi = self._index.get(child), self._index.get(parent)
        if ci is None or pi is None:
            return 0
        a = self.arrays()
        parents = a["parent"][a["name_of"] == ci]
        parents = parents[parents >= 0]
        return int(np.count_nonzero(a["name_of"][parents] == pi))


def _resolve(hook: Hook):
    owner = importlib.import_module(hook.module)
    *outer, attr = hook.path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    raw = inspect.getattr_static(owner, attr)
    return owner, attr, raw


def _span_wrapper(tracer: Tracer, hook: Hook, fn):
    counter = COUNTERS.get(hook.name)
    if hook.layer:
        ids = tracer.layer_ids
        prefix = f"layers.{hook.layer}.{hook.phase}"

        def layer_method(self, *args, **kwargs):
            layer_id = ids.get(id(self))
            i = tracer.open(prefix if layer_id is None else f"{prefix}@{layer_id}")
            try:
                return fn(self, *args, **kwargs)
            finally:
                tracer.close(i)
        return layer_method

    def call(*args, **kwargs):
        if counter is not None:
            try:
                tracer.count(counter[0], counter[1](args))
            except (AttributeError, IndexError, TypeError):  # the signature moved
                tracer.count(counter[0] + ".unreadable", 1)
        i = tracer.open(hook.name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(i)
    return call


class Patch:
    """Installed hooks; ``remove`` puts the original attributes back."""

    def __init__(self):
        self.absent = []
        self._restore = []

    def install(self, hook: Hook, make_wrapper) -> None:
        try:
            owner, attr, raw = _resolve(hook)
        except (ImportError, AttributeError):
            self.absent.append(f"{hook.module}.{hook.path}")
            return
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(make_wrapper(raw.__func__))
        else:
            new = make_wrapper(raw)
        self._restore.append((owner, attr, raw, attr in vars(owner)))
        setattr(owner, attr, new)

    def remove(self) -> None:
        for owner, attr, raw, own in reversed(self._restore):
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self._restore.clear()


def install_tracing(tracer: Tracer) -> Patch:
    patch = Patch()
    for hook in HOOKS:
        patch.install(hook, lambda fn, hook=hook: _span_wrapper(tracer, hook, fn))
    return patch


def install_step_clock(stamps: list) -> Patch:
    """The untraced run's only hook: the time each optimiser step returns."""
    clock = time.perf_counter

    def make(fn):
        def step(*args, **kwargs):
            out = fn(*args, **kwargs)
            stamps.append(clock())
            return out
        return step
    patch = Patch()
    patch.install(STEP_HOOK, make)
    return patch
