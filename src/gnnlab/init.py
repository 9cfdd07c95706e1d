"""Parameter initialisation and the data-driven variance rescaling pass.

The standard scheme draws convolution weights from a fan-in-scaled normal
distribution and projection/dense weights from a fan-sum-scaled uniform one;
biases start at zero. The rescaling pass ("reinit") then walks the block
stack in order, measuring the standard deviation of each block's output over
a calibration set and dividing it out, so every block emits unit-variance
activations on that set. The calibration graphs run through the blocks in
the chunks training uses (:func:`gnnlab.graphdata.chunks`, bounded by
node count times ``Model.width``),
and each sweep resumes from the stage states the one before it left in a
temp-file stash of plain arrays: per chunk, the adjacency's CSR arrays, the
node rows and the graph sizes.
Convolution divisors are folded into the weights and bias; pool divisors are
kept as forward-time scale factors because the pool scores are
projection-norm invariant, leaving no weight to fold into. Which scheme a
run uses is its :class:`~gnnlab.config.InitScheme`, declared with the other
settings in :mod:`gnnlab.config`.
"""

import math
import pickle
import tempfile
from contextlib import suppress
from dataclasses import dataclass, field

from .config import InitScheme  # noqa: F401  (importable from here too)
from .errors import CalibrationError
from .graphdata import State, chunks
from .layers import GcnLayer, TopKPool
from .numcore import Moments, Rng, SparseAdj

REINIT_TOL = 1e-6


@dataclass
class ReinitReport:
    """Per-block divisors and the verified post-rescale output stds."""
    blocks: list = field(default_factory=list)
    divisors: list = field(default_factory=list)
    post_std: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"blocks": list(self.blocks),
                "divisors": [float(v) for v in self.divisors],
                "post_std": [float(v) for v in self.post_std]}


def kaiming_std(fan_in: int) -> float:
    return math.sqrt(2.0 / fan_in)


def glorot_bound(fan_in: int, fan_out: int) -> float:
    return math.sqrt(6.0 / (fan_in + fan_out))


def init_standard(model, rng: Rng) -> None:
    """Kaiming-normal convolution weights, Glorot-uniform pool/dense weights,
    zero biases, unit pool scale divisors. Draw order follows the registry."""
    for gcn, pool in model.blocks:
        gcn.w[...] = rng.normal(gcn.fan_in, gcn.fan_out, kaiming_std(gcn.fan_in))
        gcn.b[...] = 0.0
        if pool is not None:
            f = pool.p.shape[0]
            pool.p[...] = rng.uniform(1, f, glorot_bound(f, 1))[0]
            pool.scale = 1.0
    for layer in model.mlp:
        layer.w[...] = rng.uniform(layer.fan_in, layer.fan_out,
                                   glorot_bound(layer.fan_in, layer.fan_out))
        layer.b[...] = 0.0


class _Stash:
    """Block-stack states of successive calibration chunks, written in chunk
    order to an anonymous temp file (no path, mode 0600, in ``$TMPDIR``) and
    read back in that order: per state, the adjacency's three CSR arrays,
    the node rows and the graph sizes. When the file cannot be created or
    written (a full disk, say) the stash drops it and stays unusable, so the
    next sweep walks from the raw chunks instead."""

    def __init__(self):
        self._count = 0
        try:
            self._fh = tempfile.TemporaryFile()
        except OSError:
            self._fh = None

    def write(self, state: State) -> None:
        if self._fh is None:
            return
        adj, x, sizes = state
        try:
            pickle.dump((adj.indptr, adj.indices, adj.weights, x, sizes),
                        self._fh, protocol=pickle.HIGHEST_PROTOCOL)
            self._count += 1
        except OSError:
            self.close()

    def seal(self) -> bool:
        """Flush what is still buffered and rewind for reading; whether every
        state reached the file."""
        if self._fh is not None:
            try:
                self._fh.flush()
                self._fh.seek(0)
            except OSError:
                self.close()
        return self._fh is not None

    def read(self):
        for _ in range(self._count):
            try:
                indptr, indices, weights, x, sizes = pickle.load(self._fh)
            except OSError as exc:
                raise CalibrationError(f"reinit cannot read back its stage stash in "
                                       f"{tempfile.gettempdir()}: {exc}") from exc
            adj = SparseAdj(indptr.shape[0] - 1, indptr, indices, weights)
            yield State(adj, x, sizes)

    def close(self) -> None:
        if self._fh is not None:
            with suppress(OSError):  # a failed flush of data no one will read
                self._fh.close()
            self._fh = None


def _output_stds(model, calibration, stash, first: int, upto: int, into=None) -> list:
    """Output stds of flat stages ``first``..``upto`` in one sweep over the
    calibration chunks, each std pooled over every entry of every chunk. The
    states entering stage ``first`` are read back from ``stash``, or, without
    one, each chunk walks from its raw batch at stage 0. Writes each chunk's
    output state of stage ``first`` to the stash ``into`` when one is given."""
    if stash is not None:
        states, start = stash.read(), first
    else:
        states, start = (batch.state for batch in chunks(calibration, model.width)), 0
    moments = [Moments() for _ in range(first, upto + 1)]
    for state in states:  # lazily: one chunk alive at a time
        outs = model.run_blocks(state, upto, start)[first - start:]
        for mom, out in zip(moments, outs):
            mom.add(out.x)
        if into is not None:
            into.write(outs[0])
    return [mom.std() for mom in moments]


def reinit(model, calibration, tol: float = REINIT_TOL) -> ReinitReport:
    """Rescale each block in turn so its calibration-set output std is one.

    Walks the flattened conv/pool stack; for each stage the calibration
    graphs are pushed through everything rescaled so far, the std of this
    stage's output (post-activation for convolutions) is measured, and its
    inverse is applied. Rescaling a stage leaves the stages before it
    unchanged, so the sweep that measures stage i also verifies stage i - 1;
    one more sweep verifies the last stage: S + 1 sweeps for S stages.

    Each sweep starts where the one before it left off: sweep i >= 1 runs
    stages i - 1 and i and writes every chunk's output of stage i - 1, final
    once its divisor is applied, to a temp-file stash (:class:`_Stash`); the
    next sweep reads those states back instead of re-running the stages
    before. That is 2S layer forwards per chunk, with every stage seeing the
    same input as a walk from the raw chunk would give it. At most two stash
    files are open at once, each about (calibration nodes x hidden width x
    8 B). A sweep whose stash cannot be created or written leaves none, and
    the next sweep walks every chunk from its raw batch as a reinit without
    a stash would. The MLP head is never touched. Raises
    :class:`CalibrationError` when a stage emits constant output, then when
    a rescaled std misses one by more than ``tol``, and when a written stash
    cannot be read back.
    """
    if not calibration:
        raise CalibrationError("reinit needs a non-empty calibration set")
    stages = model.block_stages()
    report = ReinitReport()
    read = write = None  # the stashes the current sweep reads and writes
    try:
        for idx, (name, layer) in enumerate(stages):
            if idx:
                write = _Stash()
            first = max(idx - 1, 0)
            *verified, sigma = _output_stds(model, calibration, read, first, idx, write)
            if read is not None:
                read.close()
            read, write = write, None
            if read is not None and not read.seal():
                read = None
            report.post_std += verified
            if sigma < 1e-300:
                raise CalibrationError(f"block {name} produced constant output during reinit")
            if isinstance(layer, GcnLayer):
                layer.w /= sigma
                layer.b /= sigma
            elif isinstance(layer, TopKPool):
                layer.scale *= sigma
            report.blocks.append(name)
            report.divisors.append(float(sigma))
        if stages:
            last = len(stages) - 1
            report.post_std += _output_stds(model, calibration, read, last, last)
    finally:
        for stash in (read, write):
            if stash is not None:
                stash.close()
    for name, post in zip(report.blocks, report.post_std):
        if abs(post - 1.0) > max(tol, 1e-9):
            raise CalibrationError(
                f"block {name} std is {post:.9f} after reinit (expected 1 within {tol})")
    return report
