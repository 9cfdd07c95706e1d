"""Parameter initialisation and the data-driven variance rescaling pass.

The standard scheme draws convolution weights from a fan-in-scaled normal
distribution and projection/dense weights from a fan-sum-scaled uniform one;
biases start at zero. The rescaling pass ("reinit") then walks the block
stack in order, measuring the standard deviation of each block's output over
a calibration set and dividing it out, so every block emits unit-variance
activations on that set. The calibration graphs, merged once, run through
the blocks in the chunks training uses (:func:`gnnlab.graphdata.chunks`),
and each sweep resumes from a temp-file stash of raw arrays the one before
it left: per chunk, a stage's output before its divisor, its output
adjacency's CSR arrays and the graph sizes. Each stage applies its divisor
itself (``rescale``): a convolution folds it into its weights and bias; a
pool, whose scores ignore the norm of its projection, keeps it as a
forward-time scale. Which scheme a run uses is its
:class:`~gnnlab.config.InitScheme`, declared with the other settings in
:mod:`gnnlab.config`.
"""

import math
import tempfile
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from .config import InitScheme  # noqa: F401  (importable from here too)
from .errors import CalibrationError
from .graphdata import Batch, State, chunks
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
    """Stage halves of successive calibration chunks, written in chunk order
    to an anonymous temp file (no path, mode 0600, in ``$TMPDIR``) and read
    back in that order: per chunk, four int64s (nodes, adjacency entries,
    columns, graphs), then the raw output adjacency CSR, half and sizes. When
    the file cannot be created or written (a full disk, say) the stash drops
    it and stays unusable, so the next sweep walks from the raw chunks."""

    def __init__(self):
        self._count = 0
        try:
            self._fh = tempfile.TemporaryFile()
        except OSError:
            self._fh = None

    def write(self, adj: SparseAdj, half: np.ndarray, sizes: np.ndarray) -> None:
        if self._fh is None:
            return
        head = [adj.n, adj.indices.shape[0], half.shape[1], sizes.shape[0]]
        try:
            for a in (np.array(head), adj.indptr, adj.indices, half, sizes):
                self._fh.write(np.ascontiguousarray(a))
            self._count += 1
        except OSError:
            self.close()

    def seal(self) -> bool:
        """Flush what is still buffered and rewind for reading; whether every
        chunk reached the file."""
        if self._fh is not None:
            try:
                self._fh.flush()
                self._fh.seek(0)
            except OSError:
                self.close()
        return self._fh is not None

    def read(self):
        for _ in range(self._count):
            n, nnz, cols, graphs = self._fill(4, np.int64).tolist()
            adj = SparseAdj(n, self._fill(n + 1, np.int64), self._fill(nnz, np.int64))
            yield adj, self._fill((n, cols)), self._fill(graphs, np.int64)

    def _fill(self, shape, dtype=np.float64) -> np.ndarray:
        buf = np.empty(shape, dtype=dtype)
        try:
            if self._fh.readinto(buf) != buf.nbytes:
                raise EOFError("the file ends early")
        except (OSError, EOFError) as exc:
            raise CalibrationError(f"reinit cannot read back its stage stash in "
                                   f"{tempfile.gettempdir()}: {exc}") from exc
        return buf

    def close(self) -> None:
        if self._fh is not None:
            with suppress(OSError):  # a failed flush of data no one will read
                self._fh.close()
            self._fh = None


def _output_stds(model, calibration, stash, idx: int, into=None) -> list:
    """Output stds of flat stages ``idx - 1`` and ``idx`` (those that exist),
    each pooled over every entry of every calibration chunk. Stage ``idx -
    1``'s are its halves in ``stash`` resumed, or, without one, each chunk
    walks from its raw batch. Writes each chunk's half of stage ``idx``, with
    its output adjacency and sizes, to the stash ``into`` if given."""
    stages = model.block_stages()
    first, last = max(idx - 1, 0), min(idx, len(stages) - 1)
    if stash is None:
        runs = (model.run_blocks(b.state, last)[first:] for b in chunks(calibration, model.width))
    else:
        prev = stages[idx - 1][1]
        runs = ([State(adj, prev.resume(half), sizes)] for adj, half, sizes in stash.read())
    moments = [Moments() for _ in range(first, last + 1)]
    for outs in runs:  # lazily: one chunk alive at a time
        if stash is not None and idx == last:  # run stage idx from stage idx - 1's output
            outs += model.run_blocks(outs[0], idx, idx)
        for mom, out in zip(moments, outs):
            mom.add(out.x)
        if into is not None:
            into.write(outs[-1].adj, stages[idx][1].half, outs[-1].sizes)
    return [mom.std() for mom in moments]


def reinit(model, calibration, tol: float = REINIT_TOL) -> ReinitReport:
    """Rescale each block in turn so its calibration-set output std is one.

    Walks the flattened conv/pool stack; for each stage the calibration
    graphs are pushed through everything rescaled so far, the std of this
    stage's output (post-activation for convolutions) is measured, and its
    inverse is applied. Rescaling a stage leaves the stages before it
    unchanged, so the sweep that measures stage i also verifies stage i - 1;
    one more sweep verifies the last stage: S + 1 sweeps for S stages.

    Each sweep starts where the one before it left off. A divisor touches
    only a stage's last step (``resume``), so sweep i runs stage i alone and
    stashes each chunk's unscaled ``half`` of it with its output adjacency
    and sizes (:class:`_Stash`), and sweep i + 1 resumes those halves under
    stage i's final divisor: S layer forwards plus S divisor applications
    per chunk, each stage seeing, bit for bit, the input a walk from the raw
    chunk gives it. Of the S stash files at most two are open at once, each
    about calibration nodes x ``Model.width`` x 8 B plus 8 B per adjacency
    entry. A sweep whose stash cannot be created or written leaves none, and
    the next sweep walks every chunk from its raw batch. The MLP head is
    never touched. Raises :class:`CalibrationError` when a stage emits
    constant output, then when a rescaled std misses one by more than
    ``tol``, and when a written stash cannot be read back in full.
    """
    if not calibration:
        raise CalibrationError("reinit needs a non-empty calibration set")
    calibration = Batch.of(calibration)
    stages = model.block_stages()
    report = ReinitReport()
    read = write = None  # the stashes the current sweep reads and writes
    try:
        for idx, (name, layer) in enumerate(stages):
            write = _Stash()
            *verified, sigma = _output_stds(model, calibration, read, idx, write)
            if read is not None:
                read.close()
            read, write = write, None
            if read is not None and not read.seal():
                read = None
            report.post_std += verified
            if sigma < 1e-300:
                raise CalibrationError(f"block {name} produced constant output during reinit")
            layer.rescale(sigma)
            report.blocks.append(name)
            report.divisors.append(float(sigma))
        if stages:
            report.post_std += _output_stds(model, calibration, read, len(stages))
    finally:
        for stash in (read, write):
            if stash is not None:
                stash.close()
    for name, post in zip(report.blocks, report.post_std):
        if abs(post - 1.0) > max(tol, 1e-9):
            raise CalibrationError(
                f"block {name} std is {post:.9f} after reinit (expected 1 within {tol})")
    return report
