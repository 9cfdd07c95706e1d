"""Parameter initialisation and the data-driven variance rescaling pass.

The standard scheme draws convolution weights from a fan-in-scaled normal
distribution and projection/dense weights from a fan-sum-scaled uniform one;
biases start at zero. The rescaling pass ("reinit") then makes every block
emit unit-variance activations on a calibration set, in one loop of sweeps
over the block stack: sweep i takes the state entering stage i, whose
standard deviation verifies stage i - 1, then runs stage i and divides out
its output's. The calibration graphs, merged once, run in the chunks
training uses (:func:`gnnlab.graphdata.chunks`), and each sweep resumes from
a temp-file stash of raw arrays the one before it left: per chunk, a stage's
output before its divisor, its output adjacency's CSR arrays and the graph
sizes. Each stage applies its divisor itself (``rescale``): a convolution
folds it into its weights and bias; a pool, whose scores ignore the norm of
its projection, keeps it as a forward-time scale. Which scheme a run uses is
its :class:`~gnnlab.config.InitScheme`, declared with the other settings in
:mod:`gnnlab.config`.
"""

import math
import tempfile
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .config import InitScheme, Settings  # noqa: F401  (InitScheme: importable from here too)
from .errors import CalibrationError
from .graphdata import Batch, State, chunks
from .numcore import Moments, Rng, SparseAdj

REINIT_TOL = 1e-6


@dataclass(frozen=True)
class ReinitReport(Settings):
    """Per-block divisors and the verified post-rescale output stds."""
    blocks: tuple[str, ...]
    divisors: tuple[float, ...]
    post_std: tuple[float, ...]

    def __post_init__(self):
        if not len(self.blocks) == len(self.divisors) == len(self.post_std):
            raise ValueError("blocks, divisors and post_std must be of one length")


def kaiming_std(fan_in: int) -> float:
    return math.sqrt(2.0 / fan_in)


def glorot_bound(fan_in: int, fan_out: int) -> float:
    return math.sqrt(6.0 / (fan_in + fan_out))


def init_standard(model, rng: Rng) -> None:
    """Kaiming-normal convolution weights, Glorot-uniform pool/dense weights,
    zero biases, unit pool scale divisors. Draw order follows the registry."""
    for gcn, pool in model.blocks:
        gcn.w[...] = rng.normal(*gcn.w.shape, kaiming_std(gcn.w.shape[0]))
        gcn.b[...] = 0.0
        if pool is not None:
            f = pool.p.shape[0]
            pool.p[...] = rng.uniform(1, f, glorot_bound(f, 1))[0]
            pool.scale = 1.0
    for layer in model.mlp:
        layer.w[...] = rng.uniform(*layer.w.shape, glorot_bound(*layer.w.shape))
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


def _entering(model, calibration, stash, idx: int):
    """Per calibration chunk, one alive at a time, the state entering flat
    stage ``idx``: stage ``idx - 1``'s halves in ``stash``, which is closed
    once read, resumed under its final divisor or, without a stash, the raw
    chunk walked through stages ``0..idx - 1``."""
    if stash is not None:
        prev = model.block_stages()[idx - 1][1]
        for adj, half, sizes in stash.read():
            yield State(adj, prev.resume(half), sizes)
        stash.close()
    else:
        for batch in chunks(calibration, model.width):
            yield model.run_blocks(batch.state, idx - 1)[-1] if idx else batch.state


def reinit(model, calibration) -> ReinitReport:
    """Rescale each block in turn so its calibration-set output std is one.

    One loop of S + 1 sweeps over the flattened conv/pool stack of S stages;
    none when S is 0. Sweep ``idx`` takes each chunk's state entering stage
    ``idx``, from everything rescaled so far, and pools its std to verify
    stage ``idx - 1``, which rescaling later stages leaves unchanged. While
    stages remain, it then runs stage ``idx`` once per chunk, measures that
    output's std (post-activation for convolutions) and applies its inverse.

    Each sweep starts where the one before it left off. A divisor touches
    only a stage's last step (``resume``), so sweep i stashes each chunk's
    unscaled ``half`` of stage i with its output adjacency and sizes
    (:class:`_Stash`), and sweep i + 1 resumes those halves under stage i's
    final divisor: S layer forwards plus S divisor applications per chunk,
    each stage seeing, bit for bit, the input a walk from the raw chunk
    gives it. Of the S stash files at most two are open at once, each about
    calibration nodes x ``Model.width`` x 8 B plus 8 B per adjacency entry.
    A sweep whose stash cannot be created or written leaves none, and the
    next sweep walks every chunk from its raw batch. The MLP head is never
    touched. Raises :class:`CalibrationError` when a stage's output std is
    not finite or its output is constant, then when a rescaled std misses
    one by more than ``REINIT_TOL``, and when a written stash cannot be read
    back in full.
    """
    if not calibration:
        raise CalibrationError("reinit needs a non-empty calibration set")
    calibration = Batch.of(calibration)
    stages = model.block_stages()
    divisors, post_std = [], []
    read = write = None  # the stashes the current sweep reads and writes
    try:
        for idx in range(len(stages) + 1) if stages else ():
            verified, measured = Moments(), Moments()
            write = _Stash() if idx < len(stages) else None
            for state in _entering(model, calibration, read, idx):
                if idx:
                    verified.add(state.x)
                if write is not None:
                    out, = model.run_blocks(state, idx, idx)
                    measured.add(out.x)
                    write.write(out.adj, stages[idx][1].half, out.sizes)
            read = write if write is not None and write.seal() else None
            if idx:
                post_std.append(verified.std())
            if idx < len(stages):
                name, layer = stages[idx]
                sigma = measured.std()
                if not math.isfinite(sigma):
                    raise CalibrationError(f"block {name} output std is {sigma} during reinit")
                if sigma < 1e-300:
                    raise CalibrationError(f"block {name} produced constant output during reinit")
                layer.rescale(sigma)
                divisors.append(sigma)
    finally:
        for stash in filter(None, (read, write)):
            stash.close()
    report = ReinitReport(tuple(name for name, _ in stages), tuple(divisors), tuple(post_std))
    for name, post in zip(report.blocks, report.post_std):
        if not abs(post - 1.0) <= REINIT_TOL:  # NaN fails too
            raise CalibrationError(
                f"block {name} std is {post:.9f} after reinit (expected 1 within {REINIT_TOL})")
    return report
