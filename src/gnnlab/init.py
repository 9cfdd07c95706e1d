"""Parameter initialisation and the data-driven variance rescaling pass.

The standard scheme draws convolution weights from a fan-in-scaled normal
distribution and projection/dense weights from a fan-sum-scaled uniform one;
biases start at zero. The rescaling pass ("reinit") then makes every block
emit unit-variance activations on a calibration set, in one loop of sweeps
over the block stack: sweep i takes the state entering stage i, whose
standard deviation verifies stage i - 1, then runs stage i and divides out
its output's. The calibration graphs, merged once, run in the chunks
training uses (:func:`gnnlab.graphdata.chunks`), and each sweep resumes from
the halves the one before it kept in memory: per chunk, a stage's output
before its divisor, its output adjacency and the graph sizes. A training
fold of more than ``REINIT_ENTRIES // Model.width`` nodes calibrates on a
class-stratified sample within that many (:func:`calibration_sample`), so
the halves stay within about 2 x ``REINIT_ENTRIES`` x 8 B plus the adjacency.
Each stage applies its divisor itself (``rescale``): a convolution
folds it into its weights and bias; a pool, whose scores ignore the norm of
its projection, keeps it as a forward-time scale. Which scheme a run uses is
its :class:`~gnnlab.config.InitScheme`, declared with the other settings in
:mod:`gnnlab.config`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import InitScheme, Settings  # noqa: F401  (InitScheme: importable from here too)
from .errors import CalibrationError
from .graphdata import CHUNK_ENTRIES, Batch, State, chunks
from .numcore import Moments, Rng

REINIT_TOL = 1e-6
# calibration nodes x Model.width that reinit holds per sweep: 8192 nodes at width 128
REINIT_ENTRIES = 32 * CHUNK_ENTRIES


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


def calibration_sample(model, graphs, rng: Rng) -> list:
    """The graphs :func:`reinit` calibrates ``model`` on: all of ``graphs``
    while their nodes fit the budget of ``REINIT_ENTRIES // model.width``,
    else a class-stratified sample drawn with ``rng``.

    Each class's graphs are permuted, graph j of a class of n ranked at
    (j + 1/2) / n, and all classes merged by rank, ties by class, so every
    prefix holds each class within about one graph of its share. The sample
    is the longest prefix within the budget, never less than one graph, in
    the order of ``graphs``.
    """
    graphs = list(graphs)
    batch = Batch.of(graphs)
    budget = REINIT_ENTRIES // model.width
    if int(batch.sizes.sum()) <= budget:
        return graphs
    labels, rank = batch.labels, np.empty(len(graphs))
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        rank[members[rng.permutation(members.shape[0])]] = \
            (np.arange(members.shape[0]) + 0.5) / members.shape[0]
    order = np.lexsort((labels, rank))
    take = max(1, int(np.count_nonzero(np.cumsum(batch.sizes[order]) <= budget)))
    return [graphs[i] for i in np.sort(order[:take])]


def _entering(model, calibration, held, idx: int):
    """Per calibration chunk, the state entering flat stage ``idx``: the raw
    chunk for stage 0, else stage ``idx - 1``'s ``held`` halves resumed under
    its final divisor, one alive at a time."""
    if not idx:
        return (batch.state for batch in chunks(calibration, model.width))
    prev = model.block_stages()[idx - 1][1]
    return (State(adj, prev.resume(half), sizes) for adj, half, sizes in held)


def reinit(model, calibration) -> ReinitReport:
    """Rescale each block in turn so its calibration-set output std is one.

    One loop of S + 1 sweeps over the flattened conv/pool stack of S stages;
    none when S is 0. Sweep ``idx`` takes each chunk's state entering stage
    ``idx``, from everything rescaled so far, and pools its std to verify
    stage ``idx - 1``, which rescaling later stages leaves unchanged. While
    stages remain, it then runs stage ``idx`` once per chunk, measures that
    output's std (post-activation for convolutions) and applies its inverse.

    Each sweep starts where the one before it left off. A divisor touches
    only a stage's last step (``resume``), so sweep i keeps each chunk's
    unscaled ``half`` of stage i in memory with its output adjacency and
    sizes, and sweep i + 1 resumes those halves under stage i's final
    divisor: S layer forwards plus S divisor applications per chunk, each
    stage seeing, bit for bit, the input a walk from the raw chunk gives it.
    At most two sweeps' halves are held at once, each about calibration
    nodes x ``Model.width`` x 8 B plus 8 B per adjacency entry, which
    :func:`calibration_sample` bounds. The MLP head is never touched. Raises
    :class:`CalibrationError` when a stage's output std is not finite or its
    output is constant, then when a rescaled std misses one by more than
    ``REINIT_TOL``.
    """
    if not calibration:
        raise CalibrationError("reinit needs a non-empty calibration set")
    calibration = Batch.of(calibration)
    stages = model.block_stages()
    divisors, post_std = [], []
    held = None  # per chunk, the previous sweep's output adjacency, half and sizes
    for idx in range(len(stages) + 1) if stages else ():
        verified, measured, halves = Moments(), Moments(), []
        for state in _entering(model, calibration, held, idx):
            if idx:
                verified.add(state.x)
            if idx < len(stages):
                out, = model.run_blocks(state, idx, idx)
                measured.add(out.x)
                halves.append((out.adj, stages[idx][1].half, out.sizes))
        held = halves
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
    report = ReinitReport(tuple(name for name, _ in stages), tuple(divisors), tuple(post_std))
    for name, post in zip(report.blocks, report.post_std):
        if not abs(post - 1.0) <= REINIT_TOL:  # NaN fails too
            raise CalibrationError(
                f"block {name} std is {post:.9f} after reinit (expected 1 within {REINIT_TOL})")
    return report
