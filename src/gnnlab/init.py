"""Parameter initialisation and the data-driven variance rescaling pass.

The standard scheme draws convolution weights from a fan-in-scaled normal
distribution and projection/dense weights from a fan-sum-scaled uniform one;
biases start at zero. The rescaling pass ("reinit") then walks the block
stack in order, measuring the standard deviation of each block's output over
a calibration set and dividing it out, so every block emits unit-variance
activations on that set. The calibration graphs run through the blocks in
the node-bounded chunks training uses (:func:`gnnlab.graphdata.chunks`).
Convolution divisors are folded into the weights and bias; pool divisors are
kept as forward-time scale factors because the pool scores are
projection-norm invariant, leaving no weight to fold into. Which scheme a
run uses is its :class:`~gnnlab.config.InitScheme`, declared with the other
settings in :mod:`gnnlab.config`.
"""

import math
from dataclasses import dataclass, field

from .config import InitScheme  # noqa: F401  (importable from here too)
from .errors import CalibrationError
from .graphdata import chunks
from .layers import GcnLayer, TopKPool
from .numcore import Moments, Rng

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


def _output_stds(model, graphs, first: int, upto: int) -> list:
    """Output stds of flat stages ``first``..``upto`` in one sweep over the
    graphs, each pooled over every entry of every graph."""
    moments = [Moments() for _ in range(first, upto + 1)]
    for batch in chunks(graphs):  # lazily: one chunk alive at a time
        for mom, out in zip(moments, model.run_blocks(batch, upto)[first:]):
            mom.add(out)
    return [mom.std() for mom in moments]


def reinit(model, calibration, tol: float = REINIT_TOL) -> ReinitReport:
    """Rescale each block in turn so its calibration-set output std is one.

    Walks the flattened conv/pool stack; for each stage the calibration
    graphs are pushed through everything rescaled so far, the std of this
    stage's output (post-activation for convolutions) is measured, and its
    inverse is applied. Rescaling a stage leaves the stages before it
    unchanged, so the sweep that measures stage i also verifies stage i - 1;
    one more sweep verifies the last stage: S + 1 sweeps for S stages. The
    MLP head is never touched. Raises :class:`CalibrationError` when a stage
    emits constant output, and then when a rescaled std misses one by more
    than ``tol``.
    """
    if not calibration:
        raise CalibrationError("reinit needs a non-empty calibration set")
    stages = model.block_stages()
    report = ReinitReport()
    for idx, (name, layer) in enumerate(stages):
        *verified, sigma = _output_stds(model, calibration, max(idx - 1, 0), idx)
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
        report.post_std += _output_stds(model, calibration, last, last)
    for name, post in zip(report.blocks, report.post_std):
        if abs(post - 1.0) > max(tol, 1e-9):
            raise CalibrationError(
                f"block {name} std is {post:.9f} after reinit (expected 1 within {tol})")
    return report
