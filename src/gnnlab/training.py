"""Loss, Adam with coupled weight decay, the epoch loop, and k-fold harness.

A mini-batch is cut into consecutive chunks whose node count times the
model's widest node row (``Model.width``) stays within ``CHUNK_ENTRIES``
(see :func:`gnnlab.graphdata.chunks`): 256 nodes at width 128, a whole
mini-batch for ``mlp`` on a few feature columns. Each chunk runs as one
disjoint-union graph through one forward and one backward pass, and the
chunk gradients add up to the mean of the per-graph gradients, followed by
one optimiser step. Evaluation runs on chunks the same way. Everything is
keyed by seeds, so a fold run is bit-reproducible. The run's settings,
:class:`~gnnlab.config.TrainConfig` and :class:`~gnnlab.config.ModelSpec`,
are declared with the other settings in :mod:`gnnlab.config`.
"""

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import diagnostics
from .config import Folds, ModelSpec, Settings, TrainConfig
from .errors import HarnessError, NonFiniteError, ShapeError
from .graphdata import Batch, Dataset, FoldSplit, chunks, stratified_folds
from .init import ReinitReport, calibration_sample, reinit
from .models import Model, build
from .numcore import Rng


@dataclass(frozen=True)
class FoldResult(Settings):
    fold: int
    accuracies: tuple[float, ...]  # percentage on the held-out fold after each tested epoch
    train_losses: tuple[float, ...]  # one mean loss per epoch
    reinit: ReinitReport | None = None  # set when the rescaling init ran

    def __post_init__(self):
        accs = self.accuracies
        if self.fold < 0 or not (self.train_losses and accs and all(0 <= a <= 100 for a in accs)):
            raise ValueError("need fold >= 0 and non-empty train_losses, accuracies in [0, 100]")
        if not all(map(math.isfinite, self.train_losses)):  # training stops at such a loss
            raise ValueError(f"train_losses must be finite, got {list(self.train_losses)}")


@dataclass(frozen=True)
class RunReport(Settings):
    """A cross-validation run as ``report.json`` holds it; ``from_dict`` reads one back."""
    model: ModelSpec
    config: TrainConfig
    dataset: str
    feature_policy: str
    folds: tuple[FoldResult, ...]
    mean: float
    std: float
    wall_clock_s: float

    def __post_init__(self):
        if not self.folds:
            raise ValueError("folds: a run has at least one fold")
        if not 0 <= self.wall_clock_s < math.inf:
            raise ValueError(f"wall_clock_s must be finite and at least 0, got {self.wall_clock_s}")
        reinit = self.config.init.kind == "standard_then_reinit"
        for i, f in enumerate(self.folds):
            got = (f.fold, len(f.train_losses), len(f.accuracies), f.reinit is not None)
            want = (i, self.config.epochs, len(self.config.eval_at) + 1, reinit)
            if got != want:
                raise ValueError(f"folds[{i}]: (fold, losses, accuracies, reinit) {got} != {want}")
        if (self.mean, self.std) != fold_mean_std([f.accuracies[-1] for f in self.folds]):
            raise ValueError("mean and std are not those of the folds' last accuracies")


def cross_entropy(scores: np.ndarray, labels: np.ndarray):
    """Softmax cross-entropy of each row of ``scores`` against its label, in
    log-sum-exp form; returns (per-row losses, grad_scores)."""
    labels = np.asarray(labels)
    classes = scores.shape[1]
    bad = labels[(labels < 0) | (labels >= classes)]
    if bad.size:
        raise ShapeError(f"label {int(bad[0])} out of range for {classes} classes")
    rows = np.arange(scores.shape[0])
    shift = scores - scores.max(axis=1, keepdims=True)
    expd = np.exp(shift)
    total = expd.sum(axis=1)
    losses = np.log(total) - shift[rows, labels]
    grad = expd / total[:, None]
    grad[rows, labels] -= 1.0
    return losses, grad


class Adam:
    """Adam with classic coupled L2 decay (grad += wd * param before moments).

    Steps the trained prefix of ``model.theta`` in place from that of
    ``model.grad``, which it only reads; ``m`` and ``v`` are flat over it.
    Each entry sees a per-parameter update's operations in its order, so the
    bits are those of one.
    """

    def __init__(self, model: Model, lr=TrainConfig.lr, betas=TrainConfig.betas,
                 eps=TrainConfig.eps, weight_decay=TrainConfig.weight_decay):
        self.model = model
        self.lr = float(lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.t = 0
        # the moments, then two scratch vectors
        self.m, self.v, self._a, self._b = (np.zeros(model.n_trained) for _ in range(4))

    @classmethod
    def from_config(cls, model: Model, cfg: TrainConfig) -> "Adam":
        return cls(model, lr=cfg.lr, betas=cfg.betas, eps=cfg.eps, weight_decay=cfg.weight_decay)

    def check(self, squares=True) -> np.ndarray:
        """The trained gradient after the coupled decay. Raises NonFiniteError
        naming the first trained parameter with an entry NaN or inf or, given
        ``squares``, squaring to inf (as ``v`` then would); the squares go to ``_a``."""
        n, g = self.model.n_trained, self.model.grad[:self.model.n_trained]
        if self.weight_decay:
            np.multiply(self.model.theta[:n], self.weight_decay, out=self._b)
            g = np.add(self._b, g, out=self._b)

        def bad(x, out=None):
            return not np.isfinite(np.square(x, out=out) if squares else x).all()

        with np.errstate(over="ignore"):  # the overflow looked for
            if bad(g, self._a):
                raise NonFiniteError(next(
                    name for name, grad in self.model.last_grads.items()
                    if name not in self.model.frozen
                    and bad(grad + self.weight_decay * self.model.params[name])))
        return g

    def step(self) -> None:
        """One update from the model's gradient, after :meth:`check`."""
        g = self.check()
        n, a, b, m, v = self.model.n_trained, self._a, self._b, self.m, self.v
        theta = self.model.theta[:n]
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        v *= self.beta2
        a *= 1.0 - self.beta2  # the squares check() took
        v += a
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=a)
        m += a
        np.divide(m, bc1, out=a)
        a *= self.lr
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        theta -= a


def train_model(model: Model, graphs, cfg: TrainConfig, shuffle_rng: Rng,
                sink=None, opt: Adam | None = None, done: int = 0) -> list:
    """Run epochs ``done + 1``..``cfg.epochs`` on ``graphs``; returns their mean train losses.

    The graphs are merged once; each mini-batch, a run of their shuffled ids,
    steps the optimiser with its mean gradient, which one backward pass per
    chunk adds into the cleared ``model.grad``. When a trace sink is given,
    per-epoch activation/gradient statistics and the train loss are recorded
    through it; tracing never perturbs the trajectory. A non-finite loss or
    gradient raises :class:`NonFiniteError` before the step.
    """
    if not graphs:
        raise HarnessError("cannot train on an empty graph list")
    if opt is None:
        opt = Adam.from_config(model, cfg)
    data, losses = Batch.of(graphs), []
    for epoch in range(done + 1, cfg.epochs + 1):
        order = shuffle_rng.permutation(len(data))
        total = 0.0
        for start in range(0, len(data), cfg.batch_size):
            picks = data[order[start:start + cfg.batch_size]]
            model.grad.fill(0.0)
            inv = 1.0 / len(picks)
            for chunk in chunks(picks, model.width):
                scores = model.forward(chunk)
                if sink is not None:
                    diagnostics.record_forward(sink, epoch, model)
                chunk_losses, grad_scores = cross_entropy(scores, chunk.labels)
                total += float(chunk_losses.sum())
                model.backward(inv * grad_scores)
            if sink is not None:
                diagnostics.record_backward(sink, epoch, model)
            try:
                if not math.isfinite(total):  # finite while every chunk's loss is
                    opt.check(squares=False)  # a NaN or inf gradient, named, first
                    raise NonFiniteError(None)
                opt.step()
            except NonFiniteError as exc:
                raise NonFiniteError(exc.param, epoch=epoch) from None
        losses.append(total / len(data))
        if sink is not None:
            diagnostics.record_loss(sink, epoch, losses[-1])
    return losses


def evaluate(model: Model, graphs) -> float:
    """Accuracy percentage of argmax predictions."""
    if not graphs:
        raise HarnessError("cannot evaluate on an empty graph list")
    data = Batch.of(graphs)
    correct = sum(int(np.count_nonzero(model.predict(chunk) == chunk.labels))
                  for chunk in chunks(data, model.width))
    return 100.0 * correct / len(data)


def prepare_fold_model(ds: Dataset, train_graphs, spec: ModelSpec,
                       cfg: TrainConfig, fold: int):
    """Build and initialise the model for one fold; returns (model, report)."""
    seed = cfg.init.seed if cfg.init.seed is not None else cfg.seed
    model = build(spec, ds.feature_dim, ds.num_classes, Rng(seed ^ fold))
    report = None
    if cfg.init.kind == "standard_then_reinit":
        report = reinit(model, calibration_sample(model, train_graphs,
                                                  Rng(seed).derive(2, fold)))
    return model, report


def train_fold(ds: Dataset, split: FoldSplit, fold: int, spec: ModelSpec,
               cfg: TrainConfig, sink=None) -> FoldResult:
    """Train on every fold but ``fold`` to ``cfg.epochs``, testing on ``fold`` after
    each of ``cfg.eval_at`` and after the last epoch."""
    if fold >= split.fold_count:
        raise HarnessError(f"fold {fold} out of range for {split.fold_count}-fold split")
    train_graphs = [ds.graphs[i] for i in split.train_indices(fold)]
    test_graphs = [ds.graphs[i] for i in split.test_indices(fold)]
    if not train_graphs:
        raise HarnessError(f"training fold {fold} is empty")
    model, reinit_report = prepare_fold_model(ds, train_graphs, spec, cfg, fold)
    shuffle_rng, opt = Rng(cfg.seed ^ fold).derive(1), Adam.from_config(model, cfg)
    losses, accuracies = [], []
    try:
        for budget in (*cfg.eval_at, cfg.epochs):
            losses += train_model(model, train_graphs, replace(cfg, epochs=budget, eval_at=()),
                                  shuffle_rng, sink=sink, opt=opt, done=len(losses))
            accuracies.append(evaluate(model, test_graphs))
    except NonFiniteError as exc:
        raise NonFiniteError(exc.param, exc.epoch, fold) from None
    return FoldResult(fold, tuple(accuracies), tuple(losses), reinit_report)


def fold_mean_std(accuracies) -> tuple:
    """The mean and population std of per-fold accuracies, as reports give them."""
    accs = np.array(accuracies)
    return float(accs.mean()), float(accs.std())


def _run_fold_job(args):
    ds, split, fold, spec, cfg, trace = args
    sink = diagnostics.TraceSink() if trace else None
    result = train_fold(ds, split, fold, spec, cfg, sink=sink)
    return result, sink.events() if sink is not None else None


def run_cv(ds: Dataset, spec: ModelSpec, cfg: TrainConfig, folds: int = Folds.count,
           fold_seed: int = Folds.seed, jobs: int = 1, trace: bool = False):
    """Run cross-validation over stratified folds; returns (RunReport, fold traces).

    Each fold is tested after each of ``cfg.eval_at`` and after the last epoch
    (see :func:`train_fold`), the mean and std at the last. Folds are
    independent; with ``jobs > 1`` they run in worker processes and are
    reduced in fold order, so results match the sequential run exactly.
    """
    split = stratified_folds(ds, folds, seed=fold_seed)
    started = time.perf_counter()
    jobs_args = [(ds, split, fold, spec, cfg, trace) for fold in range(folds)]
    if jobs > 1:
        import multiprocessing as mp
        with mp.get_context("spawn").Pool(min(jobs, folds)) as pool:
            outcomes = pool.map(_run_fold_job, jobs_args)
    else:
        outcomes = [_run_fold_job(a) for a in jobs_args]
    results, traces = zip(*outcomes)
    mean, std = fold_mean_std([r.accuracies[-1] for r in results])
    report = RunReport(spec, cfg, ds.name, ds.feature_policy, results, mean, std,
                       wall_clock_s=time.perf_counter() - started)
    return report, traces
