import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gnnlab import (Adam, InitScheme, ModelSpec, Rng, TrainConfig, build,
                    cross_entropy, evaluate, run_cv, stratified_folds, train_fold,
                    train_model)
from gnnlab.errors import ConfigError, HarnessError, NonFiniteError, ShapeError

from conftest import BLAS_PINNED_BEFORE_NUMPY, constant_feature_dataset, synth_dataset


def test_cross_entropy_uniform_scores():
    for c in (2, 3, 7):
        loss, grad = cross_entropy(np.zeros((1, c)), [0])
        assert loss[0] == pytest.approx(math.log(c), abs=1e-12)
        assert np.allclose(grad[0], np.full(c, 1.0 / c) - np.eye(c)[0], atol=1e-12)


def test_cross_entropy_confident_limit():
    loss, _ = cross_entropy(np.array([[60.0, 0.0]]), [0])
    assert 0.0 <= loss[0] < 1e-15


def test_cross_entropy_hand_case():
    loss, _ = cross_entropy(np.array([[2.0, 1.0, 0.0]]), [0])
    assert loss[0] == pytest.approx(math.log(1 + math.exp(-1) + math.exp(-2)), abs=1e-12)
    assert loss[0] == pytest.approx(0.40760596444438079, abs=1e-12)


def test_cross_entropy_grad_is_softmax_minus_onehot():
    scores = np.array([0.3, -1.2, 2.0])
    _, grad = cross_entropy(scores[None, :], [2])
    p = np.exp(scores) / np.exp(scores).sum()
    assert np.allclose(grad[0], p - np.eye(3)[2], atol=1e-12)


def test_cross_entropy_rows_are_independent():
    rng = Rng(1)
    scores = rng.normal(4, 3, 3.0)
    labels = np.array([2, 0, 1, 2])
    losses, grad = cross_entropy(scores, labels)
    for r in range(4):
        loss_r, grad_r = cross_entropy(scores[r:r + 1], labels[r:r + 1])
        assert losses[r] == loss_r[0]
        assert np.array_equal(grad[r], grad_r[0])


def test_cross_entropy_grad_matches_finite_differences():
    rng = Rng(0)
    worst = 0.0
    for _ in range(20):
        scores = rng.normal(1, 5, 2.0)
        label = [rng.integers(0, 5)]
        _, grad = cross_entropy(scores, label)
        h = 1e-6
        for i in range(5):
            bumped = scores.copy()
            bumped[0, i] += h
            lp, _ = cross_entropy(bumped, label)
            bumped[0, i] -= 2 * h
            lm, _ = cross_entropy(bumped, label)
            worst = max(worst, abs(grad[0, i] - (lp[0] - lm[0]) / (2 * h)))
    assert worst < 1e-8


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ShapeError):
        cross_entropy(np.zeros((2, 3)), [0, 3])


def test_adam_zero_grad_no_decay_is_noop():
    w = np.array([1.0, -2.0])
    opt = Adam({"w": w}, lr=0.1)
    for _ in range(3):
        opt.step({"w": np.zeros(2)})
    assert np.array_equal(w, [1.0, -2.0])


def test_adam_first_step_is_lr_sized():
    w = np.array([0.5])
    opt = Adam({"w": w}, lr=1e-3)
    opt.step({"w": np.array([1.0])})
    # bias-corrected first step is -lr * 1 / (1 + eps)
    assert w[0] == pytest.approx(0.5 - 1e-3, rel=1e-6)


def test_adam_decay_shrinks_param_monotonically():
    w = np.array([1.0])
    opt = Adam({"w": w}, lr=1e-2, weight_decay=0.1)
    prev = w[0]
    for _ in range(50):
        opt.step({"w": np.zeros(1)})
        assert abs(w[0]) < abs(prev) or w[0] == prev
        prev = w[0]
    assert w[0] < 1.0


def test_adam_lr_zero_is_fixed_point():
    w = np.array([0.7, -0.3])
    opt = Adam({"w": w}, lr=0.0)
    for _ in range(10):
        opt.step({"w": np.array([1.0, -5.0])})
    assert np.max(np.abs(w - [0.7, -0.3])) < 1e-15


def test_adam_shape_mismatch():
    opt = Adam({"w": np.zeros(3)})
    with pytest.raises(ShapeError):
        opt.step({"w": np.zeros(4)})


def test_adam_skips_frozen():
    w = np.array([1.0])
    f = np.array([1.0])
    opt = Adam({"w": w, "f": f}, frozen={"f"}, lr=0.1, weight_decay=0.1)
    opt.step({"w": np.array([1.0]), "f": np.array([1.0])})
    assert f[0] == 1.0 and w[0] != 1.0


def _per_parameter_adam_step(params, frozen, m, v, grads, t, lr, betas, eps, weight_decay):
    """Adam's update one parameter at a time: the oracle for the flat update."""
    bc1 = 1.0 - betas[0] ** t
    bc2 = 1.0 - betas[1] ** t
    for name, param in params.items():
        if name in frozen:
            continue
        g = grads[name]
        if weight_decay:
            g = g + weight_decay * param
        m[name] *= betas[0]
        m[name] += (1.0 - betas[0]) * g
        v[name] *= betas[1]
        v[name] += (1.0 - betas[1]) * np.square(g)
        param -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)


@pytest.mark.parametrize("lr, weight_decay", [(3e-2, 0.0), (3e-2, 0.1), (0.0, 0.1)])
def test_adam_matches_the_per_parameter_update_bit_for_bit(lr, weight_decay):
    rng = np.random.default_rng(17)
    shapes = {f"p{i}": tuple(rng.integers(1, 6, size=rng.integers(1, 3))) for i in range(6)}
    frozen = {"p2"}
    params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    ref = {name: p.copy() for name, p in params.items()}
    m = {name: np.zeros(shape) for name, shape in shapes.items()}
    v = {name: np.zeros(shape) for name, shape in shapes.items()}
    betas, eps = (0.9, 0.999), 1e-8
    opt = Adam(params, frozen, lr=lr, betas=betas, eps=eps, weight_decay=weight_decay)
    for t in range(1, 26):
        # a zero gradient now and then, and scales far apart
        grads = {name: rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3) * (t % 7 != 0)
                 for name, shape in shapes.items()}
        opt.step(grads)
        _per_parameter_adam_step(ref, frozen, m, v, grads, t, lr, betas, eps, weight_decay)
        for name in shapes:
            assert np.array_equal(params[name], ref[name]), (t, name)
        trained = [name for name in shapes if name not in frozen]
        assert np.array_equal(opt.m, np.concatenate([m[name].ravel() for name in trained]))
        assert np.array_equal(opt.v, np.concatenate([v[name].ravel() for name in trained]))


def test_adam_without_a_trained_parameter_or_a_gradient_raises_a_typed_error():
    with pytest.raises(HarnessError, match="no trained parameter"):
        Adam({"f": np.zeros(1)}, frozen={"f"})
    opt = Adam({"w": np.zeros(2), "u": np.zeros(3), "f": np.zeros(1)}, frozen={"f"})
    opt.step({"w": np.ones(2), "u": np.ones(3)})  # a frozen name may be absent
    with pytest.raises(HarnessError, match="no gradient for u"):
        opt.step({"w": np.ones(2)})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adam_non_finite_gradient_names_the_parameter_and_changes_nothing(bad):
    params = {"a": np.ones((2, 2)), "f": np.ones(2), "b": np.ones(3), "c": np.ones(1)}
    opt = Adam(params, frozen={"f"}, lr=0.1, weight_decay=0.1)
    opt.step({name: np.full_like(p, 0.5) for name, p in params.items()})
    before = ({name: p.copy() for name, p in params.items()}, opt.m.copy(), opt.v.copy(), opt.t)
    grads = {name: np.full_like(p, 0.5) for name, p in params.items()}
    grads["f"][0] = bad  # frozen: never read
    grads["b"][1] = bad
    grads["c"][0] = bad
    with pytest.raises(NonFiniteError, match="non-finite gradient for b$") as err:
        opt.step(grads)
    assert err.value.param == "b" and err.value.epoch is None and err.value.fold is None
    assert all(np.array_equal(params[name], p) for name, p in before[0].items())
    assert np.array_equal(opt.m, before[1]) and np.array_equal(opt.v, before[2])
    assert opt.t == before[3]


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(weight_decay=-1e-3)
    with pytest.raises(ConfigError):
        TrainConfig.from_dict({"lr": 1e-3, "momentum": 0.9})


def test_train_config_round_trip():
    cfg = TrainConfig(lr=5e-4, weight_decay=5e-3, epochs=7, batch_size=16,
                      seed=3, init=InitScheme(kind="standard_then_reinit"))
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg


def test_training_on_separable_fixture_reaches_full_accuracy():
    ds = synth_dataset(40, seed=1, signal=1.0)  # pure class one-hots: separable
    split = stratified_folds(ds, 2, seed=0)
    cfg = TrainConfig(lr=5e-3, epochs=50, batch_size=16, seed=0)
    result = train_fold(ds, split, 0, ModelSpec(kind="mlp", hidden_dim=16,
                                                mlp_dims=(16, 16)), cfg)
    losses = result.train_losses
    assert all(losses[i + 1] < losses[i] for i in range(9))
    assert result.accuracy == 100.0
    assert result.best_epoch == int(np.argmin(losses)) + 1


def test_epoch_is_one_optimiser_pass_per_batch():
    ds = synth_dataset(25, seed=2)
    graphs = list(ds.graphs)
    model = build(ModelSpec(kind="mlp", hidden_dim=6, mlp_dims=(5, 4)),
                  ds.feature_dim, ds.num_classes, Rng(0))
    cfg = TrainConfig(lr=1e-3, epochs=1, batch_size=8, seed=0)
    opt = Adam.from_config(model, cfg)
    train_model(model, graphs, cfg, Rng(0).derive(1), opt=opt)
    assert opt.t == math.ceil(25 / 8)


def test_train_fold_deterministic():
    ds = synth_dataset(30, seed=3)
    split = stratified_folds(ds, 3, seed=1)
    cfg = TrainConfig(lr=1e-3, epochs=4, batch_size=8, seed=11)
    spec = ModelSpec(kind="gcn_mlp", hidden_dim=8, mlp_dims=(8, 8))
    a = train_fold(ds, split, 1, spec, cfg)
    b = train_fold(ds, split, 1, spec, cfg)
    assert a.accuracy == b.accuracy
    assert a.train_losses == b.train_losses
    assert a.best_epoch == b.best_epoch


def test_train_fold_errors():
    ds = synth_dataset(12, seed=4)
    split = stratified_folds(ds, 2, seed=0)
    cfg = TrainConfig(epochs=1)
    with pytest.raises(HarnessError):
        train_fold(ds, split, 5, ModelSpec(kind="mlp"), cfg)
    with pytest.raises(HarnessError):
        train_model(build(ModelSpec(kind="mlp"), 3, 2, Rng(0)), [], cfg, Rng(0))
    with pytest.raises(HarnessError):
        evaluate(build(ModelSpec(kind="mlp"), 3, 2, Rng(0)), [])


def test_run_cv_aggregation():
    ds = synth_dataset(24, seed=5, signal=0.9)
    cfg = TrainConfig(lr=2e-3, epochs=6, batch_size=8, seed=1)
    report, traces = run_cv(ds, ModelSpec(kind="mlp", hidden_dim=8, mlp_dims=(8, 8)),
                            cfg, folds=2, fold_seed=0)
    assert len(report.folds) == 2
    accs = [f.accuracy for f in report.folds]
    assert report.mean == pytest.approx(float(np.mean(accs)), abs=1e-12)
    assert report.std == pytest.approx(float(np.std(accs)), abs=1e-12)
    assert report.reinit_divisors is None
    assert report.wall_clock_s > 0
    d = report.to_dict()
    assert set(d) == {"model", "config", "dataset", "feature_policy", "folds",
                      "mean", "std", "wall_clock_s"}


def test_run_cv_constant_features_learn_majority_class():
    ds = constant_feature_dataset(60, majority=0.6, seed=6)
    cfg = TrainConfig(lr=5e-3, epochs=15, batch_size=16, seed=2)
    report, _ = run_cv(ds, ModelSpec(kind="mlp", hidden_dim=8, mlp_dims=(8, 8)),
                       cfg, folds=3, fold_seed=0)
    assert report.mean == pytest.approx(60.0, abs=3.0)


def test_run_cv_with_reinit_reports_divisors():
    ds = synth_dataset(24, seed=7)
    cfg = TrainConfig(lr=1e-3, epochs=2, batch_size=8, seed=3,
                      init=InitScheme(kind="standard_then_reinit"))
    report, _ = run_cv(ds, ModelSpec(kind="probe4", hidden_dim=6, mlp_dims=(5, 4)),
                       cfg, folds=2, fold_seed=0)
    assert report.reinit_divisors is not None
    assert len(report.reinit_divisors) == 2
    for fold_report in report.reinit_divisors:
        assert len(fold_report["divisors"]) == 8
        assert all(abs(s - 1.0) < 1e-6 for s in fold_report["post_std"])
    assert "reinit_divisors" in report.to_dict()


def test_reinit_sample_cap_limits_calibration():
    ds = synth_dataset(30, seed=8)
    split = stratified_folds(ds, 3, seed=0)
    cfg = TrainConfig(lr=1e-3, epochs=1, batch_size=8, seed=4,
                      init=InitScheme(kind="standard_then_reinit",
                                      reinit_sample_cap=5))
    result = train_fold(ds, split, 0, ModelSpec(kind="probe4", hidden_dim=6,
                                                mlp_dims=(5, 4)), cfg)
    assert result.reinit_report is not None


def test_run_cv_parallel_matches_sequential():
    ds = synth_dataset(24, seed=9)
    cfg = TrainConfig(lr=1e-3, epochs=2, batch_size=8, seed=5)
    spec = ModelSpec(kind="gcn_mlp", hidden_dim=6, mlp_dims=(5, 4))
    seq, seq_traces = run_cv(ds, spec, cfg, folds=2, fold_seed=0, jobs=1, trace=True)
    par, par_traces = run_cv(ds, spec, cfg, folds=2, fold_seed=0, jobs=2, trace=True)
    assert [f.to_dict() for f in seq.folds] == [f.to_dict() for f in par.folds]
    assert seq_traces == par_traces


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# a process that imports gnnlab (after numpy or not), then asks a spawned
# worker that imports gnnlab too, as a fold worker does, what it sees
SPAWN_PROBE = """
import multiprocessing as mp, os
{first}
import gnnlab
with mp.get_context("spawn").Pool(1) as pool:
    pool.apply(exec, ("import gnnlab",))
    print(*(pool.apply(os.getenv, (var,)) for var in {vars!r}))
"""


@pytest.mark.parametrize("given, first, seen", [
    (None, "", ["1", "1", "1"]),
    ("2", "", ["2", "1", "1"]),
    # too late to pin this process, so its workers must run as it does,
    # or --jobs 1 and --jobs N would round differently
    (None, "import numpy", ["None", "None", "None"]),
], ids=["unset", "set", "numpy_first"])
def test_importing_gnnlab_pins_blas_threads_for_spawned_workers(given, first, seen):
    # What a worker's environment says, not OpenBLAS's own thread count:
    # reading that needs threadpoolctl, which is not a dependency.
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    probe = SPAWN_PROBE.format(first=first, vars=BLAS_VARS)
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == seen


def test_the_suite_itself_runs_with_the_blas_pin():
    # conftest sets these before numpy loads, so the in-process runs (the cli
    # tests, criterion 5, the --jobs comparisons) use the thread count that
    # `gnnlab train` uses
    assert BLAS_PINNED_BEFORE_NUMPY
    assert all(os.environ.get(var) for var in BLAS_VARS)
