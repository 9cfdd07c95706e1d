import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from gnnlab import (Adam, InitScheme, ModelSpec, Rng, TrainConfig, build,
                    cross_entropy, diagnostics, evaluate, run_cv, stratified_folds,
                    train_fold, train_model, training)
from gnnlab.errors import ConfigError, HarnessError, NonFiniteError, ShapeError
from gnnlab.init import ReinitReport
from gnnlab.training import FoldResult, RunReport

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


def _model(kind="mlp", seed=0):
    """A small model whose gradient vector the Adam tests fill by hand."""
    return build(ModelSpec(kind=kind, hidden_dim=4, mlp_dims=(5, 3)), 3, 2, Rng(seed))


def test_adam_zero_grad_no_decay_is_noop():
    model = _model()
    before = model.theta.copy()
    opt = Adam(model, lr=0.1)
    for _ in range(3):
        opt.step()  # a built model's gradient is zero
    assert np.array_equal(model.theta, before)


def test_adam_first_step_is_lr_sized():
    model = _model()
    before = model.theta.copy()
    model.grad[:] = np.random.default_rng(3).normal(size=model.grad.size)
    opt = Adam(model, lr=1e-3)
    opt.step()
    # bias-corrected first step is -lr * g / (|g| + eps)
    assert np.allclose(before - model.theta, 1e-3 * np.sign(model.grad), rtol=1e-6, atol=0)


def test_adam_decay_shrinks_param_monotonically():
    model = _model()
    rng = np.random.default_rng(4)
    # at least 1 in size: 50 steps of about lr each never cross zero
    model.theta[:] = rng.uniform(1.0, 2.0, model.theta.size) * rng.choice([-1.0, 1.0],
                                                                          model.theta.size)
    start = model.theta.copy()
    opt = Adam(model, lr=1e-2, weight_decay=0.1)
    prev = start.copy()
    for _ in range(50):
        opt.step()  # a zero gradient: the decay alone moves the parameters
        assert np.all(np.abs(model.theta) < np.abs(prev))
        prev = model.theta.copy()
    assert np.all(np.abs(model.theta) < np.abs(start))


def test_adam_lr_zero_is_fixed_point():
    model = _model()
    before = model.theta.copy()
    model.grad[:] = np.random.default_rng(5).normal(size=model.grad.size)
    opt = Adam(model, lr=0.0)
    for _ in range(10):
        opt.step()
    assert np.max(np.abs(model.theta - before)) < 1e-15


def test_adam_skips_frozen():
    model = _model("gcn_r_mlp")
    assert model.frozen and model.n_trained < model.theta.size
    frozen = {name: model.params[name].copy() for name in model.frozen}
    trained = model.theta[:model.n_trained].copy()
    model.grad[:] = 1.0  # the frozen tail too
    opt = Adam(model, lr=0.1, weight_decay=0.1)
    opt.step()
    assert all(np.array_equal(model.params[name], p) for name, p in frozen.items())
    assert np.all(model.theta[:model.n_trained] != trained)


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
    betas, eps = (0.9, 0.999), 1e-8
    for kind in ("gcn_r_mlp", "jk_sum"):  # with a frozen tail, and without
        hidden, d1, d2, features = (int(d) for d in rng.integers(1, 6, size=4))
        model = build(ModelSpec(kind=kind, hidden_dim=hidden, mlp_dims=(d1, d2), k=0.5),
                      features, 2, Rng(int(rng.integers(100))))
        params, frozen = model.params, model.frozen
        assert bool(frozen) == (kind == "gcn_r_mlp")
        ref = {name: p.copy() for name, p in params.items()}
        m = {name: np.zeros_like(p) for name, p in params.items()}
        v = {name: np.zeros_like(p) for name, p in params.items()}
        opt = Adam(model, lr=lr, betas=betas, eps=eps, weight_decay=weight_decay)
        trained = [name for name in params if name not in frozen]
        for t in range(1, 26):
            # a zero gradient now and then, and scales far apart; the frozen
            # tail gets one too, which the step must not read
            grads = {name: rng.normal(size=p.shape) * 10.0 ** rng.integers(-6, 3) * (t % 7 != 0)
                     for name, p in params.items()}
            for name, g in grads.items():
                model.last_grads[name][...] = g
            opt.step()
            _per_parameter_adam_step(ref, frozen, m, v, grads, t, lr, betas, eps, weight_decay)
            for name in params:
                assert np.array_equal(params[name], ref[name]), (kind, t, name)
                assert np.array_equal(model.last_grads[name], grads[name]), (kind, t, name)
            assert np.array_equal(opt.m, np.concatenate([m[name].ravel() for name in trained]))
            assert np.array_equal(opt.v, np.concatenate([v[name].ravel() for name in trained]))


# 1e200 is finite, but its square overflows the second moment
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
def test_adam_non_finite_gradient_names_the_parameter_and_changes_nothing(bad):
    model = _model("gcn_r_mlp")
    opt = Adam(model, lr=0.1, weight_decay=0.1)
    model.grad[:] = 0.5
    opt.step()
    before = (model.theta.copy(), opt.m.copy(), opt.v.copy(), opt.t)
    model.last_grads["gcn1.W"][0, 0] = bad  # frozen, first in registry order: never read
    model.last_grads["mlp2.W"][1, 0] = bad
    model.last_grads["mlp3.b"][0] = bad
    with pytest.raises(NonFiniteError, match="non-finite gradient for mlp2.W$") as err:
        opt.step()
    assert err.value.param == "mlp2.W" and err.value.epoch is None and err.value.fold is None
    assert np.array_equal(model.theta, before[0])
    assert np.array_equal(opt.m, before[1]) and np.array_equal(opt.v, before[2])
    assert opt.t == before[3]


def test_train_model_stops_on_a_non_finite_loss_before_the_step():
    ds = synth_dataset(12, seed=6)
    model = build(ModelSpec(kind="mlp", hidden_dim=4, mlp_dims=(5, 3)),
                  ds.feature_dim, ds.num_classes, Rng(0))
    # class scores near +-1e308: their gap, and class 1's loss, overflow to
    # inf, while softmax and every gradient stay finite
    model.params["mlp3.b"][...] = [1e308, -1e308]
    cfg = TrainConfig(epochs=1, batch_size=12, seed=0)
    opt = Adam.from_config(model, cfg)
    before = model.theta.copy()
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError) as err:
        train_model(model, list(ds.graphs), cfg, Rng(0), opt=opt)
    assert str(err.value) == "epoch 1, non-finite loss" and err.value.param is None
    assert np.isfinite(model.grad).all()
    assert opt.t == 0 and not opt.m.any() and not opt.v.any()
    assert np.array_equal(model.theta, before)


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
    assert result.accuracies == (100.0,)


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
    assert a.accuracies == b.accuracies
    assert a.train_losses == b.train_losses


def test_train_fold_tests_after_each_budget_of_one_traced_run():
    ds = synth_dataset(30, seed=3)
    split = stratified_folds(ds, 3, seed=1)
    cfg = TrainConfig(lr=1e-2, epochs=5, batch_size=8, seed=11,
                      init=InitScheme(kind="standard_then_reinit"))
    spec = ModelSpec(kind="jk_sum", hidden_dim=8, mlp_dims=(8, 8))
    sink = diagnostics.TraceSink()
    swept = train_fold(ds, split, 1, spec, dataclasses.replace(cfg, eval_at=(2,)), sink=sink)
    events = sink.events()
    # each epoch is traced once, under its number in the whole run
    assert [e.epoch for e in events if e.kind == "train_loss"] == [1, 2, 3, 4, 5]
    keys = [(e.epoch, e.layer, e.kind) for e in events]
    assert len(keys) == len(set(keys))
    alone = diagnostics.TraceSink()
    whole = train_fold(ds, split, 1, spec, cfg, sink=alone)
    assert events == alone.events()
    assert swept.train_losses == whole.train_losses and swept.reinit == whole.reinit
    short = train_fold(ds, split, 1, spec, dataclasses.replace(cfg, epochs=2))
    assert swept.accuracies == short.accuracies + whole.accuracies


def test_a_non_finite_loss_after_the_first_budget_names_the_absolute_epoch(monkeypatch):
    ds = synth_dataset(12, seed=6)
    split = stratified_folds(ds, 2, seed=0)
    real = training.evaluate

    def evaluate_then_overflow(model, graphs):
        # class scores near +-1e308 from here on: the next epoch's loss overflows
        acc = real(model, graphs)
        model.params["mlp3.b"][...] = [1e308, -1e308]
        return acc

    monkeypatch.setattr(training, "evaluate", evaluate_then_overflow)
    cfg = TrainConfig(epochs=4, eval_at=(3,), batch_size=4, seed=0)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError) as err:
        train_fold(ds, split, 1, ModelSpec(kind="mlp", hidden_dim=4, mlp_dims=(5, 3)), cfg)
    assert str(err.value) == "fold 1, epoch 4, non-finite loss"
    assert (err.value.fold, err.value.epoch) == (1, 4)


# train.eval_at not ascending, repeated, below 1, at the epochs, beyond them
@pytest.mark.parametrize("budgets", [[2, 1], [1, 1], [0, 2], [1, 3], [2, 4]])
def test_train_fold_rejects_budgets_that_do_not_ascend_to_the_epochs(budgets):
    # a fold is tested after each of train.eval_at and after the last epoch;
    # the config refuses a list that would not ascend strictly to the epochs
    with pytest.raises(ConfigError) as err:
        TrainConfig.from_dict({"epochs": 3, "eval_at": budgets})
    assert str(err.value) == ("TrainConfig: eval_at must ascend strictly from at least 1 "
                              f"to below epochs 3, got {budgets}")


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
    accs = [f.accuracies[-1] for f in report.folds]
    assert report.mean == pytest.approx(float(np.mean(accs)), abs=1e-12)
    assert report.std == pytest.approx(float(np.std(accs)), abs=1e-12)
    assert all(f.reinit is None for f in report.folds)
    assert report.wall_clock_s > 0
    d = report.to_dict()
    assert set(d) == {"model", "config", "dataset", "feature_policy", "folds",
                      "mean", "std", "wall_clock_s"}
    assert all("reinit" not in f for f in d["folds"])  # None, its default


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
    assert len(report.folds) == 2
    for fold in report.folds:
        assert len(fold.reinit.divisors) == 8
        assert all(abs(s - 1.0) < 1e-6 for s in fold.reinit.post_std)
    assert all(f["reinit"] is not None for f in report.to_dict()["folds"])


def _two_fold_reinit_report() -> RunReport:
    """Two epochs, tested after each, of a rescaled ``gcn_mlp`` on two folds."""
    reinit = ReinitReport(("gcn1",), (0.5,), (1.0,))
    folds = tuple(FoldResult(f, (25.0, 50.0), (0.7, 0.6), reinit) for f in range(2))
    cfg = TrainConfig(epochs=2, eval_at=(1,), init=InitScheme(kind="standard_then_reinit"))
    return RunReport(ModelSpec(kind="gcn_mlp"), cfg, "SYNTH", "attributes", folds,
                     50.0, 0.0, 0.25)


def _bad_fold(fold: dict, edit: str) -> None:
    if edit == "unknown key":
        fold["best_epoch"] = 1
    elif edit == "string accuracy":
        fold["accuracies"][1] = "50.0"
    elif edit == "unknown reinit key":
        fold["reinit"]["sigma"] = []
    else:
        del fold["train_losses"]


@pytest.mark.parametrize("edit,message", [
    ("unknown key", "RunReport.folds[1]: unknown key(s) ['best_epoch']"),
    ("string accuracy", "RunReport.folds[1].accuracies[1]: expected float, got '50.0'"),
    ("missing losses", "RunReport.folds[1]: missing key(s) ['train_losses']"),
    ("unknown reinit key", "RunReport.folds[1].reinit: unknown key(s) ['sigma']"),
])
def test_report_from_dict_names_the_bad_key(edit, message):
    report = _two_fold_reinit_report()
    d = report.to_dict()
    assert RunReport.from_dict(d) == report
    _bad_fold(d["folds"][1], edit)
    with pytest.raises(ConfigError) as err:
        RunReport.from_dict(d)
    assert str(err.value) == message


def test_report_from_dict_rejects_numbers_that_contradict_each_other():
    d = _two_fold_reinit_report().to_dict()
    d["folds"][0].update(accuracies=[], train_losses=[0.7])
    d["folds"][1]["fold"] = 7
    d["mean"] = 99.0
    with pytest.raises(ConfigError) as err:
        RunReport.from_dict(d)
    assert str(err.value) == f"RunReport.folds[0]: {FOLD_RULE}"


def _set_in(d: dict, keys: str, value) -> None:
    """``d[k1][k2]... = value`` for the dotted ``keys``; a digit key indexes a list."""
    *path, last = [int(k) if k.isdigit() else k for k in keys.split(".")]
    for key in path:
        d = d[key]
    d[last] = value


FOLD_RULE = "need fold >= 0 and non-empty train_losses, accuracies in [0, 100]"
FOLD_SHAPE = "RunReport: folds[{}]: (fold, losses, accuracies, reinit) {} != {}"


@pytest.mark.parametrize("keys,value,message", [
    ("folds.1.fold", -1, f"RunReport.folds[1]: {FOLD_RULE}"),
    ("folds.1.accuracies", [], f"RunReport.folds[1]: {FOLD_RULE}"),
    ("folds.1.accuracies", [25.0, 100.5], f"RunReport.folds[1]: {FOLD_RULE}"),
    ("folds.1.accuracies", [-0.5, 50.0], f"RunReport.folds[1]: {FOLD_RULE}"),
    ("folds.1.train_losses", [], f"RunReport.folds[1]: {FOLD_RULE}"),
    ("folds.1.reinit.post_std", [], "RunReport.folds[1].reinit: blocks, divisors and "
                                    "post_std must be of one length"),
    ("folds.1.fold", 0, FOLD_SHAPE.format(1, (0, 2, 2, True), (1, 2, 2, True))),
    ("folds.1.train_losses", [0.7], FOLD_SHAPE.format(1, (1, 1, 2, True), (1, 2, 2, True))),
    ("config.epochs", 3, FOLD_SHAPE.format(0, (0, 2, 2, True), (0, 3, 2, True))),
    ("folds.1.accuracies", [50.0], FOLD_SHAPE.format(1, (1, 2, 1, True), (1, 2, 2, True))),
    ("folds.1.reinit", None, FOLD_SHAPE.format(1, (1, 2, 2, False), (1, 2, 2, True))),
    ("config.init.kind", "standard", FOLD_SHAPE.format(0, (0, 2, 2, True), (0, 2, 2, False))),
    ("config.eval_at", [], FOLD_SHAPE.format(0, (0, 2, 2, True), (0, 2, 1, True))),
    ("folds.1.train_losses", [math.nan, 0.6],
     "RunReport.folds[1]: train_losses must be finite, got [nan, 0.6]"),
    ("folds.1.train_losses", [0.7, math.inf],
     "RunReport.folds[1]: train_losses must be finite, got [0.7, inf]"),
    ("wall_clock_s", -5.0, "RunReport: wall_clock_s must be finite and at least 0, got -5.0"),
    ("wall_clock_s", math.inf, "RunReport: wall_clock_s must be finite and at least 0, got inf"),
    ("wall_clock_s", math.nan, "RunReport: wall_clock_s must be finite and at least 0, got nan"),
    ("mean", 50.5, "RunReport: mean and std are not those of the folds' last accuracies"),
    ("std", 1e-300, "RunReport: mean and std are not those of the folds' last accuracies"),
])
def test_report_from_dict_names_each_contradiction(keys, value, message):
    d = _two_fold_reinit_report().to_dict()
    _set_in(d, keys, value)
    with pytest.raises(ConfigError) as err:
        RunReport.from_dict(d)
    assert str(err.value) == message


def test_report_from_dict_without_folds_names_them_and_warns_nothing():
    d = _two_fold_reinit_report().to_dict()
    d["folds"] = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError) as err:
            RunReport.from_dict(d)
    assert str(err.value) == "RunReport: folds: a run has at least one fold"


def test_reinit_sample_cap_limits_calibration():
    ds = synth_dataset(30, seed=8)
    split = stratified_folds(ds, 3, seed=0)
    cfg = TrainConfig(lr=1e-3, epochs=1, batch_size=8, seed=4,
                      init=InitScheme(kind="standard_then_reinit",
                                      reinit_sample_cap=5))
    result = train_fold(ds, split, 0, ModelSpec(kind="probe4", hidden_dim=6,
                                                mlp_dims=(5, 4)), cfg)
    assert result.reinit is not None


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
