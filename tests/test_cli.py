import dataclasses
import json
import math
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from gnnlab import (ExperimentConfig, InitScheme, ModelSpec, Rng, TrainConfig, build, cli,
                    parse_tu, run_cv, stratified_folds, training, write_tu)
from gnnlab.cli import FLAG_KEYS, _config_from_args, build_parser, main
from gnnlab.config import DatasetConfig, Folds
from gnnlab.errors import ConfigError

from conftest import synth_dataset, write_tu_files
from test_graphdata import tu_server  # fixture: local TU archive server


@pytest.fixture(scope="module")
def tu_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("tu")
    ds = synth_dataset(28, seed=0, signal=0.8, n_lo=6, n_hi=12, name="SYNTH")
    write_tu(ds, root / "SYNTH" / "raw")
    return root


def _train_args(tu_dir, out, extra=()):
    return ["train", "--dataset", "SYNTH", "--data-dir", str(tu_dir),
            "--model", "mlp", "--epochs", "3", "--folds", "2", "--seed", "7",
            "--out", str(out), *extra]


def test_train_end_to_end(tu_dir, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(_train_args(tu_dir, out)) == 0
    printed = capsys.readouterr().out
    assert "SYNTH mlp:" in printed and "+/-" in printed
    report = json.loads((out / "report.json").read_text())
    assert len(report["folds"]) == 2
    assert report["dataset"] == "SYNTH"
    assert report["feature_policy"] == "label_onehot"
    assert report["config"]["epochs"] == 3
    assert (out / "trace_fold0.csv").is_file()
    assert (out / "trace_fold1.csv").is_file()


def test_train_rejects_single_fold(tu_dir, tmp_path, capsys):
    code = main(_train_args(tu_dir, tmp_path / "x", extra=["--folds", "1"]))
    assert code == 2
    assert "fold" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_train_stops_on_a_non_finite_gradient(tmp_path, capsys, jobs):
    # eight two-node graphs with one attribute each; both nodes of graph 0 hold
    # the largest float (ingest rejects inf), so the mean readout's sum is inf
    attributes = [[float(i % 3)] for i in range(16)]
    attributes[:2] = [[float(np.finfo(np.float64).max)]] * 2
    write_tu_files(tmp_path / "INF" / "raw", "INF", [(2, [(1, 2)])] * 8,
                   [1, 2] * 4, node_attributes=attributes)
    split = stratified_folds(parse_tu(tmp_path / "INF" / "raw", "INF"), 2, seed=0)
    fold = next(f for f in range(2) if 0 in split.train_indices(f))
    args = ["train", "--dataset", "INF", "--data-dir", str(tmp_path), "--model", "mlp",
            "--feature-policy", "attributes", "--epochs", "2", "--folds", "2",
            "--fold-seed", "0", "--out", str(tmp_path / "o"), "--jobs", jobs]
    with np.errstate(all="ignore"):  # the readout overflows first, on purpose
        assert main(args) == 1
    err = capsys.readouterr().err
    assert err == f"error: fold {fold}, epoch 1, non-finite gradient for mlp1.W\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_train_stops_on_a_non_finite_loss(tmp_path, capsys, jobs):
    # eight two-node graphs with one attribute each. Under a max readout and
    # a one-unit MLP head with zero biases, graph 0's class scores are its
    # attribute times fixed weights, so one large attribute gives finite
    # scores whose gap overflows: an infinite loss with finite gradients.
    raw = tmp_path / "BIG" / "raw"

    def write(first: float) -> None:
        write_tu_files(raw, "BIG", [(2, [(1, 2)])] * 8, [1, 2] * 4,
                       node_attributes=[[first]] * 2 + [[float(i % 3)] for i in range(2, 16)])

    write(0.0)
    split = stratified_folds(parse_tu(raw, "BIG"), 2, seed=0)
    fold = next(f for f in range(2) if 0 in split.train_indices(f))
    spec = ModelSpec(kind="mlp", mlp_dims=(1, 1), readout_kind="max")
    big = np.finfo(np.float64).max
    for seed in range(100):
        params = build(spec, 1, 2, Rng(seed ^ fold)).params
        w1, w2, (a, b) = params["mlp1.W"][0, 0], params["mlp2.W"][0, 0], params["mlp3.W"][0]
        if not (w2 > 0 and a < 0 < b):  # graph 0, of class 0, must score lowest
            continue
        # the head output h = x * w1 * w2 for attribute x; every forward value
        # and gradient (the batch holds 4 graphs) stays within 0.9 of the
        # float range, while the score gap h * (b - a) passes 1.1 of it
        h = 0.9 * big * min(w2 * abs(w1), w2, 1 / max(-a, b),
                            4 * w2 / (b - a), 4 * abs(w1) / (b - a))
        if h / big * (b - a) > 1.1:
            break
    else:
        pytest.fail("no init seed in range gives such a head")
    write(h / w2 / w1)
    config = tmp_path / "head.json"
    config.write_text(json.dumps({"model": spec.to_dict()}))
    args = ["train", "--config", str(config), "--dataset", "BIG", "--data-dir", str(tmp_path),
            "--feature-policy", "attributes", "--epochs", "2", "--folds", "2",
            "--fold-seed", "0", "--seed", str(seed), "--no-diagnostics",
            "--out", str(tmp_path / "o"), "--jobs", jobs]
    with np.errstate(over="ignore"):  # the score gap overflows, on purpose
        assert main(args) == 1
    assert capsys.readouterr().err == f"error: fold {fold}, epoch 1, non-finite loss\n"
    assert not (tmp_path / "o" / "report.json").exists()


def test_train_missing_dataset_args(capsys):
    assert main(["train"]) == 2
    assert "error" in capsys.readouterr().err


def test_train_weight_decay_flag_lands_in_report(tu_dir, tmp_path):
    out = tmp_path / "decay"
    args = ["train", "--dataset", "SYNTH", "--data-dir", str(tu_dir),
            "--model", "jk_sum", "--hidden-dim", "8", "--epochs", "1",
            "--folds", "2", "--seed", "1", "--weight-decay", "5e-3",
            "--out", str(out)]
    assert main(args) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["weight_decay"] == 5e-3
    assert report["model"]["kind"] == "jk_sum"


def test_train_reinit_flag(tu_dir, tmp_path):
    out = tmp_path / "reinit"
    args = ["train", "--dataset", "SYNTH", "--data-dir", str(tu_dir),
            "--model", "probe4", "--hidden-dim", "8", "--epochs", "1",
            "--folds", "2", "--seed", "1", "--reinit", "--out", str(out)]
    assert main(args) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["init"]["kind"] == "standard_then_reinit"
    assert len(report["reinit_divisors"]) == 2


def _strip_wall_clock(path):
    data = json.loads(Path(path).read_text())
    data.pop("wall_clock_s")
    return json.dumps(data, sort_keys=True)


def test_train_deterministic_report(tu_dir, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(_train_args(tu_dir, out1)) == 0
    assert main(_train_args(tu_dir, out2)) == 0
    assert _strip_wall_clock(out1 / "report.json") == _strip_wall_clock(out2 / "report.json")
    assert (out1 / "trace_fold0.csv").read_bytes() == (out2 / "trace_fold0.csv").read_bytes()


def test_train_from_config_file(tu_dir, tmp_path):
    cfg = ExperimentConfig(
        dataset=DatasetConfig(name="SYNTH", path=str(tu_dir)),
        model=__import__("gnnlab").ModelSpec(kind="gcn_mlp", hidden_dim=8,
                                             mlp_dims=(8, 8)),
        folds=Folds(count=2), out_dir=str(tmp_path / "cfgrun"))
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    loaded = ExperimentConfig.load(cfg_path)
    assert loaded == cfg
    assert loaded.to_dict() == cfg.to_dict()
    assert main(["train", "--config", str(cfg_path), "--epochs", "2"]) == 0
    report = json.loads((tmp_path / "cfgrun" / "report.json").read_text())
    assert report["model"]["kind"] == "gcn_mlp"
    assert report["config"]["epochs"] == 2


def test_config_unknown_keys_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "dataset": {"name": "SYNTH"},
        "model": {"kind": "mlp"},
        "learning_rate": 0.1,
    }))
    assert main(["train", "--config", str(bad)]) == 2
    assert "unknown" in capsys.readouterr().err
    with pytest.raises(ConfigError):
        ExperimentConfig.load(bad)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"dataset": {"name": "X", "mirror": 1},
                                    "model": {"kind": "mlp"}})


def test_config_with_a_gcn_norm_key_is_rejected(tu_dir, tmp_path, capsys):
    # every convolution normalises symmetrically; no key selects another operator
    with pytest.raises(ConfigError, match="gcn_norm"):
        ModelSpec.from_dict({"kind": "gcn_mlp", "gcn_norm": "sym"})
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"dataset": {"name": "SYNTH", "path": str(tu_dir)},
                                "model": {"kind": "gcn_mlp", "gcn_norm": "sym"}}))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "gcn_norm" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_round_trip_is_lossless():
    cfg = ExperimentConfig(
        dataset=DatasetConfig(name="DD", feature_policy="label_onehot"),
        model=__import__("gnnlab").ModelSpec(kind="jk_sum", jk_agg="sum"),
        folds=Folds(count=10, seed=99), diagnostics=False, out_dir="runs/dd")
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    assert ExperimentConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()


def test_fetch_prints_cached_on_second_call(tu_server, tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(["fetch", "MINI", "--cache-dir", str(cache),
                 "--url-base", tu_server]) == 0
    first = capsys.readouterr().out
    assert "fetched" in first
    assert main(["fetch", "MINI", "--cache-dir", str(cache),
                 "--url-base", tu_server]) == 0
    second = capsys.readouterr().out
    assert "cached" in second


def test_fetch_unknown_name_fails(tu_server, tmp_path, capsys):
    code = main(["fetch", "NOPE", "--cache-dir", str(tmp_path / "c"),
                 "--url-base", tu_server])
    assert code == 1
    assert "404" in capsys.readouterr().err


def test_sweep_epochs(tu_dir, tmp_path, capsys):
    cfgs = []
    for kind in ("mlp", "gcn_mlp"):
        cfg = ExperimentConfig(
            dataset=DatasetConfig(name="SYNTH", path=str(tu_dir)),
            model=__import__("gnnlab").ModelSpec(kind=kind, hidden_dim=8,
                                                 mlp_dims=(8, 8)),
            folds=Folds(count=2))
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(cfg.to_dict()))
        cfgs.append(str(path))
    out = tmp_path / "sweep"
    assert main(["sweep-epochs", "--config", *cfgs, "--epochs", "2,1",
                 "--out", str(out)]) == 0
    rows = (out / "accuracy_vs_epochs.csv").read_text().strip().split("\n")
    assert rows[0] == "epochs,mean_acc,std_acc,variant"
    assert len(rows) == 1 + 4  # two variants x two budgets
    budgets = [int(r.split(",")[0]) for r in rows[1:]]
    assert budgets == sorted(budgets)


def test_sweep_single_budget(tu_dir, tmp_path):
    cfg = ExperimentConfig(
        dataset=DatasetConfig(name="SYNTH", path=str(tu_dir)),
        model=__import__("gnnlab").ModelSpec(kind="mlp", hidden_dim=8,
                                             mlp_dims=(8, 8)),
        folds=Folds(count=2))
    path = tmp_path / "one.json"
    path.write_text(json.dumps(cfg.to_dict()))
    out = tmp_path / "sweep1"
    assert main(["sweep-epochs", "--config", str(path), "--epochs", "2",
                 "--out", str(out)]) == 0
    rows = (out / "accuracy_vs_epochs.csv").read_text().strip().split("\n")
    assert len(rows) == 2


def _sweep_configs(tu_dir, tmp_path):
    """Two sweep variants over SYNTH, ``jk_sum`` with the rescaling init and
    ``mlp``; returns (variant, config, path) triples."""
    out = []
    for variant, kind, init in (("jk_reinit", "jk_sum", "standard_then_reinit"),
                                ("mlp", "mlp", "standard")):
        cfg = ExperimentConfig(
            dataset=DatasetConfig(name="SYNTH", path=str(tu_dir)),
            model=ModelSpec(kind=kind, hidden_dim=8, mlp_dims=(8, 8)),
            train=TrainConfig(lr=1e-2, batch_size=8, seed=3, init=InitScheme(kind=init)),
            folds=Folds(count=3, seed=1))
        path = tmp_path / f"{variant}.json"
        path.write_text(json.dumps(cfg.to_dict()))
        out.append((variant, cfg, str(path)))
    return out


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_rows_equal_a_separate_run_per_budget(tu_dir, tmp_path, jobs):
    # oracle: one cross-validation per budget; budgets unsorted, one repeated
    variants = _sweep_configs(tu_dir, tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep-epochs", "--config", *(path for _, _, path in variants),
                 "--epochs", "3,1,2,3", "--jobs", jobs, "--out", str(out)]) == 0
    ds = cli.load_dataset(variants[0][1].dataset)
    want = ["epochs,mean_acc,std_acc,variant"]
    for budget in (1, 2, 3):
        for variant, cfg, _ in variants:
            report, _ = run_cv(ds, cfg.model, dataclasses.replace(cfg.train, epochs=budget),
                               folds=cfg.folds.count, fold_seed=cfg.folds.seed)
            want.append(f"{budget},{report.mean!r},{report.std!r},{variant}")
    assert (out / "accuracy_vs_epochs.csv").read_text().splitlines() == want


def test_sweep_trains_each_fold_once_to_the_largest_budget(tu_dir, tmp_path, monkeypatch):
    counts = {"steps": 0, "reinit": 0, "run_cv": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(training.Adam, "step", counting("steps", training.Adam.step))
    monkeypatch.setattr(training, "reinit", counting("reinit", training.reinit))
    monkeypatch.setattr(cli, "run_cv", counting("run_cv", cli.run_cv))
    variants = _sweep_configs(tu_dir, tmp_path)
    assert main(["sweep-epochs", "--config", *(path for _, _, path in variants),
                 "--epochs", "2,5,1", "--out", str(tmp_path / "sweep")]) == 0
    cfg = variants[0][1]
    split = stratified_folds(cli.load_dataset(cfg.dataset), cfg.folds.count, seed=cfg.folds.seed)
    steps_per_epoch = sum(math.ceil(len(split.train_indices(f)) / cfg.train.batch_size)
                          for f in range(cfg.folds.count))
    # five epochs per (variant, fold), not 1 + 2 + 5; one rescaling pass per
    # fold of the reinit variant; one cross-validation (one pool) per variant
    assert counts == {"steps": 2 * 5 * steps_per_epoch, "reinit": cfg.folds.count,
                      "run_cv": 2}


def test_sweep_parses_each_distinct_dataset_config(tu_dir, tmp_path, monkeypatch):
    # two configs on one corpus that differ only in the degree cap must not
    # share the first one's parse
    parses, widths = [], []
    monkeypatch.setattr(cli, "parse_tu", lambda *a, **k: parses.append(k) or parse_tu(*a, **k))
    monkeypatch.setattr(cli, "run_cv", lambda ds, *a, **k: widths.append(ds.feature_dim)
                        or run_cv(ds, *a, **k))
    paths = []
    for cap in (64, 8):
        cfg = ExperimentConfig(
            dataset=DatasetConfig(name="SYNTH", path=str(tu_dir), degree_cap=cap,
                                  feature_policy="degree_onehot"),
            model=ModelSpec(kind="mlp", hidden_dim=8, mlp_dims=(8, 8)), folds=Folds(count=2))
        paths.append(tmp_path / f"cap{cap}.json")
        paths[-1].write_text(json.dumps(cfg.to_dict()))
    assert main(["sweep-epochs", "--config", *map(str, paths), "--epochs", "1",
                 "--out", str(tmp_path / "sweep")]) == 0
    assert [k["degree_cap"] for k in parses] == widths == [64, 8]


@pytest.mark.parametrize("epochs", ["0,2", "-1"])
def test_sweep_rejects_a_budget_below_one(tmp_path, capsys, epochs):
    assert main(["sweep-epochs", "--config", str(tmp_path / "none.json"),
                 "--epochs", epochs, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "positive" in err


def test_sweep_rejects_a_non_integer_budget(tmp_path, capsys):
    # budgets are parsed before any config is read
    assert main(["sweep-epochs", "--config", str(tmp_path / "none.json"),
                 "--epochs", "1,abc", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'abc'" in err


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_train_rejects_jobs_below_one(tu_dir, tmp_path, capsys, jobs):
    out = tmp_path / "o"
    assert main(_train_args(tu_dir, out, ["--jobs", jobs])) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--jobs" in err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_sweep_rejects_jobs_below_one(tmp_path, capsys, jobs):
    out = tmp_path / "o"
    assert main(["sweep-epochs", "--config", str(tmp_path / "none.json"),
                 "--epochs", "1", "--jobs", jobs, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--jobs" in err
    assert not out.exists()


def test_plot_command(tu_dir, tmp_path, capsys):
    out = tmp_path / "plotrun"
    args = ["train", "--dataset", "SYNTH", "--data-dir", str(tu_dir),
            "--model", "gcn_mlp", "--hidden-dim", "8", "--epochs", "2",
            "--folds", "2", "--seed", "3", "--out", str(out)]
    assert main(args) == 0
    svg = tmp_path / "chart.svg"
    assert main(["plot", str(out / "trace_fold0.csv"),
                 "--series", "kind=train_loss", "--out", str(svg)]) == 0
    assert svg.read_text().count("<polyline") == 1


def test_plot_escapes_every_text_node(tmp_path):
    csv_path = tmp_path / "a&b.csv"
    csv_path.write_text("epoch,layer,kind,value\n1,<gcn1>,act_std,0.5\n2,<gcn1>,act_std,0.25\n")
    title = "gcn1 & pool1 <decay>"
    for args, name in (([], "a&b"), (["--title", title], title)):
        svg = tmp_path / "chart.svg"
        assert main(["plot", str(csv_path), "--out", str(svg), *args]) == 0
        root = ElementTree.parse(svg).getroot()
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert root.find("{http://www.w3.org/2000/svg}title").text == name == texts[0]
        assert "<gcn1>:act_std" in texts


def test_plot_unknown_series_exit_code(tu_dir, tmp_path, capsys):
    out = tmp_path / "plotrun2"
    assert main(_train_args(tu_dir, out)) == 0
    code = main(["plot", str(out / "trace_fold0.csv"),
                 "--series", "kind=bogus", "--out", str(tmp_path / "x.svg")])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["epoch,layer,kind,value\n2,gcn1,act_std,abc\n", None],
                         ids=["malformed_row", "missing_file"])
def test_plot_unreadable_csv_exit_code(tmp_path, capsys, text):
    path = tmp_path / "trace.csv"
    if text is not None:
        path.write_text(text)
    assert main(["plot", str(path), "--out", str(tmp_path / "x.svg")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and str(path) in err[0]
    assert not (tmp_path / "x.svg").exists()


def _one_error_line(capsys):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    return err[0]


def test_plot_into_a_missing_directory_is_one_error_line(tmp_path, capsys):
    csv_path = tmp_path / "trace.csv"
    csv_path.write_text("epoch,layer,kind,value\n1,gcn1,act_std,0.5\n2,gcn1,act_std,0.25\n")
    out = tmp_path / "missing" / "x.svg"
    assert main(["plot", str(csv_path), "--out", str(out)]) == 1
    assert str(out) in _one_error_line(capsys)


def test_train_out_on_a_file_fails_before_any_fold(tu_dir, tmp_path, capsys, monkeypatch):
    folds_run = []
    monkeypatch.setattr(cli, "run_cv", lambda *a, **k: folds_run.append(a))
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert main(_train_args(tu_dir, out)) == 1
    assert str(out) in _one_error_line(capsys)
    assert folds_run == [] and out.read_text() == "not a directory\n"


def test_sweep_out_on_a_file_is_one_error_line(tu_dir, tmp_path, capsys):
    cfg = ExperimentConfig(dataset=DatasetConfig(name="SYNTH", path=str(tu_dir)),
                           model=ModelSpec(kind="mlp"), folds=Folds(count=2))
    path = tmp_path / "one.json"
    path.write_text(json.dumps(cfg.to_dict()))
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["sweep-epochs", "--config", str(path), "--epochs", "1",
                 "--out", str(out)]) == 1
    assert str(out) in _one_error_line(capsys)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["train", "--model", "bogus_kind", "--dataset", "X"])
    assert exc.value.code == 2


@pytest.mark.parametrize("section,key,value", [
    ("model", "readout_kind", "bogus"),
    ("model", "hidden_dim", -3),
    ("model", "hidden_dim", 0),
    ("model", "mlp_dims", [0, 4]),
    ("model", "freeze_gcn", False),
    ("train", "betas", [0.9]),
    ("train", "betas", [0.9, 1.0]),
    ("train", "batch_size", "8"),
    ("train", "epochs", True),
    ("train", "seed", None),
    ("folds", "count", 2.0),
    ("dataset", "degree_cap", 0),
    ("train", "seed", -1),
    ("train", "init", {"kind": "standard_then_reinit", "seed": -1}),
    ("train", "init", {"kind": "standard_then_reinit", "reinit_sample_cap": 0}),
    ("train", "init", {"kind": "standard_then_reinit", "reinit_sample_cap": -5}),
    ("folds", "seed", -1),
])
def test_train_rejects_bad_config_values(tu_dir, tmp_path, capsys, section, key, value):
    d = {"dataset": {"name": "SYNTH", "path": str(tu_dir)},
         "model": {"kind": "mlp", "hidden_dim": 8, "mlp_dims": [8, 8]},
         "train": {"epochs": 1}, "folds": {"count": 2}}
    d[section][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag", ["--seed", "--fold-seed"])
def test_train_rejects_a_negative_seed_flag(tu_dir, tmp_path, capsys, flag):
    out = tmp_path / "o"
    assert main(_train_args(tu_dir, out, [flag, "-1"])) == 2
    assert "non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_every_train_flag_overrides_its_config_key(tu_dir, tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({
        "dataset": {"name": "OTHER", "path": str(tmp_path / "nowhere"),
                    "feature_policy": "degree_onehot"},
        "model": {"kind": "mlp", "hidden_dim": 16, "mlp_dims": [8, 8], "k": 0.5,
                  "jk_agg": "sum", "readout_kind": "mean"},
        "train": {"epochs": 5, "lr": 0.5, "weight_decay": 0.0, "batch_size": 64,
                  "seed": 1, "init": {"kind": "standard", "reinit_sample_cap": 10}},
        "folds": {"count": 2, "seed": 1},
        "out_dir": str(tmp_path / "ignored")}))
    out = tmp_path / "flags"
    flags = {"dataset": "SYNTH", "data_dir": str(tu_dir), "cache_dir": str(tmp_path / "c"),
             "feature_policy": "label_onehot", "model": "gcn_mlp", "hidden_dim": "8",
             "jk_agg": "concat", "readout": "max_and_sum", "epochs": "2", "lr": "0.01",
             "weight_decay": "0.001", "batch_size": "4", "seed": "3", "folds": "3",
             "fold_seed": "5"}
    assert set(flags) == set(FLAG_KEYS)
    args = ["train", "--config", str(path), "--reinit", "--no-diagnostics", "--out", str(out)]
    for dest, value in flags.items():
        args += ["--" + dest.replace("_", "-"), value]
    assert main(args) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["dataset"] == "SYNTH"
    assert report["feature_policy"] == "label_onehot"
    assert {k: report["model"][k] for k in ("kind", "hidden_dim", "jk_agg", "readout_kind")} \
        == {"kind": "gcn_mlp", "hidden_dim": 8, "jk_agg": "concat",
            "readout_kind": "max_and_sum"}
    assert report["model"]["mlp_dims"] == [8, 8] and report["model"]["k"] == 0.5
    assert {k: report["config"][k] for k in ("epochs", "lr", "weight_decay", "batch_size",
                                             "seed")} \
        == {"epochs": 2, "lr": 0.01, "weight_decay": 0.001, "batch_size": 4, "seed": 3}
    assert report["config"]["init"] == {"kind": "standard_then_reinit", "seed": None,
                                        "reinit_sample_cap": 10}
    assert len(report["folds"]) == 3 and len(report["reinit_divisors"]) == 3
    assert not list(out.glob("trace_fold*.csv"))
    assert not (tmp_path / "ignored").exists()
    # the two overrides report.json does not echo
    cfg = _config_from_args(build_parser().parse_args(args))
    assert cfg.folds.seed == 5
    assert cfg.dataset.cache_dir == str(tmp_path / "c")


def test_train_flags_and_settings_do_not_drift():
    namespace = vars(build_parser().parse_args(["train"]))
    own = {"command", "fn", "jobs"}
    assert {k: v for k, v in namespace.items() if k not in own and v is not None} == {}
    # every parsed flag reaches the config, and lands on a real settings field
    assert set(namespace) - own - {"config", "reinit", "no_diagnostics", "out"} \
        == set(FLAG_KEYS)
    sections = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
    for section, key in FLAG_KEYS.values():
        assert key in {f.name for f in dataclasses.fields(sections[section])}
