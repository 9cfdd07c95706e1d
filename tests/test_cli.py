import dataclasses
import json
import math
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from gnnlab import (ExperimentConfig, InitScheme, ModelSpec, Rng, TrainConfig, build, cli,
                    parse_tu, run_cv, stratified_folds, training, write_tu)
from gnnlab.cli import TRAIN_FLAGS, _config_from_args, _write_report, build_parser, main
from gnnlab.config import DatasetConfig, Folds, read_json
from gnnlab.errors import ConfigError
from gnnlab.training import RunReport

import test_golden
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


def test_train_on_a_file_that_is_not_utf_8_exits_1_naming_its_line(tmp_path, capsys):
    write_tu_files(tmp_path, "TOY", [(2, [(1, 2)]), (1, [])], labels=[1, 2])
    (tmp_path / "TOY_graph_labels.txt").write_bytes(b"1\n\xff\n")
    args = ["train", "--dataset", "TOY", "--data-dir", str(tmp_path), "--model", "mlp",
            "--out", str(tmp_path / "o")]
    assert main(args) == 1
    assert capsys.readouterr().err == "error: TOY_graph_labels.txt:2: expected UTF-8 text\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_train_on_a_spec_the_dataset_cannot_serve_exits_2(tu_dir, tmp_path, capsys, jobs):
    # the corpus has 3 feature columns, so gcn_mlp's taps are 3 and 5 wide
    args = _train_args(tu_dir, tmp_path / "o", ["--model", "gcn_mlp", "--jk-agg", "sum",
                                                "--hidden-dim", "5", "--jobs", jobs])
    assert main(args) == 2
    assert capsys.readouterr().err == \
        "error: jk_agg 'sum' needs taps of equal width, gcn_mlp has [3, 5]\n"


def test_a_minimal_preset_writes_only_what_differs_from_the_defaults(tmp_path):
    write_tu(synth_dataset(40, seed=1, name="PROTEINS"), tmp_path / "PROTEINS" / "raw")
    preset = Path(__file__).resolve().parents[1] / "configs" / "proteins_mlp.json"
    out = tmp_path / "o"
    assert main(["train", "--config", str(preset), "--data-dir", str(tmp_path),
                 "--epochs", "1", "--folds", "2", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["model"] == {"kind": "mlp"}
    assert report["config"] == {"epochs": 1}


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
    assert [len(f["reinit"]["divisors"]) for f in report["folds"]] == [8, 8]


@pytest.mark.parametrize("jobs", [1, 2])
def test_every_golden_report_reads_back_to_its_bytes(tmp_path, jobs):
    test_golden.write_corpus(tmp_path)
    for name, out in test_golden.train_variants(tmp_path, jobs):
        text = (out / "report.json").read_bytes()
        again = tmp_path / f"{name}_again"
        again.mkdir()
        report = RunReport.from_dict(json.loads(text))
        assert _write_report(report, [], again).read_bytes() == text, name
        # a report that spells out every field, as the codec wrote them before
        # it left defaults out (and before train.eval_at), reads back the same
        every = json.loads(json.dumps(dataclasses.asdict(report)))
        del every["config"]["eval_at"]
        assert RunReport.from_dict(every) == report, name


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
    loaded = ExperimentConfig.from_dict(read_json(cfg_path))
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
        ExperimentConfig.from_dict(read_json(bad))
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
    assert first == f"fetched: {cache / 'MINI' / 'raw'}\n"
    assert main(["fetch", "MINI", "--cache-dir", str(cache),
                 "--url-base", tu_server]) == 0
    second = capsys.readouterr().out
    assert second == f"cached: {cache / 'MINI' / 'raw'}\n"


def test_fetch_unknown_name_fails(tu_server, tmp_path, capsys):
    code = main(["fetch", "NOPE", "--cache-dir", str(tmp_path / "c"),
                 "--url-base", tu_server])
    assert code == 1
    assert "404" in capsys.readouterr().err


def _sweep(runs, out, *flags):
    """``gnnlab train --config`` on each (run directory, config path) with
    ``flags`` and ``--out`` the run directory, then ``gnnlab table`` over the
    runs into the CSV ``out``; returns the CSV's lines."""
    for run, config in runs:
        assert main(["train", "--config", str(config), *flags, "--out", str(run)]) == 0
    assert main(["table", *map(str, (run for run, _ in runs)), "--out", str(out)]) == 0
    return Path(out).read_text().splitlines()


def _config_file(tu_dir, path, **fields):
    """The ``ExperimentConfig`` over SYNTH in ``tu_dir`` with ``fields``,
    written to ``path``."""
    cfg = ExperimentConfig(dataset=DatasetConfig(name="SYNTH", path=str(tu_dir)), **fields)
    path.write_text(json.dumps(cfg.to_dict()))
    return cfg


def test_sweep_epochs(tu_dir, tmp_path, capsys):
    runs = []
    for kind in ("mlp", "gcn_mlp"):
        path = tmp_path / f"{kind}.json"
        _config_file(tu_dir, path, folds=Folds(count=2),
                     model=ModelSpec(kind=kind, hidden_dim=8, mlp_dims=(8, 8)))
        runs.append((tmp_path / "runs" / kind, path))
    csv_path = tmp_path / "sweep.csv"
    rows = _sweep(runs, csv_path, "--epochs", "2", "--eval-at", "1")
    assert rows[0] == "epochs,mean_acc,std_acc,variant"
    # budget-major, the runs in argument order, each named by its directory
    assert [tuple(r.split(",")[::3]) for r in rows[1:]] \
        == [("1", "mlp"), ("1", "gcn_mlp"), ("2", "mlp"), ("2", "gcn_mlp")]
    printed = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in printed[-5:-1]] \
        == ["epochs=1 mlp", "epochs=1 gcn_mlp", "epochs=2 mlp", "epochs=2 gcn_mlp"]
    assert printed[-1] == f"wrote {csv_path}"


def test_sweep_single_budget(tu_dir, tmp_path):
    path = tmp_path / "one.json"
    _config_file(tu_dir, path, folds=Folds(count=2),
                 model=ModelSpec(kind="mlp", hidden_dim=8, mlp_dims=(8, 8)))
    rows = _sweep([(tmp_path / "one", path)], tmp_path / "sweep1.csv", "--epochs", "2")
    assert len(rows) == 2 and rows[1].startswith("2,") and rows[1].endswith(",one")


def _sweep_configs(tu_dir, tmp_path):
    """Two sweep variants over SYNTH, ``jk_sum`` with the rescaling init and
    ``mlp``; returns (variant, config, path) triples."""
    out = []
    for variant, kind, init in (("jk_reinit", "jk_sum", "standard_then_reinit"),
                                ("mlp", "mlp", "standard")):
        path = tmp_path / f"{variant}.json"
        cfg = _config_file(
            tu_dir, path, model=ModelSpec(kind=kind, hidden_dim=8, mlp_dims=(8, 8)),
            train=TrainConfig(lr=1e-2, batch_size=8, seed=3, init=InitScheme(kind=init)),
            folds=Folds(count=3, seed=1))
        out.append((variant, cfg, path))
    return out


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_rows_equal_a_separate_run_per_budget(tu_dir, tmp_path, jobs):
    # oracle: one cross-validation per budget
    variants = _sweep_configs(tu_dir, tmp_path)
    rows = _sweep([(tmp_path / "runs" / variant, path) for variant, _, path in variants],
                  tmp_path / "sweep.csv", "--eval-at", "1", "2", "--epochs", "3",
                  "--no-diagnostics", "--jobs", jobs)
    ds = cli.load_dataset(variants[0][1].dataset)
    want = ["epochs,mean_acc,std_acc,variant"]
    for budget in (1, 2, 3):
        for variant, cfg, _ in variants:
            report, _ = run_cv(ds, cfg.model, dataclasses.replace(cfg.train, epochs=budget),
                               folds=cfg.folds.count, fold_seed=cfg.folds.seed)
            want.append(f"{budget},{report.mean!r},{report.std!r},{variant}")
    assert rows == want


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
    _sweep([(tmp_path / variant, path) for variant, _, path in variants], tmp_path / "sweep.csv",
           "--eval-at", "1", "2", "--epochs", "5", "--no-diagnostics")
    cfg = variants[0][1]
    split = stratified_folds(cli.load_dataset(cfg.dataset), cfg.folds.count, seed=cfg.folds.seed)
    steps_per_epoch = sum(math.ceil(len(split.train_indices(f)) / cfg.train.batch_size)
                          for f in range(cfg.folds.count))
    # five epochs per (variant, fold), not 1 + 2 + 5; one rescaling pass per
    # fold of the reinit variant; one cross-validation (one pool) per variant
    assert counts == {"steps": 2 * 5 * steps_per_epoch, "reinit": cfg.folds.count,
                      "run_cv": 2}


def test_table_refuses_reports_tested_after_different_epochs(tu_dir, tmp_path, capsys):
    for run, extra in (("a", ["--eval-at", "1"]), ("b", [])):
        assert main(_train_args(tu_dir, tmp_path / run, ["--no-diagnostics", *extra])) == 0
    csv_path = tmp_path / "sweep.csv"
    assert main(["table", str(tmp_path / "a"), str(tmp_path / "b"), "--out", str(csv_path)]) == 2
    assert _one_error_line(capsys) == ("error: the reports were tested after different epochs: "
                                       f"{tmp_path / 'a'} [1, 3], {tmp_path / 'b'} [3]")
    assert not csv_path.exists()


def test_table_refuses_runs_that_share_a_directory_name(tmp_path, capsys):
    # each row names its run by the directory's name alone; checked before any report is read
    runs = [str(tmp_path / side / "run") for side in ("a", "b")]
    assert main(["table", *runs, "--out", str(tmp_path / "sweep.csv")]) == 2
    assert _one_error_line(capsys) == f"error: the run directories share a name: {runs}"
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("epochs", ["0,2", "-1"])
def test_sweep_rejects_a_budget_below_one(tu_dir, tmp_path, capsys, epochs):
    out = tmp_path / "o"
    assert main(_train_args(tu_dir, out, ["--eval-at", *epochs.split(",")])) == 2
    assert _one_error_line(capsys).startswith("error: ExperimentConfig.train: eval_at must ")
    assert not out.exists()


def test_sweep_rejects_a_non_integer_budget(tu_dir, tmp_path, capsys):
    # a usage error: argparse reads the budgets, before any config is read
    with pytest.raises(SystemExit) as exc:
        main(_train_args(tu_dir, tmp_path / "o", ["--eval-at", "1", "abc"]))
    assert exc.value.code == 2
    assert "'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_train_rejects_jobs_below_one(tu_dir, tmp_path, capsys, jobs):
    out = tmp_path / "o"
    assert main(_train_args(tu_dir, out, ["--jobs", jobs])) == 2
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


@pytest.mark.parametrize("text", ["epoch,layer,kind,value\n2,gcn1,act_std,abc\n", None,
                                  *(f"epoch,layer,kind,value\n1,gcn1,act_std,0.5\n"
                                    f"2,gcn1,act_std,{v}\n" for v in ("nan", "inf", "-inf"))],
                         ids=["malformed_row", "missing_file", "nan", "inf", "neg_inf"])
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


def test_plot_of_a_value_span_beyond_the_float_range_is_one_error_line(tmp_path, capsys):
    csv_path = tmp_path / "trace.csv"
    csv_path.write_text("epoch,layer,kind,value\n1,gcn1,act_std,1e308\n2,gcn1,act_std,-1e308\n")
    svg = tmp_path / "x.svg"
    assert main(["plot", str(csv_path), "--out", str(svg)]) == 1
    assert _one_error_line(capsys) == (f"error: {csv_path}: values -1e+308 to 1e+308 "
                                       "span more than a float holds")
    assert not svg.exists()


def test_plot_into_a_missing_directory_is_one_error_line(tmp_path, capsys):
    csv_path = tmp_path / "trace.csv"
    csv_path.write_text("epoch,layer,kind,value\n1,gcn1,act_std,0.5\n2,gcn1,act_std,0.25\n")
    out = tmp_path / "missing" / "x.svg"
    assert main(["plot", str(csv_path), "--out", str(out)]) == 1
    assert str(out) in _one_error_line(capsys)


def test_train_with_more_folds_than_a_class_has_graphs_exits_2(tu_dir, tmp_path, capsys):
    # each of SYNTH's two classes has 14 graphs
    assert main(["train", "--dataset", "SYNTH", "--data-dir", str(tu_dir), "--model", "mlp",
                 "--epochs", "1", "--folds", "15", "--out", str(tmp_path / "o")]) == 2
    assert _one_error_line(capsys) == "error: class 0 has 14 graphs, fewer than k=15"


def test_sweep_with_more_folds_than_a_class_has_graphs_exits_2(tu_dir, tmp_path, capsys):
    assert main(_train_args(tu_dir, tmp_path / "o", ["--eval-at", "1", "--folds", "15"])) == 2
    assert _one_error_line(capsys) == "error: class 0 has 14 graphs, fewer than k=15"


def test_train_out_on_a_file_fails_before_any_fold(tu_dir, tmp_path, capsys, monkeypatch):
    folds_run = []
    monkeypatch.setattr(cli, "run_cv", lambda *a, **k: folds_run.append(a))
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert main(_train_args(tu_dir, out)) == 1
    assert str(out) in _one_error_line(capsys)
    assert folds_run == [] and out.read_text() == "not a directory\n"


def test_sweep_out_on_a_file_is_one_error_line(tu_dir, tmp_path, capsys):
    assert main(_train_args(tu_dir, tmp_path / "run", ["--no-diagnostics"])) == 0
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken / "sweep.csv"
    assert main(["table", str(tmp_path / "run"), "--out", str(out)]) == 1
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


# the --config text (None: no file) and what the one error line names; every
# run also passes --data-dir, a directory without TU files
CONFIG_ERRORS = {
    "missing-file": (None, "{path} does not exist"),
    # a key given twice in one object, where the last value would silently win
    "duplicate-model-key": ('{"dataset": {"name": "X"}, '
                            '"model": {"kind": "mlp", "kind": "jk_sum"}}',
                            "{path}: key 'kind' given twice"),
    "duplicate-train-key": ('{"dataset": {"name": "X"}, "model": {"kind": "mlp"}, '
                            '"train": {"lr": 0.01, "lr": 0.0005}}', "{path}: key 'lr' given twice"),
    "invalid-json": ("{", "{path}: invalid JSON"),
    "top-level-list": ("[]", "{path}: top level must be a JSON object"),
    "model-not-an-object": ({"model": 3}, "ExperimentConfig.model: expected an object, got 3"),
    "mlp-dims-not-a-list": ({"model": {"kind": "mlp", "mlp_dims": 128}},
                            "ExperimentConfig.model.mlp_dims: expected a list, got 128"),
    "unknown-feature-policy": ({"dataset": {"name": "SYNTH", "feature_policy": "bogus"}},
                               "ExperimentConfig.dataset: unknown feature policy 'bogus'"),
    "unknown-jk-agg": ({"model": {"kind": "mlp", "jk_agg": "bogus"}},
                       "ExperimentConfig.model: unknown jk aggregation 'bogus'"),
    "batch-size-zero": ({"train": {"batch_size": 0}},
                        "ExperimentConfig.train: batch size must be positive"),
    **{f"{key}-{value}": ({"train": {key: value}},
                          f"ExperimentConfig.train: {key} must be finite and {rule}, got {value}")
       for key, rule, values in (("lr", "above 0", (math.nan, math.inf, 0)),
                                 ("weight_decay", "at least 0", (math.nan, math.inf, -1e-3)),
                                 ("eps", "above 0", (math.nan, math.inf, 0, -1e-8)))
       for value in values},
    **{f"eval-at-{case}": ({"train": {"epochs": 3, "eval_at": at}},
                           "ExperimentConfig.train: eval_at must ascend strictly from at least 1 "
                           f"to below epochs 3, got {at}")
       for case, at in (("not-ascending", [2, 1]), ("repeated", [1, 1]), ("below-1", [0, 2]),
                        ("at-epochs", [1, 3]), ("beyond-epochs", [4]))},
    "data-dir-without-tu-files": ({}, "no TU files for SYNTH under {empty}"),
}


@pytest.mark.parametrize("case", CONFIG_ERRORS)
def test_train_config_errors_exit_2_naming_the_file_or_key(tmp_path, capsys, case):
    text, names = CONFIG_ERRORS[case]
    path, empty = tmp_path / "exp.json", tmp_path / "empty"
    empty.mkdir()
    if isinstance(text, dict):  # these keys over a valid config
        d = {"dataset": {"name": "SYNTH"}, "model": {"kind": "mlp"}}
        d.update(text)
        text = json.dumps(d)
    if text is not None:
        path.write_text(text)
    args = ["train", "--config", str(path), "--data-dir", str(empty), "--out", str(tmp_path / "o")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + names.format(path=path, empty=empty))
    assert err.count("\n") == 1 and not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag", ["--seed", "--fold-seed"])
def test_train_rejects_a_negative_seed_flag(tu_dir, tmp_path, capsys, flag):
    out = tmp_path / "o"
    assert main(_train_args(tu_dir, out, [flag, "-1"])) == 2
    assert "non-negative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,key", [("--lr", "lr"), ("--weight-decay", "weight_decay")])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_train_refuses_a_non_finite_optimiser_flag(tu_dir, tmp_path, capsys, flag, key, value):
    out = tmp_path / "o"
    assert main(_train_args(tu_dir, out, [f"{flag}={value}"])) == 2
    assert f"ExperimentConfig.train: {key} must be finite" in _one_error_line(capsys)
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
             "jk_agg": "concat", "readout": "max_and_sum", "epochs": "2", "eval_at": "1",
             "lr": "0.01", "weight_decay": "0.001", "batch_size": "4", "seed": "3",
             "folds": "3", "fold_seed": "5"}
    assert {"--" + dest.replace("_", "-") for dest in flags} \
        == set(TRAIN_FLAGS) - {"--reinit", "--no-diagnostics", "--out"}
    args = ["train", "--config", str(path), "--reinit", "--no-diagnostics", "--out", str(out)]
    for dest, value in flags.items():
        args += ["--" + dest.replace("_", "-"), value]
    assert main(args) == 0
    # read back, so a key the report leaves out at its default counts too
    report = RunReport.from_dict(json.loads((out / "report.json").read_text()))
    assert (report.dataset, report.feature_policy) == ("SYNTH", "label_onehot")
    assert report.model == ModelSpec(kind="gcn_mlp", hidden_dim=8, mlp_dims=(8, 8), k=0.5,
                                     jk_agg="concat", readout_kind="max_and_sum")
    assert report.config == TrainConfig(
        epochs=2, eval_at=(1,), lr=0.01, weight_decay=0.001, batch_size=4, seed=3,
        init=InitScheme(kind="standard_then_reinit", reinit_sample_cap=10))
    assert len(report.folds) == 3
    assert all(f.reinit is not None and len(f.accuracies) == 2 for f in report.folds)
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
    # every parsed flag is a row of the table, and each row's key path walks
    # down the settings classes to a real field
    assert set(namespace) - own - {"config"} \
        == {flag[2:].replace("-", "_") for flag in TRAIN_FLAGS}
    for keys, _ in TRAIN_FLAGS.values():
        tp = ExperimentConfig
        for key in keys:
            assert dataclasses.is_dataclass(tp)
            tp = {f.name: f.type for f in dataclasses.fields(tp)}[key]


def _leaves(d, path=()):
    """``{key path: value}`` for every non-object value of a nested dict."""
    out = {}
    for k, v in d.items():
        out.update(_leaves(v, path + (k,)) if isinstance(v, dict) else {path + (k,): v})
    return out


@pytest.mark.parametrize("flag", TRAIN_FLAGS)
def test_each_train_flag_alone_changes_exactly_its_key(flag):
    keys, kwargs = TRAIN_FLAGS[flag]
    base_args = ["train", "--dataset", "SYNTH", "--model", "mlp"]

    def every_field(args):  # to_dict leaves defaults out; this spells each one
        return _leaves(dataclasses.asdict(_config_from_args(build_parser().parse_args(args))))

    base = every_field(base_args)
    if "const" in kwargs:  # a switch takes no value
        given, want = [], kwargs["const"]
    elif "choices" in kwargs:
        want = next(c for c in kwargs["choices"] if c != base[keys])
        given = [want]
    else:
        given = [{int: "7", float: "0.25"}.get(kwargs.get("type"), "x")]
        want = kwargs.get("type", str)(given[0])
        if "nargs" in kwargs:  # a list of one
            want = (want,)
    changed = {path: v for path, v in every_field(base_args + [flag, *given]).items()
               if base[path] != v}
    assert changed == {keys: want}


@pytest.mark.parametrize("command", ["fetch", "train", "table", "plot"])
def test_help_renders(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: gnnlab {command}")
