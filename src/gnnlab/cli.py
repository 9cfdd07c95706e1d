"""Command-line entry point: fetch, train, table, plot.

Exit codes: 0 on success, 1 on runtime failure, 2 on usage/config/spec errors.
"""

import argparse
import csv
import json
import sys
from pathlib import Path

from . import diagnostics
from .config import JK_AGGS, MODEL_KINDS, DatasetConfig, ExperimentConfig, read_json
from .errors import ConfigError, GnnLabError, SpecError, StratificationError
from .graphdata import DEFAULT_TU_URL, FEATURE_POLICIES, Dataset, fetch_tu, is_cached, parse_tu
from .layers import READOUT_KINDS
from .training import RunReport, fold_mean_std, run_cv


def load_dataset(dc: DatasetConfig) -> Dataset:
    """Resolve a dataset config to parsed graphs (local path or fetch+cache)."""
    if dc.path:
        root = Path(dc.path)
        raw = next((cand for cand in (root, root / dc.name / "raw", root / dc.name, root / "raw")
                    if (cand / f"{dc.name}_A.txt").is_file()), None)
        if raw is None:
            raise ConfigError(f"no TU files for {dc.name} under {root}")
    else:
        raw = fetch_tu(dc.name, url_base=dc.url_base or DEFAULT_TU_URL, cache_dir=dc.cache_dir)
    return parse_tu(raw, dc.name, feature_policy=dc.feature_policy, degree_cap=dc.degree_cap)


# every setting flag of `train`: the config key path it overrides and its
# argparse keywords; a flag not given (None) writes nothing
TRAIN_FLAGS = {
    "--dataset": (("dataset", "name"), {}),
    "--data-dir": (("dataset", "path"), {"help": "local dir with raw TU files"}),
    "--cache-dir": (("dataset", "cache_dir"), {}),
    "--feature-policy": (("dataset", "feature_policy"), {"choices": FEATURE_POLICIES}),
    "--model": (("model", "kind"), {"choices": MODEL_KINDS}),
    "--hidden-dim": (("model", "hidden_dim"), {"type": int}),
    "--jk-agg": (("model", "jk_agg"), {"choices": JK_AGGS}),
    "--readout": (("model", "readout_kind"), {"choices": READOUT_KINDS}),
    "--epochs": (("train", "epochs"), {"type": int}),
    "--eval-at": (("train", "eval_at"), {"type": int, "nargs": "+"}),
    "--lr": (("train", "lr"), {"type": float}),
    "--weight-decay": (("train", "weight_decay"), {"type": float}),
    "--batch-size": (("train", "batch_size"), {"type": int}),
    "--seed": (("train", "seed"), {"type": int}),
    "--reinit": (("train", "init", "kind"),
                 {"action": "store_const", "const": "standard_then_reinit"}),
    "--folds": (("folds", "count"), {"type": int}),
    "--fold-seed": (("folds", "seed"), {"type": int}),
    "--no-diagnostics": (("diagnostics",), {"action": "store_const", "const": False}),
    "--out": (("out_dir",), {}),
}


def _set(d: dict, keys, value) -> None:
    """``d[k1][k2]...= value``, creating missing sections; a section that is
    not an object is left for :meth:`ExperimentConfig.from_dict` to reject."""
    *sections, key = keys
    for section in sections:
        d = d.setdefault(section, {})
        if not isinstance(d, dict):
            return
    d[key] = value


def _config_from_args(args) -> ExperimentConfig:
    """The ``--config`` file (or an empty config) with every given flag
    written over its key; defaults come from the settings classes alone."""
    d = read_json(args.config) if args.config else {}
    for flag, (keys, _) in TRAIN_FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"))  # argparse's dest for it
        if value is not None:
            _set(d, keys, value)
    return ExperimentConfig.from_dict(d)


def _write_report(report, traces, out_dir: Path) -> Path:
    report_path = out_dir / "report.json"
    report_path.write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for fold, events in enumerate(traces):
        if events is not None:
            diagnostics.write_events_csv(events, out_dir / f"trace_fold{fold}.csv")
    return report_path


def cmd_fetch(args) -> int:
    cached = is_cached(args.name, args.cache_dir)
    path = fetch_tu(args.name, url_base=args.url_base, cache_dir=args.cache_dir)
    print(f"{'cached' if cached else 'fetched'}: {path}")
    return 0


def cmd_train(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    cfg = _config_from_args(args)
    ds = load_dataset(cfg.dataset)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)  # an unusable --out fails before any fold
    report, traces = run_cv(ds, cfg.model, cfg.train, folds=cfg.folds.count,
                            fold_seed=cfg.folds.seed, jobs=args.jobs,
                            trace=cfg.diagnostics)
    report_path = _write_report(report, traces, out_dir)
    print(f"{ds.name} {cfg.model.kind}: {report.mean:.2f} +/- {report.std:.2f} "
          f"(over {cfg.folds.count} folds) -> {report_path}")
    return 0


def cmd_table(args) -> int:
    """One CSV row per tested epoch and run, of the reports in ``args.runs``."""
    variants = [Path(run).name for run in args.runs]
    if len(set(variants)) < len(variants):  # rows name their run by it alone
        raise ConfigError(f"the run directories share a name: {args.runs}")
    reports = [RunReport.from_dict(read_json(Path(run) / "report.json")) for run in args.runs]
    tested = [(*r.config.eval_at, r.config.epochs) for r in reports]
    if len(set(tested)) > 1:
        raise ConfigError("the reports were tested after different epochs: " + ", ".join(
            f"{run} {list(epochs)}" for run, epochs in zip(args.runs, tested)))
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("epochs", "mean_acc", "std_acc", "variant"))
        for i, epochs in enumerate(tested[0]):
            for variant, report in zip(variants, reports):
                mean, std = fold_mean_std([f.accuracies[i] for f in report.folds])
                writer.writerow((epochs, repr(mean), repr(std), variant))
                print(f"epochs={epochs} {variant}: {mean:.2f} +/- {std:.2f}")
    print(f"wrote {args.out}")
    return 0


def cmd_plot(args) -> int:
    diagnostics.render_svg(args.csv, args.series, args.out, title=args.title)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gnnlab",
        description="Graph-classification lab: TU datasets, GCN/top-k/JK models, "
                    "variance re-initialisation, and 10-fold benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fetch", help="download a TU dataset into the cache")
    p.add_argument("name")
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--url-base", default=DEFAULT_TU_URL)
    p.set_defaults(fn=cmd_fetch)

    p = sub.add_parser("train", help="run k-fold cross-validation and write a report")
    p.add_argument("--config", default=None,
                   help="experiment config JSON; setting flags override its keys")
    for flag, (_, kwargs) in TRAIN_FLAGS.items():
        p.add_argument(flag, **kwargs)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("table", help="tabulate the accuracy after each tested epoch of runs")
    p.add_argument("runs", nargs="+", metavar="RUN_DIR", help="a train --out directory")
    p.add_argument("--out", required=True, help="the CSV to write")
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("plot", help="render a trace CSV to an SVG line chart")
    p.add_argument("csv")
    p.add_argument("--series", default=None, help="filter like kind=act_std,layer=gcn1")
    p.add_argument("--out", required=True)
    p.add_argument("--title", default=None)
    p.set_defaults(fn=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (GnnLabError, OSError) as exc:  # OSError: an unwritable --out, say
        print(f"error: {exc}", file=sys.stderr)
        # a spec (at the first build) or fold count the dataset cannot serve is a setting error
        return 2 if isinstance(exc, (ConfigError, SpecError, StratificationError)) else 1


if __name__ == "__main__":
    sys.exit(main())
