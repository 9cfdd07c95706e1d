"""Golden runs: sixteen seeded ``gnnlab train`` runs and one sweep, two
``gnnlab train --eval-at`` runs and a ``gnnlab table`` over them, whose
results must not move.

Each model kind, and ``jk_sum`` with summed taps, with taps after the pools
and on degree one-hots instead of node-label one-hots, trains with and
without ``--reinit`` (3 folds, 2 epochs) on a seeded synthetic corpus
written in TU form, in one subprocess whose BLAS runs on one
thread. ``golden.json`` holds, per run, the sha256 of the report
(without its ``wall_clock_s``) and of each trace CSV, the per-fold training
losses and accuracies, and the provenance of the record: the numpy version,
the BLAS build, the SIMD extensions numpy found on the CPU and the BLAS
thread count. The sweep (``jk_sum`` with the rescaling init and ``mlp``,
each trained for 3 epochs and tested after epochs 1, 2 and 3, on the same
corpus and folds) adds the sha256 of the ``accuracy_vs_epochs.csv`` that
``table`` writes and its rows. Where the provenance matches the
record the hashes must match; elsewhere the losses and the sweep's means and
stds must match to a relative 1e-12, and the accuracies, budgets and
variants exactly. The test never skips.

A change meant to keep every number (a refactor, a speed-up) must pass this
test unchanged. Re-record only for a stated numeric reason, or when a report
key is removed; in the latter case the re-recorded file may differ from the
old one only in ``report_sha256`` values. The sweep's CSV was recorded when
every budget ran a cross-validation of its own, and a sweep is bound to give
each budget that run's numbers: its entry changes only with those of the
train runs, for a stated numeric reason. Re-record with::

    PYTHONPATH=src python tests/test_golden.py --record

which prints each (run, field) whose value the re-record changes, and their
count, before it writes the file.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).with_name("golden.json")
KINDS = ("mlp", "gcn_mlp", "gcn_r_mlp", "jk_sum", "probe4")
# (run name, model kind, extra flags, --config file contents or None); two
# jk_sum variants read the stage states through other taps than plain jk_sum,
# the third parses the corpus under the other one-hot feature policy
VARIANTS = tuple((kind, kind, [], None) for kind in KINDS) + (
    ("jk_sum_agg_sum", "jk_sum", ["--jk-agg", "sum"], None),
    ("jk_sum_tap_pooled", "jk_sum", [], {"model": {"tap_pooled": True}}),
    ("jk_sum_degree_onehot", "jk_sum", ["--feature-policy", "degree_onehot"], None),
)
# (variant, model kind, init kind) of the golden sweep
SWEEP = (("sweep_jk_sum_reinit", "jk_sum", "standard_then_reinit"),
         ("sweep_mlp", "mlp", "standard"))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _provenance() -> dict:
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas["name"], "blas_version": blas["version"],
            "simd": config["SIMD Extensions"]["found"],
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}


def write_corpus(work: Path) -> None:
    """The golden corpus, in TU form under ``work``."""
    from conftest import synth_dataset
    from gnnlab import write_tu

    ds = synth_dataset(36, seed=11, signal=0.7, n_lo=6, n_hi=16, name="GOLDEN")
    write_tu(ds, work / "GOLDEN" / "raw")


def train_variants(work: Path, jobs: int = 1):
    """Run each golden train run on the corpus in ``work`` with ``--jobs
    jobs``; yields its name and output directory."""
    from gnnlab import cli

    for variant, kind, flags, config in VARIANTS:
        if config is not None:
            flags = flags + ["--config", str(work / f"{variant}.json")]
            (work / f"{variant}.json").write_text(json.dumps(config), encoding="utf-8")
        for reinit in (False, True):
            name = f"{variant}_reinit" if reinit else variant
            out = work / name
            argv = ["train", "--dataset", "GOLDEN", "--data-dir", str(work), "--model", kind,
                    "--epochs", "2", "--folds", "3", "--seed", "7", "--out", str(out),
                    "--jobs", str(jobs)] + flags
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv + ["--reinit"] * reinit)
            if code != 0:
                raise RuntimeError(f"{name}: gnnlab train exited with {code}")
            yield name, out


def _runs(work: Path) -> dict:
    """Every golden run, in this process (the subprocess's side)."""
    write_corpus(work)
    runs = {}
    for name, out in train_variants(work):
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        del report["wall_clock_s"]
        canonical = json.dumps(report, indent=2, sort_keys=True).encode()
        runs[name] = {
            "report_sha256": _sha256(canonical),
            "trace_sha256": {p.name: _sha256(p.read_bytes())
                             for p in sorted(out.glob("trace_fold*.csv"))},
            "train_losses": [f["train_losses"] for f in report["folds"]],
            "accuracies": [f["accuracies"][-1] for f in report["folds"]],
        }
    return {"provenance": _provenance(), "runs": runs, "sweep": _sweep(work)}


def _sweep(work: Path) -> dict:
    """The golden sweep over the corpus ``_runs`` wrote."""
    from gnnlab import cli

    runs = []
    for variant, kind, init in SWEEP:
        config = {"dataset": {"name": "GOLDEN", "path": str(work)}, "model": {"kind": kind},
                  "train": {"seed": 7, "init": {"kind": init}}, "folds": {"count": 3}}
        path, out = work / f"{variant}.json", work / variant
        path.write_text(json.dumps(config), encoding="utf-8")
        runs.append(["train", "--config", str(path), "--eval-at", "1", "2", "--epochs", "3",
                     "--no-diagnostics", "--out", str(out)])
    csv_path = work / "accuracy_vs_epochs.csv"
    runs.append(["table", *(argv[-1] for argv in runs), "--out", str(csv_path)])
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"gnnlab {argv[0]} exited with {code}")
    data = csv_path.read_bytes()
    rows = [line.split(",") for line in data.decode().splitlines()[1:]]
    return {"csv_sha256": _sha256(data),
            "rows": [[int(e), float(mean), float(std), v] for e, mean, std, v in rows]}


def record() -> dict:
    """Run every golden run in one subprocess with BLAS on one thread."""
    env = dict(os.environ, **{var: "1" for var in BLAS_VARS})
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    with tempfile.TemporaryDirectory() as work:
        proc = subprocess.run([sys.executable, __file__, "--emit", work], env=env,
                              capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def changes(old: dict, new: dict) -> list:
    """The sorted (run, field) pairs whose value differs between two records;
    the provenance and the sweep count as runs of their own."""
    def values(rec):
        runs = {"provenance": rec.get("provenance", {}), "sweep": rec.get("sweep", {}),
                **rec.get("runs", {})}
        return {(run, key): v for run, fields in runs.items() for key, v in fields.items()}
    a, b = values(old), values(new)
    return sorted(key for key in a.keys() | b.keys() if a.get(key) != b.get(key))


def test_record_changes_name_each_run_and_field():
    old = {"provenance": {"numpy": "1"}, "runs": {"mlp": {"report_sha256": "a", "accuracies": [1]}},
           "sweep": {"rows": [1]}}
    new = {"provenance": {"numpy": "2"}, "runs": {"mlp": {"report_sha256": "b", "accuracies": [1]},
                                                  "jk": {"accuracies": [2]}},
           "sweep": {"rows": [1]}}
    assert changes(old, new) == [("jk", "accuracies"), ("mlp", "report_sha256"),
                                 ("provenance", "numpy")]
    assert changes(new, new) == []


def test_golden_runs_match_the_record():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = record()
    assert sorted(got["runs"]) == sorted(want["runs"])
    if got["provenance"] == want["provenance"]:
        for name, run in want["runs"].items():
            assert got["runs"][name] == run, name
        assert got["sweep"] == want["sweep"]
        return
    # another numpy, BLAS or CPU may round differently: compare the numbers
    for name, run in want["runs"].items():
        mine = got["runs"][name]
        assert mine["accuracies"] == run["accuracies"], name
        for fold, (a, b) in enumerate(zip(mine["train_losses"], run["train_losses"])):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0,
                                       err_msg=f"{name} fold {fold}")
    mine, theirs = got["sweep"]["rows"], want["sweep"]["rows"]
    assert [(r[0], r[3]) for r in mine] == [(r[0], r[3]) for r in theirs]
    np.testing.assert_allclose([r[1:3] for r in mine], [r[1:3] for r in theirs],
                               rtol=1e-12, atol=0, err_msg="sweep")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--emit"]:
        print(json.dumps(_runs(Path(sys.argv[2]))))
    elif sys.argv[1:] == ["--record"]:
        new = record()
        old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
        changed = changes(old, new)
        for run, field in changed:
            print(f"{run}: {field}")
        print(f"{len(changed)} (run, field) value(s) change")
        GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {GOLDEN}")
    else:
        sys.exit("usage: test_golden.py --record")
