"""Tests of the benchmark itself: the smoke mode end to end, the corpus
check, the trimmed mean, the tracer and the hook fallbacks.

    python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import spans  # noqa: E402
from run import trimmed_mean  # noqa: E402
from workloads import PROTEINS_SMOKE, REDDIT_SMOKE, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def smoke():
    proc = _run("--workload", "all", "--smoke", "--seconds", "0.5")
    assert proc.returncode == 0, proc.stderr
    return proc


def test_smoke_runs_every_workload_correctly(smoke):
    result = json.loads(smoke.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert "warning: hook" not in smoke.stderr


def test_smoke_reports_every_declared_metric(smoke):
    metrics = json.loads(smoke.stdout.strip().splitlines()[-1])["metrics"]
    declared = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    for w in WORKLOADS:
        got = {k.split(".", 1)[1] for k in metrics if k.startswith(w + ".")}
        assert got == set(declared), w
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert all(v["unit"] == units[k.split(".", 1)[1]] for k, v in metrics.items())
    for m in SPEC["end_to_end"]:
        assert all(metrics[f"{w}.{m['name']}"]["value"] > 0 for w in WORKLOADS)


def test_smoke_layers_fire_only_where_expected(smoke):
    metrics = json.loads(smoke.stdout.strip().splitlines()[-1])["metrics"]
    calls = {k: v["value"] for k, v in metrics.items() if k.endswith(".calls")}
    assert all(v == 0 for k, v in calls.items() if k.startswith("proteins_mlp.kernels."))
    assert metrics["reddit_jk.kernels.spmm.calls"]["value"] > 0
    for w in ("proteins_mlp", "reddit_jk"):
        assert metrics[f"{w}.init.reinit.layer_forwards"]["value"] == 0
        assert metrics[f"{w}.models.run_blocks.calls"]["value"] == 0
    assert metrics["proteins_jk_reinit.init.reinit.layer_forwards"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "proteins_mlp", "--smoke", "--seconds", "0.5", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("shape", [PROTEINS_SMOKE, REDDIT_SMOKE])
def test_corpus_check_accepts_the_parse_and_catches_a_lost_edge(tmp_path, shape):
    from gnnlab import graphdata
    data = corpus.generate(shape, [7, 1])
    directory = corpus.write_tu(data, tmp_path)
    parse = lambda: graphdata.parse_tu(directory, shape.name,  # noqa: E731
                                       feature_policy=shape.feature_policy)
    assert corpus.check_dataset(parse(), data) == []
    edges = (directory / f"{shape.name}_A.txt").read_text().splitlines()
    (directory / f"{shape.name}_A.txt").write_text("\n".join(edges[2:]) + "\n")
    assert corpus.check_dataset(parse(), data)


def test_corpus_is_a_function_of_the_seed():
    a, b = (corpus.generate(PROTEINS_SMOKE, [1, 5]) for _ in range(2))
    c = corpus.generate(PROTEINS_SMOKE, [2, 5])
    assert a.stats() == b.stats() and np.array_equal(a.node_labels, b.node_labels)
    assert not np.array_equal(a.sizes, c.sizes)


def test_trimmed_mean_cuts_a_tenth_from_each_end():
    assert trimmed_mean([5.0]) == 5.0
    assert trimmed_mean([1.0, 2.0, 3.0, 4.0]) == pytest.approx(2.5)
    # of 11 samples 1.1 are cut from each end: the outlier goes, its
    # neighbours count 0.9 each
    assert trimmed_mean(list(range(10)) + [1000]) == pytest.approx(5.0)
    assert trimmed_mean([1.0] * 5 + [2.0] * 5) == pytest.approx(1.5)


def test_self_time_excludes_children():
    tr = spans.Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            sum(range(20000))
        sum(range(20000))
    s = tr.summary()
    outer, inner = s["outer"], s["inner"]
    assert outer["self_s"] == pytest.approx(outer["total_s"] - inner["total_s"])
    assert tr.count_under("inner", "outer") == 1


def test_missing_hook_target_is_reported_not_raised():
    patch = spans.Patch()
    patch.install(spans.Hook("gone", "gnnlab.numcore", "NoSuchClass.method"), lambda f: f)
    patch.install(spans.Hook("gone", "gnnlab.no_such_module", "f"), lambda f: f)
    assert patch.absent == ["gnnlab.numcore.NoSuchClass.method", "gnnlab.no_such_module.f"]


def test_hooks_are_removed_cleanly():
    from gnnlab import numcore, training
    before = (training.cross_entropy, vars(numcore.SparseAdj)["from_edges"])
    patch = spans.install_tracing(spans.Tracer())
    assert training.cross_entropy is not before[0]
    assert patch.absent == []
    patch.remove()
    assert (training.cross_entropy, vars(numcore.SparseAdj)["from_edges"]) == before
