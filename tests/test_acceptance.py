"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Criteria 6-9 need the real PROTEINS dataset and skip (with an
explicit reason) when the TU archive is unreachable and nothing is cached;
criteria 10, 11 and 13 are additionally marked ``extended`` (hour-scale) and
are deselected by default.
"""

import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

from gnnlab import (Batch, DenseLayer, InitScheme, ModelSpec, Readout, Rng,
                    TopKPool, TrainConfig, build, parse_tu, reinit,
                    stratified_folds, run_cv, train_model, write_tu)
from gnnlab.cli import main
from gnnlab.diagnostics import TraceSink
from gnnlab.numcore import Moments

from conftest import (edge_set, fd_max_rel_err, layer_fd_max_rel_err, one_graph,
                      permute_graph, random_adj, random_graph, randomize_params, share_table,
                      synth_dataset, write_tu_files)
from test_layers import brute_force_topk, make_gcn


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception as exc:
        verdict = "SKIP" if isinstance(exc, pytest.skip.Exception) else "FAIL"
        print(f"\n[criterion {num:>2}] {verdict} - {desc}")
        raise
    print(f"\n[criterion {num:>2}] PASS - {desc}")


# --------------------------------------------------------------------------
# 1. gradient exactness

def test_criterion_1_gradient_exactness(kept_rows):
    with criterion(1, "analytic gradients match finite differences < 1e-6"):
        worst = 0.0
        for trial in range(50):  # convolution layers
            rng = Rng(10_000 + trial)
            n = 2 + rng.integers(0, 9)
            adj = random_adj(rng.derive(0), n, 0.4)
            x = rng.normal(n, 4, 1.0)
            layer = make_gcn(rng.derive(1), 4, 5, activation=("relu", "none")[trial % 2])
            direction = rng.normal(n, 5, 1.0)

            def run():
                return float((layer.forward(one_graph(adj, x)).x * direction).sum())

            run()
            grad_x, grads = layer.backward(direction)
            worst = max(worst, layer_fd_max_rel_err(
                {"W": (layer.w, grads["W"]), "b": (layer.b, grads["b"]),
                 "x": (x, grad_x)}, run))

        for trial in range(50):  # top-k pools, with and without drops
            rng = Rng(20_000 + trial)
            n = 2 + rng.integers(0, 9)
            adj = random_adj(rng.derive(0), n, 0.4)
            x = rng.normal(n, 4, 1.0)
            pool = TopKPool(rng.normal(1, 4, 1.0)[0], k=(0.5, 0.9)[trial % 2])
            pool.forward(one_graph(adj, x))
            kept = kept_rows[-1]
            direction = rng.normal(kept.shape[0], 4, 1.0)

            def run():
                return float((pool.forward(one_graph(adj, x)).x * direction).sum())

            run()
            grad_in, grads = pool.backward(direction)
            worst = max(worst, layer_fd_max_rel_err(
                {"p": (pool.p, grads["p"]), "x": (x, grad_in)}, run))

        for trial in range(50):  # dense layers
            rng = Rng(30_000 + trial)
            x = rng.normal(5, 4, 1.0)
            layer = DenseLayer(rng.normal(4, 3, 0.7), rng.uniform(1, 3, 0.5)[0],
                               activation=("relu", "none")[trial % 2])
            direction = rng.normal(5, 3, 1.0)

            def run():
                return float((layer.forward(x) * direction).sum())

            run()
            grad_x, grads = layer.backward(direction)
            worst = max(worst, layer_fd_max_rel_err(
                {"W": (layer.w, grads["W"]), "b": (layer.b, grads["b"]),
                 "x": (x, grad_x)}, run))

        for trial in range(52):  # readouts
            rng = Rng(40_000 + trial)
            x = rng.normal(6, 4, 1.0)
            ro = Readout(("mean", "sum", "max", "max_and_sum")[trial % 4])
            direction = rng.normal(1, ro.width(4), 1.0)[0]

            def run():
                return float(ro.forward(x, [x.shape[0]])[0] @ direction)

            run()
            worst = max(worst, layer_fd_max_rel_err(
                {"x": (x, ro.backward(direction[None]))}, run))

        for trial in range(50):  # full models, all five kinds
            rng = Rng(50_000 + trial)
            kind = ("mlp", "gcn_mlp", "gcn_r_mlp", "jk_sum", "probe4")[trial % 5]
            g = random_graph(rng.derive(0), 4 + rng.integers(0, 7), 3)
            model = build(ModelSpec(kind=kind, hidden_dim=5, mlp_dims=(4, 4),
                                    k=0.6), 3, 2, rng.derive(1))
            randomize_params(model, rng.derive(2))
            direction = rng.derive(3).normal(1, 2, 1.0)
            worst = max(worst, fd_max_rel_err(model, Batch.of([g]), direction,
                                              skip=model.frozen))
        assert worst < 1e-6, f"max relative error {worst:.3e}"


# --------------------------------------------------------------------------
# 2. reinit post-condition

def test_criterion_2_reinit_postcondition():
    with criterion(2, "per-block output std = 1 +/- 1e-6 after reinit; idempotent"):
        for trial in range(9):
            rng = Rng(60_000 + trial)
            kind = ("gcn_mlp", "jk_sum", "probe4")[trial % 3]
            hidden = 4 + rng.integers(0, 8)
            graphs = share_table([random_graph(rng.derive(i), 4 + rng.integers(0, 10), 3)
                                  for i in range(10)])
            model = build(ModelSpec(kind=kind, hidden_dim=hidden,
                                    mlp_dims=(5, 4), k=0.7), 3, 2, rng.derive(99))
            report = reinit(model, graphs)
            assert all(abs(s - 1.0) < 1e-6 for s in report.post_std)
            for stage in range(len(model.block_stages())):
                mom = Moments()
                for g in graphs:
                    mom.add(model.run_blocks(Batch.of([g]).state, stage)[-1].x)
                assert abs(mom.std() - 1.0) < 1e-6
            second = reinit(model, graphs)
            assert all(abs(d - 1.0) < 1e-6 for d in second.divisors)


# --------------------------------------------------------------------------
# 3. top-k oracle equivalence

def test_criterion_3_topk_oracle(kept_rows):
    with criterion(3, "top-k kept set and subgraph equal the brute-force oracle"):
        for trial in range(200):
            rng = Rng(70_000 + trial)
            n = 1 + rng.integers(0, 10)
            f = 1 + rng.integers(0, 4)
            adj = random_adj(rng.derive(0), n, 0.45)
            x = rng.normal(n, f, 1.0)
            p = rng.normal(1, f, 1.0)[0]
            k = (0.0, 0.3, 0.5, 0.8, 0.95)[trial % 5]
            sub, _, _ = TopKPool(p, k=k).forward(one_graph(adj, x))
            kept = kept_rows[-1]
            expect = brute_force_topk(x, p, k)
            assert kept.tolist() == expect
            assert kept.shape[0] == max(1, math.ceil(k * n - 1e-9))
            kept_list = kept.tolist()
            expect_edges = {(kept_list.index(i), kept_list.index(j))
                            for i, j in edge_set(adj)
                            if i in expect and j in expect}
            assert edge_set(sub) == expect_edges


# --------------------------------------------------------------------------
# 4. permutation invariance

def test_criterion_4_permutation_invariance():
    with criterion(4, "model scores invariant under node relabelling (1e-9)"):
        for kind in ("mlp", "gcn_r_mlp", "gcn_mlp", "jk_sum", "probe4"):
            for trial in range(4):
                rng = Rng(80_000 + trial)
                n = 5 + rng.integers(0, 6)
                g = random_graph(rng.derive(0), n, 3)
                model = build(ModelSpec(kind=kind, hidden_dim=6, mlp_dims=(5, 4),
                                        k=0.6), 3, 2, rng.derive(1))
                randomize_params(model, rng.derive(2))
                scores = model.forward(Batch.of([g]))
                perm = rng.derive(3).permutation(n)
                pscores = model.forward(Batch.of([permute_graph(g, perm)]))
                assert np.max(np.abs(scores - pscores)) < 1e-9


# --------------------------------------------------------------------------
# 5. determinism across --jobs

def test_criterion_5_deterministic_reports(tmp_path):
    with criterion(5, "identical seeds give byte-identical report.json "
                      "(minus wall clock) across --jobs 1 and --jobs 4"):
        ds = synth_dataset(32, seed=0, signal=0.8, n_lo=6, n_hi=12, name="SYNTH")
        tu_dir = tmp_path / "tu"
        write_tu(ds, tu_dir / "SYNTH" / "raw")
        outs = []
        for jobs in (1, 4):
            out = tmp_path / f"jobs{jobs}"
            args = ["train", "--dataset", "SYNTH", "--data-dir", str(tu_dir),
                    "--model", "jk_sum", "--hidden-dim", "8", "--epochs", "2",
                    "--folds", "4", "--seed", "7", "--jobs", str(jobs),
                    "--out", str(out)]
            assert main(args) == 0
            outs.append(out)

        def canonical(path):
            data = json.loads((path / "report.json").read_text())
            data.pop("wall_clock_s")
            return json.dumps(data, sort_keys=True).encode()

        assert canonical(outs[0]) == canonical(outs[1])
        for fold in range(4):
            a = (outs[0] / f"trace_fold{fold}.csv").read_bytes()
            b = (outs[1] / f"trace_fold{fold}.csv").read_bytes()
            assert a == b


# --------------------------------------------------------------------------
# 6-9. PROTEINS-scale dynamics and benchmarks (skip without the dataset)

def _traced_proteins_run(ds, kind, seed, epochs, weight_decay, use_reinit):
    split = stratified_folds(ds, 10, seed=12345)
    graphs = [ds.graphs[i] for i in split.train_indices(0)]
    model = build(ModelSpec(kind=kind), ds.feature_dim, ds.num_classes, Rng(seed))
    if use_reinit:
        reinit(model, graphs)
    cfg = TrainConfig(lr=5e-4, weight_decay=weight_decay, epochs=epochs,
                      batch_size=64, seed=seed)
    sink = TraceSink()
    snap = {k: v.copy() for k, v in model.params.items()}
    losses = train_model(model, graphs, cfg, Rng(seed).derive(1), sink=sink)
    return model, snap, losses, {(e.epoch, e.layer, e.kind): e.value
                                 for e in sink.events()}


# (model kind, last block stage its forward runs) for criterion 6: jk_sum
# taps its convolutions, so its forward stops at gcn3 and never runs pool3
CRITERION_6_LAST = (("probe4", "pool4"), ("jk_sum", "gcn3"))


def _worst_act_ratio(args):
    """Max over epochs of last-block/first-block act_std for one seeded run."""
    ds, kind, last, seed, epochs = args
    _, _, _, ev = _traced_proteins_run(ds, kind, seed, epochs=epochs,
                                       weight_decay=5e-3, use_reinit=False)
    return max(ev[(ep, last, "act_std")]
               / max(ev[(ep, "pool1", "act_std")], 1e-300)
               for ep in range(1, epochs + 1))


def _map_jobs(fn, items, jobs=4):
    """Map over independent runs with forked workers; sequential fallback."""
    import multiprocessing as mp
    if jobs <= 1 or len(items) <= 1 or "fork" not in mp.get_all_start_methods():
        return [fn(item) for item in items]
    with mp.get_context("fork").Pool(min(jobs, len(items))) as pool:
        return pool.map(fn, items)


def test_criterion_6_vanishing_activations(proteins):
    with criterion(6, "standard init + decay: last-block act_std < 0.1 x "
                      "first-block act_std at every epoch <= 100 (median of 5 seeds)"):
        for kind, last in CRITERION_6_LAST:
            worst_ratio_per_seed = _map_jobs(
                _worst_act_ratio,
                [(proteins, kind, last, seed, 100) for seed in range(5)], jobs=5)
            med = float(np.median(worst_ratio_per_seed))
            assert med < 0.1, f"{kind}: median worst ratio {med:.3e}"


def test_criterion_6_reads_rows_the_traces_hold():
    # criterion 6 skips without PROTEINS, so its trace lookups are checked
    # here on a short synthetic run of each of its models
    ds = synth_dataset(40, seed=6)
    for kind, last in CRITERION_6_LAST:
        assert math.isfinite(_worst_act_ratio((ds, kind, last, 0, 2)))


def test_criterion_7_static_late_layers(proteins):
    with criterion(7, "standard init + decay: late layers get ~no gradient at "
                      "epoch 1 and stay static over 100 epochs"):
        model, snap, _, ev = _traced_proteins_run(
            proteins, "probe4", 0, epochs=100, weight_decay=5e-3,
            use_reinit=False)
        # gradient flow into the weights (cf. the gradient-flow figure):
        # every non-head weight vs the final MLP layer at epoch 1
        head = math.hypot(ev[(1, "mlp3.W", "grad_norm")],
                          ev[(1, "mlp3.b", "grad_norm")])
        for name in model.params:
            if name.startswith("mlp") or name.endswith(".b"):
                continue
            ratio = ev[(1, name, "grad_norm")] / head
            assert ratio < 1e-3, f"epoch-1 grad of {name} is {ratio:.2e} x head"
        # late blocks (3 and 4) barely move over the whole run
        for i in (3, 4):
            names = [f"gcn{i}.W", f"gcn{i}.b", f"pool{i}.p"]
            before = np.concatenate([snap[n].reshape(-1) for n in names])
            after = np.concatenate([model.params[n].reshape(-1) for n in names])
            rel = np.linalg.norm(after - before) / np.linalg.norm(before)
            assert rel < 1e-3, f"block {i} moved {rel:.2e} relative"


def test_criterion_8_reinit_trains(proteins):
    with criterion(8, "reinit cuts train loss >= 5% within 50 epochs while "
                      "standard init changes it < 1%"):
        _, _, std_losses, _ = _traced_proteins_run(
            proteins, "probe4", 0, epochs=50, weight_decay=0.0, use_reinit=False)
        _, _, ri_losses, _ = _traced_proteins_run(
            proteins, "probe4", 0, epochs=50, weight_decay=0.0, use_reinit=True)
        std_change = max(abs(l - std_losses[0]) for l in std_losses) / std_losses[0]
        ri_drop = (ri_losses[0] - min(ri_losses)) / ri_losses[0]
        assert ri_drop >= 0.05, f"reinit drop {ri_drop:.3f}"
        assert std_change < 0.01, f"standard-init change {std_change:.3f}"


PROTEINS_TARGETS = (("mlp", 75.74), ("gcn_r_mlp", 76.28), ("gcn_mlp", 75.64))


def test_criterion_9_proteins_benchmark(proteins):
    with criterion(9, "PROTEINS 10-fold means within +/- 3.0 of the "
                      "MLP/GCN(R)-MLP/GCN-MLP reference accuracies"):
        for kind, target in PROTEINS_TARGETS:
            cfg = TrainConfig(lr=5e-4, weight_decay=0.0, epochs=100,
                              batch_size=64, seed=12345)
            report, _ = run_cv(proteins, ModelSpec(kind=kind), cfg, folds=10,
                               fold_seed=12345, jobs=4, trace=False)
            print(f"  PROTEINS {kind}: {report.mean:.2f} +/- {report.std:.2f} "
                  f"(target {target})")
            assert abs(report.mean - target) <= 3.0


# --------------------------------------------------------------------------
# 10-13. extended tier and format checks

@pytest.mark.extended
def test_criterion_10_dd_benchmark(tu_dataset_dir):
    with criterion(10, "DD 10-fold means within +/- 3.0 (extended)"):
        ds = parse_tu(tu_dataset_dir("DD"), "DD", feature_policy="label_onehot")
        for kind, target in (("mlp", 80.22), ("gcn_mlp", 79.29)):
            cfg = TrainConfig(lr=5e-4, epochs=100, batch_size=64, seed=12345)
            report, _ = run_cv(ds, ModelSpec(kind=kind), cfg, folds=10,
                               fold_seed=12345, jobs=4, trace=False)
            print(f"  DD {kind}: {report.mean:.2f} (target {target})")
            assert abs(report.mean - target) <= 3.0


@pytest.mark.extended
def test_criterion_11_collab_benchmark(tu_dataset_dir):
    with criterion(11, "COLLAB 10-fold means within +/- 3.0 (extended; "
                       "degree one-hot features)"):
        ds = parse_tu(tu_dataset_dir("COLLAB"), "COLLAB",
                      feature_policy="degree_onehot")
        for kind, target in (("gcn_mlp", 76.50), ("jk_sum", 77.00)):
            cfg = TrainConfig(lr=5e-4, epochs=100, batch_size=64, seed=12345)
            report, _ = run_cv(ds, ModelSpec(kind=kind), cfg, folds=10,
                               fold_seed=12345, jobs=4, trace=False)
            print(f"  COLLAB {kind}: {report.mean:.2f} (target {target})")
            assert abs(report.mean - target) <= 3.0


def test_criterion_12_reddit_format_support(tmp_path):
    with criterion(12, "Reddit-Multi-12K format verified on a truncated fixture"):
        # featureless multi-class corpus in the exact TU layout
        rng = Rng(0)
        graphs, labels = [], []
        for gi in range(9):
            n = 4 + rng.integers(0, 5)
            edges = [(v, v + 1) for v in range(1, n)]
            graphs.append((n, edges))
            labels.append(gi % 3 + 1)
        write_tu_files(tmp_path, "REDDIT-MULTI-12K", graphs, labels)
        ds = parse_tu(tmp_path, "REDDIT-MULTI-12K")
        assert len(ds.graphs) == 9
        assert ds.num_classes == 3
        assert ds.feature_policy == "degree_onehot"
        assert ds.feature_dim == 64
        assert all(g.adj.n >= 1 for g in ds.graphs)


@pytest.mark.extended
def test_criterion_13_epoch_sweep_shape(tu_dataset_dir):
    with criterion(13, "DD epoch sweep: reinit peaks at <= 50 epochs, plain "
                       "jk-sum peaks later (extended)"):
        ds = parse_tu(tu_dataset_dir("DD"), "DD", feature_policy="label_onehot")
        budgets = (10, 25, 50, 100)

        def best_budget(init_kind):
            # one run per fold to the largest budget, tested after each
            cfg = TrainConfig(lr=5e-4, epochs=budgets[-1], eval_at=budgets[:-1], batch_size=64,
                              seed=12345, init=InitScheme(kind=init_kind))
            report, _ = run_cv(ds, ModelSpec(kind="jk_sum"), cfg, folds=10,
                               fold_seed=12345, jobs=4, trace=False)
            means = [float(np.mean([f.accuracies[i] for f in report.folds]))
                     for i in range(len(budgets))]
            print(f"  {init_kind}: {dict(zip(budgets, means))}")
            return budgets[int(np.argmax(means))]

        reinit_peak = best_budget("standard_then_reinit")
        plain_peak = best_budget("standard")
        assert reinit_peak <= 50
        assert plain_peak > reinit_peak
