import numpy as np
import pytest

from gnnlab import (Batch, Graph, InitScheme, ModelSpec, Rng, SparseAdj, build,
                    init_standard, reinit)
from gnnlab.errors import CalibrationError, ConfigError
from gnnlab.graphdata import CHUNK_NODES, chunks
from gnnlab.init import glorot_bound, kaiming_std
from gnnlab.numcore import Moments

from conftest import random_graph, synth_dataset


def test_kaiming_std_value():
    assert kaiming_std(2) == 1.0


def test_kaiming_sampled_std():
    spec = ModelSpec(kind="gcn_mlp", hidden_dim=512)
    model = build(spec, 2, 2, Rng(0))
    w = model.params["gcn1.W"]  # fan_in 2 -> std 1, only 1024 draws, so widen:
    model2 = build(ModelSpec(kind="gcn_mlp", hidden_dim=50000), 2, 2, Rng(1))
    draws = model2.params["gcn1.W"]
    assert draws.size == 100000
    assert 0.99 <= draws.std() <= 1.01
    assert 0.9 <= w.std() <= 1.1


def test_glorot_bound_value():
    assert glorot_bound(3, 3) == 1.0


def test_dense_weights_within_bound():
    model = build(ModelSpec(kind="mlp", mlp_dims=(3, 3)), 3, 3, Rng(2))
    w = model.params["mlp2.W"]  # 3 -> 3 layer: bound exactly 1
    assert np.all(np.abs(w) <= 1.0)
    assert np.abs(w).max() > 0.9  # actually fills the range


def test_biases_zero_and_scales_one():
    model = build(ModelSpec(kind="jk_sum"), 4, 3, Rng(3))
    for name, p in model.params.items():
        if name.endswith(".b"):
            assert not p.any()
    for _, pool in model.blocks:
        assert pool.scale == 1.0


def test_pool_projection_within_glorot_bound():
    model = build(ModelSpec(kind="jk_sum", hidden_dim=8), 4, 2, Rng(4))
    bound = glorot_bound(8, 1)
    p = model.params["pool1.p"]
    assert np.all(np.abs(p) <= bound)
    assert p.any()


def _calibration(seed, count=12, f=3):
    rng = Rng(seed)
    return [random_graph(rng.derive(i), 5 + rng.integers(0, 8), f) for i in range(count)]


def _independent_block_stds(model, graphs):
    """Oracle: pooled std per block stage, computed from scratch one graph
    at a time."""
    stds = []
    for stage in range(len(model.block_stages())):
        mom = Moments()
        for g in graphs:
            mom.add(model.run_blocks(Batch.of([g]), stage)[-1])
        stds.append(mom.std())
    return stds


@pytest.mark.parametrize("kind", ["gcn_mlp", "jk_sum", "probe4"])
def test_reinit_post_condition(kind):
    for seed in range(4):
        graphs = _calibration(seed)
        model = build(ModelSpec(kind=kind, hidden_dim=7, mlp_dims=(6, 5), k=0.7),
                      3, 2, Rng(seed))
        report = reinit(model, graphs)
        assert all(abs(s - 1.0) < 1e-6 for s in report.post_std)
        for sigma in _independent_block_stds(model, graphs):
            assert abs(sigma - 1.0) < 1e-6


def test_reinit_post_std_equals_a_verification_sweep_after_rescaling():
    # each stage's post-rescale std is read from the sweep that measures the
    # next stage; it must equal, bit for bit, a separate sweep over the same
    # chunks once every divisor is applied
    graphs = _calibration(12, count=60)
    for kind in ("gcn_mlp", "jk_sum"):
        model = build(ModelSpec(kind=kind, hidden_dim=7, mlp_dims=(6, 5), k=0.7),
                      3, 2, Rng(12))
        report = reinit(model, graphs)
        assert sum(g.adj.n for g in graphs) > CHUNK_NODES
        for stage, post in enumerate(report.post_std):
            mom = Moments()
            for batch in chunks(graphs):
                mom.add(model.run_blocks(batch, stage)[-1])
            assert mom.std() == post


def test_reinit_idempotent_and_fixed_point():
    graphs = _calibration(9)
    model = build(ModelSpec(kind="probe4", hidden_dim=6, mlp_dims=(5, 5)),
                  3, 2, Rng(9))
    reinit(model, graphs)
    snapshot = {k: v.copy() for k, v in model.params.items()}
    scales = [pool.scale for _, pool in model.blocks]
    second = reinit(model, graphs)
    # a unit-variance model is a fixed point: divisors 1, parameters unchanged
    assert all(abs(d - 1.0) < 1e-6 for d in second.divisors)
    for name, before in snapshot.items():
        after = model.params[name]
        assert np.allclose(after, before, rtol=1e-5, atol=1e-12)
    for (_, pool), s in zip(model.blocks, scales):
        assert abs(pool.scale - s) / s < 1e-5


def test_reinit_leaves_mlp_head_untouched():
    graphs = _calibration(10)
    model = build(ModelSpec(kind="jk_sum", hidden_dim=6, mlp_dims=(5, 4)),
                  3, 2, Rng(10))
    head_before = {k: v.copy() for k, v in model.params.items() if k.startswith("mlp")}
    reinit(model, graphs)
    for name, before in head_before.items():
        assert np.array_equal(model.params[name], before)


def test_reinit_applies_on_top_of_any_scheme():
    # re-draw the conv weights Glorot-uniform instead of Kaiming, then rescale
    graphs = _calibration(11)
    model = build(ModelSpec(kind="probe4", hidden_dim=6, mlp_dims=(5, 5)),
                  3, 2, Rng(11))
    rng = Rng(77)
    for gcn, _ in model.blocks:
        bound = glorot_bound(gcn.fan_in, gcn.fan_out)
        gcn.w[...] = rng.uniform(gcn.fan_in, gcn.fan_out, bound)
    report = reinit(model, graphs)
    assert all(abs(s - 1.0) < 1e-6 for s in report.post_std)


def test_reinit_divisor_bookkeeping():
    graphs = _calibration(12)
    model = build(ModelSpec(kind="probe4", hidden_dim=6, mlp_dims=(5, 5)),
                  3, 2, Rng(12))
    report = reinit(model, graphs)
    assert report.blocks == ["gcn1", "pool1", "gcn2", "pool2",
                             "gcn3", "pool3", "gcn4", "pool4"]
    assert all(d > 0 for d in report.divisors)
    # pool divisors are carried as forward-time scales
    for (name, layer), d in zip(model.block_stages(), report.divisors):
        if name.startswith("pool"):
            assert layer.scale == pytest.approx(d)


def test_reinit_total_rescale_reflects_vanishing_activations():
    # on a standard-initialised probe the raw per-block output std decays with
    # depth, so the product of all divisors up to the last block is far below 1
    ds = synth_dataset(60, seed=21, n_lo=10, n_hi=24, edge_prob=0.15)
    model = build(ModelSpec(kind="probe4"), ds.feature_dim, ds.num_classes, Rng(21))
    report = reinit(model, list(ds.graphs))
    assert report.divisors[0] < 1.0
    assert np.prod(report.divisors) < 0.1


def test_reinit_degenerate_calibration():
    graphs = [Graph(adj=SparseAdj.empty(3), features=np.zeros((3, 3)),
                    label=0, id=0)]
    model = build(ModelSpec(kind="probe4", hidden_dim=5, mlp_dims=(4, 4)),
                  3, 2, Rng(13))
    with pytest.raises(CalibrationError, match="gcn1"):
        reinit(model, graphs)


def test_reinit_empty_calibration():
    model = build(ModelSpec(kind="probe4", hidden_dim=5, mlp_dims=(4, 4)),
                  3, 2, Rng(14))
    with pytest.raises(CalibrationError):
        reinit(model, [])


def test_init_scheme_validation():
    with pytest.raises(ConfigError):
        InitScheme(kind="magic")
    scheme = InitScheme.from_dict({"kind": "standard_then_reinit",
                                   "seed": None, "reinit_sample_cap": 50})
    assert scheme.reinit_sample_cap == 50
    with pytest.raises(ConfigError):
        InitScheme.from_dict({"kind": "standard", "typo": 1})


def test_init_standard_redraw_is_deterministic():
    m1 = build(ModelSpec(kind="jk_sum", hidden_dim=6, mlp_dims=(5, 4)), 3, 2, Rng(15))
    m2 = build(ModelSpec(kind="jk_sum", hidden_dim=6, mlp_dims=(5, 4)), 3, 2, Rng(15))
    for name in m1.params:
        assert np.array_equal(m1.params[name], m2.params[name])
    init_standard(m1, Rng(15))
    for name in m1.params:
        assert np.array_equal(m1.params[name], m2.params[name])
