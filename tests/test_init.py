import tempfile

import numpy as np
import pytest

from gnnlab import (Batch, GcnLayer, InitScheme, Model, ModelSpec, Rng, SparseAdj,
                    TopKPool, build, init_standard, reinit)
from gnnlab import graphdata
from gnnlab.errors import CalibrationError, ConfigError
from gnnlab.graphdata import chunks
from gnnlab.init import glorot_bound, kaiming_std
from gnnlab.numcore import Moments

from conftest import dense_graph, random_graph, share_table, synth_dataset


@pytest.fixture(autouse=True)
def _chunks_of_256_nodes(monkeypatch):
    """The models here are 6 to 8 wide, so the shipped entry budget would put
    every calibration set in one chunk; a budget of 256 nodes at width 7
    keeps reinit sweeping several chunks, as a 128-wide model does."""
    monkeypatch.setattr(graphdata, "CHUNK_ENTRIES", 256 * 7)


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
    return share_table([random_graph(rng.derive(i), 5 + rng.integers(0, 8), f)
                        for i in range(count)])


def _independent_block_stds(model, graphs):
    """Oracle: pooled std per block stage, computed from scratch one graph
    at a time."""
    stds = []
    for stage in range(len(model.block_stages())):
        mom = Moments()
        for g in graphs:
            mom.add(model.run_blocks(Batch.of([g]).state, stage)[-1].x)
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
        assert len(list(chunks(Batch.of(graphs), model.width))) > 1
        for stage, post in enumerate(report.post_std):
            mom = Moments()
            for batch in chunks(Batch.of(graphs), model.width):
                mom.add(model.run_blocks(batch.state, stage)[-1].x)
            assert mom.std() == post


def _reference_reinit(model, calibration):
    """Oracle: the O(S^2) reinit, in which every sweep walks each chunk from
    its raw batch through all stages up to the one it measures. Returns the
    divisors and post-rescale stds, as tuples like the report's."""
    def stds(first, upto):
        moments = [Moments() for _ in range(first, upto + 1)]
        for batch in chunks(Batch.of(calibration), model.width):
            for mom, out in zip(moments, model.run_blocks(batch.state, upto)[first:]):
                mom.add(out.x)
        return [mom.std() for mom in moments]

    stages = model.block_stages()
    divisors, post_std = [], []
    for idx, (_, layer) in enumerate(stages):
        *verified, sigma = stds(max(idx - 1, 0), idx)
        post_std += verified
        layer.rescale(sigma)
        divisors.append(sigma)
    return tuple(divisors), tuple(post_std + stds(len(stages) - 1, len(stages) - 1))


STASH_SPECS = {
    "gcn_mlp": ModelSpec(kind="gcn_mlp", hidden_dim=7, mlp_dims=(6, 5)),
    "jk_sum": ModelSpec(kind="jk_sum", hidden_dim=7, mlp_dims=(6, 5), k=0.7),
    "jk_sum_tap_pooled": ModelSpec(kind="jk_sum", hidden_dim=7, mlp_dims=(6, 5), k=0.7,
                                   tap_pooled=True),
    "probe4": ModelSpec(kind="probe4", hidden_dim=7, mlp_dims=(6, 5), k=0.7),
    "gcn_r_mlp": ModelSpec(kind="gcn_r_mlp", hidden_dim=7, mlp_dims=(6, 5)),
}


@pytest.mark.parametrize("name", STASH_SPECS)
def test_reinit_stash_matches_the_full_walk_reference(name):
    # every stage must see, bit for bit, the input a walk from the raw chunk
    # gives it, so divisors, post-rescale stds and parameters all agree exactly
    graphs = _calibration(31, count=90)
    model = build(STASH_SPECS[name], 3, 2, Rng(31))
    assert len(list(chunks(Batch.of(graphs), model.width))) >= 3
    oracle = build(STASH_SPECS[name], 3, 2, Rng(31))
    report = reinit(model, graphs)
    divisors, post_std = _reference_reinit(oracle, graphs)
    assert report.divisors == divisors
    assert report.post_std == post_std
    for key, value in model.params.items():
        assert np.array_equal(value, oracle.params[key])
    assert ([pool.scale for _, pool in model.blocks if pool is not None]
            == [pool.scale for _, pool in oracle.blocks if pool is not None])


@pytest.mark.parametrize("name", ["gcn_mlp", "jk_sum", "probe4"])
def test_reinit_runs_one_layer_forward_per_stage_and_chunk(name, monkeypatch):
    graphs = _calibration(32, count=90)
    model = build(STASH_SPECS[name], 3, 2, Rng(32))
    nchunks = len(list(chunks(Batch.of(graphs), model.width)))
    assert nchunks >= 3
    calls = {"forward": 0, "resume": 0, "run_blocks": 0}
    forwards_open = [0]  # a resume inside a forward is that forward's last step

    def counting(cls, attr, key):
        real = getattr(cls, attr)

        def spy(self, *args, **kwargs):
            calls[key] += key != "resume" or not forwards_open[0]
            forwards_open[0] += key == "forward"
            try:
                return real(self, *args, **kwargs)
            finally:
                forwards_open[0] -= key == "forward"
        monkeypatch.setattr(cls, attr, spy)

    counting(GcnLayer, "forward", "forward")
    counting(TopKPool, "forward", "forward")
    counting(GcnLayer, "resume", "resume")
    counting(TopKPool, "resume", "resume")
    counting(Model, "run_blocks", "run_blocks")
    reinit(model, graphs)
    stages = len(model.block_stages())
    assert calls["forward"] == stages * nchunks
    # sweeps 1..S each resume every chunk's held half of the stage before
    # under its final divisor
    assert calls["resume"] == stages * nchunks
    # one run_blocks call per chunk in sweeps 0..S-1; the last sweep runs none
    assert calls["run_blocks"] == stages * nchunks


def test_reinit_creates_no_file(monkeypatch):
    # each sweep's halves stay in memory; no temp file is made at any point
    made = []

    def spy(real):
        return lambda *args, **kwargs: made.append(real) or real(*args, **kwargs)
    for name in ("TemporaryFile", "NamedTemporaryFile", "mkstemp"):
        monkeypatch.setattr(tempfile, name, spy(getattr(tempfile, name)))
    model = build(STASH_SPECS["jk_sum"], 3, 2, Rng(33))
    report = reinit(model, _calibration(33, count=90))
    assert len(report.divisors) == len(model.block_stages())
    assert made == []


def test_reinit_of_a_model_without_stages_runs_no_sweep(monkeypatch):
    # mlp has no conv/pool stage: nothing to rescale, so no calibration chunk
    # is gathered
    graphs = _calibration(37, count=90)
    model = build(ModelSpec(kind="mlp", hidden_dim=7, mlp_dims=(6, 5)), 3, 2, Rng(37))
    assert model.block_stages() == []
    gathers, gather = [], Batch.features.fget
    monkeypatch.setattr(Batch, "features", property(lambda b: gathers.append(1) or gather(b)))
    report = reinit(model, graphs)
    assert report.to_dict() == {"blocks": [], "divisors": [], "post_std": []}
    assert gathers == []


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
        bound = glorot_bound(*gcn.w.shape)
        gcn.w[...] = rng.uniform(*gcn.w.shape, bound)
    report = reinit(model, graphs)
    assert all(abs(s - 1.0) < 1e-6 for s in report.post_std)


def test_reinit_divisor_bookkeeping():
    graphs = _calibration(12)
    model = build(ModelSpec(kind="probe4", hidden_dim=6, mlp_dims=(5, 5)),
                  3, 2, Rng(12))
    report = reinit(model, graphs)
    assert report.blocks == ("gcn1", "pool1", "gcn2", "pool2",
                             "gcn3", "pool3", "gcn4", "pool4")
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
    graphs = [dense_graph(SparseAdj.from_edges(3, []), np.zeros((3, 3)))]
    model = build(ModelSpec(kind="probe4", hidden_dim=5, mlp_dims=(4, 4)),
                  3, 2, Rng(13))
    with pytest.raises(CalibrationError, match="gcn1"):
        reinit(model, graphs)


def test_reinit_non_finite_std_is_a_calibration_error():
    # NaN slips past every comparison, so the check must ask for a finite std
    ds = synth_dataset(30, seed=7)
    model = build(ModelSpec(kind="jk_sum"), ds.feature_dim, ds.num_classes, Rng(0))
    model.params["gcn1.W"][0, 0] = np.nan
    with pytest.raises(CalibrationError, match="gcn1"):
        reinit(model, ds.graphs)


def test_reinit_rejects_a_stage_left_off_unit_std(monkeypatch):
    # gcn2 divides by twice the measured std, so its output std verifies at 1/2
    ds = synth_dataset(30, seed=7)
    model = build(ModelSpec(kind="jk_sum"), ds.feature_dim, ds.num_classes, Rng(0))
    name, layer = model.block_stages()[2]
    rescale = layer.rescale
    monkeypatch.setattr(layer, "rescale", lambda sigma: rescale(2.0 * sigma))
    with pytest.raises(CalibrationError,
                       match=rf"^block {name} std is 0\.(4999|5000)\d* after reinit"):
        reinit(model, ds.graphs)


def test_reinit_empty_calibration():
    model = build(ModelSpec(kind="probe4", hidden_dim=5, mlp_dims=(4, 4)),
                  3, 2, Rng(14))
    with pytest.raises(CalibrationError):
        reinit(model, [])


def test_init_scheme_validation():
    with pytest.raises(ConfigError):
        InitScheme(kind="magic")
    scheme = InitScheme.from_dict({"kind": "standard_then_reinit", "seed": None})
    assert scheme == InitScheme(kind="standard_then_reinit")
    with pytest.raises(ConfigError):
        InitScheme.from_dict({"kind": "standard", "typo": 1})
    # the calibration set is bounded by a node budget in the code, not a setting
    with pytest.raises(ConfigError, match="reinit_sample_cap"):
        InitScheme.from_dict({"kind": "standard_then_reinit", "reinit_sample_cap": 50})


def test_init_standard_redraw_is_deterministic():
    m1 = build(ModelSpec(kind="jk_sum", hidden_dim=6, mlp_dims=(5, 4)), 3, 2, Rng(15))
    m2 = build(ModelSpec(kind="jk_sum", hidden_dim=6, mlp_dims=(5, 4)), 3, 2, Rng(15))
    for name in m1.params:
        assert np.array_equal(m1.params[name], m2.params[name])
    init_standard(m1, Rng(15))
    for name in m1.params:
        assert np.array_equal(m1.params[name], m2.params[name])
