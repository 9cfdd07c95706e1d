import errno
import os
import tempfile

import numpy as np
import pytest

from gnnlab import (Batch, GcnLayer, InitScheme, Model, ModelSpec, Rng, SparseAdj,
                    TopKPool, build, init_standard, reinit)
from gnnlab import graphdata
from gnnlab.errors import CalibrationError, ConfigError
from gnnlab.graphdata import chunks
from gnnlab.init import _Stash, glorot_bound, kaiming_std
from gnnlab.numcore import Moments

from conftest import dense_graph, random_adj, random_graph, share_table, synth_dataset


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
    divisors and post-rescale stds."""
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
    return divisors, post_std + stds(len(stages) - 1, len(stages) - 1)


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
    # sweeps 1..S each resume every chunk's stashed half of the stage before
    # under its final divisor
    assert calls["resume"] == stages * nchunks
    # one run_blocks call per chunk in sweeps 0..S-1; the last sweep runs none
    assert calls["run_blocks"] == stages * nchunks


class _FailingDisk:
    """A temp file whose writes fail as on a full disk, or whose reads fail
    as on a bad sector."""

    def __init__(self, fh, fail):
        self._fh = fh
        self._fail = fail

    def _broken(self, *args):
        if self._fail == "write":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    def __getattr__(self, name):
        if name in {"write": ("write",),
                    "read": ("read", "readinto", "readline", "peek")}[self._fail]:
            return self._broken
        return getattr(self._fh, name)


def _spy_stash_files(monkeypatch, fail=None, fail_from=1):
    """Record the temp files reinit opens and the most open at once. From the
    ``fail_from``-th file on (1-based), ``fail`` is "create" (no file is
    made), "write" (writes fail with ENOSPC) or "read" (reads fail with EIO)."""
    opened, peak = [], [0]
    real = tempfile.TemporaryFile

    def spy(*args, **kwargs):
        if fail == "create" and len(opened) + 1 >= fail_from:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        fh = real(*args, **kwargs)
        opened.append(fh)
        peak[0] = max(peak[0], sum(not f.closed for f in opened))
        return _FailingDisk(fh, fail) if fail and len(opened) >= fail_from else fh
    monkeypatch.setattr(tempfile, "TemporaryFile", spy)
    return opened, peak


def test_reinit_closes_every_stash_file(monkeypatch):
    opened, peak = _spy_stash_files(monkeypatch)
    model = build(STASH_SPECS["jk_sum"], 3, 2, Rng(33))
    reinit(model, _calibration(33, count=90))
    # sweeps 0..S-1 each write one stash that the next sweep reads
    assert len(opened) == len(model.block_stages())
    assert peak[0] == 2
    assert all(fh.closed for fh in opened)


def test_reinit_closes_every_stash_file_on_calibration_error(monkeypatch):
    opened, peak = _spy_stash_files(monkeypatch)
    model = build(STASH_SPECS["jk_sum"], 3, 2, Rng(34))
    model.params["gcn2.W"][...] = 0.0  # gcn2 emits constant zeros
    with pytest.raises(CalibrationError, match="gcn2"):
        reinit(model, _calibration(34, count=90))
    # sweeps 0, 1 and 2 (which measures gcn2) each opened one
    assert len(opened) == 3 and peak[0] == 2
    assert all(fh.closed for fh in opened)


@pytest.mark.parametrize("fail,fail_from", [("write", 1), ("write", 2), ("create", 1),
                                            ("create", 3)])
def test_reinit_without_a_writable_stash_walks_from_the_raw_chunks(fail, fail_from,
                                                                   monkeypatch):
    # a full disk costs the stash's saving, not the run: a sweep left without
    # a stash is followed by one that walks every chunk from stage 0
    graphs = _calibration(35, count=90)
    oracle = build(STASH_SPECS["jk_sum"], 3, 2, Rng(35))
    divisors, post_std = _reference_reinit(oracle, graphs)
    opened, peak = _spy_stash_files(monkeypatch, fail, fail_from)
    model = build(STASH_SPECS["jk_sum"], 3, 2, Rng(35))
    report = reinit(model, graphs)
    assert report.divisors == divisors
    assert report.post_std == post_std
    for key, value in model.params.items():
        assert np.array_equal(value, oracle.params[key])
    assert len(opened) == (fail_from - 1 if fail == "create" else
                           len(model.block_stages()))
    assert peak[0] <= 2
    assert all(fh.closed for fh in opened)


def test_reinit_of_a_model_without_stages_runs_no_sweep(monkeypatch):
    # mlp has no conv/pool stage: nothing to rescale, so no stash is opened
    # and no calibration chunk is gathered
    graphs = _calibration(37, count=90)
    model = build(ModelSpec(kind="mlp", hidden_dim=7, mlp_dims=(6, 5)), 3, 2, Rng(37))
    assert model.block_stages() == []
    opened, _ = _spy_stash_files(monkeypatch)
    gathers, gather = [], Batch.features.fget
    monkeypatch.setattr(Batch, "features", property(lambda b: gathers.append(1) or gather(b)))
    report = reinit(model, graphs)
    assert report.to_dict() == {"blocks": [], "divisors": [], "post_std": []}
    assert opened == [] and gathers == []


def test_reinit_stash_read_failure_is_a_calibration_error(monkeypatch):
    # the second stash fails while being read back, with the third open
    opened, peak = _spy_stash_files(monkeypatch, "read", fail_from=2)
    model = build(STASH_SPECS["jk_sum"], 3, 2, Rng(36))
    with pytest.raises(CalibrationError, match="read back its stage stash") as err:
        reinit(model, _calibration(36, count=90))
    assert tempfile.gettempdir() in str(err.value)
    assert err.value.__cause__.errno == errno.EIO
    assert len(opened) == 3 and peak[0] == 2
    assert all(fh.closed for fh in opened)


def test_reinit_truncated_stash_is_a_calibration_error(monkeypatch):
    # the first stash loses its last byte once sealed, so the read of the
    # last chunk comes up short while the second stash is open
    opened, peak = _spy_stash_files(monkeypatch)
    real_seal = _Stash.seal

    def seal_then_cut(self):
        sealed = real_seal(self)
        if len(opened) == 1:
            fh = opened[-1]  # the file being sealed is the newest one
            fh.truncate(fh.seek(0, os.SEEK_END) - 1)
            fh.seek(0)
        return sealed
    monkeypatch.setattr(_Stash, "seal", seal_then_cut)
    model = build(STASH_SPECS["jk_sum"], 3, 2, Rng(38))
    with pytest.raises(CalibrationError, match="read back its stage stash") as err:
        reinit(model, _calibration(38, count=90))
    assert tempfile.gettempdir() in str(err.value)
    assert "ends early" in str(err.value)
    assert len(opened) == 2 and peak[0] == 2
    assert all(fh.closed for fh in opened)


def _pooled_state(rng):
    """A two-graph state after a top-k pool: sizes shrank, rows are gated."""
    batch = Batch.of(share_table([random_graph(rng.derive(i), 6 + i, 4) for i in range(2)]))
    pool = TopKPool(rng.normal(1, 4, 1.0)[0], k=0.5)
    out = pool.forward(batch.state)
    return out.adj, pool.half, out.sizes


def test_stash_round_trips_states_bit_for_bit():
    rng = Rng(39)
    wide = rng.normal(5, 6, 1.0)
    states = [
        (SparseAdj.from_edges(3, []), rng.normal(3, 4, 1.0), np.array([3])),  # nnz 0
        (SparseAdj.from_edges(1, [(0, 0)]), rng.normal(1, 3, 1.0), np.array([1])),
        (random_adj(rng.derive(1), 5, 0.5), rng.normal(5, 1, 1.0), np.array([2, 3])),
        (random_adj(rng.derive(2), 5, 0.5), wide[:, ::2], np.array([5])),  # non-contiguous
        _pooled_state(rng.derive(3)),
    ]
    assert not states[3][1].flags.c_contiguous
    assert states[4][0].n < 13 and states[4][2].sum() == states[4][0].n
    stash = _Stash()
    try:
        for state in states:
            stash.write(*state)
        assert stash.seal()
        size = os.fstat(stash._fh.fileno()).st_size
        back = list(stash.read())
    finally:
        stash.close()
    # per chunk: a four-int64 header, then 8 B per CSR, half and sizes entry
    assert size == sum(32 + 8 * (adj.n + 1 + adj.indices.shape[0]) + 8 * half.size
                       + 8 * sizes.shape[0] for adj, half, sizes in states)
    assert len(back) == len(states)
    for (adj, half, sizes), (adj2, half2, sizes2) in zip(states, back):
        assert adj2.n == adj.n
        for a, b in ((adj.indptr, adj2.indptr), (adj.indices, adj2.indices),
                     (half, half2), (sizes, sizes2)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


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
