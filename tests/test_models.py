import copy
import pickle

import numpy as np
import pytest

from gnnlab import (Adam, Batch, ModelSpec, Rng, SparseAdj, TrainConfig, build, cross_entropy,
                    reinit, train_model)
from gnnlab.errors import ConfigError, ShapeError, SpecError, StateError
from gnnlab.layers import READOUT_KINDS, DenseLayer, GcnLayer, Readout, TopKPool
from gnnlab.config import MODEL_KINDS

from conftest import (dense_graph, fd_max_rel_err, permute_graph, random_adj, random_graph,
                      randomize_params, share_table)


def test_mlp_width_accounting_and_structure_blind_by_construction():
    model = build(ModelSpec(kind="mlp"), 3, 2, Rng(0))
    assert model.params["mlp1.W"].shape == (3, 128)
    assert model.params["mlp3.W"].shape == (128, 2)
    assert not any(name.startswith(("gcn", "pool")) for name in model.params)


def test_gcn_mlp_width_accounting():
    model = build(ModelSpec(kind="gcn_mlp"), 3, 2, Rng(1))
    assert model.params["mlp1.W"].shape == (3 + 128, 128)
    assert model.params["gcn1.W"].shape == (3, 128)


def test_jk_sum_width_accounting():
    concat = build(ModelSpec(kind="jk_sum"), 3, 2, Rng(2))
    assert concat.params["mlp1.W"].shape == (3 * 2 * 128, 128)
    summed = build(ModelSpec(kind="jk_sum", jk_agg="sum"), 3, 2, Rng(2))
    assert summed.params["mlp1.W"].shape == (2 * 128, 128)


def test_probe4_shape():
    model = build(ModelSpec(kind="probe4"), 3, 2, Rng(3))
    assert len(model.blocks) == 4
    assert all(pool is not None for _, pool in model.blocks)
    assert model.params["mlp1.W"].shape == (128, 128)
    assert [t for t, _ in model.taps] == [8]  # the final state


def test_probe4_scores_are_its_head_on_the_mean_of_the_last_pool():
    rng = Rng(41)
    graphs = share_table(random_graph(rng.derive(i), n, 3) for i, n in enumerate((9, 14, 11)))
    batch = Batch.of(graphs)
    model = build(ModelSpec(kind="probe4", hidden_dim=6, mlp_dims=(5, 4)), 3, 2, Rng(42))
    last = model.run_blocks(batch.state, len(model.block_stages()) - 1)[-1]
    assert last.sizes.min() > 1  # a sum of one row would equal its mean
    ends = np.cumsum(last.sizes)
    a = np.stack([last.x[e - n:e].mean(axis=0) for n, e in zip(last.sizes, ends)])
    for layer in model.mlp:
        a = layer.forward(a)
    np.testing.assert_allclose(model.forward(batch), a, rtol=1e-12, atol=1e-15)


def test_three_layer_mlp_head_everywhere():
    for kind in ("mlp", "gcn_mlp", "gcn_r_mlp", "jk_sum", "probe4"):
        model = build(ModelSpec(kind=kind, hidden_dim=6, mlp_dims=(5, 4)), 3, 2, Rng(4))
        assert len(model.mlp) == 3


def test_mlp_ignores_rewiring_bit_exact():
    spec = ModelSpec(kind="mlp", hidden_dim=8, mlp_dims=(8, 8))
    model = build(spec, 3, 2, Rng(5))
    rng = Rng(6)
    x = rng.normal(7, 3, 1.0)
    g1 = dense_graph(random_adj(rng.derive(0), 7, 0.3), x)
    g2 = dense_graph(random_adj(rng.derive(1), 7, 0.7), x)
    assert np.array_equal(model.forward(Batch.of([g1])), model.forward(Batch.of([g2])))


def test_mlp_mean_readout_blind_to_node_count():
    # constant rows make the mean exact for any N, so predictions match bit-wise
    spec = ModelSpec(kind="mlp", hidden_dim=8, mlp_dims=(8, 8))
    model = build(spec, 3, 2, Rng(7))
    row = np.array([0.5, -1.25, 2.0])
    small = dense_graph(SparseAdj.from_edges(2, []), np.tile(row, (2, 1)))
    large = dense_graph(random_adj(Rng(8), 9, 0.4), np.tile(row, (9, 1)))
    assert np.array_equal(model.forward(Batch.of([small])), model.forward(Batch.of([large])))


@pytest.mark.parametrize("kind", ["mlp", "gcn_r_mlp", "gcn_mlp", "jk_sum", "probe4"])
def test_prediction_permutation_invariance(kind):
    for trial in range(6):
        rng = Rng(100 + trial)
        n = 5 + rng.integers(0, 6)
        g = random_graph(rng.derive(0), n, 3)
        spec = ModelSpec(kind=kind, hidden_dim=6, mlp_dims=(5, 4), k=0.6)
        model = build(spec, 3, 2, rng.derive(1))
        randomize_params(model, rng.derive(2))
        scores = model.forward(Batch.of([g]))
        perm = rng.derive(3).permutation(n)
        pscores = model.forward(Batch.of([permute_graph(g, perm)]))
        assert np.max(np.abs(scores - pscores)) < 1e-9


def test_gcn_r_mlp_freezes_convolution():
    model = build(ModelSpec(kind="gcn_r_mlp", hidden_dim=6, mlp_dims=(5, 4)),
                  3, 2, Rng(9))
    assert model.frozen == {"gcn1.W", "gcn1.b"}
    g = random_graph(Rng(10), 6, 3)
    model.forward(Batch.of([g]))
    grads = model.backward(np.array([[1.0, -1.0]]))
    assert not grads["gcn1.W"].any() and not grads["gcn1.b"].any()
    # trained parameters are exactly the MLP head's
    trained = {name for name in model.params if name not in model.frozen}
    assert trained == {"mlp1.W", "mlp1.b", "mlp2.W", "mlp2.b", "mlp3.W", "mlp3.b"}


def test_frozen_params_survive_optimiser_steps():
    model = build(ModelSpec(kind="gcn_r_mlp", hidden_dim=6, mlp_dims=(5, 4)),
                  3, 2, Rng(11))
    frozen_before = model.params["gcn1.W"].copy()
    opt = Adam(model, lr=0.05, weight_decay=1e-2)
    batch = Batch.of([random_graph(Rng(12), 6, 3)])
    for _ in range(5):
        model.grad.fill(0.0)
        scores = model.forward(batch)
        _, grad = cross_entropy(scores, batch.labels)
        model.backward(grad)
        opt.step()
    assert np.array_equal(model.params["gcn1.W"], frozen_before)
    assert not np.array_equal(model.params["mlp1.W"],
                              build(ModelSpec(kind="gcn_r_mlp", hidden_dim=6,
                                              mlp_dims=(5, 4)), 3, 2, Rng(11)).params["mlp1.W"])


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_full_model_gradients_match_finite_differences(kind):
    worst = 0.0
    for trial in range(6):
        rng = Rng(200 + trial)
        g = random_graph(rng.derive(0), 6, 3)
        spec = ModelSpec(kind=kind, hidden_dim=5, mlp_dims=(4, 4), k=0.6)
        model = build(spec, 3, 2, rng.derive(1))
        randomize_params(model, rng.derive(2))
        direction = rng.derive(3).normal(1, 2, 1.0)
        worst = max(worst, fd_max_rel_err(model, Batch.of([g]), direction,
                                          skip=model.frozen))
        # frozen parameters do move the scores, but get no gradient
        assert all(not model.last_grads[name].any() for name in model.frozen)
    assert worst < 1e-6


@pytest.mark.parametrize("kind", ["jk_sum", "gcn_mlp"])
def test_three_graph_batch_gradients_match_finite_differences(kind):
    worst = 0.0
    for trial in range(3):
        rng = Rng(230 + trial)
        graphs = share_table([random_graph(rng.derive(i), 4 + rng.integers(0, 6), 3)
                              for i in range(3)])
        spec = ModelSpec(kind=kind, hidden_dim=5, mlp_dims=(4, 4), k=0.6)
        model = build(spec, 3, 2, rng.derive(10))
        randomize_params(model, rng.derive(11))
        direction = rng.derive(12).normal(3, 2, 1.0)
        worst = max(worst, fd_max_rel_err(model, Batch.of(graphs), direction))
    assert worst < 1e-6


def test_jk_sum_first_tap_matches_gcn_mlp_wiring():
    # the jk net's first block is wired exactly like the single-layer baseline:
    # same convolution geometry, tap on the convolution output
    jk = build(ModelSpec(kind="jk_sum", hidden_dim=6, mlp_dims=(5, 4)), 3, 2, Rng(13))
    single = build(ModelSpec(kind="gcn_mlp", hidden_dim=6, mlp_dims=(5, 4)), 3, 2, Rng(13))
    assert jk.taps[0][0] == 1
    assert single.taps[1][0] == 1
    assert jk.blocks[0][0].w.shape == single.blocks[0][0].w.shape
    assert [t for t, _ in jk.taps] == [1, 3, 5]  # the convolution outputs


def test_tap_pooled_variant():
    model = build(ModelSpec(kind="jk_sum", hidden_dim=6, mlp_dims=(5, 4),
                            tap_pooled=True), 3, 2, Rng(14))
    assert [t for t, _ in model.taps] == [2, 4, 6]  # the pool outputs
    g = random_graph(Rng(15), 8, 3)
    randomize_params(model, Rng(16))
    worst = fd_max_rel_err(model, Batch.of([g]), Rng(17).normal(1, 2, 1.0))
    assert worst < 1e-6


def test_jk_agg_sum_gradients():
    model = build(ModelSpec(kind="jk_sum", hidden_dim=5, mlp_dims=(4, 4),
                            jk_agg="sum"), 3, 2, Rng(18))
    randomize_params(model, Rng(19))
    g = random_graph(Rng(20), 7, 3)
    assert fd_max_rel_err(model, Batch.of([g]), Rng(21).normal(1, 2, 1.0)) < 1e-6


@pytest.mark.parametrize("readout_kind", READOUT_KINDS)
@pytest.mark.parametrize("kind", ["mlp", "gcn_mlp", "gcn_r_mlp"])
def test_every_readout_sizes_the_mlp_input(kind, readout_kind):
    model = build(ModelSpec(kind=kind, hidden_dim=5, mlp_dims=(4, 4),
                            readout_kind=readout_kind), 3, 2, Rng(40))
    wide = 2 if readout_kind == "max_and_sum" else 1
    assert model.params["mlp1.W"].shape[0] == wide * (3 if kind == "mlp" else 3 + 5)
    batch = Batch.of(share_table([random_graph(Rng(41 + i), 4 + i, 3) for i in range(3)]))
    assert model.forward(batch).shape == (3, 2)
    grads = model.backward(np.ones((3, 2)))
    assert all(grads[name].shape == p.shape for name, p in model.params.items())


def test_max_and_sum_readout_model_gradients_match_finite_differences():
    model = build(ModelSpec(kind="gcn_mlp", hidden_dim=4, mlp_dims=(4, 3),
                            readout_kind="max_and_sum"), 3, 2, Rng(44))
    randomize_params(model, Rng(45))
    graphs = share_table([random_graph(Rng(46 + i), 5 + i, 3) for i in range(2)])
    assert fd_max_rel_err(model, Batch.of(graphs), Rng(48).normal(2, 2, 1.0)) < 1e-6


def test_jk_agg_sum_needs_taps_of_equal_width():
    # gcn_mlp sums the input readout (3 wide) and the convolution readout
    with pytest.raises(SpecError):
        build(ModelSpec(kind="gcn_mlp", hidden_dim=5, jk_agg="sum"), 3, 2, Rng(49))
    model = build(ModelSpec(kind="gcn_mlp", hidden_dim=3, mlp_dims=(4, 4),
                            jk_agg="sum"), 3, 2, Rng(49))
    assert model.params["mlp1.W"].shape == (3, 4)
    randomize_params(model, Rng(50))
    graphs = share_table([random_graph(Rng(51 + i), 5 + i, 3) for i in range(2)])
    assert fd_max_rel_err(model, Batch.of(graphs), Rng(53).normal(2, 2, 1.0)) < 1e-6


# --------------------------------------------------------------------------
# the stage walk runs only the stages a tap reads

WALK_SPECS = {
    "jk_sum": (ModelSpec(kind="jk_sum", hidden_dim=5, mlp_dims=(4, 4), k=0.6), 2),
    "jk_sum-tap_pooled": (ModelSpec(kind="jk_sum", hidden_dim=5, mlp_dims=(4, 4), k=0.6,
                                    tap_pooled=True), 3),
    "probe4": (ModelSpec(kind="probe4", hidden_dim=5, mlp_dims=(4, 4), k=0.6), 4),
}


@pytest.mark.parametrize("name", WALK_SPECS)
def test_forward_runs_only_the_pools_a_tap_reads(name, monkeypatch):
    spec, pools_run = WALK_SPECS[name]
    model = build(spec, 3, 2, Rng(60))
    calls = []
    forward = TopKPool.forward

    def spy(self, state):
        calls.append(self)
        return forward(self, state)

    monkeypatch.setattr(TopKPool, "forward", spy)
    batch = Batch.of(share_table([random_graph(Rng(61 + i), 6 + i, 3) for i in range(3)]))
    model.forward(batch)
    assert calls == [pool for _, pool in model.blocks[:pools_run]]


def test_unread_pool_gets_an_exactly_zero_gradient():
    model = build(ModelSpec(kind="jk_sum", hidden_dim=5, mlp_dims=(4, 4), k=0.6),
                  3, 2, Rng(62))
    randomize_params(model, Rng(63))
    batch = Batch.of(share_table([random_graph(Rng(64 + i), 6 + i, 3) for i in range(3)]))
    model.forward(batch)
    grads = model.backward(Rng(67).normal(3, 2, 1.0))
    assert grads["pool3.p"].shape == model.params["pool3.p"].shape
    assert not grads["pool3.p"].any()
    assert grads["pool2.p"].any() and grads["gcn3.W"].any()


# every backward call of one model backward, in order: (layer, input_grad,
# whether an input gradient came back); readouts are named after the state they read
BACKWARD_CALLS = {
    "mlp": [("mlp3", True, True), ("mlp2", True, True), ("mlp1", False, False),
            ("state0-tap", False, False)],
    "gcn_r_mlp": [("mlp3", True, True), ("mlp2", True, True), ("mlp1", False, False),
                  ("state0-tap", False, False), ("state1-tap", False, False)],
    "gcn_mlp": [("mlp3", True, True), ("mlp2", True, True), ("mlp1", True, True),
                ("state0-tap", False, False), ("state1-tap", True, True), ("gcn1", False, False)],
    "jk_sum": [("mlp3", True, True), ("mlp2", True, True), ("mlp1", True, True),
               ("state1-tap", True, True), ("state3-tap", True, True), ("state5-tap", True, True),
               ("gcn3", True, True), ("pool2", True, True), ("gcn2", True, True),
               ("pool1", True, True), ("gcn1", False, False)],
    "probe4": [("mlp3", True, True), ("mlp2", True, True), ("mlp1", True, True),
               ("state8-tap", True, True), ("pool4", True, True), ("gcn4", True, True),
               ("pool3", True, True), ("gcn3", True, True), ("pool2", True, True),
               ("gcn2", True, True), ("pool1", True, True), ("gcn1", False, False)],
}


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_backward_computes_only_gradients_a_trained_parameter_reads(kind, monkeypatch):
    model = build(ModelSpec(kind=kind, hidden_dim=5, mlp_dims=(4, 4), k=0.6), 3, 2, Rng(80))
    randomize_params(model, Rng(81))
    names = {id(layer): name for name, layer in model.block_stages()}
    names.update({id(layer): f"mlp{j}" for j, layer in enumerate(model.mlp, start=1)})
    names.update({id(ro): f"state{t}-tap" for t, ro in model.taps})
    calls = []

    def spy(cls):
        backward = cls.backward

        def call(self, grad, **kwargs):
            out = backward(self, grad, **kwargs)
            x_grad = out if cls is Readout else out[0]
            calls.append((names[id(self)], kwargs.get("input_grad", True), x_grad is not None))
            return out
        monkeypatch.setattr(cls, "backward", call)

    for cls in (DenseLayer, GcnLayer, TopKPool, Readout):
        spy(cls)
    batch = Batch.of(share_table([random_graph(Rng(82 + i), 6 + i, 3) for i in range(3)]))
    model.forward(batch)
    grads = model.backward(Rng(85).normal(3, 2, 1.0))
    assert calls == BACKWARD_CALLS[kind]
    for name in model.frozen:
        assert not grads[name].any()
    if model.frozen:  # the frozen convolution was not run backward, yet its cache is gone
        with pytest.raises(StateError):
            model.blocks[0][0].backward(np.zeros((batch.features.shape[0], 5)))


@pytest.mark.parametrize("name", WALK_SPECS)
def test_run_blocks_equals_the_traced_forward_states(name):
    spec, _ = WALK_SPECS[name]
    model = build(spec, 3, 2, Rng(70))
    randomize_params(model, Rng(71))
    batch = Batch.of(share_table([random_graph(Rng(72 + i), 6 + i, 3) for i in range(3)]))
    model.forward(batch)
    traced = model.trace_states()
    stages = model.block_stages()
    # every stage up to the last tapped one ran: jk_sum stops after gcn3
    assert [lid for lid, _, _ in traced] == [lid for lid, _ in stages][:len(traced)]
    assert len(traced) == (5 if name == "jk_sum" else len(stages))
    outs = model.run_blocks(batch.state, len(stages) - 1)
    assert len(outs) == len(stages)
    for (_, out, _), again in zip(traced, outs):
        assert np.array_equal(out, again.x)


def test_predict_tie_breaks_to_lowest_class():
    model = build(ModelSpec(kind="mlp", hidden_dim=4, mlp_dims=(4, 4)), 3, 3, Rng(26))
    model.params["mlp3.W"][...] = 0.0
    model.params["mlp3.b"][...] = 0.0
    assert model.predict(Batch.of([random_graph(Rng(27), 5, 3)])).tolist() == [0]


def test_backward_before_forward_raises():
    model = build(ModelSpec(kind="mlp", hidden_dim=4, mlp_dims=(4, 4)), 3, 2, Rng(28))
    with pytest.raises(StateError):
        model.backward(np.zeros((1, 2)))


def test_feature_dim_mismatch_raises():
    model = build(ModelSpec(kind="mlp", hidden_dim=4, mlp_dims=(4, 4)), 3, 2, Rng(29))
    with pytest.raises(ShapeError):
        model.forward(Batch.of([random_graph(Rng(30), 5, 4)]))


def test_spec_validation():
    with pytest.raises(SpecError):
        ModelSpec(kind="transformer")
    with pytest.raises(SpecError):
        ModelSpec(kind="mlp", mlp_dims=(1, 2, 3))
    with pytest.raises(SpecError):
        ModelSpec(kind="jk_sum", k=1.0)
    with pytest.raises(SpecError):
        build(ModelSpec(kind="mlp"), 0, 2, Rng(0))


def test_spec_round_trip_and_unknown_keys():
    spec = ModelSpec(kind="jk_sum", hidden_dim=64, jk_agg="sum", k=0.5)
    assert ModelSpec.from_dict(spec.to_dict()) == spec
    with pytest.raises(ConfigError):
        ModelSpec.from_dict({"kind": "mlp", "depth": 9})
    with pytest.raises(ConfigError):
        ModelSpec.from_dict({"hidden_dim": 4})


def test_registry_covers_every_parameter_once():
    model = build(ModelSpec(kind="jk_sum", hidden_dim=6, mlp_dims=(5, 4)), 3, 2, Rng(31))
    names = list(model.params)
    assert len(names) == len(set(names))
    ids = [id(p) for p in model.params.values()]
    assert len(ids) == len(set(ids))
    expected = {f"gcn{i}.{s}" for i in (1, 2, 3) for s in ("W", "b")}
    expected |= {f"pool{i}.p" for i in (1, 2, 3)}
    expected |= {f"mlp{j}.{s}" for j in (1, 2, 3) for s in ("W", "b")}
    assert set(names) == expected


def _layer_arrays(model) -> dict:
    """Each layer's parameter array under its registry name, in registry
    order: blocks first, then the MLP head."""
    out = {}
    for i, (gcn, pool) in enumerate(model.blocks, start=1):
        out[f"gcn{i}.W"], out[f"gcn{i}.b"] = gcn.w, gcn.b
        if pool is not None:
            out[f"pool{i}.p"] = pool.p
    for j, layer in enumerate(model.mlp, start=1):
        out[f"mlp{j}.W"], out[f"mlp{j}.b"] = layer.w, layer.b
    return out


def _offset(view, flat) -> int:
    return (view.ctypes.data - flat.ctypes.data) // flat.itemsize


def assert_layer_views(model):
    """Every layer's parameter is its registered view of ``theta``, with its
    gradient the matching view of ``grad``; ``params`` and ``last_grads``
    keep registry order, and the views tile both vectors, trained first."""
    arrays = _layer_arrays(model)
    assert list(model.params) == list(model.last_grads) == list(arrays)
    trained = [name for name in arrays if name not in model.frozen]
    layout = trained + [name for name in arrays if name in model.frozen]
    start = 0
    for name in layout:
        p, g = model.params[name], model.last_grads[name]
        assert arrays[name] is p and p.shape == g.shape, name
        assert np.shares_memory(p, model.theta) and np.shares_memory(g, model.grad), name
        assert _offset(p, model.theta) == _offset(g, model.grad) == start, name
        start += p.size
    assert start == model.theta.size == model.grad.size
    assert model.n_trained == sum(model.params[name].size for name in trained)


@pytest.mark.parametrize("kind", ["gcn_r_mlp", "jk_sum"])
def test_layer_parameters_stay_views_of_theta_through_reinit_and_training(kind):
    rng = Rng(90)
    graphs = share_table([random_graph(rng.derive(i), 5 + rng.integers(0, 6), 3, label=i % 2)
                          for i in range(12)])
    model = build(ModelSpec(kind=kind, hidden_dim=6, mlp_dims=(5, 4), k=0.6), 3, 2, Rng(91))
    assert_layer_views(model)
    built = model.theta.copy()
    reinit(model, graphs)
    assert_layer_views(model)
    rescaled = model.theta.copy()
    assert not np.array_equal(rescaled, built)  # reinit wrote through the views
    twins = [copy.deepcopy(model), pickle.loads(pickle.dumps(model))]
    for twin in twins:
        assert_layer_views(twin)
        assert not np.shares_memory(twin.theta, model.theta)
        assert np.array_equal(twin.theta, rescaled)
        assert ([pool.scale for _, pool in twin.blocks if pool is not None]
                == [pool.scale for _, pool in model.blocks if pool is not None])
    cfg = TrainConfig(lr=1e-2, epochs=1, batch_size=5, seed=0)
    train_model(model, graphs, cfg, Rng(92))
    assert_layer_views(model)
    for twin in twins:  # a copy trains as its original did
        train_model(twin, graphs, cfg, Rng(92))
        assert_layer_views(twin)
        assert np.array_equal(twin.theta, model.theta)
    trained = slice(0, model.n_trained)
    assert not np.array_equal(model.theta[trained], rescaled[trained])  # so did the steps
    frozen = slice(model.n_trained, None)
    assert np.array_equal(model.theta[frozen], rescaled[frozen])


def test_two_backwards_without_a_clear_give_the_sum_of_both():
    model = build(ModelSpec(kind="jk_sum", hidden_dim=5, mlp_dims=(4, 4), k=0.6), 3, 2, Rng(93))
    randomize_params(model, Rng(94))
    batches = [Batch.of(share_table([random_graph(Rng(95 + 2 * b + i), 6 + i, 3)
                                     for i in range(2)])) for b in range(2)]
    directions = [Rng(99 + b).normal(2, 2, 1.0) for b in range(2)]
    alone = []
    for batch, direction in zip(batches, directions):
        model.grad.fill(0.0)
        model.forward(batch)
        alone.append({name: g.copy() for name, g in model.backward(direction).items()})
    model.grad.fill(0.0)
    for batch, direction in zip(batches, directions):
        model.forward(batch)
        grads = model.backward(direction)
    assert grads is model.last_grads
    for name, g in grads.items():
        assert np.array_equal(g, alone[0][name] + alone[1][name]), name


def test_a_spec_given_list_widths_is_hashable_and_builds():
    spec = ModelSpec(kind="mlp", hidden_dim=4, mlp_dims=[5, 3])
    assert spec.mlp_dims == (5, 3)
    assert hash(spec) == hash(ModelSpec(kind="mlp", hidden_dim=4, mlp_dims=(5, 3)))
    assert build(spec, 3, 2, Rng(0)).params["mlp2.W"].shape == (5, 3)
