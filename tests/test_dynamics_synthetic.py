"""Training-dynamics reproduction on a synthetic corpus.

These mirror the dataset-scale acceptance criteria at desk scale so the
vanishing-activation findings stay covered even where the public TU archive
is unreachable: deep conv+pool stacks under the standard initialisation
collapse with depth and barely train, while the variance-rescaled
initialisation keeps every block alive and trains immediately.
"""

import numpy as np
import pytest

from gnnlab import Batch, ModelSpec, Rng, TrainConfig, build, reinit, train_model
from gnnlab.diagnostics import TraceSink
from gnnlab.numcore import Moments

from conftest import synth_dataset


@pytest.fixture(scope="module")
def corpus():
    # balanced labels keep the class prior flat, so an untrainable network
    # really does sit at ln(2) rather than drifting onto the prior
    return synth_dataset(160, seed=42, n_lo=12, n_hi=24, edge_prob=0.15,
                         signal=0.35)


def _unit_output_stds(model, graphs):
    states = None
    for g in graphs:
        model.forward(Batch.of([g]))
        traced = model.trace_states()
        if states is None:
            states = [(name, Moments()) for name, _, _ in traced]
        for (_, mom), (_, out, _) in zip(states, traced):
            mom.add(out)
    return {name: mom.std() for name, mom in states}


def test_standard_init_activations_decay_across_blocks(corpus):
    # per-unit output std strictly decreasing in at least 9 of 10 seeds
    hits = 0
    for seed in range(10):
        model = build(ModelSpec(kind="probe4"), corpus.feature_dim,
                      corpus.num_classes, Rng(seed))
        stds = _unit_output_stds(model, corpus.graphs[:60])
        units = [stds[f"pool{i}"] for i in range(1, 5)]
        if all(units[i + 1] < units[i] for i in range(3)):
            hits += 1
    assert hits >= 9


def test_standard_init_last_block_far_below_first(corpus):
    ratios = []
    for seed in range(5):
        model = build(ModelSpec(kind="probe4"), corpus.feature_dim,
                      corpus.num_classes, Rng(seed))
        stds = _unit_output_stds(model, corpus.graphs[:60])
        ratios.append(stds["pool4"] / stds["pool1"])
    assert np.median(ratios) < 0.1


def _train(corpus, use_reinit, epochs, weight_decay, seed):
    model = build(ModelSpec(kind="probe4"), corpus.feature_dim,
                  corpus.num_classes, Rng(seed))
    if use_reinit:
        reinit(model, list(corpus.graphs))
    cfg = TrainConfig(lr=5e-4, weight_decay=weight_decay, epochs=epochs,
                      batch_size=64, seed=seed)
    sink = TraceSink()
    losses = train_model(model, list(corpus.graphs), cfg,
                         Rng(seed).derive(1), sink=sink)
    return losses, sink


def test_vanishing_persists_through_decayed_training(corpus):
    # with weight decay the collapsed blocks never recover early in training
    ratios = []
    for seed in range(3):
        _, sink = _train(corpus, False, epochs=15, weight_decay=5e-3, seed=seed)
        values = {(e.epoch, e.layer, e.kind): e.value for e in sink.events()}
        per_epoch = [values[(ep, "pool4", "act_std")]
                     / max(values[(ep, "pool1", "act_std")], 1e-300)
                     for ep in range(1, 16)]
        ratios.append(max(per_epoch))
    assert np.median(ratios) < 0.1


def test_reinit_trains_while_standard_init_stalls(corpus):
    std_drops, reinit_drops = [], []
    for seed in range(2):
        std_losses, _ = _train(corpus, False, epochs=15, weight_decay=5e-3,
                               seed=seed)
        ri_losses, _ = _train(corpus, True, epochs=15, weight_decay=0.0,
                              seed=seed)
        std_drops.append((std_losses[0] - min(std_losses)) / std_losses[0])
        reinit_drops.append((ri_losses[0] - min(ri_losses)) / ri_losses[0])
    assert max(std_drops) < 0.01
    assert min(reinit_drops) >= 0.05


def test_reinit_keeps_every_block_alive(corpus):
    _, sink = _train(corpus, True, epochs=2, weight_decay=0.0, seed=0)
    values = {(e.epoch, e.layer, e.kind): e.value for e in sink.events()}
    ratio = values[(1, "pool4", "act_std")] / values[(1, "pool1", "act_std")]
    assert ratio > 0.5


def test_reinit_gradients_reach_late_blocks(corpus):
    _, std_sink = _train(corpus, False, epochs=3, weight_decay=5e-3, seed=1)
    _, ri_sink = _train(corpus, True, epochs=3, weight_decay=0.0, seed=1)

    def late_grad(sink):
        values = {(e.epoch, e.layer, e.kind): e.value for e in sink.events()}
        return np.mean([values[(ep, name, "grad_norm")]
                        for ep in (1, 2, 3)
                        for name in ("gcn3.W", "gcn4.W")])

    assert late_grad(ri_sink) > 10.0 * late_grad(std_sink)


@pytest.mark.extended
def test_late_layer_recovery_without_decay_on_dd(tu_dataset_dir):
    # without decay the jk net slowly revives its deep blocks: block-3 weight
    # gradients grow by >= 10x between epoch 10 and epoch 300
    from gnnlab import parse_tu, stratified_folds

    ds = parse_tu(tu_dataset_dir("DD"), "DD", feature_policy="label_onehot")
    split = stratified_folds(ds, 10, seed=12345)
    graphs = [ds.graphs[i] for i in split.train_indices(0)]
    model = build(ModelSpec(kind="jk_sum"), ds.feature_dim, ds.num_classes, Rng(0))
    cfg = TrainConfig(lr=5e-4, weight_decay=0.0, epochs=300, batch_size=64, seed=0)
    sink = TraceSink()
    train_model(model, graphs, cfg, Rng(0).derive(1), sink=sink)
    values = {(e.epoch, e.layer, e.kind): e.value for e in sink.events()}
    early = values[(10, "gcn3.W", "grad_norm")]
    late = max(values[(ep, "gcn3.W", "grad_norm")] for ep in range(200, 301))
    assert late >= 10.0 * early
