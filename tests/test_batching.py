"""Disjoint-union batches against one graph at a time.

A batch of several graphs must give the scores, gradients, pooled node sets
and reinit divisors of its graphs run one by one; chunking only regroups the
same sums, so the tolerances are a few rounding steps of float64.
"""

import numpy as np
import pytest

from gnnlab import (Batch, Graph, ModelSpec, Rng, SparseAdj, TopKPool, TrainConfig,
                    build, evaluate, reinit, train_model)
from gnnlab import graphdata
from gnnlab.graphdata import chunks

from conftest import random_graph, randomize_params, synth_dataset

SPECS = [
    ModelSpec(kind="mlp", hidden_dim=6, mlp_dims=(5, 4)),
    ModelSpec(kind="mlp", hidden_dim=6, mlp_dims=(5, 4), readout_kind="max"),
    ModelSpec(kind="gcn_r_mlp", hidden_dim=6, mlp_dims=(5, 4)),
    ModelSpec(kind="gcn_mlp", hidden_dim=6, mlp_dims=(5, 4), readout_kind="max"),
    ModelSpec(kind="gcn_mlp", hidden_dim=6, mlp_dims=(5, 4), gcn_norm="row"),
    ModelSpec(kind="jk_sum", hidden_dim=6, mlp_dims=(5, 4), k=0.6),
    ModelSpec(kind="jk_sum", hidden_dim=6, mlp_dims=(5, 4), k=0.6, jk_agg="sum",
              tap_pooled=True),
    ModelSpec(kind="probe4", hidden_dim=6, mlp_dims=(5, 4), k=0.7),
]


def _graphs(seed, count=5, f=3):
    rng = Rng(seed)
    graphs = [random_graph(rng.derive(i), 1 + rng.integers(0, 10), f, label=i % 2)
              for i in range(count)]
    # an isolated-node graph exercises empty CSR rows inside the union
    graphs.append(Graph(adj=SparseAdj.empty(3), features=rng.normal(3, f, 1.0),
                        label=1, id=count))
    return graphs


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-{s.readout_kind}-{s.jk_agg}")
def test_batch_matches_mean_of_single_graph_batches(spec):
    for trial in range(3):
        graphs = _graphs(300 + trial)
        model = build(spec, 3, 2, Rng(trial))
        randomize_params(model, Rng(50 + trial))
        direction = Rng(90 + trial).normal(len(graphs), 2, 1.0)
        batch = Batch.of(graphs)
        scores = model.forward(batch)
        states = [out for _, out, _ in model.trace_states()]
        grads = {k: v.copy() for k, v in model.backward(direction / len(graphs)).items()}

        mean = {k: np.zeros_like(v) for k, v in grads.items()}
        single_states = None
        for i, g in enumerate(graphs):
            one = model.forward(Batch.of([g]))
            assert np.max(np.abs(one[0] - scores[i])) < 1e-10
            traced = [out for _, out, _ in model.trace_states()]
            single_states = traced if single_states is None else [
                np.concatenate([a, b]) for a, b in zip(single_states, traced)]
            for name, grad in model.backward(direction[i:i + 1]).items():
                mean[name] += grad / len(graphs)
        for name in grads:
            assert np.max(np.abs(grads[name] - mean[name])) < 1e-10, name
        for union, stacked in zip(states, single_states):
            assert union.shape == stacked.shape
            assert np.max(np.abs(union - stacked)) < 1e-10


def _degree_onehot_graph(rng, n, mean_degree=2.3, cap=16):
    target = int(round(mean_degree * n / 2))
    edges = set()
    while len(edges) < target:
        i, j = rng.integers(0, n), rng.integers(0, n)
        if i != j:
            edges.add((min(i, j), max(i, j)))
    adj = SparseAdj.from_edges(n, edges)
    features = np.zeros((n, cap + 1))
    features[np.arange(n), np.minimum(adj.degrees(), cap)] = 1.0
    return Graph(adj=adj, features=features, label=0, id=0)


def test_pools_keep_the_same_nodes_despite_exact_score_ties(monkeypatch):
    # Degree one-hots make many nodes identical, so scores tie exactly at the
    # keep cut; a tie must resolve as it does for the graph on its own.
    rng = Rng(4242)
    graphs = [_degree_onehot_graph(rng.derive(i), 25 + rng.integers(0, 31))
              for i in range(64)]
    model = build(ModelSpec(kind="jk_sum"), graphs[0].features.shape[1], 2, Rng(7))
    log = []
    forward = TopKPool.forward

    def spy(self, adj, x, sizes=None):
        out = forward(self, adj, x, sizes)
        log.append((out[2], x @ self.p, sizes))
        return out

    monkeypatch.setattr(TopKPool, "forward", spy)
    single = []
    ties = 0
    for g in graphs:
        log.clear()
        model.forward(Batch.of([g]))
        single.append([kept for kept, _, _ in log])
        for kept, scores, _ in log:
            m, ranked = kept.shape[0], np.sort(scores)[::-1]
            ties += m < ranked.shape[0] and ranked[m - 1] == ranked[m]
    assert ties > 0, "the corpus has no score tie at a keep cut"

    start = 0
    for chunk in chunks(graphs):
        log.clear()
        model.forward(chunk)
        for stage, (kept, _, sizes) in enumerate(log):
            sizes = np.asarray(sizes)
            offsets = np.cumsum(sizes) - sizes
            bounds = np.searchsorted(kept, offsets.tolist() + [offsets[-1] + sizes[-1]])
            for j in range(sizes.shape[0]):
                local = kept[bounds[j]:bounds[j + 1]] - offsets[j]
                assert local.tolist() == single[start + j][stage].tolist()
        start += chunk.sizes.shape[0]
    assert start == len(graphs)


def test_chunks_cover_graphs_in_order_within_the_node_budget():
    rng = Rng(5)
    sizes = [1 + rng.integers(0, 120) for _ in range(40)]
    sizes[7] = graphdata.CHUNK_NODES + 44  # larger than any chunk may be
    sizes[8] = graphdata.CHUNK_NODES
    graphs = [Graph(adj=SparseAdj.empty(n), features=np.full((n, 2), float(i)),
                    label=i, id=i) for i, n in enumerate(sizes)]
    out = list(chunks(graphs))
    assert np.concatenate([c.labels for c in out]).tolist() == list(range(len(graphs)))
    assert np.concatenate([c.sizes for c in out]).tolist() == sizes
    assert np.array_equal(np.concatenate([c.features for c in out]),
                          np.concatenate([g.features for g in graphs]))
    for c, nxt in zip(out, out[1:] + [None]):
        nodes = int(c.sizes.sum())
        assert c.adj.n == c.features.shape[0] == nodes
        assert nodes <= graphdata.CHUNK_NODES or c.sizes.shape[0] == 1
        if nxt is not None:  # greedy: the next graph would not have fitted
            assert nodes + int(nxt.sizes[0]) > graphdata.CHUNK_NODES


def test_batch_adjacency_is_block_diagonal():
    graphs = _graphs(17)
    batch = Batch.of(graphs)
    dense = np.zeros((batch.adj.n, batch.adj.n))
    at = 0
    for g in graphs:
        dense[at:at + g.adj.n, at:at + g.adj.n] = g.adj.to_dense()
        at += g.adj.n
    assert np.array_equal(batch.adj.to_dense(), dense)
    assert Batch.of(graphs[:1]).adj is graphs[0].adj


@pytest.mark.parametrize("kind", ["gcn_mlp", "jk_sum"])
def test_minibatch_gradient_independent_of_chunking(kind, monkeypatch):
    # label one-hots: many exact score ties, which chunking must not move
    ds = synth_dataset(40, seed=3, n_lo=10, n_hi=30)
    graphs = list(ds.graphs)
    assert sum(g.adj.n for g in graphs) > 2 * graphdata.CHUNK_NODES
    spec = ModelSpec(kind=kind, hidden_dim=8, mlp_dims=(6, 5))
    cfg = TrainConfig(epochs=1, batch_size=len(graphs), seed=0)

    def run(budget):
        monkeypatch.setattr(graphdata, "CHUNK_NODES", budget)
        model = build(spec, ds.feature_dim, ds.num_classes, Rng(1))
        losses = train_model(model, graphs, cfg, Rng(2))
        return model.last_grads, losses[0], evaluate(model, graphs)

    chunked = run(graphdata.CHUNK_NODES)
    for budget in (10 ** 9, 1):  # the whole mini-batch; one graph per chunk
        grads, loss, accuracy = run(budget)
        for name, grad in chunked[0].items():
            assert np.max(np.abs(grad - grads[name])) < 1e-12, name
        assert abs(chunked[1] - loss) < 1e-12
        assert chunked[2] == accuracy


def test_reinit_divisors_independent_of_chunking(monkeypatch):
    # continuous features: no near-ties a last-digit change of a divisor
    # could flip, so the divisors of later stages stay comparable too
    rng = Rng(8)
    graphs = [random_graph(rng.derive(i), 10 + rng.integers(0, 21), 3) for i in range(40)]
    spec = ModelSpec(kind="probe4", hidden_dim=8, mlp_dims=(6, 5), k=0.7)

    def divisors(budget):
        monkeypatch.setattr(graphdata, "CHUNK_NODES", budget)
        return reinit(build(spec, 3, 2, Rng(9)), graphs).divisors

    chunked = divisors(graphdata.CHUNK_NODES)
    for budget in (10 ** 9, 1):
        assert np.allclose(chunked, divisors(budget), rtol=1e-12, atol=0)
