"""Disjoint-union batches against one graph at a time.

A batch of several graphs must give the scores, gradients, pooled node sets
and reinit divisors of its graphs run one by one; chunking only regroups the
same sums, so the tolerances are a few rounding steps of float64.
"""

import pickle

import numpy as np
import pytest

from gnnlab import (Batch, ModelSpec, Rng, SparseAdj, TopKPool, TrainConfig, build, evaluate,
                    reinit, train_model)
from gnnlab import graphdata
from gnnlab.errors import DomainError, ShapeError
from gnnlab.graphdata import chunks

from conftest import (block_diag, dense_graph, random_adj, random_graph, randomize_params,
                      share_table, stack, synth_dataset, to_dense)

SPECS = [
    ModelSpec(kind="mlp", hidden_dim=6, mlp_dims=(5, 4)),
    ModelSpec(kind="mlp", hidden_dim=6, mlp_dims=(5, 4), readout_kind="max"),
    ModelSpec(kind="gcn_r_mlp", hidden_dim=6, mlp_dims=(5, 4)),
    ModelSpec(kind="gcn_mlp", hidden_dim=6, mlp_dims=(5, 4), readout_kind="max"),
    ModelSpec(kind="gcn_mlp", hidden_dim=6, mlp_dims=(5, 4)),
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
    graphs.append(dense_graph(SparseAdj.from_edges(3, []), rng.normal(3, f, 1.0), 1))
    return share_table(graphs)


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

        model.grad.fill(0.0)
        single_states = None
        for i, g in enumerate(graphs):
            one = model.forward(Batch.of([g]))
            assert np.max(np.abs(one[0] - scores[i])) < 1e-10
            traced = [out for _, out, _ in model.trace_states()]
            single_states = traced if single_states is None else [
                np.concatenate([a, b]) for a, b in zip(single_states, traced)]
            model.backward(direction[i:i + 1] / len(graphs))  # backwards sum into last_grads
        for name, grad in grads.items():
            assert np.max(np.abs(grad - model.last_grads[name])) < 1e-10, name
        for union, stacked in zip(states, single_states):
            assert union.shape == stacked.shape
            assert np.max(np.abs(union - stacked)) < 1e-10


def _degree_onehot_part(rng, n, width, mean_degree=2.3):
    """The (adjacency, rows, label) of a graph on ``n`` nodes whose features
    are degree one-hots, row ids into the identity of ``width`` columns (its
    last column for every higher degree)."""
    target = int(round(mean_degree * n / 2))
    edges = set()
    while len(edges) < target:
        i, j = rng.integers(0, n), rng.integers(0, n)
        if i != j:
            edges.add((min(i, j), max(i, j)))
    adj = SparseAdj.from_edges(n, edges)
    return adj, np.minimum(adj.degrees(), width - 1), 0


def test_pools_keep_the_same_nodes_despite_exact_score_ties(monkeypatch, kept_rows):
    # Degree one-hots make many nodes identical, so scores tie exactly at the
    # keep cut; a tie must resolve as it does for the graph on its own.
    rng = Rng(4242)
    graphs = stack([_degree_onehot_part(rng.derive(i), 25 + rng.integers(0, 31), 17)
                    for i in range(64)], np.eye(17)).graphs
    model = build(ModelSpec(kind="jk_sum"), graphs[0].features.shape[1], 2, Rng(7))
    log = []
    forward = TopKPool.forward

    def spy(self, state):
        log.append((state.x @ self.p, state.sizes))
        return forward(self, state)

    monkeypatch.setattr(TopKPool, "forward", spy)
    single = []
    ties = 0
    for g in graphs:
        log.clear()
        kept_rows.clear()
        model.forward(Batch.of([g]))
        single.append(list(kept_rows))
        for kept, (scores, _) in zip(kept_rows, log):
            m, ranked = kept.shape[0], np.sort(scores)[::-1]
            ties += m < ranked.shape[0] and ranked[m - 1] == ranked[m]
    assert ties > 0, "the corpus has no score tie at a keep cut"

    start = 0
    for chunk in chunks(Batch.of(graphs), model.width):
        log.clear()
        kept_rows.clear()
        model.forward(chunk)
        for stage, (kept, (_, sizes)) in enumerate(zip(kept_rows, log)):
            sizes = np.asarray(sizes)
            offsets = np.cumsum(sizes) - sizes
            bounds = np.searchsorted(kept, offsets.tolist() + [offsets[-1] + sizes[-1]])
            for j in range(sizes.shape[0]):
                local = kept[bounds[j]:bounds[j + 1]] - offsets[j]
                assert local.tolist() == single[start + j][stage].tolist()
        start += chunk.sizes.shape[0]
    assert start == len(graphs)


@pytest.mark.parametrize("width", [3, 64, 128, 500])
def test_chunks_cover_graphs_in_order_within_the_node_budget(width):
    budget = graphdata.CHUNK_ENTRIES // width
    rng = Rng(5)
    sizes = [1 + rng.integers(0, budget // 2) for _ in range(40)]
    sizes[7] = budget + 44  # larger than any chunk may be
    sizes[8] = budget
    graphs = share_table([dense_graph(SparseAdj.from_edges(n, []), np.full((n, 2), float(i)), i)
                          for i, n in enumerate(sizes)])
    out = list(chunks(Batch.of(graphs), width))
    assert len(out) >= 4
    assert np.concatenate([c.labels for c in out]).tolist() == list(range(len(graphs)))
    assert np.concatenate([c.sizes for c in out]).tolist() == sizes
    assert np.array_equal(np.concatenate([c.features for c in out]),
                          np.concatenate([g.features for g in graphs]))
    for c, nxt in zip(out, out[1:] + [None]):
        nodes = int(c.sizes.sum())
        assert c.adj.n == c.features.shape[0] == nodes
        assert nodes <= budget or c.sizes.shape[0] == 1
        if nxt is not None:  # greedy: the next graph would not have fitted
            assert nodes + int(nxt.sizes[0]) > budget


def _greedy_node_runs(sizes, limit):
    """Oracle: the node-count rule chunks followed before they were budgeted
    by entries; each run of graph sizes holds at most ``limit`` nodes unless
    it is a single graph."""
    runs, run = [], []
    for n in sizes:
        if run and sum(run) + n > limit:
            runs.append(run)
            run = []
        run.append(n)
    return runs + [run]


def test_chunks_at_width_128_are_the_256_node_chunks():
    # every shipped preset is 128 wide, so its chunks, and so its reports
    # and traces, must not move
    rng = Rng(6)
    sizes = [1 + rng.integers(0, 300) for _ in range(200)] + [1, 255, 256, 257, 1, 600, 2]
    graphs = share_table([dense_graph(SparseAdj.from_edges(n, []), np.zeros((n, 3)))
                          for n in sizes])
    assert ([c.sizes.tolist() for c in chunks(Batch.of(graphs), 128)]
            == _greedy_node_runs(sizes, 256))
    for kind in ("gcn_mlp", "jk_sum", "probe4"):
        assert build(ModelSpec(kind=kind), 3, 2, Rng(0)).width == 128
    assert build(ModelSpec(kind="mlp"), 3, 2, Rng(0)).width == 3


def test_batch_adjacency_is_block_diagonal():
    graphs = _graphs(17)
    batch = Batch.of(graphs)
    dense = np.zeros((batch.adj.n, batch.adj.n))
    at = 0
    for g in graphs:
        dense[at:at + g.adj.n, at:at + g.adj.n] = to_dense(g.adj)
        at += g.adj.n
    assert np.array_equal(to_dense(batch.adj), dense)
    one = Batch.of(graphs[:1]).adj
    for got, want in zip((one.indptr, one.indices),
                         (graphs[0].adj.indptr, graphs[0].adj.indices)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", ["mlp", "gcn_mlp", "jk_sum"])
def test_minibatch_gradient_independent_of_chunking(kind, monkeypatch):
    # label one-hots: many exact score ties, which chunking must not move
    ds = synth_dataset(40, seed=3, n_lo=10, n_hi=30)
    graphs = list(ds.graphs)
    assert sum(g.adj.n for g in graphs) > 2 * 100
    spec = ModelSpec(kind=kind, hidden_dim=8, mlp_dims=(6, 5))
    cfg = TrainConfig(epochs=1, batch_size=len(graphs), seed=0)

    def run(entries):
        monkeypatch.setattr(graphdata, "CHUNK_ENTRIES", entries)
        model = build(spec, ds.feature_dim, ds.num_classes, Rng(1))
        losses = train_model(model, graphs, cfg, Rng(2))
        return model.last_grads, losses[0], evaluate(model, graphs)

    whole = run(10 ** 9)  # the whole mini-batch in one chunk
    width = build(spec, ds.feature_dim, ds.num_classes, Rng(1)).width
    # chunks of at most 100 nodes; one graph per chunk
    for entries in (100 * width, 1):
        grads, loss, accuracy = run(entries)
        for name, grad in whole[0].items():
            assert np.max(np.abs(grad - grads[name])) < 1e-12, name
        assert abs(whole[1] - loss) < 1e-12
        assert whole[2] == accuracy


def _spy_gathers(monkeypatch) -> list:
    """The (property, graph count) of each read of a batch's features or
    adjacency from now on, in order."""
    calls = []

    def spy(name):
        gather = getattr(Batch, name).fget
        monkeypatch.setattr(Batch, name, property(
            lambda batch: calls.append((name, len(batch))) or gather(batch)))

    spy("features")
    spy("adj")
    return calls


def test_mlp_never_builds_a_batch_adjacency(monkeypatch):
    ds = synth_dataset(40, seed=4, n_lo=10, n_hi=30)
    graphs = list(ds.graphs)
    cfg = TrainConfig(epochs=2, batch_size=16, seed=0)
    calls = _spy_gathers(monkeypatch)
    for kind in ("mlp", "gcn_mlp"):
        model = build(ModelSpec(kind=kind, hidden_dim=8, mlp_dims=(6, 5)),
                      ds.feature_dim, ds.num_classes, Rng(1))
        calls.clear()
        model.forward(ds.graphs[0])
        # the first forward reads every graph's input-tap row, from the
        # features of one chunk of the whole dataset at either width; only
        # gcn_mlp's stage walk reads its one graph's
        assert calls == [("adj", 1), ("features", 1)] * (kind == "gcn_mlp") + [
            ("features", len(ds))], kind
        calls.clear()
        train_model(model, graphs, cfg, Rng(2))
        evaluate(model, graphs)
        # the spy sees the graph models' multi-graph chunks, and none of mlp's
        assert (calls == []) == (kind == "mlp"), kind


@pytest.mark.parametrize("kind", ["mlp", "gcn_mlp"])
def test_a_dataset_of_the_wrong_width_raises_before_anything_is_gathered(kind, monkeypatch):
    ds = synth_dataset(10, seed=5, feat_dim=4)
    model = build(ModelSpec(kind=kind, hidden_dim=8, mlp_dims=(6, 5)), 3, 2, Rng(1))
    calls = _spy_gathers(monkeypatch)
    with pytest.raises(ShapeError, match="expects 3 features, got 4"):
        model.forward(Batch(ds, np.arange(len(ds))))
    assert calls == []
    right = synth_dataset(10, seed=5)
    assert model.forward(Batch(right, np.arange(len(right)))).shape == (len(right), 2)


def test_training_merges_its_graphs_once_and_slices_them_per_step(monkeypatch):
    # a step makes its mini-batch and chunks as slices of one merged batch,
    # never a batch per graph
    ds = synth_dataset(40, seed=4, n_lo=10, n_hi=30)
    graphs, merges, made = list(ds.graphs), [], []
    of, init = Batch.of.__func__, Batch.__init__
    monkeypatch.setattr(Batch, "of", classmethod(lambda cls, b: merges.append(1) or of(cls, b)))
    monkeypatch.setattr(Batch, "__init__", lambda self, *a: made.append(1) or init(self, *a))
    model = build(ModelSpec(kind="mlp"), ds.feature_dim, ds.num_classes, Rng(1))
    train_model(model, graphs, TrainConfig(epochs=2, batch_size=16, seed=0), Rng(2))
    steps = 2 * 3  # 40 graphs in mini-batches of 16, one chunk each at mlp's width
    # and, once, the whole dataset and its one chunk, whose input-tap rows mlp reads
    assert len(merges) == 1 and len(made) == 1 + 2 * steps + 2


def test_reinit_divisors_independent_of_chunking(monkeypatch):
    # continuous features: no near-ties a last-digit change of a divisor
    # could flip, so the divisors of later stages stay comparable too
    rng = Rng(8)
    graphs = share_table([random_graph(rng.derive(i), 10 + rng.integers(0, 21), 3)
                          for i in range(40)])
    assert sum(g.adj.n for g in graphs) > 2 * 100
    spec = ModelSpec(kind="probe4", hidden_dim=8, mlp_dims=(6, 5), k=0.7)

    def divisors(entries):
        monkeypatch.setattr(graphdata, "CHUNK_ENTRIES", entries)
        return reinit(build(spec, 3, 2, Rng(9)), graphs).divisors

    whole = divisors(10 ** 9)
    for entries in (100 * 8, 1):  # chunks of at most 100 nodes at width 8
        assert np.allclose(whole, divisors(entries), rtol=1e-12, atol=0)


def _corpus(rng, count):
    """(adjacency, rows, label) parts of ``count`` random graphs over a
    5-column identity: one-node, edgeless and isolated-node graphs among them."""
    parts = []
    for i in range(count):
        n = [1, 4, 1 + rng.integers(0, 12)][i % 3]
        adj = SparseAdj.from_edges(n, []) if i % 3 < 2 else random_adj(rng.derive(i), n, 0.3)
        parts.append((adj, np.array([rng.integers(0, 5) for _ in range(n)]), i % 2))
    return parts


def test_batch_gathers_the_block_diagonal_union_of_its_graphs():
    for trial in range(20):
        rng = Rng(700 + trial)
        parts = _corpus(rng, 2 + rng.integers(0, 10))
        ds = stack(parts, np.eye(5))
        # any order, one graph twice
        order = rng.permutation(len(parts)).tolist()
        order.insert(rng.integers(0, len(order) + 1), order[0])
        batch = Batch.of(ds.graphs[i] for i in order)
        want = block_diag([parts[i][0] for i in order])
        assert (batch.adj.n, batch.ids.tolist()) == (want.n, order)
        assert batch.adj.indptr.tobytes() == want.indptr.tobytes()
        assert batch.adj.indices.tobytes() == want.indices.tobytes()
        rows = np.concatenate([parts[i][1] for i in order])
        assert batch.features.tobytes() == np.eye(5)[rows].tobytes()
        assert batch.sizes.tolist() == [parts[i][0].n for i in order]
        assert batch.labels.tolist() == [parts[i][2] for i in order]


def test_a_batch_comes_from_one_dataset_and_only_a_graph_has_a_label():
    rng = Rng(3)
    first, second = (stack(_corpus(rng, 4), np.eye(5)) for _ in range(2))
    with pytest.raises(ShapeError, match="one dataset"):
        Batch.of([first.graphs[0], second.graphs[1]])
    assert [g.label for g in first.graphs] == [0, 1, 0, 1]
    with pytest.raises(ShapeError, match="2 graphs"):
        Batch.of(first.graphs[:2]).label


def test_an_integer_key_gives_a_one_graph_batch_and_no_batches_merge_to_none():
    ds = synth_dataset(5, seed=4)
    batch = Batch(ds, np.arange(5))
    for i in (2, -1):
        one = batch[i]
        assert len(one) == 1
        assert one.ids.tolist() == ds.graphs[i].ids.tolist()
        assert one.features.tobytes() == ds.graphs[i].features.tobytes()
    merged, want = Batch.of([batch[2], batch[-1]]), Batch.of([ds.graphs[2], ds.graphs[4]])
    assert merged.ids.tolist() == [2, 4]
    assert merged.adj.indices.tobytes() == want.adj.indices.tobytes()
    with pytest.raises(DomainError, match="no batches"):
        Batch.of([])


def test_no_batch_holds_a_float_array_after_every_graph_is_read():
    # the gathered rows and adjacency are a batch's largest arrays; a batch
    # that kept them would hold a second copy of the corpus
    ds = synth_dataset(12, seed=2)
    for g in ds.graphs:
        assert g.features.shape == (g.adj.n, ds.feature_dim)
    merged = Batch.of(ds.graphs)
    assert merged.adj.n == merged.features.shape[0] == ds.adj.n
    for batch in ds.graphs + (merged,):
        held = [v for v in vars(batch).values() if isinstance(v, (np.ndarray, SparseAdj))]
        assert held and all(isinstance(v, np.ndarray) and v.dtype.kind == "i" for v in held)


def test_pickled_dataset_graphs_batch_together():
    # what `--jobs` ships to a fold job; test_training's
    # test_run_cv_parallel_matches_sequential runs such jobs on a dataset
    # whose graphs its sequential run has built
    ds = synth_dataset(20, seed=5, n_lo=4, n_hi=8)
    fresh = pickle.loads(pickle.dumps(ds))
    want = Batch.of(ds.graphs[i] for i in (3, 1, 3))
    built = pickle.loads(pickle.dumps(ds))  # carries the batches ds.graphs built
    assert "graphs" not in vars(fresh) and "graphs" in vars(built)
    for again in (fresh, built):
        batch = Batch.of(again.graphs[i] for i in (3, 1, 3))
        assert batch.dataset is again and all(g.dataset is again for g in again.graphs)
        assert batch.adj.indices.tobytes() == want.adj.indices.tobytes()
        assert batch.features.tobytes() == want.features.tobytes()
