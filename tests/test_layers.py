import math

import numpy as np
import pytest

from gnnlab import DenseLayer, GcnLayer, Readout, Rng, SparseAdj, TopKPool
from gnnlab.errors import DomainError, ShapeError, StateError
from gnnlab.graphdata import State
from gnnlab.layers import keep_count

from conftest import block_diag, edge_set, layer_fd_max_rel_err, one_graph, random_adj


def make_gcn(rng, fan_in, fan_out, activation="none"):
    return GcnLayer(rng.normal(fan_in, fan_out, 0.7),
                    rng.uniform(1, fan_out, 0.5)[0],
                    activation=activation)


# --------------------------------------------------------------------------
# GCN forward

def test_gcn_isolated_node_degenerate_normalisation():
    # single node: A+2I = [2], Dhat = [2], so the propagation operator is [1]
    rng = Rng(0)
    layer = make_gcn(rng, 3, 4)
    x = rng.normal(1, 3, 1.0)
    out = layer.forward(one_graph(SparseAdj.from_edges(1, []), x)).x
    assert np.allclose(out, x @ layer.w + layer.b, atol=1e-12)


def test_gcn_two_node_hand_computation():
    # A+2I = [[2,1],[1,2]], Dhat = diag(3,3), P = [[2,1],[1,2]]/3
    adj = SparseAdj.from_edges(2, [(0, 1)])
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    layer = GcnLayer(np.eye(2), np.zeros(2), activation="none")
    out = layer.forward(one_graph(adj, x)).x
    assert np.allclose(out, np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0, atol=1e-12)


def test_gcn_identity_propagation_no_edges():
    rng = Rng(1)
    x = rng.normal(5, 3, 1.0)
    layer = GcnLayer(np.eye(3), np.zeros(3), activation="none")
    out = layer.forward(one_graph(SparseAdj.from_edges(5, []), x)).x
    assert np.allclose(out, x, atol=1e-12)


def test_gcn_feature_dim_mismatch():
    layer = make_gcn(Rng(2), 3, 4)
    with pytest.raises(ShapeError):
        layer.forward(one_graph(SparseAdj.from_edges(2, []), np.zeros((2, 5))))


def test_gcn_permutation_equivariance():
    rng = Rng(4)
    for trial in range(20):
        n = 3 + rng.integers(0, 8)
        adj = random_adj(rng.derive(trial), n, 0.4)
        x = rng.normal(n, 3, 1.0)
        layer = make_gcn(rng.derive(100 + trial), 3, 5, activation="relu")
        out = layer.forward(one_graph(adj, x)).x
        perm = Rng(trial).permutation(n)
        edges = [(int(perm[i]), int(perm[j])) for i, j in edge_set(adj) if i < j]
        padj = SparseAdj.from_edges(n, edges)
        px = np.empty_like(x)
        px[perm] = x
        pout = layer.forward(one_graph(padj, px)).x
        expect = np.empty_like(out)
        expect[perm] = out
        assert np.max(np.abs(pout - expect)) < 1e-9


# --------------------------------------------------------------------------
# GCN backward

def test_gcn_backward_before_forward():
    with pytest.raises(StateError):
        make_gcn(Rng(5), 2, 2).backward(np.zeros((2, 2)))


def test_gcn_zero_grad_out():
    rng = Rng(6)
    layer = make_gcn(rng, 3, 4, activation="relu")
    adj = random_adj(rng, 5, 0.4)
    layer.forward(one_graph(adj, rng.normal(5, 3, 1.0)))
    grad_x, grads = layer.backward(np.zeros((5, 4)))
    assert not grad_x.any() and not grads["W"].any() and not grads["b"].any()


def test_gcn_single_node_grad_w():
    rng = Rng(7)
    layer = make_gcn(rng, 3, 2, activation="none")
    x = rng.normal(1, 3, 1.0)
    layer.forward(one_graph(SparseAdj.from_edges(1, []), x))
    g = rng.normal(1, 2, 1.0)
    _, grads = layer.backward(g)
    assert np.allclose(grads["W"], x.T @ g, atol=1e-12)


@pytest.mark.parametrize("activation", ["none", "relu"])
def test_gcn_backward_matches_finite_differences(activation):
    worst = 0.0
    for trial in range(15):
        rng = Rng(1000 + trial)
        n = 2 + rng.integers(0, 5)
        adj = random_adj(rng.derive(0), n, 0.5)
        x = rng.normal(n, 3, 1.0)
        layer = make_gcn(rng.derive(1), 3, 4, activation=activation)
        direction = rng.normal(n, 4, 1.0)

        def run():
            return float((layer.forward(one_graph(adj, x)).x * direction).sum())

        run()
        grad_x, grads = layer.backward(direction)
        params = {"W": (layer.w, grads["W"]), "b": (layer.b, grads["b"]),
                  "x": (x, grad_x)}
        worst = max(worst, layer_fd_max_rel_err(params, run))
    assert worst < 1e-6


# --------------------------------------------------------------------------
# top-k pooling

def test_topk_keep_counts_match_paper_rule(kept_rows):
    pool = TopKPool(np.ones(1), k=0.8)
    adj = random_adj(Rng(8), 10, 0.4)
    _, out, _ = pool.forward(one_graph(adj, Rng(9).normal(10, 1, 1.0)))
    kept = kept_rows[-1]
    assert kept.shape[0] == 8 and out.shape[0] == 8


def test_topk_single_node_always_kept(kept_rows):
    pool = TopKPool(np.ones(2), k=0.5)
    pool.forward(one_graph(SparseAdj.from_edges(1, []), np.array([[-5.0, -7.0]])))
    kept = kept_rows[-1]
    assert kept.tolist() == [0]


def test_keep_count_rule():
    from fractions import Fraction
    for k in (0.0, 0.1, 0.2, 0.3, 0.5, 0.6, 0.7, 0.75, 0.8, 0.9, 0.99):
        frac = Fraction(str(k))
        for n in range(1, 60):
            expect = max(1, -((-frac.numerator * n) // frac.denominator))
            assert keep_count(k, n) == expect, (k, n)


def test_topk_hand_example(kept_rows):
    pool = TopKPool(np.array([1.0]), k=0.5)
    x = np.array([[1.0], [3.0], [2.0]])
    _, out, _ = pool.forward(one_graph(SparseAdj.from_edges(3, []), x))
    kept = kept_rows[-1]
    assert kept.tolist() == [1, 2]
    assert np.allclose(out, [[3 * math.tanh(3.0)], [2 * math.tanh(2.0)]], atol=1e-12)


def test_topk_tie_break_lower_index(kept_rows):
    pool = TopKPool(np.array([1.0]), k=0.5)
    x = np.array([[2.0], [2.0], [2.0], [1.0]])
    pool.forward(one_graph(SparseAdj.from_edges(4, []), x))
    kept = kept_rows[-1]
    assert kept.tolist() == [0, 1]


def test_topk_zero_projection_guarded(kept_rows):
    pool = TopKPool(np.zeros(3), k=0.5)
    _, out, _ = pool.forward(one_graph(SparseAdj.from_edges(4, []), Rng(10).normal(4, 3, 1.0)))
    kept = kept_rows[-1]
    assert np.all(np.isfinite(out))
    assert kept.shape[0] == 2


def brute_force_topk(x, p, k):
    """Independent oracle: full sort of scores, induced subgraph by membership."""
    scores = x @ p / max(np.linalg.norm(p), 1e-12)
    order = sorted(range(x.shape[0]), key=lambda i: (-scores[i], i))
    m = max(1, math.ceil(k * x.shape[0] - 1e-9))
    return sorted(order[:m])


def test_topk_matches_brute_force_oracle(kept_rows):
    for trial in range(200):
        rng = Rng(2000 + trial)
        n = 1 + rng.integers(0, 10)
        f = 1 + rng.integers(0, 4)
        adj = random_adj(rng.derive(0), n, 0.45)
        x = rng.normal(n, f, 1.0)
        p = rng.normal(1, f, 1.0)[0]
        k = [0.0, 0.3, 0.5, 0.8, 0.95][trial % 5]
        pool = TopKPool(p, k=k)
        sub, out, _ = pool.forward(one_graph(adj, x))
        kept = kept_rows[-1]
        expect = brute_force_topk(x, p, k)
        assert kept.tolist() == expect
        assert kept.shape[0] == max(1, math.ceil(k * n - 1e-9))
        # induced subgraph: edge present iff both endpoints kept and edge in A
        kept_list = kept.tolist()
        expect_edges = {(kept_list.index(i), kept_list.index(j))
                        for i, j in edge_set(adj)
                        if i in expect and j in expect}
        assert edge_set(sub) == expect_edges


def test_topk_permutation_consistency(kept_rows):
    rng = Rng(11)
    for trial in range(20):
        n = 4 + rng.integers(0, 6)
        x = rng.normal(n, 3, 1.0)
        p = rng.normal(1, 3, 1.0)[0]
        adj = random_adj(rng.derive(trial), n, 0.4)
        pool = TopKPool(p, k=0.6)
        pool.forward(one_graph(adj, x))
        kept = kept_rows[-1]
        perm = Rng(50 + trial).permutation(n)
        px = np.empty_like(x)
        px[perm] = x
        edges = [(int(perm[i]), int(perm[j])) for i, j in edge_set(adj) if i < j]
        padj = SparseAdj.from_edges(n, edges)
        pool.forward(one_graph(padj, px))
        pkept = kept_rows[-1]
        # same original-node identities survive
        assert sorted(perm[kept].tolist()) == sorted(pkept.tolist())


def test_topk_backward_zero_grad():
    rng = Rng(12)
    pool = TopKPool(rng.normal(1, 3, 1.0)[0], k=0.5)
    pool.forward(one_graph(random_adj(rng, 6, 0.4), rng.normal(6, 3, 1.0)))
    grad_in, grads = pool.backward(np.zeros((3, 3)))
    assert not grad_in.any() and not grads["p"].any()


def test_topk_backward_before_forward():
    with pytest.raises(StateError):
        TopKPool(np.ones(2), k=0.5).backward(np.zeros((1, 2)))


@pytest.mark.parametrize("k,expect_drop", [(0.99, False), (0.5, True)])
def test_topk_backward_matches_finite_differences(k, expect_drop, kept_rows):
    worst = 0.0
    for trial in range(15):
        rng = Rng(3000 + trial)
        n = 6
        adj = random_adj(rng.derive(0), n, 0.4)
        x = rng.normal(n, 3, 1.0)
        pool = TopKPool(rng.normal(1, 3, 1.0)[0], k=k)
        pool.forward(one_graph(adj, x))
        kept = kept_rows[-1]
        dropped = sorted(set(range(n)) - set(kept.tolist()))
        assert bool(dropped) == expect_drop
        direction = rng.normal(kept.shape[0], 3, 1.0)

        def run():
            return float((pool.forward(one_graph(adj, x)).x * direction).sum())

        run()
        grad_in, grads = pool.backward(direction)
        assert not grad_in[dropped].any()
        params = {"p": (pool.p, grads["p"]), "x": (x, grad_in)}
        worst = max(worst, layer_fd_max_rel_err(params, run))
    assert worst < 1e-6


# --------------------------------------------------------------------------
# the stage contract shared by convolutions and pools

def make_stage(kind, rng):
    if kind == "gcn":
        return make_gcn(rng, 3, 4, activation="relu")
    return TopKPool(rng.normal(1, 3, 1.0)[0], k=0.5)


def test_pool_state_carries_each_graphs_kept_count(kept_rows):
    rng = Rng(16)
    sizes = np.array([5, 1, 8])
    adj = block_diag([random_adj(rng.derive(i), int(n), 0.4)
                                for i, n in enumerate(sizes)])
    out = TopKPool(rng.normal(1, 3, 1.0)[0], k=0.6).forward(
        State(adj, rng.normal(14, 3, 1.0), sizes))
    assert out.sizes.tolist() == keep_count(0.6, sizes).tolist() == [3, 1, 5]
    assert out.adj.n == out.x.shape[0] == kept_rows[-1].shape[0] == 9


@pytest.mark.parametrize("kind", ["gcn", "pool"])
def test_rescale_divides_every_later_output(kind):
    rng = Rng(17)
    layer = make_stage(kind, rng)
    state = one_graph(random_adj(rng, 6, 0.4), rng.normal(6, 3, 1.0))
    before = layer.forward(state).x
    layer.rescale(2.5)
    assert np.allclose(layer.forward(state).x, before / 2.5, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("kind", ["gcn", "pool"])
def test_backward_without_input_gradient_keeps_parameter_gradients(kind):
    rng = Rng(18)
    layer = make_stage(kind, rng)
    state = one_graph(random_adj(rng, 6, 0.4), rng.normal(6, 3, 1.0))
    grad = rng.normal(*layer.forward(state).x.shape, 1.0)
    grad_in, full = layer.backward(grad)
    layer.forward(state)
    none, grads = layer.backward(grad, input_grad=False)
    assert grad_in.shape == state.x.shape and none is None
    assert grads.keys() == full.keys()
    assert all(np.array_equal(grads[k], full[k]) for k in grads)


# --------------------------------------------------------------------------
# dense layer

def test_dense_identity():
    x = Rng(13).normal(2, 3, 1.0)
    layer = DenseLayer(np.eye(3), np.zeros(3), activation="none")
    assert np.array_equal(layer.forward(x), x)


def test_dense_relu_dead_unit():
    layer = DenseLayer(np.array([[1.0]]), np.array([-5.0]), activation="relu")
    out = layer.forward(np.array([[1.0]]))
    assert out[0, 0] == 0.0
    grad_x, grads = layer.backward(np.array([[1.0]]))
    assert grad_x[0, 0] == 0.0 and grads["W"][0, 0] == 0.0 and grads["b"][0] == 0.0


@pytest.mark.parametrize("cls", [DenseLayer, GcnLayer])
@pytest.mark.parametrize("w, b", [
    (np.ones((4, 3)), np.ones((1, 3))),  # 2-D bias: would broadcast, its gradient is 1-D
    (np.ones((4, 3)), np.ones(5)),       # a bias per output and two more
    (np.ones((4, 3)), np.float64(0.0)),  # a scalar bias
    (np.ones(3), np.ones(3)),            # 1-D weight
    (np.ones((2, 4, 3)), np.ones(3)),    # 3-D weight
], ids=["bias_2d", "bias_long", "bias_scalar", "weight_1d", "weight_3d"])
def test_dense_rejects_a_mis_shaped_weight_or_bias_at_construction(cls, w, b):
    with pytest.raises(ShapeError, match=cls.__name__):
        cls(w, b)


@pytest.mark.parametrize("p", [np.ones((1, 3)), np.ones((3, 1)), np.float64(1.0)],
                         ids=["row", "column", "scalar"])
def test_pool_rejects_a_projection_that_is_not_1d_at_construction(p):
    with pytest.raises(ShapeError, match="1-D"):
        TopKPool(p, k=0.5)


@pytest.mark.parametrize("activation", ["none", "relu"])
def test_dense_backward_matches_finite_differences(activation):
    worst = 0.0
    for trial in range(15):
        rng = Rng(4000 + trial)
        x = rng.normal(4, 4, 1.0)
        layer = DenseLayer(rng.normal(4, 3, 0.7), rng.uniform(1, 3, 0.5)[0],
                           activation=activation)
        direction = rng.normal(4, 3, 1.0)

        def run():
            return float((layer.forward(x) * direction).sum())

        run()
        grad_x, grads = layer.backward(direction)
        params = {"W": (layer.w, grads["W"]), "b": (layer.b, grads["b"]),
                  "x": (x, grad_x)}
        worst = max(worst, layer_fd_max_rel_err(params, run))
    assert worst < 1e-6


# --------------------------------------------------------------------------
# readouts

def test_readout_single_row():
    x = np.array([[1.0, -2.0, 3.0]])
    for kind in ("mean", "sum", "max"):
        assert np.array_equal(Readout(kind).forward(x, [x.shape[0]])[0], x[0])
    assert np.array_equal(Readout("max_and_sum").forward(x, [x.shape[0]])[0],
                          np.concatenate([x[0], x[0]]))


def test_readout_max_and_sum_hand_case():
    x = np.array([[1.0, 4.0], [3.0, 2.0]])
    assert np.array_equal(Readout("max_and_sum").forward(x, [x.shape[0]])[0],
                          [3.0, 4.0, 4.0, 6.0])


def test_readout_empty_matrix():
    with pytest.raises(DomainError):
        Readout("mean").forward(np.zeros((0, 3)), [0])


def test_readout_mean_backward_uniform():
    ro = Readout("mean")
    ro.forward(Rng(14).normal(5, 3, 1.0), [5])
    g = np.array([1.0, 2.0, 3.0])
    back = ro.backward(g[None])
    assert np.allclose(back, np.tile(g / 5.0, (5, 1)), atol=1e-15)


def test_readout_max_backward_ties_to_lowest_index():
    ro = Readout("max")
    x = np.array([[1.0, 5.0], [1.0, 2.0]])
    ro.forward(x, [x.shape[0]])
    back = ro.backward(np.array([[1.0, 1.0]]))
    assert np.array_equal(back, [[1.0, 1.0], [0.0, 0.0]])


@pytest.mark.parametrize("kind", ["mean", "sum", "max", "max_and_sum"])
def test_readout_backward_matches_finite_differences(kind):
    worst = 0.0
    for trial in range(15):
        rng = Rng(5000 + trial)
        x = rng.normal(5, 3, 1.0)
        ro = Readout(kind)
        direction = rng.normal(1, ro.width(3), 1.0)[0]

        def run():
            return float(ro.forward(x, [x.shape[0]])[0] @ direction)

        run()
        grad_x = ro.backward(direction[None])
        worst = max(worst, layer_fd_max_rel_err({"x": (x, grad_x)}, run))
    assert worst < 1e-6


def test_readout_permutation_invariance():
    rng = Rng(15)
    x = rng.normal(7, 4, 1.0)
    perm = rng.permutation(7)
    for kind in ("mean", "sum", "max", "max_and_sum"):
        sizes = [x.shape[0]]
        assert np.allclose(Readout(kind).forward(x, sizes)[0],
                           Readout(kind).forward(x[perm], sizes)[0], atol=1e-12)
