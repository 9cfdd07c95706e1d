import numpy as np
import pytest

from gnnlab import Rng, SparseAdj, _kernels
from gnnlab.errors import DomainError, ShapeError
from gnnlab.numcore import Moments

from conftest import edge_set, random_adj, to_dense


def test_matmul_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(a @ np.eye(2), a)
    assert np.array_equal(np.eye(2) @ np.array([[5.0], [7.0]]), [[5.0], [7.0]])


def test_matmul_hand_case():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[1.0], [1.0]])
    assert np.array_equal(a @ b, [[3.0], [7.0]])


def test_matmul_associativity():
    rng = Rng(3)
    a, b, c = (rng.normal(8, 8, 1.0) for _ in range(3))
    left = (a @ b) @ c
    right = a @ (b @ c)
    assert np.max(np.abs(left - right)) < 1e-9


def test_spmm_empty_adjacency_gives_zero():
    adj = SparseAdj.from_edges(4, [])
    x = Rng(0).normal(4, 3, 1.0)
    assert np.array_equal(_kernels.spmm(adj.indptr, adj.indices, adj.weights, x), np.zeros((4, 3)))


def test_spmm_identity_self_loops():
    adj = SparseAdj.from_edges(3, [(i, i) for i in range(3)])
    x = Rng(1).normal(3, 2, 1.0)
    assert np.allclose(_kernels.spmm(adj.indptr, adj.indices, adj.weights, x), x)


def test_spmm_path_graph():
    adj = SparseAdj.from_edges(3, [(0, 1), (1, 2)])
    x = np.array([[1.0], [2.0], [3.0]])
    assert np.array_equal(_kernels.spmm(adj.indptr, adj.indices, adj.weights, x), [[2.0], [4.0], [2.0]])


def test_spmm_matches_dense_matmul():
    rng = Rng(42)
    for trial in range(30):
        n = 1 + rng.integers(0, 16)
        adj = random_adj(rng.derive(trial), n, 0.4)
        x = rng.normal(n, 3, 1.0)
        dense = to_dense(adj) @ x
        assert np.max(np.abs(_kernels.spmm(adj.indptr, adj.indices, adj.weights, x) - dense)) < 1e-12


def _reference_from_edges(n, edges, weights=None):
    """The dict loop ``SparseAdj.from_edges`` replaced: the last occurrence
    of an entry sets its weight; entries come out sorted."""
    pairs = {}
    for k, (i, j) in enumerate(edges):
        w = 1.0 if weights is None else float(weights[k])
        pairs[(int(i), int(j))] = w
        pairs[(int(j), int(i))] = w
    indptr = np.zeros(n + 1, dtype=np.int64)
    for i, _ in pairs:
        indptr[i + 1] += 1
    keys = sorted(pairs)
    return (np.cumsum(indptr), np.array([j for _, j in keys], dtype=np.int64),
            np.array([pairs[k] for k in keys], dtype=np.float64))


def test_from_edges_matches_the_dict_loop():
    rng = Rng(17)
    for trial in range(60):
        n = 1 + rng.integers(0, 12)
        m = rng.integers(0, 30)
        edges = [(rng.integers(0, n), rng.integers(0, n)) for _ in range(m)]
        weights = rng.normal(1, m, 1.0)[0] if trial % 2 else None
        adj = SparseAdj.from_edges(n, np.array(edges, dtype=np.int64).reshape(-1, 2), weights)
        want = _reference_from_edges(n, edges, weights)
        for got, ref in zip((adj.indptr, adj.indices, adj.weights), want):
            assert np.array_equal(got, ref)


def test_from_edges_without_weights_equals_unit_weights():
    # the unweighted build skips the weight gathers; its CSR must be the one
    # a weight of 1.0 per pair gives, repeated pairs (both ways) included
    rng = Rng(19)
    for _ in range(40):
        n = 1 + rng.integers(0, 12)
        m = rng.integers(0, 30)
        pairs = np.array([(rng.integers(0, n), rng.integers(0, n)) for _ in range(m)],
                         dtype=np.int64).reshape(-1, 2)
        pairs = np.concatenate([pairs, pairs[: m // 2], pairs[m // 2:, ::-1]])
        got = SparseAdj.from_edges(n, pairs)
        want = SparseAdj.from_edges(n, pairs, np.ones(pairs.shape[0]))
        for attr in ("indptr", "indices", "weights"):
            a, b = getattr(got, attr), getattr(want, attr)
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_from_edges_accepts_a_set_and_keeps_the_last_weight():
    from_set = SparseAdj.from_edges(3, {(0, 1), (2, 1)})
    assert edge_set(from_set) == {(0, 1), (1, 0), (1, 2), (2, 1)}
    assert np.array_equal(from_set.indptr, [0, 1, 3, 4])
    # (1, 0) repeats (0, 1), so its weight wins both ways
    adj = SparseAdj.from_edges(2, [(0, 1), (1, 0)], weights=[2.0, 5.0])
    assert np.array_equal(to_dense(adj), [[0.0, 5.0], [5.0, 0.0]])
    again = SparseAdj.from_edges(2, iter([(0, 1), (1, 0), (0, 1)]), weights=[2.0, 5.0, 7.0])
    assert np.array_equal(to_dense(again), [[0.0, 7.0], [7.0, 0.0]])
    empty = SparseAdj.from_edges(2, [])
    assert empty.indices.size == 0 and np.array_equal(empty.indptr, [0, 0, 0])


def test_from_edges_over_stacked_graphs_is_the_block_diag_of_each_graphs_own():
    """``parse_tu`` builds one CSR over every graph's nodes, stacked, and cuts
    it into diagonal blocks: that must equal building each graph on its own,
    bit for bit, with the graphs' pairs interleaved as in a file and a
    repeated pair keeping its last weight within its graph."""
    rng = Rng(41)
    for trial in range(60):
        adjs, pairs, weights, offset = [], [], [], 0
        for _ in range(1 + rng.integers(0, 6)):
            n = 1 + rng.integers(0, 9)
            m = 0 if rng.integers(0, 4) == 0 else rng.integers(0, 2 * n)  # some edgeless
            p = np.array([(rng.integers(0, n), rng.integers(0, n)) for _ in range(m)],
                         dtype=np.int64).reshape(-1, 2)
            p = np.concatenate([p, p[: m // 2], p[m // 2:, ::-1]])  # repeats, both ways
            w = rng.uniform(1, p.shape[0], 4.0)[0]  # distinct, so the last one must win
            adjs.append(SparseAdj.from_edges(n, p, w))
            pairs.append(p + offset)
            weights.append(w)
            offset += n
        owner = np.repeat(np.arange(len(adjs)), [p.shape[0] for p in pairs])
        slots = np.argsort(owner[rng.permutation(owner.shape[0])], kind="stable")
        stacked = np.empty((owner.shape[0], 2), dtype=np.int64)
        stacked[slots] = np.concatenate(pairs)  # each graph's pairs keep their order
        stacked_weights = np.empty(owner.shape[0])
        stacked_weights[slots] = np.concatenate(weights)
        got = SparseAdj.from_edges(offset, stacked, stacked_weights)
        want = SparseAdj.block_diag(adjs)
        assert got.n == want.n
        for a, b in ((got.indptr, want.indptr), (got.indices, want.indices),
                     (got.weights, want.weights)):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_sparse_adj_rejects_bad_indices():
    for edges in ([(0, 5)], [(2, 0)], [(-1, 0)], [(0, 1), (1, -2)]):
        with pytest.raises(ShapeError):
            SparseAdj.from_edges(2, edges)


@pytest.mark.parametrize("weights", [[1.0, 2.0, 3.0], [1.0]], ids=["long", "short"])
def test_from_edges_rejects_a_weight_count_other_than_the_pair_count(weights):
    with pytest.raises(ShapeError, match="weights for 2 edges"):
        SparseAdj.from_edges(3, [(0, 1), (1, 2)], weights)


def _moments(*mats):
    mom = Moments()
    for x in mats:
        mom.add(x)
    return mom.mean(), mom.std()


def test_moments_constant():
    assert _moments(np.full((3, 3), 5.0)) == (5.0, 0.0)


def test_moments_hand_case():
    assert _moments(np.array([[1.0, -1.0], [1.0, -1.0]])) == (0.0, 1.0)
    # pooled over every entry of every matrix added
    assert _moments(np.array([[1.0, -1.0]]), np.array([[1.0], [-1.0]])) == (0.0, 1.0)


def test_moments_zeros():
    assert _moments(np.zeros((2, 2))) == (0.0, 0.0)


def test_moments_empty_matrix():
    with pytest.raises(DomainError):
        _moments(np.zeros((0, 2)))


def test_rng_zero_std_and_bound():
    rng = Rng(5)
    assert np.array_equal(rng.normal(3, 2, 0.0), np.zeros((3, 2)))
    assert np.array_equal(rng.uniform(3, 2, 0.0), np.zeros((3, 2)))


def test_rng_determinism():
    a = Rng(99).normal(16, 16, 1.0)
    b = Rng(99).normal(16, 16, 1.0)
    assert np.array_equal(a, b)
    u1 = Rng(99).uniform(16, 16, 2.0)
    u2 = Rng(99).uniform(16, 16, 2.0)
    assert np.array_equal(u1, u2)


def test_rng_normal_sample_std():
    samples = Rng(7).normal(1000, 100, 1.0)
    assert 0.99 <= samples.std() <= 1.01


def test_rng_uniform_bound_respected():
    samples = Rng(8).uniform(100, 100, 0.5)
    assert np.all(np.abs(samples) <= 0.5)
    # uniform(-b, b) has std b/sqrt(3)
    assert abs(samples.std() - 0.5 / np.sqrt(3)) < 0.01


def test_rng_derived_streams_differ():
    base = Rng(11)
    a = base.derive(0).normal(4, 4, 1.0)
    b = base.derive(1).normal(4, 4, 1.0)
    assert not np.array_equal(a, b)
    again = Rng(11).derive(0).normal(4, 4, 1.0)
    assert np.array_equal(a, again)


def test_seeded_pipeline_bit_identical():
    def pipeline(seed):
        rng = Rng(seed)
        adj = random_adj(rng.derive(0), 9, 0.3)
        x = rng.derive(1).normal(9, 4, 1.0)
        return _kernels.spmm(adj.indptr, adj.indices, adj.weights, x) @ rng.derive(2).normal(4, 4, 1.0)

    assert np.array_equal(pipeline(123), pipeline(123))
