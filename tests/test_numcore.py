import numpy as np
import pytest

from gnnlab import Rng, SparseAdj, _kernels
from gnnlab.errors import DomainError, ShapeError
from gnnlab.numcore import Moments

from conftest import block_diag, edge_set, random_adj, to_dense


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


def unit_spmm(adj, x):
    """The adjacency itself (every entry 1) times ``x``."""
    return _kernels.spmm(_kernels.spmm_layout(adj.indptr), adj.indices,
                         np.ones(adj.indices.shape[0]), x)


def test_spmm_empty_adjacency_gives_zero():
    adj = SparseAdj.from_edges(4, [])
    x = Rng(0).normal(4, 3, 1.0)
    assert np.array_equal(unit_spmm(adj, x), np.zeros((4, 3)))


def test_spmm_identity_self_loops():
    adj = SparseAdj.from_edges(3, [(i, i) for i in range(3)])
    x = Rng(1).normal(3, 2, 1.0)
    assert np.allclose(unit_spmm(adj, x), x)


def test_spmm_path_graph():
    adj = SparseAdj.from_edges(3, [(0, 1), (1, 2)])
    x = np.array([[1.0], [2.0], [3.0]])
    assert np.array_equal(unit_spmm(adj, x), [[2.0], [4.0], [2.0]])


def test_spmm_matches_dense_matmul():
    rng = Rng(42)
    for trial in range(30):
        n = 1 + rng.integers(0, 16)
        adj = random_adj(rng.derive(trial), n, 0.4)
        x = rng.normal(n, 3, 1.0)
        dense = to_dense(adj) @ x
        assert np.max(np.abs(unit_spmm(adj, x) - dense)) < 1e-12


def _reference_from_edges(n, edges):
    """The dict loop ``SparseAdj.from_edges`` replaced: each entry once, both
    directions of every pair, entries sorted."""
    pairs = set()
    for i, j in edges:
        pairs |= {(int(i), int(j)), (int(j), int(i))}
    indptr = np.zeros(n + 1, dtype=np.int64)
    for i, _ in pairs:
        indptr[i + 1] += 1
    return np.cumsum(indptr), np.array([j for _, j in sorted(pairs)], dtype=np.int64)


def _assert_csr_equal(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_from_edges_matches_the_dict_loop():
    rng = Rng(17)
    for _ in range(60):
        n = 1 + rng.integers(0, 12)
        m = rng.integers(0, 30)
        edges = [(rng.integers(0, n), rng.integers(0, n)) for _ in range(m)]
        adj = SparseAdj.from_edges(n, np.array(edges, dtype=np.int64).reshape(-1, 2))
        _assert_csr_equal((adj.indptr, adj.indices), _reference_from_edges(n, edges))


def test_from_edges_stores_each_direction_once():
    # a repeated pair, a pair given both ways and a self-loop given twice
    edges = [(0, 1), (2, 3), (0, 1), (3, 2), (1, 1), (1, 1)]
    for given in (edges, set(edges), iter(edges), np.array(edges)):
        adj = SparseAdj.from_edges(4, given)
        _assert_csr_equal((adj.indptr, adj.indices), _reference_from_edges(4, edges))
        assert edge_set(adj) == {(0, 1), (1, 0), (1, 1), (2, 3), (3, 2)}
        assert np.array_equal(adj.indptr, [0, 1, 3, 4, 5])
    empty = SparseAdj.from_edges(2, [])
    assert empty.indices.size == 0 and np.array_equal(empty.indptr, [0, 0, 0])


def test_sparse_adj_is_an_unweighted_pattern():
    adj = SparseAdj.from_edges(3, [(0, 1), (1, 2)])
    assert SparseAdj.__slots__ == ("n", "indptr", "indices")
    assert np.array_equal(adj.weights, np.ones(4)) and adj.weights.dtype == np.float64
    with pytest.raises(AttributeError):
        adj.weights = np.zeros(4)


def test_from_edges_over_stacked_graphs_is_the_block_diag_of_each_graphs_own():
    """``parse_tu`` builds one CSR over every graph's nodes, stacked, whose
    diagonal blocks batches gather: that must equal building each graph on
    its own, bit for bit, with the graphs' pairs interleaved as in a file,
    repeated and given both ways."""
    rng = Rng(41)
    for _ in range(60):
        adjs, pairs, offset = [], [], 0
        for _ in range(1 + rng.integers(0, 6)):
            n = 1 + rng.integers(0, 9)
            m = 0 if rng.integers(0, 4) == 0 else rng.integers(0, 2 * n)  # some edgeless
            p = np.array([(rng.integers(0, n), rng.integers(0, n)) for _ in range(m)],
                         dtype=np.int64).reshape(-1, 2)
            p = np.concatenate([p, p[: m // 2], p[m // 2:, ::-1]])  # repeats, both ways
            adjs.append(SparseAdj.from_edges(n, p))
            pairs.append(p + offset)
            offset += n
        stacked = np.concatenate(pairs)[rng.permutation(sum(p.shape[0] for p in pairs))]
        got = SparseAdj.from_edges(offset, stacked)
        want = block_diag(adjs)
        assert got.n == want.n
        _assert_csr_equal((got.indptr, got.indices), (want.indptr, want.indices))


def test_sparse_adj_rejects_bad_indices():
    for edges in ([(0, 5)], [(2, 0)], [(-1, 0)], [(0, 1), (1, -2)]):
        with pytest.raises(ShapeError):
            SparseAdj.from_edges(2, edges)


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
    # +0.0 everywhere: array_equal alone would pass -0.0 (a negative scale
    # raises, see test_errors.py)
    rng = Rng(5)
    for zeros in (rng.normal(3, 2, 0.0), rng.uniform(3, 2, 0.0)):
        assert np.array_equal(zeros, np.zeros((3, 2))) and not np.signbit(zeros).any()


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
        return unit_spmm(adj, x) @ rng.derive(2).normal(4, 4, 1.0)

    assert np.array_equal(pipeline(123), pipeline(123))
