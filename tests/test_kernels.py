import numpy as np
import pytest

from gnnlab import Rng, SparseAdj
from gnnlab import _kernels

from conftest import random_adj, to_dense


def spmm_add_at(indptr, indices, data, x):
    """Reference: the np.add.at formula the kernel must reproduce bit for bit."""
    n = indptr.shape[0] - 1
    out = np.zeros((n, x.shape[1]), dtype=np.float64)
    rows = np.repeat(np.arange(n), np.diff(indptr))
    np.add.at(out, rows, data[:, None] * x[indices])
    return out


def csr_dense(indptr, indices, vals):
    n = indptr.shape[0] - 1
    out = np.zeros((n, n))
    for i in range(n):
        for e in range(indptr[i], indptr[i + 1]):
            out[i, indices[e]] = vals[e]
    return out


def star(n):
    return SparseAdj.from_edges(n, [(0, j) for j in range(1, n)])


def adjacencies():
    """Random graphs (sparse enough to leave isolated nodes), a star, no edges."""
    adjs = [random_adj(Rng(seed), n, p)
            for seed, (n, p) in enumerate([(30, 0.05), (50, 0.2), (12, 0.5), (80, 0.03)])]
    return adjs + [star(40), SparseAdj.from_edges(6, [])]


def operators(adj):
    """The raw adjacency plus w and w_t of both normalisations, each with its dense form."""
    ops = [((adj.indptr, adj.indices, adj.weights), to_dense(adj))]
    for symmetric in (True, False):
        indptr, indices, w, w_t = _kernels.gcn_norm(adj.indptr, adj.indices,
                                                    adj.weights, 2.0, symmetric)
        dense = csr_dense(indptr, indices, w)
        ops += [((indptr, indices, w), dense), ((indptr, indices, w_t), dense.T)]
    return ops


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("f", [1, 3, 128])
def test_spmm_bit_equal_to_add_at_and_close_to_dense(f):
    for k, adj in enumerate(adjacencies()):
        x = Rng(k).normal(adj.n, f, 1.0)
        for csr, dense in operators(adj):
            got = _kernels.spmm(*csr, x)
            assert got.shape == (adj.n, f)
            assert np.array_equal(bits(got), bits(spmm_add_at(*csr, x)))
            assert np.allclose(got, dense @ x, rtol=1e-12, atol=1e-12)


def test_empty_rows_handled():
    # node 2 has no neighbors; reduction helpers must not smear entries into it
    indptr = np.array([0, 1, 2, 2], dtype=np.int64)
    indices = np.array([1, 0], dtype=np.int64)
    data = np.array([1.0, 1.0])
    x = np.array([[1.0], [2.0], [3.0]])
    out = _kernels.spmm(indptr, indices, data, x)
    assert np.array_equal(out, [[2.0], [1.0], [0.0]])


@pytest.mark.parametrize("symmetric", [True, False])
def test_gcn_norm_matches_dense_normalisation(symmetric):
    for adj in adjacencies():
        indptr, indices, w, w_t = _kernels.gcn_norm(adj.indptr, adj.indices,
                                                    adj.weights, 2.0, symmetric)
        a_hat = to_dense(adj) + 2.0 * np.eye(adj.n)
        d_hat = a_hat.sum(axis=1)
        if symmetric:
            want = a_hat / np.sqrt(np.outer(d_hat, d_hat))
        else:
            want = a_hat / d_hat[:, None]
        assert np.allclose(csr_dense(indptr, indices, w), want, rtol=1e-12, atol=1e-12)
        assert np.allclose(csr_dense(indptr, indices, w_t), want.T, rtol=1e-12, atol=1e-12)
        # the self-loop entry closes every row
        assert np.array_equal(indices[indptr[1:] - 1], np.arange(adj.n))


@pytest.mark.parametrize("unit", [True, False], ids=["unit", "weighted"])
@pytest.mark.parametrize("symmetric", [True, False], ids=["sym", "row"])
def test_gcn_norm_of_a_chunk_cut_at_graph_boundaries_is_each_graphs_own(unit, symmetric):
    # bit for bit: a graph's operator must not depend on where it sits in a chunk
    for seed in range(40):
        rng = Rng(seed)
        adjs = []
        for _ in range(3):
            n = 1 + rng.integers(0, 25)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.integers(0, 10) < 3]
            weights = None if unit else rng.uniform(1, len(edges), 1.0)[0] + 1.1
            adjs.append(SparseAdj.from_edges(n, edges, weights))
        chunk = SparseAdj.block_diag(adjs)
        indptr, indices, w, w_t = _kernels.gcn_norm(chunk.indptr, chunk.indices,
                                                    chunk.weights, 2.0, symmetric)
        node = 0
        for adj in adjs:
            own = _kernels.gcn_norm(adj.indptr, adj.indices, adj.weights, 2.0, symmetric)
            lo, hi = indptr[node], indptr[node + adj.n]
            assert np.array_equal(indptr[node:node + adj.n + 1] - lo, own[0])
            assert np.array_equal(indices[lo:hi] - node, own[1])
            assert np.array_equal(bits(w[lo:hi]), bits(own[2]))
            assert np.array_equal(bits(w_t[lo:hi]), bits(own[3]))
            node += adj.n


def test_induced_subgraph_matches_dense_submatrix():
    for k, adj in enumerate(adjacencies()):
        kept = np.sort(Rng(k).permutation(adj.n)[: adj.n // 2 + 1]).astype(np.int64)
        indptr, indices, data = _kernels.induced_subgraph(adj.indptr, adj.indices,
                                                          adj.weights, kept)
        assert indptr.shape == (kept.shape[0] + 1,) and indptr[-1] == indices.shape[0]
        want = to_dense(adj)[np.ix_(kept, kept)]
        assert np.array_equal(csr_dense(indptr, indices, data), want)
