import numpy as np
import pytest

from gnnlab import Batch, GcnLayer, ModelSpec, Rng, SparseAdj, build
from gnnlab import _kernels
from gnnlab.layers import relu
from gnnlab.training import cross_entropy

from conftest import block_diag, one_graph, random_adj, random_graph, share_table, to_dense


def spmm_add_at(indptr, indices, data, x):
    """Reference: the np.add.at formula the kernel must reproduce bit for bit."""
    n = indptr.shape[0] - 1
    out = np.zeros((n, x.shape[1]), dtype=np.float64)
    rows = np.repeat(np.arange(n), np.diff(indptr))
    np.add.at(out, rows, data[:, None] * x[indices])
    return out


def spmm_csr(indptr, indices, data, x):
    """``spmm`` on a layout of its own."""
    return _kernels.spmm(_kernels.spmm_layout(indptr), indices, data, x)


def gcn_norm_csr(indptr, indices):
    """Oracle: the operator as its own CSR, the adjacency's entries (each 1)
    with a self-loop entry of 2 appended to each row; returns (indptr,
    indices, w)."""
    n = indptr.shape[0] - 1
    nnz = indices.shape[0]
    data, self_weight = np.ones(nnz), 2.0
    counts = np.diff(indptr)
    rows = np.repeat(np.arange(n), counts)
    dhat = np.bincount(rows, weights=data, minlength=n) + self_weight
    new_indptr = (indptr + np.arange(n + 1)).astype(np.int64)
    new_indices = np.empty(nnz + n, dtype=np.int64)
    new_vals = np.empty(nnz + n, dtype=np.float64)
    shifted = np.arange(nnz) + rows
    new_indices[shifted] = indices
    new_vals[shifted] = data
    self_pos = new_indptr[1:] - 1
    new_indices[self_pos] = np.arange(n)
    new_vals[self_pos] = self_weight
    new_rows = np.repeat(np.arange(n), counts + 1)
    inv = 1.0 / np.sqrt(dhat)
    return new_indptr, new_indices, new_vals * inv[new_rows] * inv[new_indices]


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
    """Random graphs (sparse enough to leave isolated nodes), one whose first,
    middle and last rows are empty, a star, no edges."""
    adjs = [random_adj(Rng(seed), n, p)
            for seed, (n, p) in enumerate([(30, 0.05), (50, 0.2), (12, 0.5), (80, 0.03)])]
    return adjs + [SparseAdj.from_edges(7, [(1, 2), (2, 4), (4, 5)]), star(40),
                   SparseAdj.from_edges(6, [])]


def operators(adj):
    """The raw adjacency, ``gcn_norm``'s weights on it (empty rows stay empty)
    and the oracle operator CSR, each with its dense form."""
    w, _ = _kernels.gcn_norm(adj.indptr, adj.indices)
    indptr, indices, w_csr = gcn_norm_csr(adj.indptr, adj.indices)
    return [((adj.indptr, adj.indices, np.ones(adj.indices.shape[0])), to_dense(adj)),
            ((adj.indptr, adj.indices, w), csr_dense(adj.indptr, adj.indices, w)),
            ((indptr, indices, w_csr), csr_dense(indptr, indices, w_csr))]


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("f", [1, 3, 128])
def test_spmm_bit_equal_to_add_at_and_close_to_dense(f):
    for k, adj in enumerate(adjacencies()):
        for csr, dense in operators(adj):
            layout = _kernels.spmm_layout(csr[0])
            for x in (Rng(k).normal(adj.n, f, 1.0), Rng(100 + k).normal(adj.n, f, 1.0)):
                # a layout serves every spmm over its indptr
                got = _kernels.spmm(layout, *csr[1:], x)
                assert got.shape == (adj.n, f)
                assert np.array_equal(bits(got), bits(spmm_add_at(*csr, x)))
                assert np.allclose(got, dense @ x, rtol=1e-12, atol=1e-12)


def test_empty_rows_handled():
    # empty rows (and every row of an edgeless CSR) must stay zero: reduction
    # helpers must not smear entries into them
    x = np.array([[1.0], [2.0], [3.0], [4.0], [5.0]])
    for indptr, indices, want in [([0, 1, 2, 2], [1, 0], [2.0, 1.0, 0.0]),
                                  ([0, 0, 2, 2, 3, 3], [0, 3, 1], [0.0, 5.0, 0.0, 2.0, 0.0]),
                                  ([0, 0, 0, 0, 0], [], [0.0] * 4)]:
        indices = np.array(indices, dtype=np.int64)
        out = spmm_csr(np.array(indptr, dtype=np.int64), indices,
                       np.ones(indices.shape[0]), x[:len(want)])
        assert np.array_equal(out, np.array(want)[:, None])


def counting(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that counts its calls into the list returned."""
    calls, real = [0], getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


def test_one_layout_per_convolution_and_none_in_backward(monkeypatch):
    layouts = counting(monkeypatch, _kernels, "spmm_layout")
    spmms = counting(monkeypatch, _kernels, "spmm")
    layer = GcnLayer(Rng(1).normal(4, 3, 0.7), np.zeros(3))
    adj = random_adj(Rng(2), 20, 0.2)
    layer.forward(one_graph(adj, Rng(3).normal(20, 4, 1.0)))
    assert layouts == [1] and spmms == [1]
    layer.backward(Rng(4).normal(20, 3, 1.0))
    assert layouts == [1] and spmms == [2]

    convolutions = counting(monkeypatch, GcnLayer, "forward")
    model = build(ModelSpec(kind="jk_sum", hidden_dim=6, mlp_dims=(5, 4)), 3, 2, Rng(5))
    batch = Batch.of(share_table([random_graph(Rng(6 + k), 8 + k, 3, label=k % 2)
                                  for k in range(3)]))
    layouts[0] = spmms[0] = 0
    _, grad = cross_entropy(model.forward(batch), batch.labels)
    assert convolutions == [len(model.blocks)] and layouts == convolutions == spmms
    model.backward(grad)
    # the first convolution computes no input gradient
    assert layouts == convolutions and spmms == [2 * convolutions[0] - 1]


def test_gcn_norm_matches_dense_normalisation():
    for adj in adjacencies():
        w, diag = _kernels.gcn_norm(adj.indptr, adj.indices)
        a_hat = to_dense(adj) + 2.0 * np.eye(adj.n)
        d_hat = a_hat.sum(axis=1)
        want = a_hat / np.sqrt(np.outer(d_hat, d_hat))
        assert np.allclose(csr_dense(adj.indptr, adj.indices, w) + np.diag(diag), want,
                           rtol=1e-12, atol=1e-12)


def test_gcn_norm_of_a_chunk_cut_at_graph_boundaries_is_each_graphs_own():
    # bit for bit: a graph's operator must not depend on where it sits in a chunk
    for seed in range(40):
        rng = Rng(seed)
        adjs = []
        for _ in range(3):
            n = 1 + rng.integers(0, 25)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.integers(0, 10) < 3]
            adjs.append(SparseAdj.from_edges(n, edges))
        chunk = block_diag(adjs)
        w, diag = _kernels.gcn_norm(chunk.indptr, chunk.indices)
        node = 0
        for adj in adjs:
            own = _kernels.gcn_norm(adj.indptr, adj.indices)
            lo, hi = chunk.indptr[node], chunk.indptr[node + adj.n]
            assert np.array_equal(bits(w[lo:hi]), bits(own[0]))
            assert np.array_equal(bits(diag[node:node + adj.n]), bits(own[1]))
            node += adj.n


def equivalence_adjacencies():
    """Random graphs (some with isolated nodes), a star, an edgeless graph and
    one with stored (i, i) entries."""
    return adjacencies() + [SparseAdj.from_edges(5, [(0, 1), (2, 2), (1, 3), (4, 4)])]


def test_gcn_norm_operator_is_its_own_transpose_bit_for_bit():
    # a convolution's backward propagates through the forward's operator
    for adj in equivalence_adjacencies():
        w, diag = _kernels.gcn_norm(adj.indptr, adj.indices)
        op = csr_dense(adj.indptr, adj.indices, w) + np.diag(diag)
        assert np.array_equal(bits(op), bits(op.T))


def test_gcn_layer_bit_equal_to_spmm_over_the_oracle_operator_csr():
    for k, adj in enumerate(equivalence_adjacencies()):
        rng = Rng(100 + k)
        layer = GcnLayer(rng.normal(4, 3, 0.7), rng.normal(1, 3, 0.3)[0])
        x = rng.normal(adj.n, 4, 1.0)
        grad_out = rng.normal(adj.n, 3, 1.0)
        oracle = gcn_norm_csr(adj.indptr, adj.indices)
        pre = spmm_csr(*oracle, x) @ layer.w
        pre += layer.b
        grad_x = spmm_csr(*oracle, (grad_out * (pre > 0)) @ layer.w.T)
        assert np.array_equal(bits(layer.forward(one_graph(adj, x)).x), bits(relu(pre)))
        got, _ = layer.backward(grad_out)
        assert np.array_equal(bits(got), bits(grad_x))


def test_induced_subgraph_matches_dense_submatrix():
    for k, adj in enumerate(adjacencies()):
        kept = np.sort(Rng(k).permutation(adj.n)[: adj.n // 2 + 1]).astype(np.int64)
        indptr, indices = _kernels.induced_subgraph(adj.indptr, adj.indices, kept)
        assert indptr.shape == (kept.shape[0] + 1,) and indptr[-1] == indices.shape[0]
        want = to_dense(adj)[np.ix_(kept, kept)]
        assert np.array_equal(csr_dense(indptr, indices, np.ones(indices.shape[0])), want)
