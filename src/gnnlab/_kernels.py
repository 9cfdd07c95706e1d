"""Hot CSR kernels: sparse aggregation, GCN normalisation, induced subgraphs.

One numpy implementation of each. ``scipy.sparse`` is deliberately not used:
importing it alone raises a process's peak resident memory from about 27 MB
(numpy only) to about 49 MB, while these kernels need nothing beyond numpy.
Callers resolve the kernels through this module at call time
(``_kernels.spmm(...)``), so the names and signatures here are the interface.
"""

import numpy as np


def spmm(indptr, indices, data, x):
    """Row i of the result is the data-weighted sum of x rows listed in row i.

    Rows are visited in descending degree order and the CSR entries are laid
    out k-major (entry k of every row with more than k entries, rows in that
    order), so step k adds one contiguous block into a prefix of the output.
    Each row is still summed as ``0 + a0 + a1 + ...`` in CSR order, the order
    of ``np.add.at``, so the result is bit-identical to that formula.
    """
    n = indptr.shape[0] - 1
    nnz = indices.shape[0]
    out = np.zeros((n, x.shape[1]), dtype=np.float64)
    if nnz == 0:
        return out
    deg = np.diff(indptr)
    order = np.argsort(-deg, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(n)
    # count[k] rows have more than k entries; block k starts at start[k], and
    # entry k of the row ranked r goes to slot start[k] + r
    count = n - np.cumsum(np.bincount(deg))[:-1]
    start = np.cumsum(count) - count
    slot = start[np.arange(nnz) - np.repeat(indptr[:-1], deg)] + np.repeat(rank, deg)
    idx = np.empty_like(indices)
    idx[slot] = indices
    w = np.empty(nnz, dtype=np.float64)
    w[slot] = data
    prod = np.asarray(x, dtype=np.float64)[idx]
    prod *= w[:, None]
    for s, c in zip(start.tolist(), count.tolist()):
        out[:c] += prod[s:s + c]
    return out[rank]


def gcn_norm(indptr, indices, data, self_weight, symmetric):
    """CSR of the propagation operator built from adjacency plus weighted self-loops.

    Returns ``(indptr, indices, w, w_t)`` where ``w`` are the entries of the
    operator and ``w_t`` those of its transpose (identical when symmetric
    normalisation is used). The self-loop entry sits at the end of each row.
    """
    n = indptr.shape[0] - 1
    nnz = indices.shape[0]
    counts = np.diff(indptr)
    rows = np.repeat(np.arange(n), counts)
    # each row's degree is summed from its own entries alone, so a graph's
    # operator is the same bits on its own as inside a block-diagonal chunk
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
    if symmetric:
        inv = 1.0 / np.sqrt(dhat)
        w = new_vals * inv[new_rows] * inv[new_indices]
        return new_indptr, new_indices, w, w
    w = new_vals / dhat[new_rows]
    w_t = new_vals / dhat[new_indices]
    return new_indptr, new_indices, w, w_t


def induced_subgraph(indptr, indices, data, kept):
    """CSR of the subgraph on ``kept`` (ascending original node ids)."""
    n = indptr.shape[0] - 1
    m = kept.shape[0]
    lookup = np.full(n, -1, dtype=np.int64)
    lookup[kept] = np.arange(m)
    rows = np.repeat(np.arange(n), np.diff(indptr))
    mask = (lookup[rows] >= 0) & (lookup[indices] >= 0)
    new_rows = lookup[rows[mask]]
    new_cols = lookup[indices[mask]]
    new_data = data[mask]
    counts = np.bincount(new_rows, minlength=m)
    new_indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    return new_indptr, new_cols, new_data
