"""Hot CSR kernels: sparse aggregation, GCN normalisation, induced subgraphs.

One numpy implementation of each. ``scipy.sparse`` is deliberately not used:
importing it alone raises a process's peak resident memory from about 27 MB
(numpy only) to about 49 MB, while these kernels need nothing beyond numpy.
Callers resolve the kernels here at call time (``_kernels.spmm(...)``), so
the names, signatures and ``gcn_norm``'s ``(w, diag)`` are the interface;
one ``spmm_layout(indptr)`` serves every ``spmm`` over that ``indptr``.
"""

import numpy as np

SELF_LOOP_WEIGHT = 2.0  # improved-GCN self-loop weight


def spmm_layout(indptr):
    """``(slot, rank, blocks)``: row i is ``rank[i]``-th by descending degree,
    CSR entry e moves to ``slot[e]``, and block k, ``(start, count)``, holds
    entry k of every row with more than k entries, rows in that order."""
    n = indptr.shape[0] - 1
    deg = np.diff(indptr)
    order = np.argsort(-deg, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(n)
    # count[k] rows have more than k entries; block k starts at start[k], and
    # entry k of the row ranked r goes to slot start[k] + r
    count = n - np.cumsum(np.bincount(deg))[:-1]
    start = np.cumsum(count) - count
    slot = start[np.arange(indptr[-1]) - np.repeat(indptr[:-1], deg)] + np.repeat(rank, deg)
    return slot, rank, list(zip(start.tolist(), count.tolist()))


def spmm(layout, indices, data, x):
    """Row i of the result is the data-weighted sum of x rows listed in row i.

    Block k of ``layout`` adds into a prefix of the output, yet each row is
    still summed as ``0 + a0 + a1 + ...`` in CSR order, the order of
    ``np.add.at``, so the result is bit-identical to that formula.
    """
    slot, rank, blocks = layout
    out = np.zeros((rank.shape[0], x.shape[1]), dtype=np.float64)
    idx = np.empty_like(indices)
    idx[slot] = indices
    w = np.empty(slot.shape[0], dtype=np.float64)
    w[slot] = data
    prod = np.asarray(x, dtype=np.float64)[idx]
    prod *= w[:, None]
    for s, c in blocks:
        out[:c] += prod[s:s + c]
    return out[rank]


def gcn_norm(indptr, indices):
    """Propagation operator D^-1/2 (A + ``SELF_LOOP_WEIGHT`` I) D^-1/2 of the
    adjacency A, D holding the row sums of A + ``SELF_LOOP_WEIGHT`` I; the
    operator is its own transpose.

    Returns ``(w, diag)``: the operator's entries at the adjacency's own CSR
    positions, and each row's self-loop entry, which a caller adds after
    ``spmm`` so that it comes last in each row's sum.
    """
    deg = np.diff(indptr)
    rows = np.repeat(np.arange(deg.shape[0]), deg)
    # row-local degrees: a graph's operator is the same bits alone as in a chunk
    inv = 1.0 / np.sqrt(deg + SELF_LOOP_WEIGHT)
    return inv[rows] * inv[indices], SELF_LOOP_WEIGHT * inv * inv


def induced_subgraph(indptr, indices, kept):
    """CSR ``(indptr, indices)`` of the subgraph on ``kept`` (ascending node ids)."""
    n = indptr.shape[0] - 1
    m = kept.shape[0]
    lookup = np.full(n, -1, dtype=np.int64)
    lookup[kept] = np.arange(m)
    rows = np.repeat(np.arange(n), np.diff(indptr))
    mask = (lookup[rows] >= 0) & (lookup[indices] >= 0)
    counts = np.bincount(lookup[rows[mask]], minlength=m)
    return np.concatenate(([0], np.cumsum(counts))).astype(np.int64), lookup[indices[mask]]
