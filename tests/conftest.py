"""Shared fixtures and oracles for the suite."""

import os
import sys
from pathlib import Path

import pytest

# One BLAS thread, as ``gnnlab train`` runs, unless the environment sets more.
# BLAS reads these when numpy loads, and numpy loads just below, before
# importing gnnlab could set them; a pytest plugin that loaded numpy earlier
# would void the pin.
BLAS_PINNED_BEFORE_NUMPY = "numpy" not in sys.modules
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from gnnlab import Dataset, Rng, SparseAdj  # noqa: E402
from gnnlab.graphdata import State, fetch_tu, is_cached, parse_tu  # noqa: E402


# --------------------------------------------------------------------------
# adjacency oracles

def to_dense(adj: SparseAdj) -> np.ndarray:
    out = np.zeros((adj.n, adj.n), dtype=np.float64)
    for i in range(adj.n):
        for e in range(adj.indptr[i], adj.indptr[i + 1]):
            out[i, adj.indices[e]] = 1.0
    return out


def edge_set(adj: SparseAdj) -> set:
    """Set of (i, j) stored entries."""
    return {(i, int(adj.indices[e]))
            for i in range(adj.n) for e in range(adj.indptr[i], adj.indptr[i + 1])}


def block_diag(adjs) -> SparseAdj:
    """Disjoint union: ``adjs`` as diagonal blocks, nodes numbered in order."""
    sizes = np.array([a.n for a in adjs], dtype=np.int64)
    nnz = np.array([a.indices.shape[0] for a in adjs], dtype=np.int64)
    node_off = np.cumsum(sizes) - sizes
    entry_off = np.cumsum(nnz) - nnz
    indptr = np.concatenate([[0]] + [a.indptr[1:] + e for a, e in zip(adjs, entry_off)])
    indices = np.concatenate([a.indices + o for a, o in zip(adjs, node_off)])
    return SparseAdj(int(sizes.sum()), indptr, indices)


# --------------------------------------------------------------------------
# stage states

def one_graph(adj: SparseAdj, x: np.ndarray) -> State:
    """The state of a one-graph stack with adjacency ``adj`` and node rows ``x``."""
    return State(adj, x, np.array([x.shape[0]]))


@pytest.fixture
def kept_rows(monkeypatch):
    """The row ids each top-k pool keeps (ascending), one array per pool
    forward in call order, recorded where the pool hands them to
    ``SparseAdj.induced``."""
    log = []
    induced = SparseAdj.induced

    def spy(self, kept):
        log.append(kept)
        return induced(self, kept)

    monkeypatch.setattr(SparseAdj, "induced", spy)
    return log


# --------------------------------------------------------------------------
# random instances

def random_adj(rng: Rng, n: int, edge_prob: float = 0.35) -> SparseAdj:
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.integers(0, 1000) < edge_prob * 1000:
                edges.add((i, j))
    return SparseAdj.from_edges(n, edges)


def stack(parts, table: np.ndarray, name: str = "STACK", num_classes: int | None = None,
          feature_policy: str = "attributes") -> Dataset:
    """The dataset of ``parts``, (adjacency, row ids into ``table``, label)
    triples, stacked in order; by default its classes are 0 up to the
    largest label."""
    adjs, rows, labels = zip(*parts)
    labels = np.array(labels, dtype=np.int64)
    return Dataset(name=name, adj=block_diag(adjs), table=table,
                   rows=np.concatenate(rows).astype(np.int64), labels=labels,
                   sizes=np.array([a.n for a in adjs], dtype=np.int64),
                   num_classes=num_classes or int(labels.max()) + 1,
                   feature_policy=feature_policy)


def dense_graph(adj: SparseAdj, features: np.ndarray, label: int = 0):
    """A one-graph batch whose row table is its own dense feature matrix."""
    return stack([(adj, np.arange(adj.n), label)], features).graphs[0]


def share_table(graphs) -> list:
    """``graphs`` restacked into one dataset whose row table stacks their
    feature matrices, as a batch of them needs; its one-graph batches."""
    graphs = list(graphs)
    ends = np.cumsum([g.adj.n for g in graphs]).tolist()
    return list(stack([(g.adj, np.arange(end - g.adj.n, end), g.label)
                       for g, end in zip(graphs, ends)],
                      np.concatenate([g.features for g in graphs])).graphs)


def random_graph(rng: Rng, n: int, f: int, label: int = 0, edge_prob: float = 0.35):
    return dense_graph(random_adj(rng, n, edge_prob), rng.normal(n, f, 1.0), label)


def permute_graph(g, perm: np.ndarray):
    """Relabel nodes: node i becomes perm[i]."""
    edges = [(int(perm[i]), int(perm[j])) for (i, j) in edge_set(g.adj) if i < j]
    adj = SparseAdj.from_edges(g.adj.n, edges)
    feats = np.empty_like(g.features)
    feats[perm] = g.features
    return dense_graph(adj, feats, g.label)


def randomize_params(model, rng: Rng, bound: float = 0.7) -> None:
    """Fill every parameter (biases included) with uniform draws.

    Gradient checks need instances away from ReLU kinks and top-k ties;
    zero biases put deep probes exactly on the kink, so the checks
    randomise everything.
    """
    for p in model.params.values():
        p[...] = rng.uniform(1, p.size, bound)[0].reshape(p.shape)


# --------------------------------------------------------------------------
# synthetic corpora

def synth_dataset(num_graphs: int, seed: int, feat_dim: int = 3,
                  num_classes: int = 2, n_lo: int = 10, n_hi: int = 20,
                  edge_prob: float = 0.2, signal: float = 0.6,
                  name: str = "SYNTH") -> Dataset:
    """Graphs with class-dependent node-label one-hots (label_onehot style).

    ``signal`` in [0, 1] is how strongly node labels lean toward the graph
    class; 0 gives an unlearnable corpus, 1 a trivially separable one.
    """
    rng = Rng(seed)
    parts = []
    for gi in range(num_graphs):
        label = gi % num_classes
        n = n_lo + rng.integers(0, n_hi - n_lo + 1)
        rows = np.array([label % feat_dim if rng.integers(0, 1000) < signal * 1000
                         else rng.integers(0, feat_dim) for _ in range(n)], dtype=np.int64)
        parts.append((random_adj(rng, n, edge_prob), rows, label))
    return stack(parts, np.eye(feat_dim), name=name, num_classes=num_classes,
                 feature_policy="label_onehot")


def constant_feature_dataset(num_graphs: int, majority: float = 0.6,
                             seed: int = 0) -> Dataset:
    """Every graph looks identical; only the label distribution carries signal."""
    rng = Rng(seed)
    cut = int(round(num_graphs * majority))
    return stack([(random_adj(rng, 4, 0.5), np.zeros(4, dtype=np.int64), 0 if gi < cut else 1)
                  for gi in range(num_graphs)], np.ones((1, 1)), name="CONST", num_classes=2)


def write_tu_files(directory: Path, name: str, graphs_edges, labels,
                   node_labels=None, node_attributes=None) -> Path:
    """Write raw TU text files from explicit per-graph edge lists (1-indexed)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    a_lines, ind_lines = [], []
    offset = 0
    for gi, (n, edges) in enumerate(graphs_edges, start=1):
        for _ in range(n):
            ind_lines.append(str(gi))
        for (i, j) in edges:
            a_lines.append(f"{offset + i}, {offset + j}")
            a_lines.append(f"{offset + j}, {offset + i}")
        offset += n
    (directory / f"{name}_A.txt").write_text("\n".join(a_lines) + "\n")
    (directory / f"{name}_graph_indicator.txt").write_text("\n".join(ind_lines) + "\n")
    (directory / f"{name}_graph_labels.txt").write_text(
        "\n".join(str(v) for v in labels) + "\n")
    if node_labels is not None:
        (directory / f"{name}_node_labels.txt").write_text(
            "\n".join(str(v) for v in node_labels) + "\n")
    if node_attributes is not None:
        (directory / f"{name}_node_attributes.txt").write_text(
            "\n".join(", ".join(str(x) for x in row) for row in node_attributes) + "\n")
    return directory


# --------------------------------------------------------------------------
# finite differences

def fd_max_rel_err(model, batch, direction, h: float = 1e-6, skip=frozenset()) -> float:
    """Max guarded relative error between analytic and central-difference
    gradients of sum(scores * direction) over all (non-skipped) parameters;
    ``direction`` has one row per graph of ``batch``."""
    direction = np.asarray(direction, dtype=np.float64)

    def scalar():
        return float((model.forward(batch) * direction).sum())

    scalar()
    model.grad.fill(0.0)
    analytic = model.backward(direction)
    worst = 0.0
    for name, p in model.params.items():
        if name in skip:
            continue
        flat = p.reshape(-1)
        a = analytic[name].reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            fp = scalar()
            flat[idx] = orig - h
            fm = scalar()
            flat[idx] = orig
            fd = (fp - fm) / (2.0 * h)
            worst = max(worst, abs(a[idx] - fd) / max(1.0, abs(fd)))
    return worst


def layer_fd_max_rel_err(params, run, h: float = 1e-6) -> float:
    """Same guarded error for a bare layer: ``run()`` returns the scalar and
    ``params`` maps names to (array, analytic_grad) pairs."""
    worst = 0.0
    for _, (arr, grad) in params.items():
        flat = arr.reshape(-1)
        a = np.asarray(grad).reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            fp = run()
            flat[idx] = orig - h
            fm = run()
            flat[idx] = orig
            fd = (fp - fm) / (2.0 * h)
            worst = max(worst, abs(a[idx] - fd) / max(1.0, abs(fd)))
    return worst


# --------------------------------------------------------------------------
# real datasets (cache-gated: the suite never downloads)


@pytest.fixture(scope="session")
def tu_dataset_dir():
    """Factory fixture: resolve a cached real TU dataset to its raw dir or skip."""
    def resolve(name: str) -> Path:
        if not is_cached(name):
            pytest.skip(f"{name} is not cached: run `gnnlab fetch {name}`, or point "
                        f"GNNLAB_CACHE at a cache that holds it")
        return fetch_tu(name)
    return resolve


@pytest.fixture(scope="session")
def proteins(tu_dataset_dir):
    raw = tu_dataset_dir("PROTEINS")
    return parse_tu(raw, "PROTEINS", feature_policy="label_onehot")
