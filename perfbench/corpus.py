"""Synthetic TU corpora: generation, the benchmark's own TU writer, and the
check that a parsed dataset equals what was generated.

The writer is deliberately independent of ``gnnlab.write_tu`` so that a change
to the program's writer cannot change the benchmark's inputs.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEGREE_CAP = 64  # columns of the degree one-hot (gnnlab's default cap)
LEAN = 0.1       # chance a node label follows its graph's class: learnable, not trivial


@dataclass(frozen=True)
class CorpusShape:
    """How a corpus looks: graph count, node-count range, density, features."""
    name: str
    graphs: int
    n_lo: int
    n_hi: int
    mean_degree: float
    classes: int
    feature_policy: str   # "label_onehot" writes node labels; "degree_onehot" does not
    node_labels: int = 0  # distinct node labels, label_onehot only


@dataclass
class Corpus:
    shape: CorpusShape
    seed: list
    sizes: np.ndarray        # nodes per graph
    labels: np.ndarray       # class per graph, 0-based
    edges: list              # per graph, (m, 2) array of local pairs with i < j
    node_labels: np.ndarray  # per global node; empty for degree_onehot

    def stats(self) -> dict:
        edge_lines = 2 * sum(int(e.shape[0]) for e in self.edges)
        nodes = int(self.sizes.sum())
        return {"seed": self.seed, "graphs": int(self.sizes.shape[0]),
                "nodes": nodes, "edge_lines": edge_lines,
                "mean_degree": edge_lines / nodes, "classes": self.shape.classes,
                "feature_policy": self.shape.feature_policy,
                "feature_dim": self.feature_dim()}

    def feature_dim(self) -> int:
        if self.shape.feature_policy == "degree_onehot":
            return DEGREE_CAP
        return int(np.unique(self.node_labels).shape[0])


def generate(shape: CorpusShape, seed) -> Corpus:
    """Random graphs with balanced classes; the class leaks into the features.

    ``seed`` is anything ``numpy.random.default_rng`` accepts. For
    ``label_onehot`` a node's label equals its graph's class (mod the label
    count) with probability ``LEAN``, else it is uniform. For ``degree_onehot`` the
    class scales the density between 0.8x and 1.2x the mean degree, so degree
    one-hots carry the signal.
    """
    rng = np.random.default_rng(seed)
    sizes = rng.integers(shape.n_lo, shape.n_hi + 1, size=shape.graphs)
    labels = rng.permutation(np.arange(shape.graphs) % shape.classes)
    edges = []
    for n, c in zip(sizes.tolist(), labels.tolist()):
        degree = shape.mean_degree
        if shape.feature_policy == "degree_onehot" and shape.classes > 1:
            degree *= 0.8 + 0.4 * c / (shape.classes - 1)
        rows, cols = np.triu_indices(n, 1)
        m = min(int(round(n * degree / 2)), rows.shape[0])
        pick = np.sort(rng.choice(rows.shape[0], size=m, replace=False))
        edges.append(np.stack([rows[pick], cols[pick]], axis=1))
    node_labels = np.empty(0, dtype=np.int64)
    if shape.feature_policy == "label_onehot":
        total = int(sizes.sum())
        lean = np.repeat(labels % shape.node_labels, sizes)
        uniform = rng.integers(0, shape.node_labels, size=total)
        node_labels = np.where(rng.random(total) < LEAN, lean, uniform)
    return Corpus(shape=shape, seed=seed, sizes=sizes, labels=labels,
                  edges=edges, node_labels=node_labels)


def _lines(values) -> str:
    return "\n".join(map(str, values)) + "\n"


def write_tu(corpus: Corpus, directory) -> Path:
    """Write the corpus as TU text files; both directions of every edge."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    name = corpus.shape.name
    offsets = np.concatenate(([0], np.cumsum(corpus.sizes)[:-1]))
    src, dst = [], []
    for off, e in zip(offsets.tolist(), corpus.edges):
        a = e[:, 0] + off + 1
        b = e[:, 1] + off + 1
        src.append(np.stack([a, b], axis=1).ravel())
        dst.append(np.stack([b, a], axis=1).ravel())
    src = np.concatenate(src).tolist()
    dst = np.concatenate(dst).tolist()
    (directory / f"{name}_A.txt").write_text(
        "\n".join(map("{}, {}".format, src, dst)) + "\n")
    indicator = np.repeat(np.arange(1, corpus.sizes.shape[0] + 1), corpus.sizes)
    (directory / f"{name}_graph_indicator.txt").write_text(_lines(indicator.tolist()))
    (directory / f"{name}_graph_labels.txt").write_text(_lines((corpus.labels + 1).tolist()))
    if corpus.shape.feature_policy == "label_onehot":
        (directory / f"{name}_node_labels.txt").write_text(
            _lines(corpus.node_labels.tolist()))
    return directory


def check_dataset(ds, corpus: Corpus) -> list:
    """Problems found comparing a parsed ``gnnlab`` Dataset with the corpus.

    Compares graph count, class count, feature width, and per graph the node
    count, label, stored edge set (both directions, unit weights) and the
    feature matrix. An empty list means the dataset is exactly the corpus.
    """
    shape = corpus.shape
    problems = []
    if len(ds.graphs) != corpus.sizes.shape[0]:
        return [f"{len(ds.graphs)} graphs parsed, {corpus.sizes.shape[0]} written"]
    if ds.num_classes != shape.classes:
        problems.append(f"{ds.num_classes} classes parsed, {shape.classes} written")
    dim = corpus.feature_dim()
    if ds.feature_dim != dim or ds.feature_policy != shape.feature_policy:
        problems.append(f"features {ds.feature_policy}/{ds.feature_dim}, "
                        f"expected {shape.feature_policy}/{dim}")
        return problems
    distinct = np.unique(corpus.node_labels)
    start = 0
    for g, graph in enumerate(ds.graphs):
        n = int(corpus.sizes[g])
        e = corpus.edges[g]
        adj = graph.adj
        if adj.n != n:
            problems.append(f"graph {g}: {adj.n} nodes parsed, {n} written")
            start += n
            continue
        if graph.label != int(corpus.labels[g]):
            problems.append(f"graph {g}: label {graph.label}, expected {corpus.labels[g]}")
        want = np.sort(np.concatenate([e[:, 0] * n + e[:, 1], e[:, 1] * n + e[:, 0]]))
        rows = np.repeat(np.arange(n), np.diff(adj.indptr))
        got = np.sort(rows * n + np.asarray(adj.indices))
        if not np.array_equal(got, want) or not np.all(np.asarray(adj.weights) == 1.0):
            problems.append(f"graph {g}: edge set differs from the written one")
        if shape.feature_policy == "degree_onehot":
            deg = np.bincount(e.ravel(), minlength=n)
            cols = np.minimum(deg, DEGREE_CAP - 1)
        else:
            cols = np.searchsorted(distinct, corpus.node_labels[start:start + n])
        feats = np.zeros((n, dim))
        feats[np.arange(n), cols] = 1.0
        if not np.array_equal(np.asarray(graph.features), feats):
            problems.append(f"graph {g}: features differ from the written ones")
        start += n
    return problems
