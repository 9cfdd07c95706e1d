"""TU-format graph dataset parsing, featurisation, fetching, fold splits, and
the disjoint-union batches the models run on.

The TU convention is a directory of plain-text files sharing a dataset name
prefix: an edge list (``*_A.txt``, 1-indexed "i, j" lines), a per-node graph
indicator, per-graph labels, and optional per-node labels/attributes. Node
features are built from the first available source in the order
attributes > node-label one-hots > degree one-hots.
"""

import io
import logging
import os
import time
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import requests

from .errors import (ConsistencyError, IngestError, IntegrityError,
                     StratificationError, TransportError, TuParseError)
from .numcore import Rng, SparseAdj

log = logging.getLogger(__name__)

DEFAULT_TU_URL = "https://www.chrsmrrs.com/graphkerneldatasets"
DEFAULT_DEGREE_CAP = 64
DEFAULT_FOLD_SEED = 12345

FEATURE_POLICIES = ("attributes", "label_onehot", "degree_onehot")


@dataclass(frozen=True)
class Graph:
    """One classification instance: adjacency, node features, class label."""
    adj: SparseAdj
    features: np.ndarray
    label: int
    id: int


# Node budget of one chunk. A chunk's activations, pooled subgraphs and
# products all grow with its node count, so chunks stay far below a whole
# mini-batch (about 25k nodes on REDDIT-sized graphs) to bound peak memory.
CHUNK_NODES = 256


@dataclass(frozen=True)
class Batch:
    """Disjoint union of graphs: a block-diagonal adjacency, the features of
    every graph stacked in order, one label and one node count per graph."""
    adj: SparseAdj
    features: np.ndarray
    labels: np.ndarray
    sizes: np.ndarray

    @classmethod
    def of(cls, graphs) -> "Batch":
        graphs = list(graphs)
        labels = np.array([g.label for g in graphs], dtype=np.int64)
        sizes = np.array([g.adj.n for g in graphs], dtype=np.int64)
        if len(graphs) == 1:
            # the graph's own adjacency keeps its memoised propagation operator
            return cls(graphs[0].adj, graphs[0].features, labels, sizes)
        return cls(SparseAdj.block_diag([g.adj for g in graphs]),
                   np.concatenate([g.features for g in graphs]), labels, sizes)


def chunks(graphs):
    """Consecutive runs of ``graphs`` as batches of at most ``CHUNK_NODES``
    nodes; a graph larger than that forms a batch on its own. Built lazily."""
    run, nodes = [], 0
    for g in graphs:
        if run and nodes + g.adj.n > CHUNK_NODES:
            yield Batch.of(run)
            run, nodes = [], 0
        run.append(g)
        nodes += g.adj.n
    if run:
        yield Batch.of(run)


@dataclass(frozen=True)
class Dataset:
    name: str
    graphs: tuple
    num_classes: int
    feature_dim: int
    feature_policy: str

    def __len__(self):
        return len(self.graphs)

    def labels(self) -> np.ndarray:
        return np.array([g.label for g in self.graphs], dtype=np.int64)


@dataclass(frozen=True)
class FoldSplit:
    fold_count: int
    assignments: np.ndarray
    seed: int

    def train_indices(self, fold: int) -> np.ndarray:
        return np.nonzero(self.assignments != fold)[0]

    def test_indices(self, fold: int) -> np.ndarray:
        return np.nonzero(self.assignments == fold)[0]


# --------------------------------------------------------------------------
# parsing

def _read_lines(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line:
                yield lineno, line


def _parse_int(token: str, path: Path, lineno: int) -> int:
    try:
        return int(token.strip())
    except ValueError:
        raise TuParseError(f"{path.name}:{lineno}: expected an integer, got {token!r}") from None


def _parse_float(token: str, path: Path, lineno: int) -> float:
    try:
        return float(token.strip())
    except ValueError:
        raise TuParseError(f"{path.name}:{lineno}: expected a number, got {token!r}") from None


def parse_tu(directory, name: str, feature_policy: str | None = None,
             degree_cap: int = DEFAULT_DEGREE_CAP) -> Dataset:
    """Parse a TU-format dataset directory into an immutable :class:`Dataset`.

    ``feature_policy`` forces a feature source; by default the richest
    available one is used (attributes > label_onehot > degree_onehot).
    Raw self-loops are dropped (the GCN adds its own), edge direction is
    ignored, and graph labels are remapped to a contiguous 0-based range.
    """
    directory = Path(directory)
    paths = {kind: directory / f"{name}_{kind}.txt"
             for kind in ("A", "graph_indicator", "graph_labels",
                          "node_labels", "node_attributes")}
    for kind in ("A", "graph_indicator", "graph_labels"):
        if not paths[kind].is_file():
            raise IngestError(f"missing mandatory file {paths[kind].name} in {directory}")

    node_graph = []  # 1-based graph id per global node (nodes are 1-based in files)
    for lineno, line in _read_lines(paths["graph_indicator"]):
        node_graph.append(_parse_int(line, paths["graph_indicator"], lineno))
    if not node_graph:
        raise IngestError(f"{paths['graph_indicator'].name} is empty")
    node_graph = np.array(node_graph, dtype=np.int64)
    graph_ids = sorted(set(node_graph.tolist()))
    gindex = {g: k for k, g in enumerate(graph_ids)}
    num_graphs = len(graph_ids)

    # local node index within its graph, in file order
    local = np.empty(node_graph.shape[0], dtype=np.int64)
    counts = {g: 0 for g in graph_ids}
    for v, g in enumerate(node_graph.tolist()):
        local[v] = counts[g]
        counts[g] += 1
    sizes = np.array([counts[g] for g in graph_ids], dtype=np.int64)

    raw_labels = []
    for lineno, line in _read_lines(paths["graph_labels"]):
        raw_labels.append(_parse_int(line, paths["graph_labels"], lineno))
    if len(raw_labels) != num_graphs:
        raise ConsistencyError(
            f"{paths['graph_labels'].name} has {len(raw_labels)} labels "
            f"but the indicator names {num_graphs} graphs")
    label_map = {lab: k for k, lab in enumerate(sorted(set(raw_labels)))}
    labels = [label_map[lab] for lab in raw_labels]

    edges = [set() for _ in range(num_graphs)]
    self_loops = 0
    for lineno, line in _read_lines(paths["A"]):
        parts = line.split(",")
        if len(parts) != 2:
            raise TuParseError(f"{paths['A'].name}:{lineno}: expected 'i, j', got {line!r}")
        i = _parse_int(parts[0], paths["A"], lineno)
        j = _parse_int(parts[1], paths["A"], lineno)
        if not (1 <= i <= len(node_graph)) or not (1 <= j <= len(node_graph)):
            raise ConsistencyError(f"{paths['A'].name}:{lineno}: node id out of range")
        if node_graph[i - 1] != node_graph[j - 1]:
            raise ConsistencyError(
                f"{paths['A'].name}:{lineno}: edge ({i}, {j}) crosses graph boundaries")
        if i == j:
            self_loops += 1
            continue
        g = gindex[node_graph[i - 1]]
        a, b = int(local[i - 1]), int(local[j - 1])
        edges[g].add((min(a, b), max(a, b)))
    if self_loops:
        log.warning("dropped %d raw self-loop(s) while parsing %s", self_loops, name)

    node_label_values = None
    if paths["node_labels"].is_file():
        node_label_values = []
        for lineno, line in _read_lines(paths["node_labels"]):
            # some TU dumps carry multiple comma-separated labels; use the first
            node_label_values.append(_parse_int(line.split(",")[0], paths["node_labels"], lineno))
        if len(node_label_values) != len(node_graph):
            raise ConsistencyError(
                f"{paths['node_labels'].name} has {len(node_label_values)} rows "
                f"for {len(node_graph)} nodes")

    attribute_rows = None
    if paths["node_attributes"].is_file():
        attribute_rows = []
        width = None
        for lineno, line in _read_lines(paths["node_attributes"]):
            row = [_parse_float(tok, paths["node_attributes"], lineno)
                   for tok in line.split(",")]
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise TuParseError(
                    f"{paths['node_attributes'].name}:{lineno}: expected {width} values")
            attribute_rows.append(row)
        if len(attribute_rows) != len(node_graph):
            raise ConsistencyError(
                f"{paths['node_attributes'].name} has {len(attribute_rows)} rows "
                f"for {len(node_graph)} nodes")

    if feature_policy is None:
        if attribute_rows is not None:
            feature_policy = "attributes"
        elif node_label_values is not None:
            feature_policy = "label_onehot"
        else:
            feature_policy = "degree_onehot"
    if feature_policy not in FEATURE_POLICIES:
        raise IngestError(f"unknown feature policy {feature_policy!r}")
    if feature_policy == "attributes" and attribute_rows is None:
        raise IngestError(f"{name} has no node attributes file")
    if feature_policy == "label_onehot" and node_label_values is None:
        raise IngestError(f"{name} has no node labels file")

    if feature_policy == "label_onehot":
        distinct = sorted(set(node_label_values))
        col = {lab: c for c, lab in enumerate(distinct)}
        feature_dim = len(distinct)
    elif feature_policy == "attributes":
        feature_dim = len(attribute_rows[0])
    else:
        feature_dim = int(degree_cap)

    graphs = []
    for g in range(num_graphs):
        n = int(sizes[g])
        adj = SparseAdj.from_edges(n, edges[g]) if edges[g] else SparseAdj.empty(n)
        feats = np.zeros((n, feature_dim), dtype=np.float64)
        graphs.append((adj, feats))

    for v in range(len(node_graph)):
        g = gindex[node_graph[v]]
        row = int(local[v])
        if feature_policy == "attributes":
            graphs[g][1][row, :] = attribute_rows[v]
        elif feature_policy == "label_onehot":
            graphs[g][1][row, col[node_label_values[v]]] = 1.0
    if feature_policy == "degree_onehot":
        for adj, feats in graphs:
            deg = np.minimum(adj.degrees(), feature_dim - 1)
            feats[np.arange(adj.n), deg] = 1.0

    built = tuple(Graph(adj=a, features=f, label=labels[g], id=g)
                  for g, (a, f) in enumerate(graphs))
    return Dataset(name=name, graphs=built, num_classes=len(label_map),
                   feature_dim=feature_dim, feature_policy=feature_policy)


def write_tu(ds: Dataset, directory) -> Path:
    """Write a dataset back out in canonical TU form (used for round-trips)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    a_lines, ind_lines, nlab_lines, attr_lines = [], [], [], []
    offset = 0
    for gi, g in enumerate(ds.graphs, start=1):
        for i in range(g.adj.n):
            ind_lines.append(str(gi))
            for e in range(g.adj.indptr[i], g.adj.indptr[i + 1]):
                j = int(g.adj.indices[e])
                a_lines.append(f"{offset + i + 1}, {offset + j + 1}")
            if ds.feature_policy == "label_onehot":
                nlab_lines.append(str(int(np.argmax(g.features[i]))))
            elif ds.feature_policy == "attributes":
                attr_lines.append(", ".join(repr(float(v)) for v in g.features[i]))
        offset += g.adj.n
    (directory / f"{ds.name}_A.txt").write_text("\n".join(a_lines) + "\n")
    (directory / f"{ds.name}_graph_indicator.txt").write_text("\n".join(ind_lines) + "\n")
    (directory / f"{ds.name}_graph_labels.txt").write_text(
        "\n".join(str(g.label + 1) for g in ds.graphs) + "\n")
    if nlab_lines:
        (directory / f"{ds.name}_node_labels.txt").write_text("\n".join(nlab_lines) + "\n")
    if attr_lines:
        (directory / f"{ds.name}_node_attributes.txt").write_text("\n".join(attr_lines) + "\n")
    return directory


# --------------------------------------------------------------------------
# fetching

def default_cache_dir() -> Path:
    env = os.environ.get("GNNLAB_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "gnnlab"


MANDATORY_SUFFIXES = ("A", "graph_indicator", "graph_labels")


def _raw_files_present(raw: Path, name: str) -> bool:
    return all((raw / f"{name}_{s}.txt").is_file() for s in MANDATORY_SUFFIXES)


class _CacheLock:
    """Tiny exclusive lock file so concurrent fetches of one name serialise."""

    def __init__(self, path: Path, timeout: float = 300.0):
        self.path = path
        self.timeout = timeout

    def __enter__(self):
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.close(fd)
                return self
            except FileExistsError:
                if time.monotonic() > deadline:
                    raise TransportError(f"timed out waiting for lock {self.path}")
                time.sleep(0.05)

    def __exit__(self, *exc):
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass


def fetch_tu(name: str, url_base: str = DEFAULT_TU_URL, cache_dir=None) -> Path:
    """Download and unpack ``{url_base}/{name}.zip``; idempotent via the cache.

    Returns the directory containing the raw ``*.txt`` files.
    """
    cache = Path(cache_dir) if cache_dir else default_cache_dir()
    raw = cache / name / "raw"
    if _raw_files_present(raw, name):
        return raw
    cache.mkdir(parents=True, exist_ok=True)
    with _CacheLock(cache / f"{name}.lock"):
        if _raw_files_present(raw, name):
            return raw
        url = f"{url_base.rstrip('/')}/{name}.zip"
        try:
            resp = requests.get(url, timeout=120)
        except requests.RequestException as exc:
            raise TransportError(f"fetch of {url} failed: {exc}") from exc
        if resp.status_code != 200:
            raise TransportError(f"fetch of {url} returned HTTP {resp.status_code}",
                                 status=resp.status_code)
        try:
            archive = zipfile.ZipFile(io.BytesIO(resp.content))
        except zipfile.BadZipFile as exc:
            raise IntegrityError(f"archive for {name} is not a valid zip") from exc
        raw.mkdir(parents=True, exist_ok=True)
        for info in archive.infolist():
            base = os.path.basename(info.filename)
            if not base or not base.endswith(".txt"):
                continue
            with archive.open(info) as src:
                (raw / base).write_bytes(src.read())
        if not _raw_files_present(raw, name):
            raise IntegrityError(f"archive for {name} lacks the mandatory TU files")
    return raw


def is_cached(name: str, cache_dir=None) -> bool:
    cache = Path(cache_dir) if cache_dir else default_cache_dir()
    return _raw_files_present(cache / name / "raw", name)


# --------------------------------------------------------------------------
# fold splits

def stratified_folds(ds: Dataset, k: int, seed: int = DEFAULT_FOLD_SEED) -> FoldSplit:
    """Deterministic stratified assignment of graphs to ``k`` folds.

    Members of each class are shuffled and dealt round-robin, with the fold
    offset rotating across classes so overall fold sizes stay balanced.
    """
    if k < 2:
        raise StratificationError(f"fold count must be at least 2, got {k}")
    labels = ds.labels()
    assignments = np.full(len(ds.graphs), -1, dtype=np.int64)
    rng = Rng(seed)
    start = 0
    for cls in sorted(set(labels.tolist())):
        members = np.nonzero(labels == cls)[0]
        if members.shape[0] < k:
            raise StratificationError(
                f"class {cls} has {members.shape[0]} graphs, fewer than k={k}")
        order = members[rng.permutation(members.shape[0])]
        for pos, idx in enumerate(order.tolist()):
            assignments[idx] = (start + pos) % k
        start = (start + order.shape[0]) % k
    return FoldSplit(fold_count=k, assignments=assignments, seed=seed)
