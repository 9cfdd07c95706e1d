"""TU-format graph dataset parsing, featurisation, fetching, fold splits, and
the disjoint-union batches the models run on.

The TU convention is a directory of plain-text files sharing a dataset name
prefix: an edge list (``*_A.txt``, 1-indexed "i, j" lines), a per-node graph
indicator, per-graph labels, and optional per-node labels/attributes. Node
features are built from the first available source in the order
attributes > node-label one-hots > degree one-hots. Every graph is
undirected: each edge is stored in both directions.

A dataset is the stack parsing builds: every graph's nodes in order, one
CSR over them (each graph's adjacency a diagonal block of it), and one row
id per node into a float64 row table that the whole dataset shares: the
identity under a one-hot policy, so no node holds a dense one-hot row, and
the attribute matrix under ``attributes``. Writing walks the same stack
back out. A batch is a list of graph ids into that stack, and a graph is a
batch of one. On each read a batch gathers its dense feature rows from the
table in one ``np.take`` and its block-diagonal adjacency from the stack's
CSR, and keeps neither; each convolution derives its propagation operator
from that adjacency when it runs.
"""

import logging
import os
import shutil
import tempfile
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (ConsistencyError, DomainError, IngestError, IntegrityError, ShapeError,
                     StratificationError, TransportError, TuParseError)
from .numcore import Rng, SparseAdj

log = logging.getLogger(__name__)

DEFAULT_TU_URL = "https://www.chrsmrrs.com/graphkerneldatasets"
DEFAULT_DEGREE_CAP = 64
DEFAULT_FOLD_SEED = 12345

FEATURE_POLICIES = ("attributes", "label_onehot", "degree_onehot")


# Entry budget of one chunk: its node count times the widest node row the
# model holds (see ``Model.width``). A chunk's activations, pooled subgraphs
# and products all grow with its node count and row width, so chunks of a
# wide model stay far below a whole mini-batch (about 25k nodes on
# REDDIT-sized graphs) to bound peak memory: 256 nodes at width 128, while
# the 3-column input of ``mlp`` on PROTEINS-shaped data fits a whole batch.
CHUNK_ENTRIES = 256 * 128


class State(NamedTuple):
    """A batch as it enters or leaves one stage of a model's block stack: the
    block-diagonal adjacency (shrunk by any pool before it), the stacked node
    rows and each graph's row count."""
    adj: SparseAdj
    x: np.ndarray
    sizes: np.ndarray


@dataclass(frozen=True, eq=False)
class Dataset:
    """Every graph of a corpus stacked in order: the CSR ``adj`` over all nodes,
    node ``v``'s features as row ``rows[v]`` of the float64 row ``table``, and
    each graph's class and node count in ``labels`` and ``sizes``."""
    name: str
    adj: SparseAdj
    table: np.ndarray
    rows: np.ndarray
    labels: np.ndarray
    sizes: np.ndarray
    num_classes: int
    feature_policy: str

    def __len__(self):
        return self.sizes.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.table.shape[1]

    @cached_property
    def graphs(self) -> tuple:
        """Graph ``i`` as the batch of it alone, for each ``i``."""
        return tuple(Batch(self, ids) for ids in np.arange(len(self)).reshape(-1, 1))


@dataclass(frozen=True, eq=False)
class Batch:
    """Graphs ``ids`` of ``dataset`` as one disjoint union, in that order; its
    node features and block-diagonal adjacency are gathered from the
    dataset's stack on each read and kept by no batch."""
    dataset: Dataset
    ids: np.ndarray

    def __len__(self):
        return self.ids.shape[0]

    def __getitem__(self, key) -> "Batch":  # the graphs ids[key]: an index, slice or id array
        return Batch(self.dataset, np.atleast_1d(self.ids[key]))

    @property
    def labels(self) -> np.ndarray:
        return self.dataset.labels[self.ids]

    @property
    def label(self) -> int:
        """The class of a one-graph batch."""
        if len(self) != 1:
            raise ShapeError(f"a batch of {len(self)} graphs has no single label")
        return int(self.dataset.labels[self.ids[0]])

    @cached_property
    def sizes(self) -> np.ndarray:
        return self.dataset.sizes[self.ids]

    @cached_property
    def nodes(self) -> np.ndarray:
        """The stack's id of each of the batch's nodes, graph by graph."""
        shift = np.cumsum(self.dataset.sizes)[self.ids] - np.cumsum(self.sizes)
        return np.arange(int(self.sizes.sum())) + np.repeat(shift, self.sizes)

    @property
    def features(self) -> np.ndarray:
        """The dense node-feature rows, one per node."""
        return np.take(self.dataset.table, self.dataset.rows[self.nodes], axis=0)

    @property
    def adj(self) -> SparseAdj:
        """The block-diagonal adjacency: the batch's rows of the stack's CSR, renumbered."""
        stack, nodes = self.dataset.adj, self.nodes
        degrees = stack.indptr[nodes + 1] - stack.indptr[nodes]
        indptr = np.concatenate([[0], np.cumsum(degrees)])
        entries = np.arange(indptr[-1]) + np.repeat(stack.indptr[nodes] - indptr[:-1], degrees)
        shift = np.repeat(nodes - np.arange(nodes.shape[0]), degrees)
        return SparseAdj(nodes.shape[0], indptr, stack.indices[entries] - shift)

    @property
    def state(self) -> State:
        """The batch as it enters the first stage of a block stack."""
        return State(self.adj, self.features, self.sizes)

    @classmethod
    def of(cls, batches) -> "Batch":
        """The graphs of ``batches``, all of one dataset, as one batch in order."""
        batches = list(batches)
        if not batches:
            raise DomainError("Batch.of got no batches to merge")
        if any(b.dataset is not batches[0].dataset for b in batches):
            raise ShapeError("the graphs of a batch must come from one dataset")
        return cls(batches[0].dataset, np.concatenate([b.ids for b in batches]))


def chunks(batch: Batch, width: int):
    """Consecutive runs of ``batch``'s graphs as batches of at most
    ``CHUNK_ENTRIES // width`` nodes (a larger graph alone), for a model whose
    widest node row has ``width`` entries; built lazily."""
    limit = CHUNK_ENTRIES // width
    first, nodes = 0, 0
    for i, n in enumerate(batch.sizes.tolist()):
        if i > first and nodes + n > limit:
            yield batch[first:i]
            first, nodes = i, 0
        nodes += n
    yield batch[first:]


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


def _parse(token: str, path: Path, lineno: int, kind=int):
    try:
        return kind(token.strip())
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise TuParseError(f"{path.name}:{lineno}: expected {what}, got {token!r}") from None


def _scan(path: Path, check) -> None:
    """Error path: ``check(line, lineno)`` every non-blank line in order, so
    the first bad line raises an error that names it."""
    for lineno, line in _read_lines(path):
        check(line, lineno)


def _read_table(path: Path, dtype, check, width=None, usecols=None) -> np.ndarray:
    """The comma-separated values of a TU file as a 2-D array of ``width``
    columns (any width if None), read by numpy in one pass. When numpy
    rejects the file, :func:`_scan` runs ``check`` to name the first bad
    line; if every line passes (numpy also refuses whitespace-only lines,
    which the format allows), the non-blank lines are read again."""
    kwargs = dict(dtype=dtype, delimiter=",", ndmin=2, comments=None,
                  encoding="utf-8", usecols=usecols)

    def load(source):
        table = np.loadtxt(source, **kwargs)
        return table.reshape(0, width or 0) if table.size == 0 else table

    with warnings.catch_warnings():
        # a file without data lines is an empty table
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            table = load(path)
            if width in (None, table.shape[1]):
                return table
        except ValueError:
            pass
        _scan(path, check)
        try:
            return load([line for _, line in _read_lines(path)])
        except ValueError as exc:
            raise TuParseError(f"{path.name}: {exc}") from None


def _read_ints(path: Path, first_column: bool = False) -> np.ndarray:
    """One integer per line, or the first of a line's comma-separated values."""
    def check(line, lineno):
        _parse(line.split(",")[0] if first_column else line, path, lineno)
    return _read_table(path, np.int64, check, 1, 0 if first_column else None)[:, 0]


def parse_tu(directory, name: str, feature_policy: str | None = None,
             degree_cap: int = DEFAULT_DEGREE_CAP) -> Dataset:
    """Parse a TU-format dataset directory into an immutable :class:`Dataset`.

    ``feature_policy`` forces a feature source; by default the richest
    available one is used (attributes > label_onehot > degree_onehot).
    Raw self-loops are dropped (the GCN adds its own), edge direction is
    ignored, and graph labels are remapped to a contiguous 0-based range.
    Each file is read once into an array; a malformed or inconsistent line
    is named by its file and line number.
    """
    directory = Path(directory)
    paths = {kind: directory / f"{name}_{kind}.txt"
             for kind in ("A", "graph_indicator", "graph_labels",
                          "node_labels", "node_attributes")}
    for kind in ("A", "graph_indicator", "graph_labels"):
        if not paths[kind].is_file():
            raise IngestError(f"missing mandatory file {paths[kind].name} in {directory}")

    indicator = _read_ints(paths["graph_indicator"])
    if indicator.size == 0:
        raise IngestError(f"{paths['graph_indicator'].name} is empty")
    num_nodes = indicator.shape[0]
    # graph index per node (ids may be unsorted or have gaps); nodes are then
    # stacked graph by graph, keeping file order within each graph
    graph_ids, node_graph = np.unique(indicator, return_inverse=True)
    num_graphs = graph_ids.shape[0]
    sizes = np.bincount(node_graph, minlength=num_graphs)
    order = np.argsort(node_graph, kind="stable")  # the stack's rows, as file nodes
    row = np.empty(num_nodes, dtype=np.int64)  # each file node's row in the stack
    row[order] = np.arange(num_nodes)

    raw_labels = _read_ints(paths["graph_labels"])
    if raw_labels.shape[0] != num_graphs:
        raise ConsistencyError(
            f"{paths['graph_labels'].name} has {raw_labels.shape[0]} labels "
            f"but the indicator names {num_graphs} graphs")
    label_values, labels = np.unique(raw_labels, return_inverse=True)

    edge_path = paths["A"]

    def check_edge(line, lineno):
        parts = line.split(",")
        if len(parts) != 2:
            raise TuParseError(f"{edge_path.name}:{lineno}: expected 'i, j', got {line!r}")
        i, j = (_parse(token, edge_path, lineno) for token in parts)
        if not (1 <= i <= num_nodes) or not (1 <= j <= num_nodes):
            raise ConsistencyError(f"{edge_path.name}:{lineno}: node id out of range")
        if node_graph[i - 1] != node_graph[j - 1]:
            raise ConsistencyError(
                f"{edge_path.name}:{lineno}: edge ({i}, {j}) crosses graph boundaries")

    ends = _read_table(edge_path, np.int64, check_edge, width=2) - 1
    if not ((ends >= 0) & (ends < num_nodes)).all() or \
            (node_graph[ends[:, 0]] != node_graph[ends[:, 1]]).any():
        _scan(edge_path, check_edge)  # raises at the first bad line
    loops = ends[:, 0] == ends[:, 1]
    if loops.any():
        log.warning("dropped %d raw self-loop(s) while parsing %s", int(loops.sum()), name)
        ends = ends[~loops]

    node_labels = None
    if paths["node_labels"].is_file():
        # some TU dumps carry multiple comma-separated labels; use the first
        node_labels = _read_ints(paths["node_labels"], first_column=True)
        if node_labels.shape[0] != num_nodes:
            raise ConsistencyError(f"{paths['node_labels'].name} has "
                                   f"{node_labels.shape[0]} rows for {num_nodes} nodes")

    attributes = None
    if paths["node_attributes"].is_file():
        attr_path = paths["node_attributes"]
        first_width = None

        def check_attributes(line, lineno):
            nonlocal first_width
            values = [_parse(tok, attr_path, lineno, float) for tok in line.split(",")]
            first_width = first_width or len(values)
            if len(values) != first_width:
                raise TuParseError(f"{attr_path.name}:{lineno}: expected {first_width} values")
            if not np.isfinite(values).all():
                raise TuParseError(f"{attr_path.name}:{lineno}: expected finite values")

        attributes = _read_table(attr_path, np.float64, check_attributes)
        if not np.isfinite(attributes).all():
            _scan(attr_path, check_attributes)  # raises at the first non-finite value
        if attributes.shape[0] != num_nodes:
            raise ConsistencyError(
                f"{attr_path.name} has {attributes.shape[0]} rows for {num_nodes} nodes")

    if feature_policy is None:
        feature_policy = ("attributes" if attributes is not None else
                          "label_onehot" if node_labels is not None else "degree_onehot")
    if feature_policy not in FEATURE_POLICIES:
        raise IngestError(f"unknown feature policy {feature_policy!r}")
    for policy, kind in (("attributes", "node_attributes"), ("label_onehot", "node_labels")):
        if feature_policy == policy and not paths[kind].is_file():
            raise IngestError(f"feature policy {policy!r} needs {paths[kind].name} in {directory}")

    adj = SparseAdj.from_edges(num_nodes, row[ends])  # no edge crosses graphs
    # one row id per stacked node into a shared table; no N x width matrix
    if feature_policy == "attributes":
        table, ids = attributes, order
    elif feature_policy == "label_onehot":
        distinct, column = np.unique(node_labels, return_inverse=True)
        table, ids = np.eye(distinct.shape[0]), column[order]
    else:
        table, ids = np.eye(int(degree_cap)), np.minimum(adj.degrees(), int(degree_cap) - 1)
    return Dataset(name=name, adj=adj, table=table, rows=ids, labels=labels, sizes=sizes,
                   num_classes=label_values.shape[0], feature_policy=feature_policy)


def write_tu(ds: Dataset, directory) -> Path:
    """Write a dataset back out in canonical TU form (used for round-trips):
    its stack as one disjoint union, nodes numbered in stack order."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    def write(kind, lines):
        (directory / f"{ds.name}_{kind}.txt").write_text("\n".join(lines) + "\n")

    rows = np.repeat(np.arange(1, ds.adj.n + 1), ds.adj.degrees())  # ids are 1-based
    write("A", map("{}, {}".format, rows.tolist(), (ds.adj.indices + 1).tolist()))
    write("graph_indicator", map(str, np.repeat(np.arange(1, len(ds) + 1), ds.sizes).tolist()))
    write("graph_labels", map(str, (ds.labels + 1).tolist()))
    if ds.feature_policy == "label_onehot":  # a row id is the label's one-hot column
        write("node_labels", map(str, ds.rows.tolist()))
    elif ds.feature_policy == "attributes":
        write("node_attributes", (", ".join(map(repr, r)) for r in ds.table[ds.rows].tolist()))
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


def fetch_tu(name: str, url_base: str = DEFAULT_TU_URL, cache_dir=None) -> Path:
    """Download and unpack ``{url_base}/{name}.zip``; idempotent via the cache.

    The archive is unpacked into a temporary directory beside ``raw/``,
    checked for the mandatory files, and renamed onto ``raw/`` in one step,
    so ``raw/`` is either absent or complete, also when the unpacking is
    interrupted or several fetches of one name race (the first rename wins;
    the others return its directory). Returns the directory containing the
    raw ``*.txt`` files. The network and archive modules load on the first
    fetch, so ``import gnnlab`` does not pay for them.
    """
    import http.client
    import io
    import urllib.error
    import urllib.request
    import zipfile

    cache = Path(cache_dir) if cache_dir else default_cache_dir()
    raw = cache / name / "raw"
    if _raw_files_present(raw, name):
        return raw
    url = f"{url_base.rstrip('/')}/{name}.zip"
    try:
        with urllib.request.urlopen(url, timeout=120) as resp:
            content = resp.read()
    except urllib.error.HTTPError as exc:
        exc.close()  # the error carries the open response; free its socket now
        raise TransportError(f"fetch of {url} returned HTTP {exc.code}",
                             status=exc.code) from exc
    except (OSError, http.client.HTTPException, ValueError) as exc:
        # URLError, refused connections, timeouts, broken responses, bad urls
        raise TransportError(f"fetch of {url} failed: {exc}") from exc
    try:
        archive = zipfile.ZipFile(io.BytesIO(content))
    except zipfile.BadZipFile as exc:
        raise IntegrityError(f"archive for {name} is not a valid zip") from exc
    raw.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(dir=raw.parent))
    try:
        for info in archive.infolist():
            base = os.path.basename(info.filename)
            if not base or not base.endswith(".txt"):
                continue
            with archive.open(info) as src:
                (staging / base).write_bytes(src.read())
        if not _raw_files_present(staging, name):
            raise IntegrityError(f"archive for {name} lacks the mandatory TU files")
        staging.chmod(0o755)  # mkdtemp's 0700 would make the cache entry private
        try:
            os.replace(staging, raw)  # onto an absent or empty raw/ only
        except OSError:
            if not _raw_files_present(raw, name):
                raise IntegrityError(f"{raw} is incomplete; remove it and fetch "
                                     f"{name} again") from None
    finally:
        shutil.rmtree(staging, ignore_errors=True)
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
    labels = ds.labels
    assignments = np.full(len(ds), -1, dtype=np.int64)
    rng = Rng(seed)
    start = 0
    for cls in sorted(set(labels.tolist())):
        members = np.nonzero(labels == cls)[0]
        if members.shape[0] < k:
            raise StratificationError(
                f"class {cls} has {members.shape[0]} graphs, fewer than k={k}")
        assignments[members[rng.permutation(members.shape[0])]] = \
            (start + np.arange(members.shape[0])) % k
        start = (start + members.shape[0]) % k
    return FoldSplit(fold_count=k, assignments=assignments, seed=seed)
