import ast
import dataclasses
import gc
import http.server
import io
import logging
import os
import pickle
import re
import subprocess
import sys
import threading
import urllib.request
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest

import gnnlab
from gnnlab import Batch, Rng, SparseAdj, parse_tu, stratified_folds, write_tu
from gnnlab.errors import (ConsistencyError, IngestError, IntegrityError,
                           StratificationError, TransportError, TuParseError)
from gnnlab.graphdata import fetch_tu

from conftest import edge_set, random_adj, stack, synth_dataset, write_tu_files


def test_parse_two_graph_toy(tmp_path):
    # graph 1: nodes 1-2 with one edge, graph 2: isolated node 3
    write_tu_files(tmp_path, "TOY", [(2, [(1, 2)]), (1, [])], labels=[1, 2])
    ds = parse_tu(tmp_path, "TOY")
    assert len(ds.graphs) == 2
    assert ds.graphs[0].adj.n == 2 and ds.graphs[1].adj.n == 1
    assert ds.num_classes == 2
    assert [g.label for g in ds.graphs] == [0, 1]
    assert edge_set(ds.graphs[0].adj) == {(0, 1), (1, 0)}


def test_parse_label_onehot(tmp_path):
    write_tu_files(tmp_path, "TOY", [(2, [(1, 2)]), (2, [(1, 2)])],
                   labels=[1, 2], node_labels=[0, 1, 2, 1])
    ds = parse_tu(tmp_path, "TOY")
    assert ds.feature_policy == "label_onehot"
    assert ds.feature_dim == 3
    assert np.array_equal(ds.graphs[0].features, [[1, 0, 0], [0, 1, 0]])
    assert np.array_equal(ds.graphs[1].features, [[0, 0, 1], [0, 1, 0]])


def test_parse_degree_onehot_cap(tmp_path):
    # triangle: every node has degree 2; cap 2 puts them all in the overflow bucket
    write_tu_files(tmp_path, "TOY", [(3, [(1, 2), (2, 3), (1, 3)])], labels=[1, 1])
    (tmp_path / "TOY_graph_labels.txt").write_text("1\n")
    ds = parse_tu(tmp_path, "TOY", degree_cap=2)
    assert ds.feature_policy == "degree_onehot"
    assert ds.feature_dim == 2
    assert np.array_equal(ds.graphs[0].features, [[0, 1], [0, 1], [0, 1]])


def test_parse_degree_onehot_unused_columns_zero(tmp_path):
    write_tu_files(tmp_path, "TOY", [(2, [(1, 2)])], labels=[1])
    ds = parse_tu(tmp_path, "TOY", degree_cap=5)
    assert ds.feature_dim == 5
    assert np.array_equal(ds.graphs[0].features[:, 2:], np.zeros((2, 3)))
    assert np.array_equal(ds.graphs[0].features[:, 1], [1.0, 1.0])


def test_parse_attributes_take_precedence(tmp_path):
    write_tu_files(tmp_path, "TOY", [(2, [(1, 2)])], labels=[1],
                   node_labels=[0, 1], node_attributes=[[0.5, 1.5], [2.5, 3.5]])
    ds = parse_tu(tmp_path, "TOY")
    assert ds.feature_policy == "attributes"
    assert np.array_equal(ds.graphs[0].features, [[0.5, 1.5], [2.5, 3.5]])
    forced = parse_tu(tmp_path, "TOY", feature_policy="label_onehot")
    assert forced.feature_dim == 2


def test_parse_missing_mandatory_file(tmp_path):
    write_tu_files(tmp_path, "TOY", [(2, [(1, 2)])], labels=[1])
    (tmp_path / "TOY_graph_labels.txt").unlink()
    with pytest.raises(IngestError, match="TOY_graph_labels.txt"):
        parse_tu(tmp_path, "TOY")


def test_parse_bad_token_names_line(tmp_path):
    write_tu_files(tmp_path, "TOY", [(2, [(1, 2)])], labels=[1])
    (tmp_path / "TOY_A.txt").write_text("1, 2\n2, x\n")
    with pytest.raises(TuParseError, match="TOY_A.txt:2"):
        parse_tu(tmp_path, "TOY")


def test_parse_edge_crossing_graphs(tmp_path):
    write_tu_files(tmp_path, "TOY", [(2, []), (1, [])], labels=[1, 2])
    (tmp_path / "TOY_A.txt").write_text("1, 3\n")
    with pytest.raises(ConsistencyError, match="TOY_A.txt:1"):
        parse_tu(tmp_path, "TOY")


def test_parse_node_id_out_of_range(tmp_path):
    write_tu_files(tmp_path, "TOY", [(2, [])], labels=[1])
    (tmp_path / "TOY_A.txt").write_text("1, 9\n")
    with pytest.raises(ConsistencyError):
        parse_tu(tmp_path, "TOY")


def test_parse_drops_self_loops_with_warning(tmp_path, caplog):
    write_tu_files(tmp_path, "TOY", [(2, [(1, 2)])], labels=[1])
    (tmp_path / "TOY_A.txt").write_text("1, 2\n2, 1\n1, 1\n")
    with caplog.at_level(logging.WARNING, logger="gnnlab.graphdata"):
        ds = parse_tu(tmp_path, "TOY")
    assert edge_set(ds.graphs[0].adj) == {(0, 1), (1, 0)}
    assert any("self-loop" in rec.message for rec in caplog.records)


def test_parse_symmetrises_single_direction(tmp_path):
    write_tu_files(tmp_path, "TOY", [(2, [])], labels=[1])
    (tmp_path / "TOY_A.txt").write_text("1, 2\n")
    ds = parse_tu(tmp_path, "TOY")
    assert edge_set(ds.graphs[0].adj) == {(0, 1), (1, 0)}


def test_parse_remaps_arbitrary_labels(tmp_path):
    write_tu_files(tmp_path, "TOY", [(1, []), (1, []), (1, [])],
                   labels=[-1, 7, -1])
    ds = parse_tu(tmp_path, "TOY")
    assert [g.label for g in ds.graphs] == [0, 1, 0]
    assert ds.num_classes == 2


@pytest.mark.parametrize("policy_kwargs", [
    {},  # degree one-hot
    {"node_labels": [0, 1, 1, 0, 2]},
    {"node_attributes": [[0.25, -1.0], [1.5, 2.0], [3.0, 0.125],
                         [0.0, 4.5], [2.25, -0.5]]},
])
def test_round_trip_write_then_parse(tmp_path, policy_kwargs):
    write_tu_files(tmp_path
                   / "orig", "RT", [(3, [(1, 2), (2, 3)]), (2, [(1, 2)])],
                   labels=[5, 9], **policy_kwargs)
    ds = parse_tu(tmp_path / "orig", "RT")
    write_tu(ds, tmp_path / "copy")
    again = parse_tu(tmp_path / "copy", "RT")
    assert again.num_classes == ds.num_classes
    assert again.feature_dim == ds.feature_dim
    assert again.feature_policy == ds.feature_policy
    for a, b in zip(ds.graphs, again.graphs):
        assert a.label == b.label
        assert edge_set(a.adj) == edge_set(b.adj)
        assert np.array_equal(a.features, b.features)


def test_parsed_graphs_have_no_self_loops_and_are_symmetric(tmp_path):
    write_tu_files(tmp_path, "TOY", [(4, [(1, 2), (2, 3), (3, 4), (1, 4)])],
                   labels=[1])
    ds = parse_tu(tmp_path, "TOY")
    for g in ds.graphs:
        edges = edge_set(g.adj)
        assert all(i != j for i, j in edges)
        assert all((j, i) in edges for i, j in edges)


# --------------------------------------------------------------------------
# the vectorised parser against a line-by-line reference

def reference_parse(directory, name, feature_policy=None, degree_cap=64):
    """Oracle: valid TU files read one line at a time with Python ints and
    floats. Returns the dataset fields and, per graph, (indptr, indices,
    features, label, id)."""
    def rows(kind):
        path = Path(directory) / f"{name}_{kind}.txt"
        if not path.is_file():
            return None
        return [line.strip().split(",") for line in path.read_text().splitlines()
                if line.strip()]

    node_graph = [int(r[0]) for r in rows("graph_indicator")]
    graph_ids = sorted(set(node_graph))
    members = {g: [v for v, h in enumerate(node_graph) if h == g] for g in graph_ids}
    local = {v: k for g in graph_ids for k, v in enumerate(members[g])}
    raw_labels = [int(r[0]) for r in rows("graph_labels")]
    classes = sorted(set(raw_labels))
    entries = {g: set() for g in graph_ids}
    for a, b in rows("A"):
        i, j = int(a) - 1, int(b) - 1
        if i != j:
            entries[node_graph[i]] |= {(local[i], local[j]), (local[j], local[i])}
    node_labels, attributes = rows("node_labels"), rows("node_attributes")
    policy = feature_policy or ("attributes" if attributes else
                                "label_onehot" if node_labels else "degree_onehot")
    distinct = sorted({int(r[0]) for r in node_labels or []})
    dim = {"attributes": len((attributes or [[]])[0]), "label_onehot": len(distinct),
           "degree_onehot": degree_cap}[policy]
    graphs = []
    for gi, g in enumerate(graph_ids):
        n = len(members[g])
        pairs = sorted(entries[g])
        indptr = np.zeros(n + 1, dtype=np.int64)
        for i, _ in pairs:
            indptr[i + 1] += 1
        indptr = np.cumsum(indptr)
        feats = np.zeros((n, dim))
        for k, v in enumerate(members[g]):
            if policy == "attributes":
                feats[k] = [float(t) for t in attributes[v]]
            elif policy == "label_onehot":
                feats[k, distinct.index(int(node_labels[v][0]))] = 1.0
            else:
                feats[k, min(indptr[k + 1] - indptr[k], dim - 1)] = 1.0
        graphs.append((indptr, np.array([j for _, j in pairs], dtype=np.int64), feats,
                       classes.index(raw_labels[gi]), gi))
    return len(classes), dim, policy, graphs


def assert_parses_like_reference(directory, name, **kwargs):
    ds = parse_tu(directory, name, **kwargs)
    num_classes, dim, policy, graphs = reference_parse(directory, name, **kwargs)
    assert (ds.num_classes, ds.feature_dim, ds.feature_policy) == (num_classes, dim, policy)
    assert len(ds.graphs) == len(graphs)
    for g, (indptr, indices, feats, label, gid) in zip(ds.graphs, graphs):
        assert np.array_equal(g.adj.indptr, indptr)
        assert np.array_equal(g.adj.indices, indices)
        assert g.features.shape == feats.shape and np.array_equal(g.features, feats)
        assert (g.label, g.ids.tolist()) == (label, [gid])
    return ds


@pytest.mark.parametrize("policy", ["degree_onehot", "label_onehot", "attributes"])
def test_parse_equals_reference_on_random_corpora(tmp_path, policy):
    for trial in range(4):
        rng = Rng(900 + trial)
        parts, attributes, nodes = [], [], 0
        for gi in range(3 + rng.integers(0, 12)):
            n = 1 + rng.integers(0, 14)
            if policy == "attributes":  # each graph's own rows, stacked in one table
                attributes.append(rng.normal(n, 3, 10.0))
                rows = nodes + np.arange(n)
            else:  # one-hots: row ids into the identity, as parse_tu stores them
                rows = np.array([rng.integers(0, 4) for _ in range(n)])
            parts.append((random_adj(rng.derive(gi), n, 0.3), rows, rng.integers(0, 3)))
            nodes += n
        table = np.concatenate(attributes) if attributes else np.eye(4)
        ds = stack(parts, table, name="RND", num_classes=3, feature_policy=policy)
        directory = write_tu(ds, tmp_path / f"{policy}{trial}")
        assert_parses_like_reference(directory, "RND", degree_cap=5)


def write_odd_corpus(directory):
    """Graphs 7, 3 and 10 with interleaved nodes; blank and whitespace-only
    lines; an edge given in both directions, another one twice."""
    (directory / "ODD_graph_indicator.txt").write_text("7\n3\n\n7\n3\n  \n10\n7\n")
    (directory / "ODD_graph_labels.txt").write_text("\n5\n-2\n5\n")
    (directory / "ODD_A.txt").write_text("1, 3\n\n3, 1\n1, 6\n1,6\n2, 4\n")
    (directory / "ODD_node_labels.txt").write_text("4, 0\n9, 1\n4\n\n2, 7, 7\n9\n4\n")


def test_parse_blank_lines_unsorted_gapped_ids_and_repeated_edges(tmp_path):
    write_odd_corpus(tmp_path)
    ds = assert_parses_like_reference(tmp_path, "ODD")
    assert [g.adj.n for g in ds.graphs] == [2, 3, 1]  # graph ids in sorted order
    assert [g.label for g in ds.graphs] == [1, 0, 1]
    # graph 7 holds file nodes 1, 3 and 6, in that order
    assert edge_set(ds.graphs[1].adj) == {(0, 1), (1, 0), (0, 2), (2, 0)}
    assert ds.feature_policy == "label_onehot" and ds.feature_dim == 3


@pytest.mark.parametrize("policy", ["degree_onehot", "label_onehot", "attributes"])
def test_write_tu_is_a_byte_level_fixed_point(tmp_path, policy):
    write_odd_corpus(tmp_path)
    (tmp_path / "ODD_node_attributes.txt").write_text(
        "0.5, -1.25\n3.0, 1e-3\n\n2.0, 7.75\n-0.0, 4.0\n 1.5,2.5\n0.1, 0.2\n")
    first = write_tu(parse_tu(tmp_path, "ODD", feature_policy=policy), tmp_path / "first")
    second = write_tu(parse_tu(first, "ODD", feature_policy=policy), tmp_path / "second")
    files = sorted(p.name for p in first.iterdir())
    assert files == sorted(p.name for p in second.iterdir())
    assert all((first / f).read_bytes() == (second / f).read_bytes() for f in files)


def write_random_corpus(directory, rng: Rng, graphs: int = 12):
    """TU files of ``graphs`` random graphs (1 to 12 nodes, some of degree
    above 3) with node labels and 2-column node attributes."""
    shapes = []
    for gi in range(graphs):
        adj = random_adj(rng.derive(gi), 1 + rng.integers(0, 12), 0.4)
        shapes.append((adj.n, [(i + 1, j + 1) for i, j in edge_set(adj) if i < j]))
    nodes = sum(n for n, _ in shapes)
    write_tu_files(directory, "RND", shapes, labels=[gi % 3 for gi in range(graphs)],
                   node_labels=[rng.integers(0, 5) * 7 for _ in range(nodes)],
                   node_attributes=rng.normal(nodes, 2, 3.0).tolist())


@pytest.mark.parametrize("policy", ["degree_onehot", "label_onehot", "attributes"])
def test_batch_features_are_the_dense_build_bit_for_bit(tmp_path, policy):
    # the rows a batch gathers from the shared table are the bytes that
    # zeros-then-scatter (one-hots, the last column for every degree of 3 or
    # more) or the attribute rows give, graph by graph and in shuffled chunks
    rng = Rng(77)
    write_random_corpus(tmp_path, rng)
    ds = parse_tu(tmp_path, "RND", feature_policy=policy, degree_cap=4)
    dense = [feats for _, _, feats, _, _ in
             reference_parse(tmp_path, "RND", feature_policy=policy, degree_cap=4)[3]]
    assert policy != "degree_onehot" or any(f[:, 3].any() for f in dense)
    for g, feats in zip(ds.graphs, dense):
        got = Batch.of([g]).features
        assert got.dtype == feats.dtype and got.shape == feats.shape
        assert got.tobytes() == feats.tobytes()
    for trial in range(4):
        order = rng.permutation(len(ds.graphs)).tolist()
        cuts = sorted(rng.permutation(len(order) - 1)[:3] + 1)
        for part in np.split(np.array(order), cuts):
            got = Batch.of([ds.graphs[i] for i in part]).features
            want = np.concatenate([dense[i] for i in part])
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_parse_builds_one_adjacency_for_the_whole_stack(tmp_path, monkeypatch):
    write_random_corpus(tmp_path, Rng(78))
    built, init = [], SparseAdj.__init__

    def spy(self, n, indptr, indices):
        built.append(n)
        init(self, n, indptr, indices)

    monkeypatch.setattr(SparseAdj, "__init__", spy)
    ds = parse_tu(tmp_path, "RND")
    assert built == [ds.adj.n] and len(ds) == 12


def test_parsed_degree_onehot_dataset_stores_no_dense_rows(tmp_path):
    # one row id per node instead of N x width float64 entries; the pickle is
    # what `--jobs` ships to every fold job
    write_tu_files(tmp_path, "DEG", [(30 + gi, [(i, i + 1) for i in range(1, 30 + gi)])
                                     for gi in range(40)], labels=[gi % 2 for gi in range(40)])
    ds = parse_tu(tmp_path, "DEG", feature_policy="degree_onehot")
    nodes = sum(g.adj.n for g in ds.graphs)
    assert ds.feature_dim == 64 and nodes == 40 * 30 + 39 * 40 // 2
    assert len(pickle.dumps(ds)) < nodes * ds.feature_dim * 8 / 4


def test_import_does_not_load_the_network_stack():
    # fetch_tu imports them when it runs; an interpreter's site hooks may have
    # loaded some before gnnlab, so only the modules `import gnnlab` adds count
    code = ("import sys; before = set(sys.modules); import gnnlab; "
            "print(sorted(set(sys.modules) - before))")
    src = str(Path(gnnlab.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(ast.literal_eval(proc.stdout.strip()))
    assert "gnnlab" in loaded
    assert not loaded & {"http.client", "ssl", "urllib.request", "zipfile"}


def test_parse_empty_edge_file(tmp_path):
    write_tu_files(tmp_path, "NOE", [(2, []), (3, [])], labels=[1, 2])
    (tmp_path / "NOE_A.txt").write_text("")
    ds = assert_parses_like_reference(tmp_path, "NOE", degree_cap=3)
    assert all(g.adj.indices.size == 0 for g in ds.graphs)
    assert np.array_equal(ds.graphs[1].features, [[1, 0, 0]] * 3)


def test_parse_mismatched_attribute_widths_name_the_line(tmp_path):
    write_tu_files(tmp_path, "TOY", [(3, [(1, 2)])], labels=[1])
    (tmp_path / "TOY_node_attributes.txt").write_text("1.0, 2.0\n\n3.0, 4.0\n5.0\n")
    with pytest.raises(TuParseError, match="TOY_node_attributes.txt:4: expected 2 values"):
        parse_tu(tmp_path, "TOY")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_parse_non_finite_attribute_names_the_line(tmp_path, value):
    write_tu_files(tmp_path, "TOY", [(3, [(1, 2)])], labels=[1])
    (tmp_path / "TOY_node_attributes.txt").write_text(f"1.0, 2.0\n3.0, {value}\n5.0, nan\n")
    with pytest.raises(TuParseError, match="TOY_node_attributes.txt:2: expected finite values"):
        parse_tu(tmp_path, "TOY")


# malformed variants of a 3-node, 2-graph corpus: (file to write and its
# text, or None; forced feature policy; error class; what the message names)
MALFORMED_CORPORA = {
    "empty-indicator": (("graph_indicator", ""), None, IngestError,
                        "TOY_graph_indicator.txt is empty"),
    "label-count": (("graph_labels", "1\n"), None, ConsistencyError,
                    "TOY_graph_labels.txt has 1 labels"),
    "node-label-rows": (("node_labels", "0\n1\n"), None, ConsistencyError,
                        "TOY_node_labels.txt has 2 rows"),
    "attribute-rows": (("node_attributes", "0.5\n"), None, ConsistencyError,
                       "TOY_node_attributes.txt has 1 rows"),
    "attributes-without-file": (None, "attributes", IngestError, "TOY_node_attributes.txt"),
    "label_onehot-without-file": (None, "label_onehot", IngestError, "TOY_node_labels.txt"),
    "unknown-policy": (None, "bogus", IngestError, "unknown feature policy 'bogus'"),
    # Python's int reads 1_000, numpy does not: no line fails its check
    "digit-separator": (("graph_labels", "1\n1_000\n"), None, TuParseError,
                        "TOY_graph_labels.txt: "),
}


@pytest.mark.parametrize("case", MALFORMED_CORPORA)
def test_parse_malformed_corpus_raises_naming_its_file(tmp_path, case):
    edit, policy, error, names = MALFORMED_CORPORA[case]
    write_tu_files(tmp_path, "TOY", [(2, [(1, 2)]), (1, [])], labels=[1, 2])
    if edit is not None:
        (tmp_path / f"TOY_{edit[0]}.txt").write_text(edit[1])
    with pytest.raises(error, match=re.escape(names)):
        parse_tu(tmp_path, "TOY", feature_policy=policy)


def test_parse_crossing_edge_after_blank_line_names_its_line(tmp_path):
    write_tu_files(tmp_path, "TOY", [(2, []), (2, [])], labels=[1, 2])
    (tmp_path / "TOY_A.txt").write_text("1, 2\n\n2, 1\n\n\n3, 4\n2, 3\n")
    with pytest.raises(ConsistencyError, match=r"TOY_A.txt:7: edge \(2, 3\) crosses"):
        parse_tu(tmp_path, "TOY")


def test_parse_reports_the_first_bad_line_in_file_order(tmp_path):
    write_tu_files(tmp_path, "TOY", [(2, [])], labels=[1])
    (tmp_path / "TOY_A.txt").write_text("1, 2\n2, 9\n1, x\n")
    with pytest.raises(ConsistencyError, match="TOY_A.txt:2: node id out of range"):
        parse_tu(tmp_path, "TOY")
    (tmp_path / "TOY_A.txt").write_text("1, 2\n1, 2, 3\n2, 9\n")
    with pytest.raises(TuParseError, match="TOY_A.txt:2: expected 'i, j'"):
        parse_tu(tmp_path, "TOY")
    (tmp_path / "TOY_A.txt").write_text("1, 2\n")
    (tmp_path / "TOY_graph_indicator.txt").write_text("1\n\n1.0\n")
    with pytest.raises(TuParseError, match="TOY_graph_indicator.txt:3: expected an integer"):
        parse_tu(tmp_path, "TOY")
    # the format has no comment lines
    (tmp_path / "TOY_graph_indicator.txt").write_text("1\n# 1\n")
    with pytest.raises(TuParseError, match="TOY_graph_indicator.txt:2: expected an integer"):
        parse_tu(tmp_path, "TOY")


def test_stratified_folds_balanced():
    ds = synth_dataset(10, seed=1, num_classes=2)
    split = stratified_folds(ds, 2, seed=0)
    labels = ds.labels
    for fold in range(2):
        members = labels[split.assignments == fold]
        assert members.shape[0] == 5
        assert (members == 0).sum() >= 2 and (members == 1).sum() >= 2


def test_stratified_folds_deterministic():
    ds = synth_dataset(24, seed=2)
    a = stratified_folds(ds, 4, seed=9).assignments
    b = stratified_folds(ds, 4, seed=9).assignments
    assert np.array_equal(a, b)


def test_stratified_folds_proportions():
    # 30/70 split over 100 graphs into 10 folds: 3 +/- 1 minority per fold
    rng_labels = [0] * 30 + [1] * 70
    ds = dataclasses.replace(synth_dataset(100, seed=3), name="SKEW",
                             labels=np.array(rng_labels))
    split = stratified_folds(ds, 10, seed=4)
    labels = ds.labels
    for fold in range(10):
        members = labels[split.assignments == fold]
        assert abs((members == 0).sum() - 3) <= 1
    assert np.bincount(split.assignments, minlength=10).sum() == 100


def test_stratified_folds_partition():
    ds = synth_dataset(37, seed=5)
    split = stratified_folds(ds, 5, seed=6)
    assert split.assignments.min() >= 0 and split.assignments.max() < 5
    sizes = np.bincount(split.assignments, minlength=5)
    assert sizes.sum() == 37
    for fold in range(5):
        train = set(split.train_indices(fold).tolist())
        test = set(split.test_indices(fold).tolist())
        assert not train & test
        assert len(train | test) == 37


def test_stratified_folds_errors():
    ds = synth_dataset(6, seed=7)
    with pytest.raises(StratificationError):
        stratified_folds(ds, 1)
    with pytest.raises(StratificationError):
        stratified_folds(ds, 4)  # only 3 members per class


# --------------------------------------------------------------------------
# fetching overHTTP (local server)

class _Handler(http.server.BaseHTTPRequestHandler):
    payloads = {}

    def do_GET(self):
        name = self.path.rsplit("/", 1)[-1]
        if name in self.payloads:
            body = self.payloads[name]
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        else:
            self.send_error(404)

    def log_message(self, *args):
        pass


@pytest.fixture()
def tu_server(tmp_path):
    ds_dir = write_tu_files(tmp_path / "src", "MINI",
                            [(2, [(1, 2)]), (3, [(1, 2), (2, 3)])], labels=[1, 2])
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for f in sorted(ds_dir.iterdir()):
            zf.write(f, f"MINI/{f.name}")
    partial = io.BytesIO()
    with zipfile.ZipFile(partial, "w") as zf:
        zf.writestr("PARTIAL/PARTIAL_A.txt", "1, 2\n")
    _Handler.payloads = {"MINI.zip": buf.getvalue(), "BROKEN.zip": b"not a zip",
                         "PARTIAL.zip": partial.getvalue()}
    server = http.server.HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()
    thread.join()


def test_fetch_tu_downloads_and_caches(tu_server, tmp_path):
    cache = tmp_path / "cache"
    raw = fetch_tu("MINI", url_base=tu_server, cache_dir=cache)
    assert (raw / "MINI_A.txt").is_file()
    ds = parse_tu(raw, "MINI")
    assert len(ds.graphs) == 2
    # second call is a pure cache hit (works even against a dead url)
    again = fetch_tu("MINI", url_base="http://127.0.0.1:1", cache_dir=cache)
    assert again == raw


def test_fetch_tu_404(tu_server, tmp_path):
    with pytest.raises(TransportError) as err:
        fetch_tu("NOPE", url_base=tu_server, cache_dir=tmp_path / "c2")
    assert err.value.status == 404


def _fetch_missing(url_base, cache_dir):
    with pytest.raises(TransportError) as err:
        fetch_tu("NOPE", url_base=url_base, cache_dir=cache_dir)
    assert err.value.status == 404
    # on return, err and this frame, which its traceback holds, are left in
    # a reference cycle: only the collector frees them, in no fixed order


def test_fetch_tu_404_closes_the_error_response(tu_server, tmp_path, monkeypatch):
    # the HTTP error carries the open response; if fetch_tu leaves it open,
    # the collector can finalise its socket unclosed, which under
    # error::ResourceWarning raises in the finaliser and reaches the
    # unraisable-exception hook
    gc.collect()  # what earlier tests left behind is not this test's leak
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        _fetch_missing(tu_server, tmp_path / "c2")
        gc.collect()
    assert [u.exc_value for u in unraisable] == []


def test_fetch_tu_corrupt_archive(tu_server, tmp_path):
    with pytest.raises(IntegrityError):
        fetch_tu("BROKEN", url_base=tu_server, cache_dir=tmp_path / "c3")


def test_fetch_tu_connection_refused(tmp_path):
    with pytest.raises(TransportError):
        fetch_tu("MINI", url_base="http://127.0.0.1:1", cache_dir=tmp_path / "c4")


def test_fetch_tu_url_without_scheme(tmp_path):
    with pytest.raises(TransportError):
        fetch_tu("MINI", url_base="no-scheme", cache_dir=tmp_path / "c5")


def test_fetch_tu_interrupted_extraction_leaves_no_raw(tu_server, tmp_path, monkeypatch):
    cache = tmp_path / "c6"
    real_open = zipfile.ZipFile.open
    opened = []

    def open_then_fail(self, *args, **kwargs):
        opened.append(args)
        if len(opened) > 1:
            raise OSError("disk full")
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(zipfile.ZipFile, "open", open_then_fail)
    with pytest.raises(OSError, match="disk full"):
        fetch_tu("MINI", url_base=tu_server, cache_dir=cache)
    monkeypatch.undo()
    assert list((cache / "MINI").iterdir()) == []  # no raw/, no staging dir
    raw = fetch_tu("MINI", url_base=tu_server, cache_dir=cache)
    assert len(parse_tu(raw, "MINI").graphs) == 2


def test_fetch_tu_archive_without_mandatory_files(tu_server, tmp_path):
    cache = tmp_path / "c7"
    with pytest.raises(IntegrityError, match="mandatory"):
        fetch_tu("PARTIAL", url_base=tu_server, cache_dir=cache)
    assert list((cache / "PARTIAL").iterdir()) == []


def test_fetch_tu_concurrent_fetches_publish_one_complete_raw(tu_server, tmp_path,
                                                              monkeypatch):
    cache = tmp_path / "c8"
    workers = 6
    # every worker passes the cache check and downloads before any publishes
    barrier = threading.Barrier(workers, timeout=30)
    real_urlopen = urllib.request.urlopen

    def urlopen(*args, **kwargs):
        barrier.wait()
        return real_urlopen(*args, **kwargs)

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    results, errors = [], []

    def fetch():
        try:
            results.append(fetch_tu("MINI", url_base=tu_server, cache_dir=cache))
        except Exception as exc:  # reported through the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=fetch) for _ in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    raw = cache / "MINI" / "raw"
    assert results == [raw] * workers
    assert [p.name for p in (cache / "MINI").iterdir()] == ["raw"]
    assert not list(cache.rglob("*.lock"))
    assert len(parse_tu(raw, "MINI").graphs) == 2


def test_fetch_tu_names_a_leftover_incomplete_raw(tu_server, tmp_path):
    raw = tmp_path / "c9" / "MINI" / "raw"
    raw.mkdir(parents=True)
    (raw / "MINI_A.txt").write_text("1, 2\n")
    with pytest.raises(IntegrityError, match=re.escape(str(raw))):
        fetch_tu("MINI", url_base=tu_server, cache_dir=tmp_path / "c9")
    assert [p.name for p in raw.parent.iterdir()] == ["raw"]
    assert [p.name for p in raw.iterdir()] == ["MINI_A.txt"]
