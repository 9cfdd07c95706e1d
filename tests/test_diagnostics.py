import numpy as np
import pytest

from gnnlab import Batch, ModelSpec, Rng, TrainConfig, build, train_model
from gnnlab.diagnostics import (TraceEvent, TraceSink, load_events_csv,
                                parse_series_spec, record_backward, record_forward,
                                record_loss, render_svg, write_events_csv)
from gnnlab.errors import RenderError, StateError

from conftest import random_graph, share_table, synth_dataset


def _traced_model(seed=0, kind="probe4"):
    model = build(ModelSpec(kind=kind, hidden_dim=6, mlp_dims=(5, 4), k=0.7),
                  3, 2, Rng(seed))
    batch = Batch.of([random_graph(Rng(seed + 1), 8, 3)])
    model.forward(batch)
    return model, batch


def test_record_forward_relu_outputs_nonnegative_mean():
    model, _ = _traced_model()
    sink = TraceSink()
    record_forward(sink, 1, model)
    means = {(e.layer, e.kind): e.value for e in sink.events()}
    for i in range(1, 5):
        assert means[(f"gcn{i}", "act_mean")] >= 0.0


def test_record_forward_requires_cached_state():
    model = build(ModelSpec(kind="probe4", hidden_dim=6, mlp_dims=(5, 4)),
                  3, 2, Rng(0))
    with pytest.raises(StateError):
        record_forward(TraceSink(), 1, model)


def test_record_forward_emits_preact_for_gcn_blocks_only():
    model, _ = _traced_model()
    sink = TraceSink()
    record_forward(sink, 1, model)
    kinds = {(e.layer, e.kind) for e in sink.events()}
    assert ("gcn1", "preact_std") in kinds
    assert ("pool1", "preact_std") not in kinds
    assert ("pool1", "act_std") in kinds


def test_epoch_pooling_matches_concatenated_statistics():
    # two record calls in one epoch pool entries exactly like one big matrix
    model, g = _traced_model(3)
    rng = Rng(9)
    g2 = Batch.of([random_graph(rng, 11, 3)])
    sink = TraceSink()
    record_forward(sink, 1, model)
    first = model.trace_states()[0][1].copy()
    model.forward(g2)
    record_forward(sink, 1, model)
    second = model.trace_states()[0][1].copy()
    both = np.concatenate([first.reshape(-1), second.reshape(-1)])
    values = {(e.layer, e.kind): e.value for e in sink.events()}
    assert values[("gcn1", "act_mean")] == pytest.approx(both.mean(), abs=1e-12)
    assert values[("gcn1", "act_std")] == pytest.approx(both.std(), abs=1e-12)


def test_events_unique_per_epoch_layer_kind():
    model, g = _traced_model(4)
    sink = TraceSink()
    for _ in range(3):
        record_forward(sink, 1, model)
        record_backward_ok = model.forward(g)
    events = sink.events()
    keys = [(e.epoch, e.layer, e.kind) for e in events]
    assert len(keys) == len(set(keys))


def test_record_forward_after_reinit_reports_unit_std():
    # the sink pools entries exactly like the rescaling pass measures sigma,
    # so a re-initialised probe reads back 1 +/- 1e-6 on its calibration set
    from gnnlab import reinit

    rng = Rng(21)
    graphs = share_table([random_graph(rng.derive(i), 5 + rng.integers(0, 8), 3)
                          for i in range(10)])
    model = build(ModelSpec(kind="probe4", hidden_dim=6, mlp_dims=(5, 4), k=0.7),
                  3, 2, rng.derive(99))
    reinit(model, graphs)
    sink = TraceSink()
    for g in graphs:
        model.forward(Batch.of([g]))
        record_forward(sink, 0, model)
    values = {(e.layer, e.kind): e.value for e in sink.events()}
    for i in range(1, 5):
        assert abs(values[(f"gcn{i}", "act_std")] - 1.0) < 1e-6
        assert abs(values[(f"pool{i}", "act_std")] - 1.0) < 1e-6


def test_record_backward_frozen_weights_zero_norm():
    ds = synth_dataset(12, seed=5)
    model = build(ModelSpec(kind="gcn_r_mlp", hidden_dim=6, mlp_dims=(5, 4)),
                  ds.feature_dim, ds.num_classes, Rng(5))
    sink = TraceSink()
    cfg = TrainConfig(lr=1e-3, epochs=3, batch_size=6, seed=0)
    train_model(model, list(ds.graphs), cfg, Rng(0).derive(1), sink=sink)
    for e in sink.events():
        if e.layer in ("gcn1.W", "gcn1.b") and e.kind == "grad_norm":
            assert e.value == 0.0


def test_perfect_scores_give_vanishing_grad_norms():
    model, g = _traced_model(7, kind="mlp")
    # a near-one-hot gradient source: softmax(scores) ~ onehot when confident
    from gnnlab import cross_entropy
    _, grad = cross_entropy(np.array([[60.0, 0.0]]), [0])
    model.forward(g)
    model.backward(grad)
    sink = TraceSink()
    record_backward(sink, 1, model)
    for e in sink.events():
        assert e.value < 1e-10


def test_emit_csv_empty_sink_header_only(tmp_path):
    path = tmp_path / "trace.csv"
    write_events_csv(TraceSink().events(), path)
    assert path.read_text() == "epoch,layer,kind,value\n"


def test_csv_round_trip(tmp_path):
    events = [TraceEvent(1, "gcn1", "act_std", 0.1234567890123),
              TraceEvent(2, "model", "train_loss", 3.5e-7)]
    path = tmp_path / "trace.csv"
    write_events_csv(events, path)
    assert load_events_csv(path) == events
    text = path.read_text()
    assert "\r" not in text


def test_load_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(RenderError):
        load_events_csv(path)


@pytest.mark.parametrize("row", ["2,gcn1,act_std,abc", "1,gcn1", "x,gcn1,act_std,1.0",
                                 # no chart can place a non-finite value
                                 "2,gcn1,act_std,nan", "2,gcn1,act_std,inf",
                                 "2,gcn1,act_std,-inf"],
                         ids=["bad_value", "short_row", "bad_epoch", "nan", "inf", "neg_inf"])
def test_load_csv_names_file_and_line_of_a_malformed_row(tmp_path, row):
    path = tmp_path / "trace.csv"
    path.write_text("epoch,layer,kind,value\n1,gcn1,act_std,0.5\n\n" + row + "\n")
    with pytest.raises(RenderError, match=f"{path}:4: "):
        load_events_csv(path)


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(RenderError, match="missing.csv"):
        load_events_csv(tmp_path / "missing.csv")


def test_record_loss_and_series():
    sink = TraceSink()
    for ep in (1, 2, 3):
        record_loss(sink, ep, 1.0 / ep)
    events = sink.events()
    assert [e.epoch for e in events] == [1, 2, 3]
    assert all(e.layer == "model" and e.kind == "train_loss" for e in events)


def test_scalar_event_is_the_running_sum_over_the_count():
    # pooled in the order added, so a trace CSV keeps every bit
    values = [0.1, 0.2, 0.7, 1e-17, 3.3]
    sink = TraceSink()
    total = 0.0
    for v in values:
        sink.add(4, "mlp1.W", "grad_norm", v)
        total += v
    assert sink.events() == [TraceEvent(4, "mlp1.W", "grad_norm", total / len(values))]


def test_render_svg_polyline_count(tmp_path):
    # three epochs of a toy run: one polyline per (layer, kind) series
    model, g = _traced_model(8, kind="gcn_mlp")
    sink = TraceSink()
    for ep in (1, 2, 3):
        model.forward(g)
        record_forward(sink, ep, model)
        record_loss(sink, ep, 1.0 / ep)
    csv_path = tmp_path / "trace.csv"
    write_events_csv(sink.events(), csv_path)
    out = tmp_path / "chart.svg"
    render_svg(csv_path, None, out)
    text = out.read_text()
    series = {(e.layer, e.kind) for e in sink.events()}
    assert text.count("<polyline") == len(series)
    assert text.startswith("<svg")
    assert "<title>" in text and "</svg>" in text


def test_render_svg_series_filter(tmp_path):
    model, g = _traced_model(9, kind="gcn_mlp")
    sink = TraceSink()
    record_forward(sink, 1, model)
    csv_path = tmp_path / "trace.csv"
    write_events_csv(sink.events(), csv_path)
    out = tmp_path / "one.svg"
    render_svg(csv_path, "kind=act_std,layer=gcn1", out)
    assert out.read_text().count("<polyline") == 1


def test_render_svg_unknown_series(tmp_path):
    model, g = _traced_model(10, kind="gcn_mlp")
    sink = TraceSink()
    record_forward(sink, 1, model)
    csv_path = tmp_path / "trace.csv"
    write_events_csv(sink.events(), csv_path)
    with pytest.raises(RenderError):
        render_svg(csv_path, "kind=no_such_kind", tmp_path / "x.svg")
    with pytest.raises(RenderError):
        parse_series_spec("bogus")
    with pytest.raises(RenderError):
        parse_series_spec("fruit=apple")


def test_render_svg_unwritable_path(tmp_path):
    model, g = _traced_model(11, kind="gcn_mlp")
    sink = TraceSink()
    record_forward(sink, 1, model)
    csv_path = tmp_path / "trace.csv"
    write_events_csv(sink.events(), csv_path)
    with pytest.raises(OSError):
        render_svg(csv_path, None, tmp_path / "missing_dir" / "x.svg")



def test_render_svg_refuses_a_value_span_beyond_the_float_range(tmp_path):
    csv_path = tmp_path / "trace.csv"
    csv_path.write_text("epoch,layer,kind,value\n1,gcn1,act_std,1e308\n2,gcn1,act_std,-1e308\n")
    out = tmp_path / "x.svg"
    with pytest.raises(RenderError, match=r"trace\.csv: values -1e\+308 to 1e\+308 span"):
        render_svg(csv_path, None, out)
    assert not out.exists()

def test_tracing_is_observationally_pure():
    ds = synth_dataset(16, seed=12)
    cfg = TrainConfig(lr=1e-3, epochs=3, batch_size=8, seed=1)
    spec = ModelSpec(kind="jk_sum", hidden_dim=6, mlp_dims=(5, 4))

    def final_params(with_sink):
        model = build(spec, ds.feature_dim, ds.num_classes, Rng(2))
        sink = TraceSink() if with_sink else None
        train_model(model, list(ds.graphs), cfg, Rng(1).derive(1), sink=sink)
        return {k: v.copy() for k, v in model.params.items()}

    traced = final_params(True)
    untraced = final_params(False)
    for name in traced:
        assert np.array_equal(traced[name], untraced[name])
