"""Per-epoch training instrumentation and figure emission.

A :class:`TraceSink` pools raw statistics per (epoch, layer, kind) key while
the epoch runs and materialises one :class:`TraceEvent` per key, so CSV rows
stay compact no matter how many batches an epoch has. Activation statistics
are pooled over all matrix entries seen during the epoch (matching how the
variance-rescaling pass measures block output std); gradient norms are
averaged over optimiser steps. Rendering is plain SVG markup, one polyline
per (layer, kind) series.
"""

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import RenderError
from .numcore import Moments


@dataclass(frozen=True)
class TraceEvent:
    epoch: int
    layer: str
    kind: str
    value: float


class TraceSink:
    """Append-only event buffer with per-epoch pooling."""

    def __init__(self):
        # (epoch, layer, stat or kind) -> Moments of the matrix entries or
        # scalars pooled under it, in first-insertion order of the keys
        self._acc = {}

    def add(self, epoch: int, layer: str, tag: str, x):
        """Pool the entries of ``x`` (a matrix or a scalar) under (epoch, layer,
        tag): "act" yields act_mean/act_std events, "preact" yields
        preact_std, and any other tag an event of the mean pooled."""
        self._acc.setdefault((epoch, layer, tag), Moments()).add(np.asarray(x))

    def events(self) -> list:
        """Materialise events in first-insertion order of their keys."""
        out = []
        for (epoch, layer, tag), acc in self._acc.items():
            if tag == "act":
                out.append(TraceEvent(epoch, layer, "act_mean", acc.mean()))
                out.append(TraceEvent(epoch, layer, "act_std", acc.std()))
            elif tag == "preact":
                out.append(TraceEvent(epoch, layer, "preact_std", acc.std()))
            else:
                out.append(TraceEvent(epoch, layer, tag, acc.mean()))
        return out


def record_forward(sink: TraceSink, epoch: int, model) -> None:
    """Pool activation stats of the most recent forward into the sink."""
    for layer_id, out, pre in model.trace_states():
        sink.add(epoch, layer_id, "act", out)
        if pre is not None:
            sink.add(epoch, layer_id, "preact", pre)


def record_backward(sink: TraceSink, epoch: int, model) -> None:
    """Record the L2 norm of each named parameter's current step gradient."""
    for name, grad in model.last_grads.items():
        sink.add(epoch, name, "grad_norm", np.linalg.norm(grad))


def record_loss(sink: TraceSink, epoch: int, value: float) -> None:
    sink.add(epoch, "model", "train_loss", value)


# --------------------------------------------------------------------------
# CSV

CSV_HEADER = ("epoch", "layer", "kind", "value")


def write_events_csv(events, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for ev in events:
            writer.writerow((ev.epoch, ev.layer, ev.kind, repr(ev.value)))


def load_events_csv(path) -> list:
    events = []
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise RenderError(f"{path}: cannot read trace CSV ({exc.strerror})") from None
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != CSV_HEADER:
            raise RenderError(f"{path}: not a trace CSV (bad header {header})")
        for row in reader:
            if not row:
                continue
            try:
                epoch, layer, kind, value = row
                if not np.isfinite(value := float(value)):  # a chart cannot place it
                    raise ValueError(value)
                events.append(TraceEvent(int(epoch), layer, kind, value))
            except ValueError:
                raise RenderError(f"{path}:{reader.line_num}: malformed row {row!r}") from None
    return events


# --------------------------------------------------------------------------
# SVG line charts

PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
           "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")

WIDTH, HEIGHT = 860, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 180, 40, 44


def parse_series_spec(spec: str | None) -> dict:
    """Parse a filter like ``kind=act_std,layer=gcn1`` into a dict."""
    if not spec:
        return {}
    out = {}
    for part in spec.split(","):
        if "=" not in part:
            raise RenderError(f"bad series filter {part!r}; use key=value")
        key, value = part.split("=", 1)
        key = key.strip()
        if key not in ("layer", "kind"):
            raise RenderError(f"unknown series filter key {key!r}")
        out[key] = value.strip()
    return out


def _ticks(lo: float, hi: float, n: int = 5):
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def render_svg(csv_path, series_spec: str | None, out_path, title: str | None = None) -> None:
    """Render the selected (layer, kind) series of a trace CSV as an SVG chart."""
    from html import escape  # here, off the import of gnnlab
    events = load_events_csv(csv_path)
    filt = parse_series_spec(series_spec)
    series = {}
    for ev in events:
        if filt.get("layer") not in (None, ev.layer):
            continue
        if filt.get("kind") not in (None, ev.kind):
            continue
        series.setdefault((ev.layer, ev.kind), []).append((ev.epoch, ev.value))
    if not series:
        raise RenderError(f"no series match {series_spec!r} in {csv_path}")
    for pts in series.values():
        pts.sort(key=lambda p: p[0])
    xs = [p[0] for pts in series.values() for p in pts]
    ys = [p[1] for pts in series.values() for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if not np.isfinite(y_hi - y_lo):  # the scale would map every point to nan
        raise RenderError(f"{csv_path}: values {y_lo!r} to {y_hi!r} span more than a float holds")
    if x_hi == x_lo:
        x_hi = x_lo + 1
    if y_hi == y_lo:
        y_hi = y_lo + 1

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    name = escape(title or Path(csv_path).stem)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<title>{name}</title>',
        f'<text x="{MARGIN_L}" y="24" font-size="16" font-family="sans-serif">{name}</text>',
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T + plot_h}" x2="{MARGIN_L + plot_w}" '
        f'y2="{MARGIN_T + plot_h}" stroke="#333" stroke-width="1"/>',
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
        f'y2="{MARGIN_T + plot_h}" stroke="#333" stroke-width="1"/>',
    ]
    for t in _ticks(x_lo, x_hi):
        parts.append(f'<text x="{sx(t):.1f}" y="{MARGIN_T + plot_h + 18}" font-size="11" '
                     f'text-anchor="middle" font-family="sans-serif">{t:g}</text>')
    for t in _ticks(y_lo, y_hi):
        parts.append(f'<text x="{MARGIN_L - 8}" y="{sy(t) + 4:.1f}" font-size="11" '
                     f'text-anchor="end" font-family="sans-serif">{t:.4g}</text>')
    parts.append(f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 8}" font-size="12" '
                 f'text-anchor="middle" font-family="sans-serif">epoch</text>')
    for s_idx, ((layer, kind), pts) in enumerate(sorted(series.items())):
        color = PALETTE[s_idx % len(PALETTE)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{coords}"/>')
        ly = MARGIN_T + 14 + 16 * s_idx
        lx = MARGIN_L + plot_w + 12
        parts.append(f'<rect x="{lx}" y="{ly - 9}" width="10" height="10" fill="{color}"/>')
        parts.append(f'<text x="{lx + 14}" y="{ly}" font-size="11" '
                     f'font-family="sans-serif">{escape(f"{layer}:{kind}")}</text>')
    parts.append("</svg>")
    Path(out_path).write_text("\n".join(parts) + "\n", encoding="utf-8")
