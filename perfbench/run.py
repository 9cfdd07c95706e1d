"""End-to-end and per-layer benchmark of gnnlab's one-fold pipeline.

Drives gnnlab from outside through the calls ``gnnlab train`` makes for one
fold: parse_tu -> stratified_folds -> prepare_fold_model (build, plus reinit
when configured) -> train_model -> evaluate, on a synthetic TU corpus that it
generates from ``--seed`` and writes itself.

    python3 perfbench/run.py --workload proteins_mlp --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --smoke       # every workload, both runs
    python3 perfbench/run.py --record-reference           # rewrite reference.json

``--trace 0`` measures the end-to-end metrics with a single hook (the time
each optimiser step returns); ``--trace 1`` is the separate traced run that
yields the per-layer metrics. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. See README.md
for every metric.
"""

import os

# Pin BLAS before anything imports numpy: one thread (at most nproc) keeps
# timings steady and results independent of the machine's core count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import copy  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

FOLDS = 10           # the harness's fold count and seed, as in the shipped configs
FOLD_SEED = 12345
FOLD = 0
INIT_BURST = 8       # builds per init_s sample on workloads without reinit
INIT_EVERY_S = 0.1   # at most one such sample per this many seconds of the run
TRAIN_SHARE = 0.5    # of --seconds spent training; the rest evaluates
TRIM = 0.1           # share of samples cut from each end before averaging
REFERENCE_SEED = 1
REFERENCE_EPOCHS = 2
REFERENCE_RTOL = 1e-6  # summation-order changes stay far below; real changes do not

E2E_UNITS = {"train_graphs_per_s": "graphs/s", "step_ms_p50": "ms", "step_ms_p90": "ms",
             "eval_graphs_per_s": "graphs/s", "setup_s": "s", "ingest_s": "s",
             "init_s": "s", "peak_rss_mb": "MB"}


class ProgramMissing(Exception):
    """gnnlab cannot be imported from this checkout's ``src``."""


def import_program() -> float:
    """Import gnnlab from the checkout and return the seconds it took."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    try:
        import gnnlab
        from gnnlab import diagnostics, graphdata, training  # noqa: F401
    except ImportError as exc:
        raise ProgramMissing(f"cannot import gnnlab from {SRC}: {exc}") from exc
    elapsed = time.perf_counter() - t0
    if not Path(gnnlab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ProgramMissing(f"gnnlab came from {gnnlab.__file__}, not from {SRC}")
    return elapsed


# --------------------------------------------------------------------------
# provenance

def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "gnnlab").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance() -> dict:
    import numpy as np
    kernels = sys.modules.get("gnnlab._kernels")
    if kernels is not None and hasattr(kernels, "USING_NUMBA"):
        backend = "numba" if kernels.USING_NUMBA else "numpy"
    elif "scipy.sparse" in sys.modules:
        backend = "scipy.sparse"
    else:
        backend = "numpy"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas_name = None
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {"sparse_backend": backend, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy_version, "blas": blas_name,
            "blas_threads": BLAS_THREADS,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "git_commit": _git_commit(), "source_sha256": _source_digest()}


# --------------------------------------------------------------------------
# the one-fold pipeline

class Ledger:
    """Operations attempted and failed, with a reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, count: int = 1, problem: str | None = None) -> None:
        self.attempted += count
        if problem:
            self.failed += count
            self.problems.append(problem)


def config(w, epochs: int = 1):
    from gnnlab.init import InitScheme
    from gnnlab.models import ModelSpec
    from gnnlab.training import TrainConfig
    init = InitScheme(kind="standard_then_reinit" if w.reinit else "standard")
    return ModelSpec(kind=w.model), TrainConfig(epochs=epochs, init=init)


def ingest(directory, shape):
    from gnnlab import graphdata
    from corpus import DEGREE_CAP
    return graphdata.parse_tu(directory, shape.name, feature_policy=shape.feature_policy,
                              degree_cap=DEGREE_CAP)


def split_fold(ds):
    from gnnlab import graphdata
    split = graphdata.stratified_folds(ds, FOLDS, seed=FOLD_SEED)
    return ([ds.graphs[i] for i in split.train_indices(FOLD)],
            [ds.graphs[i] for i in split.test_indices(FOLD)])


def prepare(ds, train, w):
    from gnnlab import training
    spec, cfg = config(w)
    return training.prepare_fold_model(ds, train, spec, cfg, FOLD)


def shuffle_rng(w):
    """The shuffle stream train_fold uses for this fold."""
    from gnnlab import Rng
    _, cfg = config(w)
    return Rng(cfg.seed ^ FOLD).derive(1)


def train_epochs(model, train, w, epochs: int, rng, opt=None) -> list:
    """One train_model call over ``epochs`` epochs; returns per-epoch losses."""
    from gnnlab import diagnostics, training
    _, cfg = config(w, epochs)
    sink = diagnostics.TraceSink() if w.diagnostics else None
    return training.train_model(model, train, cfg, rng, sink=sink, opt=opt)


def new_optimiser(model, w):
    from gnnlab import training
    _, cfg = config(w)
    return training.Adam.from_config(model, cfg)


def divisors(report):
    return None if report is None else [float(v) for v in report.divisors]


def check_losses(losses, ledger: Ledger, graphs: int, what: str) -> None:
    """Every graph of an epoch counts as failed when the epoch loss is not finite."""
    for v in losses:
        ledger.op(graphs, None if math.isfinite(v) else f"{what}: non-finite epoch loss {v}")


def close_to(got, want, rtol: float) -> bool:
    if got is None or want is None:
        return got is None and want is None
    if len(got) != len(want):
        return False
    return all(abs(g - r) <= rtol * max(abs(r), 1e-300) for g, r in zip(got, want))


def reference_run(w, work: Path, ledger: Ledger | None = None) -> dict:
    """Train the fixed reference corpus for REFERENCE_EPOCHS epochs."""
    import corpus
    ledger = ledger if ledger is not None else Ledger()
    ref = corpus.generate(w.smoke, [w.salt, REFERENCE_SEED])
    directory = corpus.write_tu(ref, work / "reference")
    ds = ingest(directory, w.smoke)
    problems = corpus.check_dataset(ds, ref)
    ledger.op(1, f"reference ingest: {problems[0]}" if problems else None)
    train, _ = split_fold(ds)
    model, report = prepare(ds, train, w)
    losses = train_epochs(model, train, w, REFERENCE_EPOCHS, shuffle_rng(w))
    return {"losses": [float(v) for v in losses], "reinit_divisors": divisors(report),
            "train_graphs": len(train)}


def check_reference(w, work: Path, ledger: Ledger) -> None:
    want = json.loads(REFERENCE.read_text(encoding="utf-8"))[w.name]
    got = reference_run(w, work, ledger)
    if w.reinit:
        ok = close_to(got["reinit_divisors"], want["reinit_divisors"], REFERENCE_RTOL)
        ledger.op(1, None if ok else
                  f"reference reinit divisors {got['reinit_divisors']} differ from "
                  f"{want['reinit_divisors']} beyond rtol {REFERENCE_RTOL}")
    ok = close_to(got["losses"], want["losses"], REFERENCE_RTOL)
    ledger.op(got["train_graphs"] * REFERENCE_EPOCHS, None if ok else
              f"reference losses {got['losses']} differ from {want['losses']} "
              f"beyond rtol {REFERENCE_RTOL}")


# --------------------------------------------------------------------------
# the untraced run: end-to-end metrics

def trimmed_mean(values) -> float:
    """Mean of the samples with the lowest and highest TRIM share cut off, a
    sample at the edge counting with the part of its rank interval [i, i+1)
    that lies inside [TRIM n, (1 - TRIM) n).

    A shared machine can switch between a fast and a slow state every few
    seconds. A median snaps to whichever state holds most samples, so it jumps
    between runs; this mean moves smoothly with the share of each state and
    still ignores the outliers at both ends.
    """
    vals = sorted(values)
    n = len(vals)
    lo, hi = TRIM * n, (1 - TRIM) * n
    weights = [max(0.0, min(i + 1, hi) - max(i, lo)) for i in range(n)]
    return sum(w * v for w, v in zip(weights, vals)) / sum(weights)


def quartiles(values) -> dict:
    vals = sorted(values)
    mean = trimmed_mean(vals)
    if len(vals) < 2:
        return {"n": len(vals), "q1": vals[0], "median": vals[0], "q3": vals[0],
                "trimmed_mean": mean}
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return {"n": len(vals), "q1": q1, "median": q2, "q3": q3, "trimmed_mean": mean}


def check_ingest(ds, data, ledger: Ledger) -> None:
    import corpus
    problems = corpus.check_dataset(ds, data)
    ledger.op(1, f"ingest: {problems[0]} ({len(problems)} problems)" if problems else None)


def timed_setup(w, shape, directory, data, samples: dict, ledger: Ledger):
    """One set-up: ingest, fold split and model preparation, each timed and
    checked; returns (dataset, train graphs, test graphs, model, reinit divisors)."""
    t0 = time.perf_counter()
    ds = ingest(directory, shape)
    t1 = time.perf_counter()
    train, test = split_fold(ds)
    t2 = time.perf_counter()
    model, report = prepare(ds, train, w)
    t3 = time.perf_counter()
    samples["ingest"].append(t1 - t0)
    if w.reinit:  # without reinit, InitSampler times builds across the run
        samples["init"].append(t3 - t2)
    samples["setup"].append(samples["import"][0] + t3 - t0)
    check_ingest(ds, data, ledger)
    return ds, train, test, model, divisors(report)


class InitSampler:
    """init_s samples for workloads without reinit, where a build takes a few
    milliseconds: a burst of INIT_BURST builds, timed as one per-build mean,
    after training epochs and evaluation passes at most every INIT_EVERY_S.
    The samples then span the run as the training and evaluation samples do."""

    def __init__(self, w, out: list):
        self.w, self.out, self.last = w, out, -math.inf

    def __call__(self, ds, train) -> None:
        if self.w.reinit or time.perf_counter() - self.last < INIT_EVERY_S:
            return
        t0 = time.perf_counter()
        for _ in range(INIT_BURST):
            prepare(ds, train, self.w)
        self.last = time.perf_counter()
        self.out.append((self.last - t0) / INIT_BURST)


def untraced(w, shape, directory, data, import_s, seconds, rounds, ledger):
    """Rounds of set-up, a training slice and an evaluation slice, so that
    every metric samples the whole run rather than one stretch of it.

    The first set-up's model is trained and evaluated in every round; the
    later set-ups are timed, checked and dropped. The first epoch fills
    per-graph memos: it is trained but not measured.
    """
    import numpy as np
    import spans
    from gnnlab import training
    samples = {"import": [import_s], "setup": [], "ingest": [], "init": [],
               "epoch": [], "epoch_p50": [], "epoch_p90": [], "eval": []}
    fold = first_divisors = accuracy = peak_rss_mb = None
    warm = False
    stamps = []
    sample_init = InitSampler(w, samples["init"])
    for r in range(rounds):
        dataset, train, test, model, divs = timed_setup(w, shape, directory, data,
                                                        samples, ledger)
        if w.reinit:
            first_divisors = divs if first_divisors is None else first_divisors
            bad = not all(math.isfinite(v) and v > 0 for v in divs) or divs != first_divisors
            ledger.op(1, f"reinit divisors {divs} are not finite, positive and identical "
                         f"across set-ups" if bad else None)
        if fold is None:
            fold = (dataset, train, test, model, new_optimiser(model, w), shuffle_rng(w))
        else:
            # extra parses feed ingest_s only; none in round one, whose end
            # gives the peak RSS of a single dataset
            for _ in range(w.ingests - 1):
                t0 = time.perf_counter()
                ds = ingest(directory, shape)
                samples["ingest"].append(time.perf_counter() - t0)
                check_ingest(ds, data, ledger)
                del ds
        dataset, train, test, model, opt, rng = fold

        patch = spans.install_step_clock(stamps)
        if patch.absent:
            raise RuntimeError(f"cannot hook the optimiser step: {patch.absent}")
        try:
            begin = time.perf_counter()
            measured = 0
            while measured == 0 or time.perf_counter() - begin < TRAIN_SHARE * seconds / rounds:
                n0 = len(stamps)
                t0 = time.perf_counter()
                losses = train_epochs(model, train, w, 1, rng, opt)
                elapsed = time.perf_counter() - t0
                check_losses(losses, ledger, len(train), "training")
                if not warm:
                    warm = True
                    continue
                measured += 1
                samples["epoch"].append(len(train) / elapsed)
                steps = [1e3 * (b - a) for a, b in zip([t0] + stamps[n0:-1], stamps[n0:])]
                samples["epoch_p50"].append(float(np.percentile(steps, 50)))
                samples["epoch_p90"].append(float(np.percentile(steps, 90)))
                sample_init(dataset, train)
        finally:
            patch.remove()

        begin = time.perf_counter()
        eval_s = (1 - TRAIN_SHARE) * seconds / rounds
        accuracy = None  # training moved the model since the last round
        while accuracy is None or time.perf_counter() - begin < eval_s:
            t0 = time.perf_counter()
            acc = training.evaluate(model, test)
            samples["eval"].append(len(test) / (time.perf_counter() - t0))
            accuracy = acc if accuracy is None else accuracy
            ledger.op(len(test), None if acc == accuracy and 0 <= acc <= 100 else
                      f"evaluation gave {acc}, an earlier pass of this round gave {accuracy}")
            sample_init(dataset, train)
        if peak_rss_mb is None:  # later rounds hold a second, throwaway set-up
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    spread = {k: quartiles(v) for k, v in samples.items()}
    # each step percentile per epoch, then across epochs like every other
    # timing: the trimmed mean
    values = {"train_graphs_per_s": spread["epoch"]["trimmed_mean"],
              "step_ms_p50": spread["epoch_p50"]["trimmed_mean"],
              "step_ms_p90": spread["epoch_p90"]["trimmed_mean"],
              "eval_graphs_per_s": spread["eval"]["trimmed_mean"],
              "setup_s": spread["setup"]["trimmed_mean"],
              "ingest_s": spread["ingest"]["trimmed_mean"],
              "init_s": spread["init"]["trimmed_mean"],
              "peak_rss_mb": peak_rss_mb}
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    return metrics, {"accuracy": accuracy, "reinit_divisors": first_divisors,
                     "samples": spread}


# --------------------------------------------------------------------------
# the traced run: per-layer metrics

LAYER_IDS = ("gcn1", "gcn2", "gcn3", "gcn4", "pool1", "pool2", "pool3", "pool4",
             "mlp1", "mlp2", "mlp3")


def _layer_stages(model):
    stages = list(getattr(model, "block_stages", list)())
    stages += [(f"mlp{j}", layer) for j, layer in enumerate(getattr(model, "mlp", ()), 1)]
    return stages


def layer_metrics(setup_tr, run_tr, ratio: float) -> dict:
    s = setup_tr.summary()
    r = run_tr.summary()

    def get(summary, name, field="self_s"):
        return sum(v[field] for k, v in summary.items()
                   if k == name or k.startswith(name + "@"))

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for k in ("spmm", "gcn_norm", "induced_subgraph"):
        put(f"kernels.{k}.s", get(r, f"kernels.{k}"), "s")
        put(f"kernels.{k}.calls", get(r, f"kernels.{k}", "calls"), "count")
    put("kernels.spmm.madds", run_tr.counters.get("kernels.spmm.madds", 0), "count")
    put("numcore.from_edges.s", get(s, "numcore.from_edges"), "s")
    put("numcore.from_edges.calls", get(s, "numcore.from_edges", "calls"), "count")
    calls = get(r, "numcore.normalized", "calls")
    misses = run_tr.count_under("kernels.gcn_norm", "numcore.normalized")
    put("numcore.normalized.s", get(r, "numcore.normalized"), "s")
    put("numcore.normalized.calls", calls, "count")
    put("numcore.normalized.hit_ratio", (calls - misses) / calls if calls else 0.0, "ratio")
    put("numcore.induced.s", get(r, "numcore.induced"), "s")
    put("numcore.induced.calls", get(r, "numcore.induced", "calls"), "count")
    put("graphdata.parse_tu.s", get(s, "graphdata.parse_tu"), "s")
    put("graphdata.stratified_folds.s", get(s, "graphdata.stratified_folds"), "s")
    for kind in ("gcn", "pool", "readout", "dense"):
        put(f"layers.{kind}.fwd_s", get(r, f"layers.{kind}.fwd"), "s")
        put(f"layers.{kind}.bwd_s", get(r, f"layers.{kind}.bwd"), "s")
        put(f"layers.{kind}.calls", get(r, f"layers.{kind}.fwd", "calls"), "count")
    for lid in LAYER_IDS:
        kind = "dense" if lid.startswith("mlp") else lid.rstrip("0123456789")
        for phase in ("fwd", "bwd"):
            put(f"layers.{lid}.{phase}_s", r.get(f"layers.{kind}.{phase}@{lid}",
                                                {"self_s": 0.0})["self_s"], "s")
    for k in ("forward", "backward"):
        put(f"models.{k}.s", get(r, f"models.{k}"), "s")
        put(f"models.{k}.calls", get(r, f"models.{k}", "calls"), "count")
    put("models.run_blocks.calls", get(s, "models.run_blocks", "calls"), "count")
    inside = setup_tr.summary(setup_tr.windows("init.reinit"))
    put("init.reinit.s", get(s, "init.reinit"), "s")
    put("init.reinit.total_s", get(s, "init.reinit", "total_s"), "s")
    put("init.reinit.layer_forwards", get(inside, "layers.gcn.fwd", "calls")
        + get(inside, "layers.pool.fwd", "calls"), "count")
    put("training.train_model.self_s", get(r, "training.train_model"), "s")
    put("training.cross_entropy.s", get(r, "training.cross_entropy"), "s")
    put("training.cross_entropy.calls", get(r, "training.cross_entropy", "calls"), "count")
    put("training.adam.step_s", get(r, "training.adam.step"), "s")
    put("training.adam.steps", get(r, "training.adam.step", "calls"), "count")
    put("training.evaluate.s", get(r, "training.evaluate"), "s")
    for k in ("record_forward", "record_backward"):
        put(f"diagnostics.{k}.s", get(r, f"diagnostics.{k}"), "s")
        put(f"diagnostics.{k}.calls", get(r, f"diagnostics.{k}", "calls"), "count")
    put("phase.setup.s", get(s, "phase.setup", "total_s"), "s")
    put("phase.train.s", get(r, "phase.train", "total_s"), "s")
    put("phase.eval.s", get(r, "phase.eval", "total_s"), "s")
    put("bench.trace_overhead_ratio", ratio, "ratio")
    return out


def hook_report(w, setup_tr, run_tr, absent) -> dict:
    """Hooks expected on this workload that recorded nothing, and hooks
    expected to stay silent that fired."""
    import spans
    calls = {}
    for tr in (setup_tr, run_tr):
        for name, v in tr.summary().items():
            base = name.split("@")[0]
            calls[base] = calls.get(base, 0) + v["calls"]
    names = {h.name + (f".{h.phase}" if h.layer else "") for h in spans.HOOKS}
    return {"absent": sorted(absent),
            "silent": sorted(n for n in names if w.expects(n) and not calls.get(n)),
            "unexpected": sorted(n for n in names if not w.expects(n) and calls.get(n))}


def traced(w, shape, directory, data, ledger, epochs: int, out_prefix: Path):
    import spans
    from gnnlab import training
    setup_tr, run_tr = spans.Tracer(), spans.Tracer()
    patch = spans.install_tracing(setup_tr)
    try:
        with setup_tr.span("phase.setup"):
            ds = ingest(directory, shape)
            train, test = split_fold(ds)
            model, _ = prepare(ds, train, w)
    finally:
        patch.remove()
    absent = list(patch.absent)
    check_ingest(ds, data, ledger)

    # warm the per-graph memos on a throwaway copy, then train the same
    # number of epochs untraced and traced from identical starting points
    train_epochs(copy.deepcopy(model), train, w, 1, shuffle_rng(w))
    plain = copy.deepcopy(model)
    t0 = time.perf_counter()
    plain_losses = train_epochs(plain, train, w, epochs, shuffle_rng(w))
    plain_s = time.perf_counter() - t0

    run_tr.register_layers(_layer_stages(model))
    patch = spans.install_tracing(run_tr)
    try:
        with run_tr.span("phase.train"):
            traced_losses = train_epochs(model, train, w, epochs, shuffle_rng(w))
        with run_tr.span("phase.eval"):
            acc = training.evaluate(model, test)
    finally:
        patch.remove()
    ledger.op(len(test), None if 0 <= acc <= 100 else f"evaluation gave {acc}")
    check_losses(plain_losses, ledger, len(train), "untraced training")
    same = plain_losses == traced_losses
    ledger.op(len(train) * epochs, None if same else
              f"traced losses {traced_losses} differ from untraced {plain_losses}")
    traced_s = run_tr.windows("phase.train")[0]
    ratio = (traced_s[1] - traced_s[0]) / plain_s
    setup_tr.save(f"{out_prefix}-setup.npz")
    run_tr.save(f"{out_prefix}-run.npz")
    metrics = layer_metrics(setup_tr, run_tr, ratio)
    extra = {"hooks": hook_report(w, setup_tr, run_tr, absent), "trace_epochs": epochs,
             "losses": traced_losses, "counters": run_tr.counters}
    return metrics, extra


# --------------------------------------------------------------------------
# command line

def run_workload(args) -> int:
    from workloads import WORKLOADS
    w = WORKLOADS[args.workload]
    shape = w.smoke if args.smoke else w.corpus
    import_s = import_program()
    import corpus
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = WORK / tag
    data = corpus.generate(shape, [w.salt, args.seed])
    directory = corpus.write_tu(data, work / "corpus")
    ledger = Ledger()
    try:
        check_reference(w, work, ledger)
        if args.trace:
            (WORK / "traces").mkdir(parents=True, exist_ok=True)
            metrics, extra = traced(w, shape, directory, data, ledger,
                                    1 if args.smoke else w.trace_epochs,
                                    WORK / "traces" / tag)
        else:
            metrics, extra = untraced(w, shape, directory, data, import_s, args.seconds,
                                      1 if args.smoke else w.rounds, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    flags = extra.get("hooks", {})
    for kind in ("absent", "silent", "unexpected"):
        for name in flags.get(kind, ()):
            print(f"warning: hook {name} is {kind} on {w.name}", file=sys.stderr)
    correct = ledger.failed == 0
    detail = {"workload": w.name, "why": w.why, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "seconds": args.seconds, "corpus": data.stats(),
              "provenance": provenance(), "correct": correct,
              "attempted": ledger.attempted, "failed": ledger.failed,
              "failed_share": ledger.failed / ledger.attempted,
              "problems": ledger.problems[:20], **extra, "metrics": metrics}
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    for name, m in metrics.items():
        print(f"{w.name:<20} {name:<36} {m['value']:>14.6g} {m['unit']}")
    print(f"{w.name:<20} {'failed_share':<36} {detail['failed_share']:>14.6g} ratio")
    for problem in ledger.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    from workloads import WORKLOADS
    if not (SRC / "gnnlab").is_dir():
        raise ProgramMissing(f"no gnnlab package under {SRC}")
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace_flag in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace_flag)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            sys.stdout.write("\n".join(lines[:-2]) + "\n")
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not lines:
                print(f"error: {name} --trace {trace_flag} exited {proc.returncode}",
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0


def record_reference() -> int:
    """Rewrite reference.json from the current program (run on a known-good commit)."""
    from workloads import WORKLOADS
    import_program()
    out = {}
    for name, w in WORKLOADS.items():
        work = WORK / f"record-{name}-{os.getpid()}"
        try:
            ref = reference_run(w, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        out[name] = {"seed": REFERENCE_SEED, "epochs": REFERENCE_EPOCHS,
                     "losses": ref["losses"], "reinit_divisors": ref["reinit_divisors"]}
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=12)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="small corpora, one set-up and one traced epoch")
    p.add_argument("--record-reference", action="store_true")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.record_reference:
            return record_reference()
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # the program failed outright: report it, print no result
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
