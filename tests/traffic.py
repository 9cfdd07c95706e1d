"""List the statements of ``src/gnnlab`` that the shipped workflows never run.

Under ``sys.settrace`` it trains every preset in ``configs/`` (2 folds, 1
epoch) on a seeded synthetic corpus named after the preset's dataset, trains
once more with each ``train`` option no preset sets (``EXTRA``, and a config
file holding a list and a null on a corpus of node attributes), trains two
presets for 2 epochs tested after epoch 1 too (``--eval-at 1``), tabulates
them with ``table`` and plots one trace CSV. It then prints each
statement line of ``src/gnnlab`` that no run executed as ``file:line: text``,
and their count; lines that start with ``raise`` or ``except`` are left out.
What remains is error and guard paths, ``fetch``, and code that only other
callers (perfbench, the tests) reach: a candidate list for deletion, not a
verdict. Exits 0 whatever it lists, and 1 if a run fails.

    python tests/traffic.py

pytest does not collect this file.
"""

import ast
import contextlib
import io
import json
import sys
import tempfile
import types
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gnnlab"
PRESETS = sorted((ROOT / "configs").glob("*.json"))
SWEPT = ("proteins_mlp", "proteins_jk_sum")
# each `train` option no preset sets, given once on top of a preset
EXTRA = {"proteins_jk_sum": ("--jk-agg", "sum", "--reinit", "--no-diagnostics"),
         "proteins_gcn_mlp": ("--readout", "sum"),
         "proteins_mlp": ("--jobs", "2")}


def statement_lines(path: Path) -> set:
    """First lines of the statements in ``path`` that compile to code (so not
    docstrings)."""
    text = path.read_text(encoding="utf-8")
    starts = {node.lineno for node in ast.walk(ast.parse(text)) if isinstance(node, ast.stmt)}
    code_lines, todo = set(), [compile(text, str(path), "exec")]
    while todo:
        co = todo.pop()
        code_lines.update(line for _, _, line in co.co_lines() if line is not None)
        todo.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return starts & code_lines


def run_traced(workdir: Path) -> tuple:
    """Run every workflow under a line tracer of ``src/gnnlab``; returns the
    executed (file, line) pairs and the failed commands."""
    executed, prefix = set(), str(SRC)

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path[:0] = [str(SRC.parent), str(ROOT / "tests")]
    sys.settrace(tracer)
    try:  # gnnlab is imported under the tracer, and before numpy, as `gnnlab` runs
        from gnnlab import write_tu
        from gnnlab.cli import main
        from conftest import synth_dataset

        failed = []

        def gnnlab(*argv):
            with contextlib.redirect_stdout(io.StringIO()):
                if main(list(argv)) != 0:
                    failed.append(" ".join(argv))

        data, written = workdir / "data", set()

        def train(config, out, *extra):
            gnnlab("train", "--config", str(config), "--data-dir", str(data),
                   "--folds", "2", "--epochs", "1", "--out", str(workdir / out), *extra)

        for preset in PRESETS:
            name = json.loads(preset.read_text())["dataset"]["name"]
            if name not in written:
                write_tu(synth_dataset(40, seed=1, name=name), data / name / "raw")
                written.add(name)
            train(preset, preset.stem)
        for stem, extra in EXTRA.items():
            train(ROOT / "configs" / f"{stem}.json", f"{stem}_extra", *extra)
        # a config file holding a list and a null, on a corpus of node attributes
        # that its feature policy's default (attributes first) picks
        attributed = replace(synth_dataset(40, seed=1, name="ATTR"), feature_policy="attributes")
        write_tu(attributed, data / "ATTR" / "raw")
        config = workdir / "attributes.json"
        config.write_text(json.dumps({
            "dataset": {"name": "ATTR"},
            "model": {"kind": "gcn_mlp", "mlp_dims": [16, 8]},
            "train": {"init": {"kind": "standard", "seed": None}}}))
        train(config, "attributes")
        for stem in SWEPT:
            train(ROOT / "configs" / f"{stem}.json", f"sweep/{stem}", "--epochs", "2",
                  "--eval-at", "1", "--no-diagnostics")
        gnnlab("table", *(str(workdir / "sweep" / stem) for stem in SWEPT),
               "--out", str(workdir / "accuracy_vs_epochs.csv"))
        gnnlab("plot", str(workdir / SWEPT[1] / "trace_fold0.csv"), "--series", "kind=act_std",
               "--out", str(workdir / "plot.svg"))
    finally:
        sys.settrace(None)
    return executed, failed


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        executed, failed = run_traced(Path(tmp))
    missed = 0
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for n in sorted(statement_lines(path)):
            text = lines[n - 1].strip()
            if (str(path), n) in executed or text.startswith(("raise", "except")):
                continue
            print(f"{path.relative_to(ROOT)}:{n}: {text}")
            missed += 1
    print(f"{missed} statement lines of src/gnnlab ran in no workflow")
    for argv in failed:
        print(f"failed: gnnlab {argv}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
