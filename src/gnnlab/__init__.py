"""gnnlab: a from-scratch graph-classification laboratory.

Graph convolutions with weighted self-loops, top-k pooling, jumping-knowledge
taps, data-driven variance re-initialisation, shallow baselines, and a
deterministic 10-fold benchmark harness, all on numpy (sparse kernels
included).
"""

import multiprocessing
import os
import sys

# One BLAS thread unless the environment sets more. BLAS reads these when numpy
# loads, so a process that loaded numpy first keeps its count; a fold worker
# sets nothing, as it inherits its parent's environment and so its count.
if "numpy" not in sys.modules and multiprocessing.parent_process() is None:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

from .config import (DatasetConfig, ExperimentConfig, Folds, InitScheme, ModelSpec,
                     TrainConfig)
from .graphdata import (Batch, Dataset, FoldSplit, fetch_tu, parse_tu, stratified_folds,
                        write_tu)
from .init import ReinitReport, init_standard, reinit
from .layers import DenseLayer, GcnLayer, Readout, TopKPool
from .models import Model, build
from .numcore import Rng, SparseAdj
from .training import (Adam, FoldResult, RunReport, cross_entropy, evaluate, run_cv,
                       train_fold, train_model)

__version__ = "0.1.0"

__all__ = [
    "DatasetConfig", "ExperimentConfig", "Folds", "Batch", "Dataset", "FoldSplit",
    "fetch_tu", "parse_tu", "stratified_folds", "write_tu",
    "InitScheme", "ReinitReport", "init_standard", "reinit", "DenseLayer",
    "GcnLayer", "Readout", "TopKPool", "Model", "ModelSpec", "build",
    "Rng", "SparseAdj", "Adam", "FoldResult", "RunReport", "TrainConfig",
    "cross_entropy", "evaluate", "run_cv", "train_fold", "train_model",
]
