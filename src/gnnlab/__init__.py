"""gnnlab: a from-scratch graph-classification laboratory.

Graph convolutions with weighted self-loops, top-k pooling, jumping-knowledge
taps, data-driven variance re-initialisation, shallow baselines, and a
deterministic 10-fold benchmark harness, all on numpy (sparse kernels
included).
"""

from .config import DatasetConfig, ExperimentConfig
from .graphdata import (Batch, Dataset, FoldSplit, Graph, fetch_tu, parse_tu,
                        stratified_folds, write_tu)
from .init import InitScheme, ReinitReport, init_standard, reinit
from .layers import DenseLayer, GcnLayer, Readout, TopKPool, readout
from .models import Model, ModelSpec, build
from .numcore import Rng, SparseAdj, spmm
from .training import (Adam, FoldResult, RunReport, TrainConfig, cross_entropy,
                       evaluate, run_cv, train_fold, train_model)

__version__ = "0.1.0"

__all__ = [
    "DatasetConfig", "ExperimentConfig", "Batch", "Dataset", "FoldSplit",
    "Graph", "fetch_tu", "parse_tu", "stratified_folds", "write_tu",
    "InitScheme", "ReinitReport", "init_standard", "reinit", "DenseLayer",
    "GcnLayer", "Readout", "TopKPool", "readout", "Model", "ModelSpec", "build",
    "Rng", "SparseAdj", "spmm", "Adam", "FoldResult", "RunReport", "TrainConfig",
    "cross_entropy", "evaluate", "run_cv", "train_fold", "train_model",
]
