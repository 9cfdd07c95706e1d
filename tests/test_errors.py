"""Each library error from the call that raises it, for the checks no other
test reaches: bad constructor arguments, a backward or trace before any
forward, stages out of range, negative scales and an empty training fold."""

import numpy as np
import pytest

from gnnlab import (DenseLayer, FoldSplit, GcnLayer, ModelSpec, Readout, Rng, SparseAdj,
                    TopKPool, TrainConfig, build, train_fold)
from gnnlab.errors import DomainError, HarnessError, ShapeError, StateError
from gnnlab.graphdata import State

from conftest import synth_dataset


def _pool_rows_wider_than_its_projection():
    state = State(SparseAdj.from_edges(2, [(0, 1)]), np.ones((2, 4)), np.array([2]))
    TopKPool(np.ones(3), k=0.8).forward(state)


def _run_blocks_past_the_last_stage():
    model = build(ModelSpec(kind="gcn_mlp", hidden_dim=4, mlp_dims=(4, 4)), 3, 2, Rng(0))
    model.run_blocks(None, 1)  # gcn_mlp has one stage, 0


def _train_fold_with_every_graph_in_the_test_fold():
    ds = synth_dataset(6, seed=0)
    split = FoldSplit(fold_count=2, assignments=np.zeros(len(ds), dtype=np.int64))
    train_fold(ds, split, 0, ModelSpec(kind="mlp"), TrainConfig(epochs=1))


# the call, the error class, and its message
LIBRARY_ERRORS = {
    "dense-activation": (lambda: DenseLayer(np.ones((2, 2)), np.zeros(2), activation="tanh"),
                         ValueError, "unknown activation 'tanh'"),
    "pool-keeps-everything": (lambda: TopKPool(np.ones(3), k=1.0),
                              ValueError, "k must lie in [0, 1)"),
    "pool-width": (_pool_rows_wider_than_its_projection,
                   ShapeError, "pool projection has 3 entries, features have 4"),
    "readout-median": (lambda: Readout("median"), ValueError, "unknown readout 'median'"),
    "dense-backward-first": (lambda: DenseLayer(np.ones((2, 2)), np.zeros(2)).backward(
        np.ones((1, 2))), StateError, "dense backward called before forward"),
    "readout-backward-first": (lambda: Readout("mean").backward(np.ones((1, 2))),
                               StateError, "readout backward called before forward"),
    "gcn-preactivation-first": (lambda: GcnLayer(np.ones((2, 2)), np.zeros(2)).last_preactivation,
                                StateError, "no cached forward state"),
    "run-blocks-range": (_run_blocks_past_the_last_stage,
                         StateError, "block stages 0..1 out of range"),
    "normal-negative-std": (lambda: Rng(0).normal(2, 2, -1.0),
                            DomainError, "std must be non-negative"),
    "uniform-negative-bound": (lambda: Rng(0).uniform(2, 2, -1.0),
                               DomainError, "bound must be non-negative"),
    "empty-training-fold": (_train_fold_with_every_graph_in_the_test_fold,
                            HarnessError, "training fold 0 is empty"),
}


@pytest.mark.parametrize("case", LIBRARY_ERRORS)
def test_library_error_raises_its_class_and_message(case):
    call, error, message = LIBRARY_ERRORS[case]
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
