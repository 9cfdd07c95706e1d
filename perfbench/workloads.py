"""The three workloads: a corpus shape, a model configuration, and which
hooked layers are expected to run on it."""

from dataclasses import dataclass

from corpus import CorpusShape

PROTEINS = CorpusShape("SYNTH_PROTEINS", graphs=1000, n_lo=20, n_hi=60,
                       mean_degree=3.7, classes=2, feature_policy="label_onehot",
                       node_labels=3)
PROTEINS_SMOKE = CorpusShape("SYNTH_PROTEINS", graphs=40, n_lo=20, n_hi=60,
                             mean_degree=3.7, classes=2, feature_policy="label_onehot",
                             node_labels=3)
REDDIT = CorpusShape("SYNTH_REDDIT", graphs=240, n_lo=250, n_hi=550,
                     mean_degree=2.3, classes=11, feature_policy="degree_onehot")
# 10-fold stratification needs 10 graphs per class, so the smoke corpus keeps
# 110 graphs and shrinks the graphs instead
REDDIT_SMOKE = CorpusShape("SYNTH_REDDIT", graphs=110, n_lo=25, n_hi=55,
                           mean_degree=2.3, classes=11, feature_policy="degree_onehot")

# Span-name prefixes of hooks that only some workloads reach; every other
# hook is expected to fire on every workload.
HOOK_GROUPS = {
    "graph": ("kernels.", "numcore.normalized", "numcore.induced",
              "layers.gcn.", "layers.pool."),
    "reinit": ("init.", "models.run_blocks"),
    "diagnostics": ("diagnostics.",),
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: CorpusShape
    smoke: CorpusShape
    salt: int            # mixed into the seed so workloads never share a corpus
    model: str           # gnnlab ModelSpec kind; other spec fields keep their defaults
    reinit: bool         # init kind standard_then_reinit instead of standard
    diagnostics: bool    # per-epoch TraceSink, as `gnnlab train` does by default
    rounds: int          # set-ups per untraced run, each followed by training and eval
    ingests: int         # parses per set-up after the first round, for more ingest_s samples
    trace_epochs: int    # epochs per segment of the traced run, fixed so counts repeat
    uses: frozenset      # HOOK_GROUPS keys expected to fire

    def expects(self, span_name: str) -> bool:
        for group, prefixes in HOOK_GROUPS.items():
            if span_name.startswith(prefixes):
                return group in self.uses
        return True


WORKLOADS = {w.name: w for w in (
    Workload("proteins_jk_reinit",
             "PROTEINS-shaped jk_sum with reinit and diagnostics: per-graph "
             "Python path, pools and the O(S^2 N) reinit dominate",
             PROTEINS, PROTEINS_SMOKE, salt=1, model="jk_sum", reinit=True,
             diagnostics=True, rounds=3, ingests=3, trace_epochs=1,
             uses=frozenset({"graph", "reinit", "diagnostics"})),
    Workload("proteins_mlp",
             "PROTEINS-shaped mlp baseline: dense layers, readouts and Adam "
             "only; sparse kernels, pools and reinit never run",
             PROTEINS, PROTEINS_SMOKE, salt=2, model="mlp", reinit=False,
             diagnostics=False, rounds=8, ingests=1, trace_epochs=10, uses=frozenset()),
    Workload("reddit_jk",
             "REDDIT-MULTI-12K-shaped jk_sum on degree one-hots: few large "
             "graphs, spmm is most of an epoch",
             REDDIT, REDDIT_SMOKE, salt=3, model="jk_sum", reinit=False,
             diagnostics=False, rounds=4, ingests=1, trace_epochs=1,
             uses=frozenset({"graph"})),
)}
