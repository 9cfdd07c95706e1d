"""The shipped benchmark preset configs stay loadable and correctly wired."""

import json
from pathlib import Path

import pytest

from gnnlab import ExperimentConfig
from gnnlab.graphdata import default_cache_dir

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

DATASETS = ("proteins", "dd", "collab", "reddit_multi_12k")
VARIANTS = ("mlp", "gcn_r_mlp", "gcn_mlp", "jk_sum", "jk_sum_decay", "jk_sum_reinit")


def test_all_table_rows_have_a_config():
    names = {p.name for p in CONFIG_DIR.glob("*.json")}
    for ds in DATASETS:
        for variant in VARIANTS:
            assert f"{ds}_{variant}.json" in names
    assert len(names) == len(DATASETS) * len(VARIANTS)


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")),
                         ids=lambda p: p.stem)
def test_preset_loads_and_round_trips(path):
    cfg = ExperimentConfig.load(path)
    assert cfg.to_dict() == json.loads(path.read_text())
    assert cfg.folds.count == 10
    assert cfg.train.lr == 5e-4
    assert cfg.train.epochs == 100
    stem = path.stem
    if stem.endswith("_decay"):
        assert cfg.train.weight_decay == 5e-3
        assert cfg.model.kind == "jk_sum"
    elif stem.endswith("_reinit"):
        assert cfg.train.init.kind == "standard_then_reinit"
        assert cfg.model.kind == "jk_sum"
    else:
        assert cfg.train.weight_decay == 0.0
        assert cfg.train.init.kind == "standard"
    if stem.startswith(("collab", "reddit")):
        assert cfg.dataset.feature_policy == "degree_onehot"
    else:
        assert cfg.dataset.feature_policy == "label_onehot"


def test_cache_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("GNNLAB_CACHE", str(tmp_path / "elsewhere"))
    assert default_cache_dir() == tmp_path / "elsewhere"
    monkeypatch.delenv("GNNLAB_CACHE")
    assert default_cache_dir().name == "gnnlab"
