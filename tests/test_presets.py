"""The shipped benchmark preset configs stay loadable and correctly wired."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from gnnlab import ExperimentConfig
from gnnlab.config import read_json
from gnnlab.graphdata import default_cache_dir

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

DATASET_NAMES = {"proteins": "PROTEINS", "dd": "DD", "collab": "COLLAB",
                 "reddit_multi_12k": "REDDIT-MULTI-12K"}
VARIANTS = ("mlp", "gcn_r_mlp", "gcn_mlp", "jk_sum", "jk_sum_decay", "jk_sum_reinit")


def test_all_table_rows_have_a_config():
    names = {p.name for p in CONFIG_DIR.glob("*.json")}
    for ds in DATASET_NAMES:
        for variant in VARIANTS:
            assert f"{ds}_{variant}.json" in names
    assert len(names) == len(DATASET_NAMES) * len(VARIANTS)


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")),
                         ids=lambda p: p.stem)
def test_preset_loads_and_round_trips(path):
    cfg = ExperimentConfig.from_dict(read_json(path))
    # canonical text that restates no default: what the codec writes for it
    assert path.read_text() == json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n"
    assert cfg.folds.count == 10
    assert cfg.train.lr == 5e-4
    assert cfg.train.epochs == 100
    stem = path.stem
    dataset, variant = next((ds, stem[len(ds) + 1:]) for ds in DATASET_NAMES
                            if stem.startswith(ds + "_"))
    assert cfg.dataset.name == DATASET_NAMES[dataset]
    assert cfg.model.kind == variant.removesuffix("_decay").removesuffix("_reinit")
    assert cfg.out_dir == f"runs/{stem}"
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


def test_the_config_doc_lists_every_key_with_its_default():
    doc = (CONFIG_DIR.parent / "docs" / "config.md").read_text()
    block, = re.findall(r"^```json\n(.*?)^```$", doc, flags=re.DOTALL | re.MULTILINE)
    cfg = ExperimentConfig.from_dict(read_json(CONFIG_DIR / "proteins_gcn_mlp.json"))
    # every field: to_dict writes only those that differ from their defaults
    assert json.loads(block) == json.loads(json.dumps(dataclasses.asdict(cfg)))


def test_cache_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("GNNLAB_CACHE", str(tmp_path / "elsewhere"))
    assert default_cache_dir() == tmp_path / "elsewhere"
    monkeypatch.delenv("GNNLAB_CACHE")
    assert default_cache_dir().name == "gnnlab"
