"""The shipped benchmark preset configs stay loadable and correctly wired."""

import json
import re
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from gnnlab import ExperimentConfig
from gnnlab.config import Settings
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


def restated_defaults(cls, d: dict, where: str = "") -> list:
    """The paths of the keys in ``d``, a section read as settings class ``cls``,
    that restate their field's default, an empty section included."""
    found = []
    for f in fields(cls):
        if f.name not in d:
            continue
        value, key = d[f.name], f"{where}{f.name}"
        if isinstance(f.type, type) and issubclass(f.type, Settings):
            found += restated_defaults(f.type, value, key + ".") if value else [key]
        elif f.default is not MISSING and value == (
                list(f.default) if isinstance(f.default, tuple) else f.default):
            found.append(key)
    return found


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")),
                         ids=lambda p: p.stem)
def test_preset_loads_and_round_trips(path):
    cfg = ExperimentConfig.load(path)
    text = path.read_text()
    assert restated_defaults(ExperimentConfig, json.loads(text)) == []
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
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
    assert json.loads(block) == \
        ExperimentConfig.load(CONFIG_DIR / "proteins_gcn_mlp.json").to_dict()


def test_cache_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("GNNLAB_CACHE", str(tmp_path / "elsewhere"))
    assert default_cache_dir() == tmp_path / "elsewhere"
    monkeypatch.delenv("GNNLAB_CACHE")
    assert default_cache_dir().name == "gnnlab"
