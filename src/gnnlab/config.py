"""Every experiment setting, declared once, with one strict JSON codec.

Each settings class is a frozen dataclass deriving from :class:`Settings`:
its fields, their annotations and their defaults are the only declaration
of a setting. ``to_dict``/``from_dict`` are derived from the fields:
``to_dict`` writes a field only when it differs from its default (a required
field always), and ``from_dict`` fills the defaults back in. ``from_dict``
rejects unknown keys, missing required keys and values of the wrong JSON
type, and reports out-of-range values from ``__post_init__`` as
:class:`ConfigError`; a typo in a config file fails loudly rather than
silently running a different experiment. The ``gnnlab train`` flags are
overrides of these same keys (see :mod:`gnnlab.cli`).
"""

import json
import math
import types
import typing
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

from .errors import ConfigError, SpecError
from .graphdata import DEFAULT_DEGREE_CAP, DEFAULT_FOLD_SEED, FEATURE_POLICIES
from .layers import READOUT_KINDS

INIT_KINDS = ("standard", "standard_then_reinit")
MODEL_KINDS = ("mlp", "gcn_r_mlp", "gcn_mlp", "jk_sum", "probe4")
JK_AGGS = ("concat", "sum")


class Settings:
    """Base of the settings dataclasses: the JSON codec over their fields."""

    def to_dict(self) -> dict:
        # a field equal to its default is left out; a required one (MISSING) never is
        return {f.name: _encode(v) for f in fields(self) if (v := getattr(self, f.name))
                != (f.default if f.default_factory is MISSING else f.default_factory())}

    @classmethod
    def from_dict(cls, d):
        return _decode(cls, d, cls.__name__)


def _encode(value):
    if isinstance(value, Settings):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


def _decode(tp, value, where: str):
    """``value`` read from JSON as annotation ``tp``; ``where`` names it."""
    if isinstance(tp, types.UnionType):  # X | None
        if value is None:
            return None
        tp, = (arg for arg in typing.get_args(tp) if arg is not type(None))
    if isinstance(tp, type) and issubclass(tp, Settings):
        if not isinstance(value, dict):
            raise ConfigError(f"{where}: expected an object, got {value!r}")
        known = {f.name: f for f in fields(tp)}
        unknown = sorted(set(value) - set(known))
        if unknown:
            raise ConfigError(f"{where}: unknown key(s) {unknown}")
        missing = [name for name, f in known.items() if name not in value
                   and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            raise ConfigError(f"{where}: missing key(s) {missing}")
        kwargs = {k: _decode(known[k].type, v, f"{where}.{k}") for k, v in value.items()}
        try:
            return tp(**kwargs)
        except (ConfigError, SpecError, ValueError) as exc:  # from __post_init__
            raise ConfigError(f"{where}: {exc}") from exc
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        item = typing.get_args(tp)[0]
        return tuple(_decode(item, v, f"{where}[{i}]") for i, v in enumerate(value))
    # bool is not an int, and an int is a float
    if type(value) is not tp and not (tp is float and type(value) is int):
        raise ConfigError(f"{where}: expected {tp.__name__}, got {value!r}")
    return value


@dataclass(frozen=True)
class DatasetConfig(Settings):
    name: str
    path: str | None = None          # local dir with raw TU files; skips fetching
    url_base: str | None = None      # fetch source override
    cache_dir: str | None = None     # cache override (GNNLAB_CACHE also applies)
    feature_policy: str | None = None  # None = attributes > label > degree
    degree_cap: int = DEFAULT_DEGREE_CAP

    def __post_init__(self):
        if self.feature_policy is not None and self.feature_policy not in FEATURE_POLICIES:
            raise ConfigError(f"unknown feature policy {self.feature_policy!r}")
        if self.degree_cap < 1:
            raise ConfigError(f"degree cap must be at least 1, got {self.degree_cap}")


@dataclass(frozen=True)
class ModelSpec(Settings):
    kind: str
    hidden_dim: int = 128
    mlp_dims: tuple[int, ...] = (128, 128)
    k: float = 0.8
    readout_kind: str = "mean"
    jk_agg: str = "concat"
    tap_pooled: bool = False  # tap block outputs after the pool instead of the GCN

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise SpecError(f"unknown model kind {self.kind!r}")
        if self.hidden_dim < 1:
            raise SpecError(f"hidden width must be at least 1, got {self.hidden_dim}")
        if len(self.mlp_dims) != 2 or any(not isinstance(d, int) or d < 1
                                          for d in self.mlp_dims):
            raise SpecError("the MLP head has exactly three layers; give two hidden "
                            f"widths of at least 1, got {list(self.mlp_dims)}")
        object.__setattr__(self, "mlp_dims", tuple(self.mlp_dims))  # hashable: keys a cache
        if self.readout_kind not in READOUT_KINDS:
            raise SpecError(f"unknown readout {self.readout_kind!r}")
        if self.jk_agg not in JK_AGGS:
            raise SpecError(f"unknown jk aggregation {self.jk_agg!r}")
        if not (0 <= self.k < 1):
            raise SpecError("pool keep fraction must lie in [0, 1)")


@dataclass(frozen=True)
class InitScheme(Settings):
    kind: str = "standard"
    seed: int | None = None            # defaults to the training seed
    reinit_sample_cap: int | None = None  # calibration graphs; None = all

    def __post_init__(self):
        if self.kind not in INIT_KINDS:
            raise ConfigError(f"unknown init kind {self.kind!r}")
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.reinit_sample_cap is not None and self.reinit_sample_cap < 1:
            raise ConfigError(f"reinit sample cap must be at least 1 or null, "
                              f"got {self.reinit_sample_cap}")


@dataclass(frozen=True)
class TrainConfig(Settings):
    lr: float = 5e-4
    weight_decay: float = 0.0
    epochs: int = 100
    eval_at: tuple[int, ...] = ()  # earlier epochs after which each fold is also tested
    batch_size: int = 64
    betas: tuple[float, ...] = (0.9, 0.999)
    eps: float = 1e-8
    seed: int = 12345
    init: InitScheme = field(default_factory=InitScheme)

    def __post_init__(self):
        if not 0 < self.lr < math.inf:  # a NaN fails every such comparison
            raise ValueError(f"lr must be finite and above 0, got {self.lr}")
        if not 0 < self.eps < math.inf:
            raise ValueError(f"eps must be finite and above 0, got {self.eps}")
        if self.epochs < 1:
            raise ValueError("need at least one epoch")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be finite and at least 0, got {self.weight_decay}")
        if self.batch_size < 1:
            raise ValueError("batch size must be positive")
        if len(self.betas) != 2 or not all(0 <= b < 1 for b in self.betas):
            raise ValueError(f"betas must be two values in [0, 1), got {list(self.betas)}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.eval_at and not all(a < b for a, b in zip((0, *self.eval_at),
                                                          (*self.eval_at, self.epochs))):
            raise ValueError(f"eval_at must ascend strictly from at least 1 to below epochs "
                             f"{self.epochs}, got {list(self.eval_at)}")


@dataclass(frozen=True)
class Folds(Settings):
    count: int = 10
    seed: int = DEFAULT_FOLD_SEED

    def __post_init__(self):
        if self.count < 2:
            raise ConfigError(f"fold count must be at least 2, got {self.count}")
        if self.seed < 0:
            raise ConfigError(f"fold seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class ExperimentConfig(Settings):
    dataset: DatasetConfig
    model: ModelSpec
    train: TrainConfig = field(default_factory=TrainConfig)
    folds: Folds = field(default_factory=Folds)
    diagnostics: bool = True
    out_dir: str = "out"


def read_json(path) -> dict:
    """The JSON object in the file at ``path``; a key given twice in one
    object is refused, not left to the last value."""
    path = Path(path)

    def unique(pairs):
        keys = [key for key, _ in pairs]
        if len(set(keys)) < len(keys):
            raise ConfigError(f"{path}: key {max(keys, key=keys.count)!r} given twice")
        return dict(pairs)

    try:
        data = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=unique)
    except FileNotFoundError:
        raise ConfigError(f"{path} does not exist") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return data
