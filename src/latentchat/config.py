"""Run configuration: dataclass, presets, flat key-value config files."""

import dataclasses
import math
from dataclasses import dataclass

import yaml

from .errors import ConfigError

MODEL_KINDS = ("s2s", "lvs2s", "ntm", "ltcm")
CHOICES = {
    "model": MODEL_KINDS,
    "latent_mode": ("unconditional", "conditional"),
    "gate_mode": ("sample", "threshold"),
    "stopword_direction": ("lowest", "highest"),
    "split": ("train", "all"),
}
# keys that must be at least 1, and keys that must not be negative
SIZES = ("n_layers", "d", "d_emb", "k", "K", "vocab_size", "residual_start",
         "mlp_hidden", "batch_size", "max_len")
NON_NEGATIVE = ("epochs", "seed", "halve_lr_every", "anneal_steps", "stopword_n",
                "lambda_ma", "lambda_l2")


@dataclass
class RunConfig:
    # model
    model: str = "s2s"
    n_layers: int = 2
    d: int = 64
    d_emb: int = 64
    k: int = 32           # latent dimensionality
    K: int = 20           # topic count
    vocab_size: int = 2000
    residual_start: int = 3   # first layer index (1-based) with a residual skip
    mlp_hidden: int = 64
    latent_mode: str = "conditional"   # "unconditional" | "conditional"
    gate_mode: str = "sample"          # "sample" | "threshold"
    # training
    batch_size: int = 16
    epochs: int = 10
    seed: int = 0
    lr: float = 1e-3
    halve_lr_every: int = 0            # 0 = constant rate
    dropout: float = 0.2
    kl_anneal: bool = False
    anneal_steps: int = 0              # 0 = ramp over one epoch of steps
    lambda_ma: float = 1e-3
    lambda_l2: float = 1e-5
    stopword_n: int = 300
    stopword_direction: str = "lowest"  # "lowest" | "highest" IDF
    max_len: int = 50
    split: str = "train"               # "train" | "all"
    # paths
    corpus: str = ""
    checkpoint_dir: str = ""

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            # bool is an int to Python; float keys also take an int
            kind = (int, float) if f.type is float else f.type
            if isinstance(value, bool) != (f.type is bool) or not isinstance(value, kind):
                raise ConfigError(
                    f"config key '{f.name}' must be {f.type.__name__}, got {value!r}"
                )
        for name in SIZES:
            if getattr(self, name) < 1:
                raise ConfigError(f"config key '{name}' must be at least 1")
        for name in NON_NEGATIVE:
            if getattr(self, name) < 0:
                raise ConfigError(f"config key '{name}' must not be negative")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ConfigError(f"config key 'lr' must be finite and positive, got {self.lr}")
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ConfigError(f"config key '{name}' must be one of {allowed}, "
                                  f"got {getattr(self, name)!r}")
        if self.d % 2 != 0 or self.d < 4:  # two halves, each layer-normalised
            raise ConfigError(f"config key 'd' must be even and at least 4, got {self.d}")
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError(f"dropout must be in [0,1), got {self.dropout}")

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def field_names(cls):
        return {f.name for f in dataclasses.fields(cls)}

    @classmethod
    def from_dict(cls, data):
        unknown = set(data) - cls.field_names()
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path):
        with open(path, encoding="utf-8") as fh:
            try:
                data = yaml.safe_load(fh) or {}
            except yaml.YAMLError as exc:
                raise ConfigError(f"config file {path} is not valid YAML: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must be a flat key-value document")
        return cls.from_dict(data)


PRESETS = {
    # the full-scale setup; configuration only, not meant for CI machines
    "paper": dict(n_layers=4, d=500, d_emb=500, vocab_size=30000,
                  batch_size=128, dropout=0.2, stopword_n=300),
    "desk": dict(n_layers=2, d=64, d_emb=64, vocab_size=2000,
                 batch_size=16, dropout=0.2, stopword_n=8),
}


def apply_preset(cfg, name):
    if name not in PRESETS:
        raise ConfigError(f"unknown preset '{name}'")
    return dataclasses.replace(cfg, **PRESETS[name])
