"""Pipeline configuration: one object covering every stage, with a stable hash.

The hash is recorded inside every produced artifact so downstream stages
can refuse inputs built under a different configuration. Any field that
can change output bytes lives here; runtime-only knobs (paths, thread
counts) deliberately do not.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .corpus_io import canonical_json
from .downstream import DownstreamConfig
from .synthgen import WorldConfig
from .trainer import TrainConfig

PAPER_DEDUP_THRESHOLD = 0.09
PAPER_MATCH_THRESHOLD = 10.0
PAPER_INSTANCE_THRESHOLD = 1000.0

# The corpus-transition prune of 1000 presumes an 85K-video corpus. For the
# 200-video synthetic preset the same "keep transitions seen a few times"
# intent lands at nominal-instance-score (12*12=144) times 2.5 occurrences.
SYNTH_INSTANCE_THRESHOLD = 360.0


# JSON value types a field annotation accepts; a JSON integer is a valid float
_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


def _fits(value, annotation: str) -> bool:
    """Whether a JSON value fits a field annotation such as "float" or "tuple[int, ...]"."""
    if not annotation.startswith("tuple["):
        return type(value) in _JSON_TYPES[annotation]
    items = annotation[len("tuple[") : -1].split(", ")
    if not isinstance(value, (list, tuple)) or items[-1] != "..." and len(value) != len(items):
        return False
    return all(_fits(v, items[0]) for v in value)


def _build(cls, data, prefix: str = ""):
    """A config dataclass from a JSON object; `prefix` names its section in messages."""
    if not isinstance(data, dict):
        raise ValueError(f"config section {prefix[:-1]!r} must be a JSON object, got {data!r}")
    types = {f.name: f.type for f in fields(cls)}
    unknown = set(data) - set(types)
    if unknown:
        raise ValueError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
    converted = dict(data)
    for name, value in data.items():
        if not _fits(value, types[name]):
            raise ValueError(f"{prefix}{name} must be {types[name]}, got {value!r}")
        # JSON 360 and 360.0 are one value, so they must hash alike
        if types[name] == "float":
            converted[name] = float(value)
        elif types[name].startswith("tuple["):
            converted[name] = tuple(value)
    return cls(**converted)


_SECTIONS = {"train": TrainConfig, "downstream": DownstreamConfig, "world": WorldConfig}


@dataclass
class PipelineConfig:
    seed: int = 0
    dedup_threshold: float = PAPER_DEDUP_THRESHOLD
    match_threshold: float = PAPER_MATCH_THRESHOLD
    instance_threshold: float = PAPER_INSTANCE_THRESHOLD
    train: TrainConfig = field(default_factory=TrainConfig)
    downstream: DownstreamConfig = field(default_factory=DownstreamConfig)
    world: WorldConfig = field(default_factory=WorldConfig)

    def __post_init__(self):
        # one seed drives every stage
        self.train.seed = self.seed
        self.downstream.seed = self.seed
        self.world.seed = self.seed

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        if not isinstance(data, dict):
            raise ValueError(f"a config must be a JSON object, got {data!r}")
        cfg = _build(cls, {k: v for k, v in data.items() if k not in _SECTIONS})
        for name, section_cls in _SECTIONS.items():
            section = data.get(name, {})
            setattr(cfg, name, _build(section_cls, section, f"{name}."))
            given = section.get("seed", cfg.seed)
            if given != cfg.seed:
                raise ValueError(
                    f"{name}.seed={given} disagrees with the top-level seed={cfg.seed}; "
                    "one seed drives every stage, so set only the top-level seed"
                )
        cfg.__post_init__()
        return cfg

    @classmethod
    def load(cls, path: str | Path) -> "PipelineConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                return cls.from_dict(json.load(fh))
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(self.to_dict()) + "\n")

    def config_hash(self) -> str:
        payload = canonical_json(self.to_dict()).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()[:16]


def synthetic_preset(seed: int = 0, noise: str = "low") -> PipelineConfig:
    """The desk-scale preset: default world, corpus-size-scaled prune threshold."""
    cfg = PipelineConfig(seed=seed, instance_threshold=SYNTH_INSTANCE_THRESHOLD)
    cfg.world = WorldConfig.with_noise_preset(noise, seed=seed)
    return cfg
