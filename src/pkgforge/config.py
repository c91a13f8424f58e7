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
from .labeler import LabelConfig
from .synthgen import WorldConfig
from .trainer import TrainConfig

PAPER_DEDUP_THRESHOLD = 0.09
PAPER_MATCH_THRESHOLD = 10.0
PAPER_INSTANCE_THRESHOLD = 1000.0

# The corpus-transition prune of 1000 presumes an 85K-video corpus. For the
# 200-video synthetic preset the same "keep transitions seen a few times"
# intent lands at nominal-instance-score (12*12=144) times 2.5 occurrences.
SYNTH_INSTANCE_THRESHOLD = 360.0


def _build(cls, data: dict, tuple_fields: tuple[str, ...] = ()):
    types = {f.name: f.type for f in fields(cls)}
    unknown = set(data) - set(types)
    if unknown:
        raise ValueError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
    converted = dict(data)
    for name, value in data.items():
        # JSON 360 and 360.0 are one value, so they must hash alike
        if types[name] == "float" and type(value) is int:
            converted[name] = float(value)
    for name in tuple_fields:
        if name in converted and converted[name] is not None:
            converted[name] = tuple(converted[name])
    return cls(**converted)


@dataclass
class PipelineConfig:
    seed: int = 0
    dedup_threshold: float = PAPER_DEDUP_THRESHOLD
    match_threshold: float = PAPER_MATCH_THRESHOLD
    instance_threshold: float = PAPER_INSTANCE_THRESHOLD
    labels: LabelConfig = field(default_factory=LabelConfig)
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
        data = dict(data)
        seed = data.get("seed", cls.seed)
        for section in ("train", "downstream", "world"):
            given = data.get(section, {}).get("seed", seed)
            if given != seed:
                raise ValueError(
                    f"{section}.seed={given} disagrees with the top-level seed={seed}; "
                    "one seed drives every stage, so set only the top-level seed"
                )
        labels = _build(LabelConfig, data.pop("labels", {}), ("nrl_top_per_hop",))
        train = _build(TrainConfig, data.pop("train", {}), ("objectives",))
        downstream = _build(DownstreamConfig, data.pop("downstream", {}))
        world = _build(WorldConfig, data.pop("world", {}), ("steps_per_task", "segments_per_step"))
        cfg = _build(cls, data)
        cfg.labels, cfg.train, cfg.downstream, cfg.world = labels, train, downstream, world
        cfg.__post_init__()
        return cfg

    @classmethod
    def load(cls, path: str | Path) -> "PipelineConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

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
