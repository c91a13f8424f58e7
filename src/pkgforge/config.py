"""Pipeline configuration: one object covering every stage, with a stable hash.

The hash is recorded inside every produced artifact so downstream stages
can refuse inputs built under a different configuration. Any field that
can change output bytes lives here; runtime-only knobs (paths, thread
counts) deliberately do not.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .corpus_io import JsonFile, canonical_json, dataclass_from_json, fits_json
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
        if self.seed < 0:  # numpy seeds every stream from it
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.dedup_threshold > 0:  # single linkage merges nothing at or below 0
            raise ValueError(f"dedup_threshold must be > 0, got {self.dedup_threshold}")
        if not self.instance_threshold >= 0:  # normalize_scores logs every kept aggregate
            raise ValueError(f"instance_threshold must be >= 0, got {self.instance_threshold}")
        # one seed drives every stage
        self.train.seed = self.seed
        self.downstream.seed = self.seed
        self.world.seed = self.seed

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        if not fits_json(data, "object"):
            raise ValueError(f"a config must be a JSON object, got {data!r}")
        cfg = dataclass_from_json(cls, {k: v for k, v in data.items() if k not in _SECTIONS})
        for name, section_cls in _SECTIONS.items():
            section = data.get(name, {})
            setattr(cfg, name, dataclass_from_json(section_cls, section, f"{name}."))
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
        with JsonFile(path, "config") as src:
            return cls.from_dict(src.document())

    def config_hash(self) -> str:
        payload = canonical_json(self.to_dict()).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()[:16]


def synthetic_preset(seed: int = 0, noise: str = "low") -> PipelineConfig:
    """The desk-scale preset: default world, corpus-size-scaled prune threshold."""
    cfg = PipelineConfig(seed=seed, instance_threshold=SYNTH_INSTANCE_THRESHOLD)
    cfg.world = WorldConfig.with_noise_preset(noise, seed=seed)
    return cfg
