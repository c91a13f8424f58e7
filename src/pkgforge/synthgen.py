"""Seeded synthetic world generator with known procedural ground truth.

The generator lays out a pool of canonical steps (well-separated unit
embeddings), composes task step sequences that may share steps across
tasks, writes each step headline as one of a few near-duplicate paraphrase
variants, and realizes videos as step sequences with optional skips and
substitutions. Segment features are the true step's canonical embedding
scaled to straddle the default match threshold, corrupted by isotropic
noise, a per-video style offset, and multiplicative gain jitter.

Step embeddings occupy only the first signal_dim coordinates; the style
offset lives in the remaining coordinates, exactly orthogonal to every
headline. Matching difficulty is therefore governed by noise_sigma alone,
while style_sigma injects the kind of segment-irrelevant appearance
variation a feature adapter is supposed to strip out.

Everything derives deterministically from the world seed; per-video
streams are sub-seeded so emission order cannot perturb the draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .corpus_io import (
    JsonFile, SegmentCorpus, StepDatabase, Video, atomic_write, canonical_json, check_ids,
    check_json, dataclass_from_json,
)
from .downstream import StepSpan, VideoAnnotation
from .graph import ProceduralKnowledgeGraph

NOISE_PRESETS = {
    "zero": {"noise_sigma": 0.0, "style_sigma": 0.0, "gain_jitter": 0.0},
    "low": {"noise_sigma": 0.5, "style_sigma": 4.0, "gain_jitter": 0.1},
    "high": {"noise_sigma": 1.0, "style_sigma": 8.0, "gain_jitter": 0.25},
}


@dataclass
class WorldConfig:
    n_tasks: int = 20
    steps_per_task: tuple[int, int] = (8, 12)
    n_shared_steps: int = 20
    n_videos: int = 200
    segments_per_step: tuple[int, int] = (2, 4)
    dim: int = 96
    signal_dim: int = 64
    feature_scale: float = 12.0
    noise_sigma: float = 0.5
    style_sigma: float = 4.0
    gain_jitter: float = 0.1
    paraphrase_count: int = 2
    paraphrase_max_distance: float = 0.02
    skip_prob: float = 0.1
    substitute_prob: float = 0.05
    max_step_similarity: float = 0.6
    seed: int = 0

    def __post_init__(self):
        if min(self.n_tasks, self.n_videos, self.dim, self.paraphrase_count) < 1:
            raise ValueError("counts must be positive")
        if not 1 <= self.signal_dim <= self.dim:
            raise ValueError("signal_dim must lie in [1, dim]")
        if self.steps_per_task[0] < 2 or self.steps_per_task[0] > self.steps_per_task[1]:
            raise ValueError("steps_per_task range must be [lo, hi] with lo >= 2")
        if self.segments_per_step[0] < 1 or self.segments_per_step[0] > self.segments_per_step[1]:
            raise ValueError("segments_per_step range must be [lo, hi] with lo >= 1")
        if self.noise_sigma < 0 or self.style_sigma < 0 or self.gain_jitter < 0:
            raise ValueError("noise magnitudes must be nonnegative")
        for p in (self.skip_prob, self.substitute_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must lie in [0, 1]")
        if not 0.0 <= self.paraphrase_max_distance <= 2.0:  # a cosine distance
            raise ValueError(f"paraphrase_max_distance must lie in [0, 2], got "
                             f"{self.paraphrase_max_distance}")

    @classmethod
    def with_noise_preset(cls, preset: str, **overrides) -> "WorldConfig":
        if preset not in NOISE_PRESETS:
            raise ValueError(f"unknown noise preset {preset!r}")
        return cls(**{**NOISE_PRESETS[preset], **overrides})


@dataclass
class GroundTruth:
    n_steps: int
    task_sequences: list[list[int]]
    headline_true_step: list[int]  # global headline index -> true step id
    canonical_transitions: set[tuple[int, int]]
    observed_transitions: dict[tuple[int, int], int]
    annotations: list[VideoAnnotation]
    config: WorldConfig = field(repr=False, default=None)
    config_hash: str | None = None  # of the config that made the world, as truth.json holds it


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _draw_separated_units(rng, n: int, dim: int, max_sim: float, rounds: int = 200) -> np.ndarray:
    """Random unit vectors with all pairwise cosine similarities <= max_sim."""
    vecs = rng.standard_normal((n, dim))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    for _ in range(rounds):
        sims = vecs @ vecs.T
        np.fill_diagonal(sims, 0.0)
        bad = np.nonzero(np.abs(sims).max(axis=1) > max_sim)[0]
        if bad.size == 0:
            return vecs
        fresh = rng.standard_normal((bad.size, dim))
        fresh /= np.linalg.norm(fresh, axis=1, keepdims=True)
        vecs[bad] = fresh
    raise ValueError(
        f"could not separate {n} steps in dimension {dim} below similarity {max_sim}; "
        "increase dim or reduce the step count"
    )


def _paraphrase(rng, canonical: np.ndarray, signal_dim: int, max_distance: float) -> np.ndarray:
    """Unit vector at a small, bounded cosine distance from the canonical one.

    The perturbation direction stays inside the signal coordinates so
    paraphrases remain orthogonal to the style subspace.
    """
    out = canonical.copy()
    sig = canonical[:signal_dim]
    direction = rng.standard_normal(signal_dim)
    direction -= (direction @ sig) * sig
    direction /= np.linalg.norm(direction)
    theta = math.acos(1.0 - max_distance) * rng.uniform(0.3, 1.0)
    out[:signal_dim] = math.cos(theta) * sig + math.sin(theta) * direction
    return out


def _realize_sequence(rng, sequence: list[int], config: WorldConfig, n_steps: int) -> list[int]:
    kept = [s for s in sequence if rng.random() >= config.skip_prob]
    if len(kept) < 2:
        kept = list(sequence[:2])
    realized = list(kept)
    for i in range(len(realized)):
        if rng.random() < config.substitute_prob:
            forbidden = {realized[i]}
            if i > 0:
                forbidden.add(realized[i - 1])
            if i + 1 < len(realized):
                forbidden.add(realized[i + 1])
            choices = [s for s in range(n_steps) if s not in forbidden]
            realized[i] = int(choices[rng.integers(len(choices))])
    return realized


def generate(config: WorldConfig) -> tuple[GroundTruth, StepDatabase, SegmentCorpus]:
    """Build the world: ground truth, step database, and annotated corpus."""
    world_rng = _rng(config.seed, 0)

    # task sequences over fresh steps, then splice in cross-task shared steps
    lo, hi = config.steps_per_task
    counts = [int(world_rng.integers(lo, hi + 1)) for _ in range(config.n_tasks)]
    next_step = 0
    sequences: list[list[int]] = []
    for b in counts:
        sequences.append(list(range(next_step, next_step + b)))
        next_step += b
    shared_done = 0
    for _ in range(config.n_shared_steps * 10):
        if shared_done >= config.n_shared_steps or config.n_tasks < 2:
            break
        donor_task = int(world_rng.integers(config.n_tasks))
        recipient = int(world_rng.integers(config.n_tasks))
        if donor_task == recipient:
            continue
        donor_step = sequences[donor_task][int(world_rng.integers(len(sequences[donor_task])))]
        slot = int(world_rng.integers(len(sequences[recipient])))
        if donor_step in sequences[recipient]:
            continue
        sequences[recipient][slot] = donor_step
        shared_done += 1

    # renumber surviving steps densely, in order of first appearance
    remap: dict[int, int] = {}
    for seq in sequences:
        for s in seq:
            if s not in remap:
                remap[s] = len(remap)
    sequences = [[remap[s] for s in seq] for seq in sequences]
    n_steps = len(remap)

    embeddings = np.zeros((n_steps, config.dim))
    embeddings[:, : config.signal_dim] = _draw_separated_units(
        world_rng, n_steps, config.signal_dim, config.max_step_similarity
    )
    variants = np.empty((n_steps, config.paraphrase_count, config.dim))
    variants[:, 0] = embeddings
    for s in range(n_steps):
        for j in range(1, config.paraphrase_count):
            variants[s, j] = _paraphrase(
                world_rng, embeddings[s], config.signal_dim, config.paraphrase_max_distance
            )

    # the step database: one headline per task slot, variants used round-robin
    occurrence_counter = [0] * n_steps
    tasks = []
    headline_true_step: list[int] = []
    wordings: list[int] = []
    for ti, seq in enumerate(sequences):
        headlines = []
        for s in seq:
            j = occurrence_counter[s] % config.paraphrase_count
            occurrence_counter[s] += 1
            headlines.append(f"perform step {s:04d} (wording {j})")
            headline_true_step.append(s)
            wordings.append(j)
        tasks.append((f"t{ti:03d}", f"task_{ti:03d}", headlines))
    db = StepDatabase.from_tasks(tasks, variants[headline_true_step, wordings],
                                 "synthetic step database")

    canonical = {
        (a, b) for seq in sequences for a, b in zip(seq, seq[1:]) if a != b
    }

    # videos: balanced round-robin over tasks, one derived stream per video
    seg_lo, seg_hi = config.segments_per_step
    videos: list[Video] = []
    annotations: list[VideoAnnotation] = []
    observed: dict[tuple[int, int], int] = {}
    for vi in range(config.n_videos):
        task_idx = vi % config.n_tasks
        vrng = _rng(config.seed, 1, vi)
        realized = _realize_sequence(vrng, sequences[task_idx], config, n_steps)
        for a, b in zip(realized, realized[1:]):
            observed[(a, b)] = observed.get((a, b), 0) + 1

        # per-video appearance offset, confined to the non-signal coordinates
        style = np.zeros(config.dim)
        nuisance = config.dim - config.signal_dim
        if config.style_sigma > 0 and nuisance > 0:
            style[config.signal_dim :] = config.style_sigma * vrng.standard_normal(nuisance)
        spans = []
        rows = []
        cursor = 0
        for s in realized:
            n_seg = int(vrng.integers(seg_lo, seg_hi + 1))
            for _ in range(n_seg):
                gain = 1.0 + vrng.uniform(-config.gain_jitter, config.gain_jitter)
                feat = gain * config.feature_scale * embeddings[s] + style
                if config.noise_sigma > 0:
                    feat = feat + config.noise_sigma * vrng.standard_normal(config.dim)
                rows.append(feat)
            spans.append(StepSpan(step_class=s, start=cursor, end=cursor + n_seg))
            cursor += n_seg
        video_id = f"v{vi:05d}"
        videos.append(
            Video(
                video_id=video_id,
                corpus_task_name=db.tasks[task_idx].task_name,
                segments=np.vstack(rows),
            )
        )
        annotations.append(
            VideoAnnotation(video_id=video_id, task_class=task_idx, steps=spans)
        )

    truth = GroundTruth(
        n_steps=n_steps,
        task_sequences=sequences,
        headline_true_step=headline_true_step,
        canonical_transitions=canonical,
        observed_transitions=observed,
        annotations=annotations,
        config=config,
    )
    return truth, db, SegmentCorpus(videos=videos)


# ---------------------------------------------------------------------------
# recovery metrics


def node_majority_steps(node_of: np.ndarray, headline_true_step: list[int]) -> np.ndarray:
    """Per node, the most common true step among members (ties: smallest id)."""
    votes = np.zeros((node_of.max() + 1, max(headline_true_step) + 1), dtype=np.int64)
    np.add.at(votes, (node_of, headline_true_step), 1)
    return votes.argmax(axis=1)  # the first maximum: the smallest step id


def graph_recovery_metrics(
    graph: ProceduralKnowledgeGraph,
    db: StepDatabase,
    truth: GroundTruth,
    min_support: int = 1,
) -> dict:
    """Edge precision/recall and node purity against the generating world.

    Predicted edges are mapped through each node's majority true step.
    Precision counts a mapped edge correct if the transition is canonical
    or was observed at least once; recall is measured against canonical
    transitions plus observed ones with multiplicity >= min_support.
    """
    node_of = graph.node_of(db)
    majority = node_majority_steps(node_of, truth.headline_true_step)
    purity_hits = int(np.count_nonzero(majority[node_of] == truth.headline_true_step))
    node_purity = purity_hits / node_of.size

    step_of = majority.tolist()
    predicted = {(step_of[e.src], step_of[e.dst]) for e in graph.edges}
    truth_all = truth.canonical_transitions | set(truth.observed_transitions)
    target = truth.canonical_transitions | {
        pair for pair, count in truth.observed_transitions.items() if count >= min_support
    }
    precision = len(predicted & truth_all) / len(predicted) if predicted else 0.0
    recall = len(predicted & target) / len(target) if target else 1.0
    return {
        "edge_precision": precision,
        "edge_recall": recall,
        "node_purity": node_purity,
        "num_predicted_edges": len(predicted),
        "num_target_transitions": len(target),
    }


def implied_min_support(instance_threshold: float, feature_scale: float) -> int:
    """Smallest occurrence count whose zero-noise aggregate beats the prune."""
    nominal = feature_scale * feature_scale
    return int(math.floor(instance_threshold / nominal)) + 1


# ---------------------------------------------------------------------------
# truth serialization


def save_truth(truth: GroundTruth, path: str | Path, config_hash: str | None = None) -> None:
    obj = {
        "config_hash": config_hash,
        "world_config": asdict(truth.config),
        "n_steps": truth.n_steps,
        "headline_true_step": truth.headline_true_step,
        "task_sequences": truth.task_sequences,
        "canonical_transitions": sorted(list(p) for p in truth.canonical_transitions),
        "observed_transitions": [
            [a, b, c] for (a, b), c in sorted(truth.observed_transitions.items())
        ],
    }
    with atomic_write(path) as fh:
        fh.write(canonical_json(obj) + "\n")


def load_truth(path: str | Path) -> GroundTruth:
    with JsonFile(path, "truth file") as src:
        obj = src.document()
        # the section check that --config's world section goes through
        config = dataclass_from_json(WorldConfig, obj["world_config"], "world_config.")
        n_steps = check_json(obj["n_steps"], "int", "n_steps")
        observed = [check_json(t, "tuple[int, int, int]", "observed transition")
                    for t in obj["observed_transitions"]]
        return GroundTruth(
            n_steps=n_steps,
            task_sequences=[check_json(seq, "tuple[int, ...]", "task sequence")
                            for seq in obj["task_sequences"]],
            headline_true_step=check_ids(obj["headline_true_step"], n_steps,
                                         "headline_true_step"),
            canonical_transitions={
                tuple(check_json(pair, "tuple[int, int]", "canonical transition"))
                for pair in obj["canonical_transitions"]
            },
            observed_transitions={(a, b): c for a, b, c in observed},
            annotations=[],
            config=config,
            config_hash=check_json(obj.get("config_hash"), "str | None", "config_hash"),
        )
