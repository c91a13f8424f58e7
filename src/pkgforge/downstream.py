"""Downstream task harness: task recognition, step recognition, forecasting.

Examples are sequences of (optionally adapter-refined) segment features.
The model adds a learned positional vector to each segment, averages the
sequence, and classifies with a one-hidden-layer MLP under softmax cross
entropy, trained through `nn.fit`, the adapter's loop. The harness path is
identical for raw and refined features; only the input transform differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus_io import (
    CorpusFormatError, SegmentCorpus, atomic_write, canonical_json, check_json, parse_json,
)
from .nn import AdamState, Mlp, adam_step, fit, glorot_uniform, softmax_cross_entropy

TASK_RECOGNITION = "TR"
STEP_RECOGNITION = "SR"
STEP_FORECASTING = "SF"


@dataclass
class DownstreamConfig:
    learning_rate: float = 1e-4
    weight_decay: float = 1e-3
    batch_size: int = 16
    patience: int = 50
    max_epochs: int = 1000
    hidden_tr: int = 128
    hidden_sr: int = 768
    max_positions: int = 128
    train_fraction: float = 0.6
    val_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        for name in ("batch_size", "max_epochs", "hidden_tr", "hidden_sr", "max_positions"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.patience < 0:
            raise ValueError(f"patience must be >= 0, got {self.patience}")
        if not self.train_fraction > 0:
            raise ValueError(f"train_fraction must be > 0, got {self.train_fraction}")
        if not self.val_fraction >= 0:
            raise ValueError(f"val_fraction must be >= 0, got {self.val_fraction}")
        if self.train_fraction + self.val_fraction > 1:
            raise ValueError(
                f"train_fraction + val_fraction must be <= 1, got "
                f"{self.train_fraction} + {self.val_fraction}"
            )

    def hidden_for(self, kind: str) -> int:
        return self.hidden_tr if kind == TASK_RECOGNITION else self.hidden_sr


@dataclass
class StepSpan:
    step_class: int
    start: int  # first segment index
    end: int  # one past the last segment index


@dataclass
class VideoAnnotation:
    video_id: str
    task_class: int
    steps: list[StepSpan]


@dataclass
class DownstreamExample:
    features: np.ndarray  # (L, d)
    label: int
    video_id: str


@dataclass
class DownstreamSplits:
    kind: str
    n_classes: int
    train: list[DownstreamExample]
    val: list[DownstreamExample]
    test: list[DownstreamExample]


# ---------------------------------------------------------------------------
# annotations file


def save_annotations(annotations: list[VideoAnnotation], path: str | Path) -> None:
    with atomic_write(path) as fh:
        for ann in annotations:
            rec = {
                "video_id": ann.video_id,
                "task_class": ann.task_class,
                "steps": [{"class": s.step_class, "start": s.start, "end": s.end} for s in ann.steps],
            }
            fh.write(canonical_json(rec) + "\n")


def load_annotations(path: str | Path) -> list[VideoAnnotation]:
    path = Path(path)
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = parse_json(line)
                video_id = check_json(obj["video_id"], "str", "video_id")
                task_class = check_json(obj["task_class"], "int", "task_class")
                steps = [StepSpan(*(check_json(s[key], "int", f"step {key}")
                                    for key in ("class", "start", "end"))) for s in obj["steps"]]
                out.append(VideoAnnotation(video_id, task_class, steps))
            except (KeyError, TypeError, ValueError) as exc:
                raise CorpusFormatError(f"{path}:{lineno}: malformed annotation: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# dataset construction


def _video_examples(
    kind: str, ann: VideoAnnotation, features: np.ndarray
) -> list[DownstreamExample]:
    if kind == TASK_RECOGNITION:
        return [DownstreamExample(features, ann.task_class, ann.video_id)]
    if kind == STEP_RECOGNITION:
        return [
            DownstreamExample(features[s.start : s.end], s.step_class, ann.video_id)
            for s in ann.steps
            if s.end > s.start
        ]
    if kind == STEP_FORECASTING:
        # history must contain at least the first full step
        out = []
        for i in range(1, len(ann.steps)):
            span = ann.steps[i]
            if span.start > 0:
                out.append(DownstreamExample(features[: span.start], span.step_class, ann.video_id))
        return out
    raise ValueError(f"unknown downstream task kind {kind!r}")


def build_downstream_dataset(
    corpus: SegmentCorpus,
    annotations: list[VideoAnnotation],
    kind: str,
    config: DownstreamConfig,
    transform=None,
) -> DownstreamSplits:
    """Seeded, video-disjoint train/val/test splits of downstream examples.

    `transform` maps a (L, d) feature block to the representation under
    evaluation (identity for raw features, the adapter for refined ones);
    it never changes the harness path itself.
    """
    by_id = {v.video_id: v for v in corpus.videos}
    missing = [a.video_id for a in annotations if a.video_id not in by_id]
    if missing:
        raise ValueError(f"annotations reference unknown videos: {missing[:3]}")
    annotated: set[str] = set()
    for ann in annotations:
        # a video annotated twice could land in two splits
        if ann.video_id in annotated:
            raise ValueError(f"video {ann.video_id} is annotated more than once")
        annotated.add(ann.video_id)
        # a negative class would wrap to the last logit; an empty span is skipped later
        n_segments = by_id[ann.video_id].segments.shape[0]
        if ann.task_class < 0:
            raise ValueError(f"video {ann.video_id}: task_class {ann.task_class} is negative")
        for s in ann.steps:
            if s.step_class < 0:
                raise ValueError(f"video {ann.video_id}: step class {s.step_class} is negative")
            if not 0 <= s.start <= s.end <= n_segments:
                raise ValueError(
                    f"video {ann.video_id}: step span [{s.start}, {s.end}) is not within "
                    f"its {n_segments} segments"
                )
    if kind == TASK_RECOGNITION:
        n_classes = max(a.task_class for a in annotations) + 1
    else:
        n_classes = max(s.step_class for a in annotations for s in a.steps) + 1

    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(annotations))
    n_train = int(round(config.train_fraction * len(annotations)))
    n_val = int(round(config.val_fraction * len(annotations)))
    buckets = {"train": [], "val": [], "test": []}
    for rank, ann_idx in enumerate(order):
        ann = annotations[ann_idx]
        feats = by_id[ann.video_id].segments
        if transform is not None:
            feats = transform(feats)
        if feats.shape[0] > config.max_positions:
            raise ValueError(
                f"video {ann.video_id} has {feats.shape[0]} segments, "
                f"exceeding max_positions={config.max_positions}"
            )
        examples = _video_examples(kind, ann, feats)
        if rank < n_train:
            buckets["train"].extend(examples)
        elif rank < n_train + n_val:
            buckets["val"].extend(examples)
        else:
            buckets["test"].extend(examples)
    return DownstreamSplits(
        kind=kind,
        n_classes=n_classes,
        train=buckets["train"],
        val=buckets["val"],
        test=buckets["test"],
    )


# ---------------------------------------------------------------------------
# model


class DownstreamModel:
    """Learned absolute positional table plus a one-hidden-layer classifier.

    Both live in one flat f64 parameter vector laid out as positions, then
    clf.w0, clf.b0, clf.w1, clf.b1, with a same-layout gradient vector.
    """

    def __init__(self, dim: int, n_classes: int, kind: str, config: DownstreamConfig, rng):
        dims = [dim, config.hidden_for(kind), n_classes]
        n_pos = config.max_positions * dim
        self.params = np.zeros(n_pos + Mlp.size(dims))
        self.grads = np.zeros_like(self.params)
        self.positions = self.params[:n_pos].reshape(config.max_positions, dim)
        self.position_grads = self.grads[:n_pos].reshape(config.max_positions, dim)
        if rng is not None:
            self.positions[...] = glorot_uniform(rng, config.max_positions, dim)
        self.classifier = Mlp(dims, rng, self.params[n_pos:], self.grads[n_pos:])

    def _aggregate(self, features: np.ndarray) -> np.ndarray:
        length = features.shape[0]
        if length > self.positions.shape[0]:
            raise ValueError(f"sequence of length {length} exceeds positional table")
        if length == 0:
            raise ValueError("cannot classify an empty segment sequence")
        return (features + self.positions[:length]).mean(axis=0)

    def forward(self, batch: list[DownstreamExample]):
        aggs = np.stack([self._aggregate(ex.features) for ex in batch])
        logits, cache = self.classifier.forward(aggs)
        return logits, cache

    def backward(self, batch, cache, dlogits) -> np.ndarray:
        """Overwrites and returns the flat gradient vector."""
        dagg = self.classifier.backward(cache, dlogits)
        dpos = self.position_grads
        dpos[...] = 0.0
        for row, ex in enumerate(batch):
            length = ex.features.shape[0]
            dpos[:length] += dagg[row] / length
        return self.grads


# ---------------------------------------------------------------------------
# training and evaluation


def evaluate(model: DownstreamModel, examples: list[DownstreamExample]) -> float:
    """Fraction of argmax-correct predictions (ties go to the smallest id)."""
    if not examples:
        raise ValueError("cannot evaluate on an empty example set")
    correct = 0
    for start in range(0, len(examples), 256):
        batch = examples[start : start + 256]
        logits, _ = model.forward(batch)
        preds = np.argmax(logits, axis=1)
        correct += int(sum(p == ex.label for p, ex in zip(preds, batch)))
    return correct / len(examples)


def train_downstream(
    splits: DownstreamSplits, dim: int, config: DownstreamConfig
) -> tuple[DownstreamModel, dict]:
    """Cross-entropy training through `nn.fit`, early stopping on validation accuracy.

    Without a validation split the last epoch's parameters are kept.
    """
    if not splits.train:
        raise ValueError("empty training split")
    rng = np.random.default_rng(config.seed)
    model = DownstreamModel(dim, splits.n_classes, splits.kind, config, rng)
    params = model.params
    adam = AdamState.for_params(params)

    def step(rows: np.ndarray) -> float:
        batch = [splits.train[i] for i in rows]
        logits, cache = model.forward(batch)
        loss, dlogits = softmax_cross_entropy(logits, np.array([ex.label for ex in batch]))
        grads = model.backward(batch, cache, dlogits)
        adam_step(params, grads, adam, lr=config.learning_rate, weight_decay=config.weight_decay)
        return loss

    # fit keeps the lowest score, so it gets the accuracy negated (exact in floats)
    validate = (lambda: -evaluate(model, splits.val)) if splits.val else None
    result = fit(params, len(splits.train), config, rng, step, validate)
    return model, {"train_loss": result.train_loss, "val_accuracy": [-s for s in result.val_score]}
