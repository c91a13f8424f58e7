"""Downstream task harness: task recognition, step recognition, forecasting.

An example is a row range of one matrix of (optionally adapter-refined)
segment features. The model adds a learned positional vector to each row,
averages the range, and classifies with a one-hidden-layer MLP under softmax
cross entropy, trained through `nn.fit`, the adapter's loop. The harness path
is identical for raw and refined features; only the input transform differs.
The matrix, the model and its training compute in the features' dtype
combined with f32: f32 rows stay f32, and f64 rows stay f64.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus_io import JsonFile, SegmentCorpus, atomic_write, canonical_json, check_json
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
class Examples:
    """Example i is rows [start[i], start[i] + length[i]) of `features`, of class label[i].

    Indexing selects examples and keeps the matrix.
    """

    features: np.ndarray  # (rows, d) f32 or f64, shared by every split of a dataset
    start: np.ndarray
    length: np.ndarray  # >= 1
    label: np.ndarray

    def __len__(self) -> int:
        return self.label.size

    def __getitem__(self, which) -> Examples:
        return Examples(self.features, self.start[which], self.length[which], self.label[which])


@dataclass
class DownstreamSplits:
    kind: str
    n_classes: int
    train: Examples
    val: Examples
    test: Examples


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
    out = []
    with JsonFile(path, "video annotation") as src:
        for obj in src.lines():
            video_id = check_json(obj["video_id"], "str", "video_id")
            task_class = check_json(obj["task_class"], "int", "task_class")
            steps = [StepSpan(*(check_json(s[key], "int", f"step {key}")
                                for key in ("class", "start", "end"))) for s in obj["steps"]]
            out.append(VideoAnnotation(video_id, task_class, steps))
    return out


# ---------------------------------------------------------------------------
# dataset construction


def build_downstream_dataset(
    corpus: SegmentCorpus,
    annotations: list[VideoAnnotation],
    kind: str,
    config: DownstreamConfig,
    transform=None,
) -> DownstreamSplits:
    """Seeded, video-disjoint train/val/test splits of downstream examples.

    TR takes each video's rows, SR each non-empty step span and SF each later
    step's non-empty history, as ranges of one matrix holding each annotated
    video's rows once, through `transform` (identity for raw features, the
    adapter for refined ones); it never changes the harness path itself. The
    matrix's dtype is the videos' rows' combined with f32.
    """
    by_id = {v.video_id: v for v in corpus.videos}
    missing = [a.video_id for a in annotations if a.video_id not in by_id]
    if missing:
        raise ValueError(f"annotations reference unknown videos: {missing[:3]}")
    n_rows = np.array([by_id[a.video_id].segments.shape[0] for a in annotations], dtype=np.int64)
    annotated: set[str] = set()
    for ann, n_segments in zip(annotations, n_rows.tolist()):
        # a video annotated twice could land in two splits
        if ann.video_id in annotated:
            raise ValueError(f"video {ann.video_id} is annotated more than once")
        annotated.add(ann.video_id)
        # a negative class would wrap to the last logit; an empty span is skipped later
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
        if n_segments > config.max_positions:
            raise ValueError(f"video {ann.video_id} has {n_segments} segments, "
                             f"exceeding max_positions={config.max_positions}")
        if kind == TASK_RECOGNITION and n_segments == 0:
            raise ValueError(f"video {ann.video_id} has no segments to recognise its task from")

    first_row = np.cumsum(n_rows) - n_rows
    steps = [(v, s.step_class, s.start, s.end) for v, a in enumerate(annotations) for s in a.steps]
    video, step_class, step_start, step_end = np.array(steps, dtype=np.int64).reshape(-1, 4).T
    if kind == TASK_RECOGNITION:
        video, offset, length = np.arange(len(annotations)), 0, n_rows
        label = np.array([a.task_class for a in annotations], dtype=np.int64)
    elif kind == STEP_RECOGNITION:
        offset, length, label = step_start, step_end - step_start, step_class
    elif kind == STEP_FORECASTING:
        # history must contain at least the first full step
        first = np.r_[True, video[1:] != video[:-1]]
        offset, length, label = 0, np.where(first, 0, step_start), step_class
    else:
        raise ValueError(f"unknown downstream task kind {kind!r}")
    if not label.size:
        raise ValueError(f"no {kind} labels: the annotations hold no "
                         f"{'videos' if kind == TASK_RECOGNITION else 'steps'}")
    n_classes = int(label.max()) + 1
    keep = length > 0  # an empty span or history makes no example
    start = (first_row[video] + offset)[keep]
    video, length, label = video[keep], length[keep], label[keep]

    dtype = np.result_type(*{by_id[a.video_id].segments.dtype for a in annotations}, np.float32)
    features = np.empty((int(n_rows.sum()), corpus.dim), dtype)
    for ann, lo, hi in zip(annotations, first_row, first_row + n_rows):
        segments = by_id[ann.video_id].segments
        features[lo:hi] = segments if transform is None else transform(segments)

    rng = np.random.default_rng(config.seed)
    # each example's place in the seeded video order; examples keep step order within a video
    rank = np.argsort(rng.permutation(len(annotations)))[video]
    by_rank = np.argsort(rank, kind="stable")
    n_train = int(round(config.train_fraction * len(annotations)))
    n_val = int(round(config.val_fraction * len(annotations)))
    cut_train, cut_val = np.searchsorted(rank[by_rank], [n_train, n_train + n_val])
    every = Examples(features, start[by_rank], length[by_rank], label[by_rank])
    return DownstreamSplits(kind, n_classes, every[:cut_train], every[cut_train:cut_val],
                            every[cut_val:])


# ---------------------------------------------------------------------------
# model


class DownstreamModel:
    """Learned absolute positional table plus a one-hidden-layer classifier.

    Both live in one flat parameter vector of `dtype`, the examples' matrix's,
    laid out as positions, then clf.w0, clf.b0, clf.w1, clf.b1, with a
    same-layout gradient vector. Every table is drawn from `rng` in f64.
    """

    def __init__(self, dim: int, n_classes: int, kind: str, config: DownstreamConfig, rng,
                 dtype=np.float64):
        dims = [dim, config.hidden_for(kind), n_classes]
        n_pos = config.max_positions * dim
        self.params = np.zeros(n_pos + Mlp.size(dims), dtype)
        self.grads = np.zeros_like(self.params)
        self.positions = self.params[:n_pos].reshape(config.max_positions, dim)
        self.position_grads = self.grads[:n_pos].reshape(config.max_positions, dim)
        self.positions[...] = glorot_uniform(rng, config.max_positions, dim)
        self.classifier = Mlp(dims, rng, self.params[n_pos:], self.grads[n_pos:])
        # examples per padded block in forward, so evaluation's wide batches stay small
        self.block = config.batch_size

    def aggregate(self, batch: Examples) -> np.ndarray:
        """The mean of each example's rows plus positional vectors: the classifier input.

        A block is gathered zero-padded to its longest example and summed in
        position order, so it rounds as `(rows + positions[:L]).mean(axis=0)`.
        """
        aggs = np.empty((len(batch), self.positions.shape[1]), self.params.dtype)
        for lo in range(0, len(batch), self.block):
            part = batch[lo : lo + self.block]
            offsets = np.arange(part.length.max())
            padded = part.features.take(part.start[:, None] + offsets, axis=0, mode="clip")
            padded += self.positions[: offsets.size]
            padded[offsets >= part.length[:, None]] = 0.0
            np.sum(padded, axis=1, out=aggs[lo : lo + len(part)])
        aggs /= batch.length[:, None].astype(aggs.dtype)
        return aggs

    def forward(self, batch: Examples):
        """Logits and cache of the classifier over `aggregate(batch)`."""
        return self.classifier.forward(self.aggregate(batch))

    def backward(self, batch: Examples, cache, dlogits) -> np.ndarray:
        """Overwrites and returns the flat gradient vector."""
        dagg = self.classifier.backward(cache, dlogits)
        dagg /= batch.length[:, None].astype(dagg.dtype)
        inside = np.arange(batch.length.max()) < batch.length[:, None]
        self.position_grads[inside.shape[1] :] = 0.0
        # summed over the batch in example order, as per-example accumulation would
        np.sum(np.where(inside[:, :, None], dagg[:, None, :], 0.0), axis=0,
               out=self.position_grads[: inside.shape[1]])
        return self.grads


# ---------------------------------------------------------------------------
# training and evaluation


def evaluate(model: DownstreamModel, examples: Examples) -> float:
    """Fraction of argmax-correct predictions (ties go to the smallest id)."""
    if not examples:
        raise ValueError("cannot evaluate on an empty example set")
    correct = 0
    for start in range(0, len(examples), 256):
        batch = examples[start : start + 256]
        logits = model.classifier.predict(model.aggregate(batch))
        correct += int(np.count_nonzero(np.argmax(logits, axis=1) == batch.label))
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
    model = DownstreamModel(dim, splits.n_classes, splits.kind, config, rng,
                            splits.train.features.dtype)
    params = model.params
    adam = AdamState.for_params(params)

    def step(rows: np.ndarray) -> float:
        batch = splits.train[rows]
        logits, cache = model.forward(batch)
        loss, dlogits = softmax_cross_entropy(logits, batch.label)
        grads = model.backward(batch, cache, dlogits)
        adam_step(params, grads, adam, lr=config.learning_rate, weight_decay=config.weight_decay)
        return loss

    # fit keeps the lowest score, so it gets the accuracy negated (exact in floats)
    validate = (lambda: -evaluate(model, splits.val)) if splits.val else None
    result = fit(params, len(splits.train), config, rng, step, validate)
    return model, {"train_loss": result.train_loss, "val_accuracy": [-s for s in result.val_score]}
