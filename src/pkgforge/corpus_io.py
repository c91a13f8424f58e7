"""On-disk formats and in-memory containers for the pipeline.

Three artifact families live here: the step database (steps.jsonl), the
segment corpus (manifest.jsonl plus binary feature files), and model
checkpoints (JSON header line plus the f32 cast of a model's flat parameter
vector).

All floating point payloads are little-endian f32 on disk; everything is
promoted to f64 the moment it enters memory.
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FEATURE_MAGIC = b"PKGF"
FEATURE_VERSION = 1


class CorpusFormatError(ValueError):
    """Raised when an on-disk artifact violates its schema or invariants."""


def canonical_json(obj) -> str:
    """Serialize with a fixed, compact layout so rewrites are byte-identical."""
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)


@contextmanager
def atomic_write(path: str | Path, binary: bool = False):
    """Yield a handle whose contents appear under `path` only once complete.

    Writes go to a fresh temporary file in the same directory, which is
    `os.replace`d onto `path` when the block exits normally. If the block
    raises, the temporary file is removed and `path` is left untouched.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# step database


@dataclass(frozen=True)
class StepHeadline:
    headline_text: str
    embedding: np.ndarray  # (d,) float64


@dataclass(frozen=True)
class Task:
    task_id: str
    task_name: str
    steps: tuple[StepHeadline, ...]


@dataclass
class StepDatabase:
    """Ordered task articles; each step carries one embedded headline.

    Global headline indices run over tasks in order, then steps in order,
    and are the index space used by the matcher, dedup, and the graph.
    """

    tasks: tuple[Task, ...]
    _embeddings: np.ndarray | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.tasks[0].steps[0].embedding.shape[0]

    @property
    def num_headlines(self) -> int:
        return sum(len(t.steps) for t in self.tasks)

    def headline_index(self) -> list[tuple[int, int]]:
        """Global headline index -> (task position, step position)."""
        out = []
        for ti, task in enumerate(self.tasks):
            out.extend((ti, si) for si in range(len(task.steps)))
        return out

    def embedding_matrix(self) -> np.ndarray:
        """(num_headlines, d) float64, rows in global headline order."""
        if self._embeddings is None:
            rows = [s.embedding for t in self.tasks for s in t.steps]
            self._embeddings = np.vstack(rows)
        return self._embeddings


def _validate_database(tasks: list[Task], path: str) -> StepDatabase:
    if not tasks:
        raise CorpusFormatError(f"{path}: step database contains no tasks")
    seen_ids = set()
    dim = None
    for task in tasks:
        if task.task_id in seen_ids:
            raise CorpusFormatError(f"{path}: duplicate task_id {task.task_id!r}")
        seen_ids.add(task.task_id)
        if not task.steps:
            raise CorpusFormatError(f"{path}: task {task.task_id!r} has no steps")
        for si, step in enumerate(task.steps):
            emb = step.embedding
            if dim is None:
                dim = emb.shape[0]
                if dim < 1:
                    raise CorpusFormatError(f"{path}: embeddings must have dimension >= 1")
            elif emb.shape[0] != dim:
                raise CorpusFormatError(
                    f"{path}: task {task.task_id!r} step {si} has dimension "
                    f"{emb.shape[0]}, expected {dim}"
                )
            if not np.all(np.isfinite(emb)):
                raise CorpusFormatError(
                    f"{path}: task {task.task_id!r} step {si} has non-finite embedding"
                )
            if not np.any(emb):
                raise CorpusFormatError(
                    f"{path}: task {task.task_id!r} step {si} has zero embedding"
                )
    return StepDatabase(tasks=tuple(tasks))


def load_step_database(path: str | Path) -> StepDatabase:
    """Parse steps.jsonl (one task object per line) and validate invariants."""
    path = Path(path)
    tasks: list[Task] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                steps = tuple(
                    StepHeadline(
                        headline_text=s["headline"],
                        embedding=np.asarray(s["embedding"], dtype=np.float64),
                    )
                    for s in rec["steps"]
                )
                task = Task(task_id=rec["task_id"], task_name=rec["task_name"], steps=steps)
            except (KeyError, TypeError, ValueError) as exc:
                raise CorpusFormatError(f"{path}:{lineno}: malformed task record: {exc}") from exc
            for si, step in enumerate(task.steps):
                if step.embedding.ndim != 1:
                    raise CorpusFormatError(
                        f"{path}:{lineno}: step {si} embedding is not a flat vector"
                    )
            tasks.append(task)
    return _validate_database(tasks, str(path))


def save_step_database(db: StepDatabase, path: str | Path) -> None:
    with atomic_write(path) as fh:
        for task in db.tasks:
            rec = {
                "task_id": task.task_id,
                "task_name": task.task_name,
                "steps": [
                    {"headline": s.headline_text, "embedding": [float(v) for v in s.embedding]}
                    for s in task.steps
                ],
            }
            fh.write(canonical_json(rec) + "\n")


# ---------------------------------------------------------------------------
# segment corpus


@dataclass
class Video:
    video_id: str
    corpus_task_name: str | None
    segments: np.ndarray  # (L, d) float64, temporal order


@dataclass
class SegmentCorpus:
    videos: list[Video]

    @property
    def dim(self) -> int | None:
        return None if not self.videos else self.videos[0].segments.shape[1]

    @property
    def num_segments(self) -> int:
        return sum(v.segments.shape[0] for v in self.videos)


def write_feature_file(path: str | Path, features: np.ndarray) -> None:
    """Write a (rows, dim) array as magic/version/rows/dim header + LE f32 rows."""
    features = np.ascontiguousarray(features, dtype="<f4")
    if features.ndim != 2:
        raise CorpusFormatError(f"{path}: feature payload must be 2-D")
    rows, dim = features.shape
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<III", FEATURE_VERSION, rows, dim))
        fh.write(features.tobytes())


def read_feature_file(path: str | Path) -> np.ndarray:
    """Read a feature file back as (rows, dim) float64."""
    path = Path(path)
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) < 16:
            raise CorpusFormatError(f"{path}: truncated header")
        if header[:4] != FEATURE_MAGIC:
            raise CorpusFormatError(f"{path}: bad magic {header[:4]!r}")
        version, rows, dim = struct.unpack("<III", header[4:])
        if version != FEATURE_VERSION:
            raise CorpusFormatError(f"{path}: unsupported version {version}")
        payload = fh.read(rows * dim * 4)
        if len(payload) < rows * dim * 4:
            raise CorpusFormatError(
                f"{path}: truncated payload, expected {rows * dim * 4} bytes, got {len(payload)}"
            )
        if fh.read(1):
            raise CorpusFormatError(f"{path}: trailing bytes after payload")
    data = np.frombuffer(payload, dtype="<f4").reshape(rows, dim)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise CorpusFormatError(f"{path}: row {int(np.argmin(finite))} holds a non-finite feature")
    return data.astype(np.float64)


def load_segment_corpus(manifest_path: str | Path) -> SegmentCorpus:
    """Load manifest.jsonl plus the feature files it references."""
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    videos: list[Video] = []
    dim = None
    with open(manifest_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                video_id = rec["video_id"]
                task_name = rec["task_name"]
                num_segments = rec["num_segments"]
                feature_file = rec["feature_file"]
            except (KeyError, TypeError, ValueError) as exc:
                raise CorpusFormatError(
                    f"{manifest_path}:{lineno}: malformed manifest record: {exc}"
                ) from exc
            features = read_feature_file(base / feature_file)
            if features.shape[0] != num_segments:
                raise CorpusFormatError(
                    f"{manifest_path}:{lineno}: manifest says {num_segments} segments but "
                    f"{feature_file} holds {features.shape[0]}"
                )
            if dim is None:
                dim = features.shape[1]
            elif features.shape[1] != dim:
                raise CorpusFormatError(
                    f"{manifest_path}:{lineno}: {feature_file} has dimension "
                    f"{features.shape[1]}, expected {dim}"
                )
            videos.append(Video(video_id=video_id, corpus_task_name=task_name, segments=features))
    return SegmentCorpus(videos=videos)


def save_segment_corpus(
    corpus: SegmentCorpus, out_dir: str | Path, feature_subdir: str = "features"
) -> Path:
    """Write manifest.jsonl and one feature file per video; returns manifest path."""
    out_dir = Path(out_dir)
    (out_dir / feature_subdir).mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.jsonl"
    with atomic_write(manifest_path) as fh:
        for video in corpus.videos:
            rel = f"{feature_subdir}/{video.video_id}.pkgf"
            write_feature_file(out_dir / rel, video.segments)
            rec = {
                "video_id": video.video_id,
                "task_name": video.corpus_task_name,
                "num_segments": int(video.segments.shape[0]),
                "feature_file": rel,
            }
            fh.write(canonical_json(rec) + "\n")
    return manifest_path


# ---------------------------------------------------------------------------
# model checkpoints


@dataclass
class ModelCheckpoint:
    """Named parameter shapes plus one flat f32 payload in declaration order."""

    shapes: list[tuple[str, int, int]]
    weights: np.ndarray  # flat, dtype <f4
    metadata: dict

    def unpack(self) -> dict[str, np.ndarray]:
        """Rebuild named float64 arrays, each shaped (rows, cols) as declared."""
        out = {}
        offset = 0
        for name, rows, cols in self.shapes:
            count = rows * cols
            out[name] = self.weights[offset : offset + count].astype(np.float64).reshape(rows, cols)
            offset += count
        return out


def checkpoint_from_params(
    params: np.ndarray, shapes: list[tuple[str, int, int]], metadata: dict
) -> ModelCheckpoint:
    """The f32 cast of a model's flat parameter vector, laid out by `shapes`."""
    return ModelCheckpoint(shapes=shapes, weights=params.astype("<f4"), metadata=metadata)


def save_checkpoint(ckpt: ModelCheckpoint, path: str | Path) -> None:
    header = {
        "shapes": [[name, rows, cols] for name, rows, cols in ckpt.shapes],
        "metadata": ckpt.metadata,
    }
    with atomic_write(path, binary=True) as fh:
        fh.write(canonical_json(header).encode("utf-8") + b"\n")
        fh.write(np.ascontiguousarray(ckpt.weights, dtype="<f4").tobytes())


def load_checkpoint(path: str | Path) -> ModelCheckpoint:
    path = Path(path)
    with open(path, "rb") as fh:
        header_line = fh.readline()
        if not header_line.endswith(b"\n"):
            raise CorpusFormatError(f"{path}: missing checkpoint header line")
        try:
            header = json.loads(header_line.decode("utf-8"))
            shapes = [(str(n), int(r), int(c)) for n, r, c in header["shapes"]]
            metadata = header["metadata"]
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusFormatError(f"{path}: malformed checkpoint header: {exc}") from exc
        for name, rows, cols in shapes:
            if rows < 1 or cols < 1:
                raise CorpusFormatError(
                    f"{path}: shape entry {name!r} is {rows}x{cols}; rows and cols must be >= 1"
                )
        total = sum(r * c for _, r, c in shapes)
        payload = fh.read(total * 4)
        if len(payload) < total * 4:
            raise CorpusFormatError(
                f"{path}: truncated weights, expected {total * 4} bytes, got {len(payload)}"
            )
        if fh.read(1):
            raise CorpusFormatError(f"{path}: trailing bytes after weights")
    weights = np.frombuffer(payload, dtype="<f4").copy()
    bad = np.flatnonzero(~np.isfinite(weights))
    if bad.size:
        ends = np.cumsum([rows * cols for _, rows, cols in shapes])
        name = shapes[int(np.searchsorted(ends, bad[0], side="right"))][0]
        raise CorpusFormatError(f"{path}: entry {name!r} holds a non-finite weight")
    return ModelCheckpoint(shapes=shapes, weights=weights, metadata=metadata)
