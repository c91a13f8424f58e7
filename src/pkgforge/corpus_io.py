"""On-disk formats and in-memory containers for the pipeline.

Three artifact families live here: the step database (steps.jsonl plus its
steps.f64 embedding matrix), the segment corpus (manifest.jsonl plus its
segments.f32 feature matrix), and model checkpoints (JSON header line plus
the f32 cast of a model's flat parameter vector).

segments.f32, steps.f64 and the labels payload labels.f64 share one binary
layout: a four-byte magic, u32 version/rows/dim, then the row-major
little-endian payload; `labeler` owns the labels files. Checkpoint
weights are little-endian f32. Segment features stay f32 in memory until
a consumer computes with them; everything else is f64 once loaded.

Every reader takes JSON from a file through one frame, `JsonFile`, and checks
each value by `fits_json` and the checks built on it (README §Formats).
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, fields
from itertools import chain
from pathlib import Path

import numpy as np

FEATURE_MAGIC = b"PKGF"
FEATURE_VERSION = 1
STEPS_MAGIC = b"PKGS"
STEPS_VERSION = 1


class CorpusFormatError(ValueError):
    """Raised when an on-disk artifact violates its schema or invariants; the message
    starts with the file at fault."""


def canonical_json(obj) -> str:
    """Serialize with a fixed, compact layout so rewrites are byte-identical."""
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)


def _reject_constant(token: str):
    raise ValueError(f"{token} is not valid JSON")


# Every reader decodes through this one function. Python's json reads the
# non-standard NaN, Infinity and -Infinity tokens, which canonical_json
# never writes, so they are rejected here.
parse_json = json.JSONDecoder(parse_constant=_reject_constant).decode


# ---------------------------------------------------------------------------
# JSON values


# what each annotation accepts: a bool is no JSON integer, a JSON integer is a number
_JSON_TYPES = {"int": {int}, "float": {int, float}, "str": {str}, "str | None": {str, type(None)},
               "list": {list}, "object": {dict}}
_JSON_NOUNS = {"int": "JSON integer", "float": "JSON number", "str": "string",
               "str | None": "string or null", "object": "JSON object"}


def _tuple_items(annotation: str) -> list[str] | None:
    """The item annotations of "tuple[int, int]" or "tuple[str, ...]"; None for a scalar."""
    return annotation[len("tuple[") : -1].split(", ") if annotation.startswith("tuple[") else None


def fits_json(value, annotation: str) -> bool:
    """Whether a JSON value fits an annotation such as "float", "tuple[int, int]" (an array
    of two) or "tuple[str, ...]" (an array of any length)."""
    types = _JSON_TYPES.get(annotation)
    if types is not None:
        return type(value) in types
    items = _tuple_items(annotation)
    if not isinstance(value, (list, tuple)) or items[-1] != "..." and len(value) != len(items):
        return False
    return _JSON_TYPES[items[0]].issuperset(map(type, value))


def check_json(value, annotation: str, name: str):
    """`value` itself if it fits `annotation`, else an error like "x 1.5 is not a JSON integer"."""
    if fits_json(value, annotation):
        return value
    items = _tuple_items(annotation)
    if items is None:
        raise ValueError(f"{name} {value!r} is not a {_JSON_NOUNS[annotation]}")
    count = "" if items[-1] == "..." else f"{len(items)} "
    raise ValueError(f"{name} {value!r} is not a list of {count}{_JSON_NOUNS[items[0]]}s")


def check_ids(ids, bound: int, name: str) -> list[int]:
    """`ids`, checked to be a list of JSON integers in [0, bound)."""
    if check_json(ids, "tuple[int, ...]", name) and (min(ids) < 0 or max(ids) >= bound):
        raise ValueError(f"{name} {sorted(ids)} has an id outside [0, {bound})")
    return ids


def dataclass_from_json(cls, data, prefix: str = ""):
    """A dataclass, annotated as `fits_json` reads, from a JSON object `prefix` names.

    A float field holds a float (JSON 360 and 360.0 must hash alike), a tuple field a tuple.
    """
    if not fits_json(data, "object"):
        raise ValueError(f"config section {prefix[:-1]!r} must be a JSON object, got {data!r}")
    types = {f.name: f.type for f in fields(cls)}
    unknown = set(data) - set(types)
    if unknown:
        raise ValueError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
    converted = dict(data)
    for name, value in data.items():
        if not fits_json(value, types[name]):
            raise ValueError(f"{prefix}{name} must be {types[name]}, got {value!r}")
        if types[name] == "float":
            converted[name] = float(value)
        elif _tuple_items(types[name]):
            converted[name] = tuple(value)
    return cls(**converted)


class JsonFile:
    """The frame every reader takes JSON from a file through (README §Formats).

    `lines()` yields the object on each non-blank line, `header()` the first
    line's and `document()` the whole file's. Each line is decoded as UTF-8 on
    its own, so a fault names its true line, and each must hold a JSON object.
    In the `with` block a KeyError, TypeError or ValueError, from the decode or
    from the reader's own checks, leaves as one CorpusFormatError
    "path:line: malformed <noun>: ..." naming the line read last; a reader may
    rename `noun` as it goes. A CorpusFormatError already names its file and
    leaves unchanged.
    """

    def __init__(self, path: str | Path, noun: str):
        self.path, self.noun, self.lineno = Path(path), noun, 0

    def __enter__(self) -> "JsonFile":
        self.fh = open(self.path, "rb")
        return self

    def __exit__(self, kind, exc, tb) -> None:
        self.fh.close()
        if kind is None or issubclass(kind, CorpusFormatError):
            return
        if issubclass(kind, (KeyError, TypeError, ValueError)):
            detail = f"has no {exc}" if kind is KeyError else exc
            if kind is json.JSONDecodeError:  # the frame names the line, json the column on it
                self.lineno += exc.lineno - 1
                detail = f"{exc.msg}: column {exc.colno}"
            raise CorpusFormatError(
                f"{self.path}:{self.lineno}: malformed {self.noun}: {detail}"
            ) from exc

    def _object(self, text: str) -> dict:
        obj = parse_json(text.rstrip("\r\n"))  # json counts a line's own newline as a line
        if type(obj) is not dict:
            raise ValueError(f"a {self.noun} must be a JSON object")
        return obj

    def lines(self):
        """The object on each non-blank line not yet read. Each line is decoded under
        the noun held when the lines began, never under one a reader gave the line
        before."""
        noun = self.noun
        for self.lineno, raw in enumerate(self.fh, self.lineno + 1):
            self.noun = noun
            if not raw.isspace():
                yield self._object(raw.decode("utf-8"))

    def header(self) -> dict:
        """The object on the first line, which must end in a newline."""
        self.lineno = 1
        raw = self.fh.readline()
        if not raw.endswith(b"\n"):
            raise ValueError("the file ends before the line does")
        return self._object(raw.decode("utf-8"))

    def document(self) -> dict:
        """The whole file as one object; a fault after the decode names line 1."""
        raw = self.fh.read()
        self.lineno = 1
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            self.lineno += raw.count(b"\n", 0, exc.start)
            raise
        return self._object(text)


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
# ragged rows


def row_offsets(lengths: np.ndarray) -> np.ndarray:
    """CSR row offsets from row lengths: (rows + 1,) int64, starting at 0."""
    indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return indptr


@dataclass(frozen=True)
class Ragged:
    """Rows of int ids in CSR form, with a score beside each id where the rows rank
    their ids: row i is ids[indptr[i]:indptr[i + 1]]. Memory is linear in the ids,
    not in rows x classes. Pseudo labels, training targets, the graph's adjacency and
    its k-hop neighborhoods all take this one form."""

    indptr: np.ndarray  # (rows + 1,) int64
    ids: np.ndarray  # (indptr[-1],) int64
    scores: np.ndarray | None = None  # (indptr[-1],) f64, or int64 counts

    @classmethod
    def from_lists(cls, rows: list, scored: bool = False) -> "Ragged":
        """From one sequence per row: of ids, or, if `scored`, of (id, score) pairs.
        Ids may repeat within a row; scored ids pass through f64, exact below 2**53."""
        indptr = row_offsets(np.fromiter(map(len, rows), np.int64, len(rows)))
        total = int(indptr[-1])
        if not scored:
            return cls(indptr, np.fromiter(chain.from_iterable(rows), np.int64, total))
        pairs = np.fromiter(chain.from_iterable(chain.from_iterable(rows)), np.float64,
                            2 * total).reshape(total, 2)
        return cls(indptr, pairs[:, 0].astype(np.int64), pairs[:, 1].copy())

    @classmethod
    def grouped(cls, row: np.ndarray, ids: np.ndarray, rows: int,
                scores: np.ndarray | None = None, reduce: np.ufunc = np.add) -> "Ragged":
        """Rows 0..rows-1 of the entries (row[i], ids[i]), any order: per row its distinct
        ids, ascending. Given scores, each id keeps `reduce` (np.add, np.maximum) over
        the scores of its entries. Ids are non-negative."""
        width = int(ids.max(initial=0)) + 1
        key = row * width + ids
        if scores is None:
            key = np.sort(key)
        else:
            order = np.argsort(key, kind="stable")
            key, scores = key[order], scores[order]
        first = np.flatnonzero(np.diff(key, prepend=-1))  # keys are non-negative
        kept_row, kept_ids = np.divmod(key[first], width)
        return cls(row_offsets(np.bincount(kept_row, minlength=rows)), kept_ids,
                   None if scores is None else reduce.reduceat(scores, first))

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def rows(self) -> np.ndarray:
        """The row of each id: (len(ids),) int64, ascending."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))

    def take(self, rows: np.ndarray) -> "Ragged":
        """The given rows, in that order; a row may be given more than once."""
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        indptr = row_offsets(counts)
        # each kept id's position in ids: its row's start plus its rank in the row
        at = np.repeat(starts - indptr[:-1], counts) + np.arange(indptr[-1])
        return Ragged(indptr, self.ids[at], None if self.scores is None else self.scores[at])

    def ranked(self, k: int) -> "Ragged":
        """Per row, up to k ids by descending score, ties by ascending id, with their
        scores. Each row's ids must ascend, as `grouped` leaves them."""
        order = np.lexsort((-self.scores, self.rows()))
        counts = np.diff(self.indptr)
        keep = order[np.arange(len(order)) - np.repeat(self.indptr[:-1], counts) < k]
        return Ragged(row_offsets(np.minimum(counts, k)), self.ids[keep], self.scores[keep])

    def dense(self, rows: np.ndarray, n_classes: int) -> np.ndarray:
        """(len(rows), n_classes) 0/1 targets of the given rows, in that order."""
        picked = self.take(rows)
        out = np.zeros((len(picked), n_classes))
        out[picked.rows(), picked.ids] = 1.0
        return out

    def lists(self) -> list[list]:
        """One list per row: of int ids, or of (id, score) pairs where there are scores."""
        items = self.ids.tolist()
        if self.scores is not None:
            items = list(zip(items, self.scores.tolist()))
        bounds = self.indptr.tolist()
        return [items[start:stop] for start, stop in zip(bounds, bounds[1:])]


# ---------------------------------------------------------------------------
# step database


@dataclass(frozen=True)
class Task:
    task_id: str
    task_name: str
    start: int  # the task's first global headline index
    stop: int  # one past its last


@dataclass(frozen=True)
class StepDatabase:
    """Ordered task articles over one global headline axis.

    Global headline indices run over tasks in order, then steps in order,
    and are the index space used by the matcher, dedup, and the graph:
    task t's steps are headlines [t.start, t.stop), and row h of
    `embeddings` embeds headline h.
    """

    tasks: tuple[Task, ...]
    headlines: tuple[str, ...]
    embeddings: np.ndarray  # (num_headlines, d) float64

    @property
    def num_headlines(self) -> int:
        return len(self.headlines)

    @classmethod
    def from_tasks(cls, tasks, embeddings, source: str = "step database") -> "StepDatabase":
        """Validate (task_id, task_name, [headline, ...]) entries and their (H, d) matrix.

        Row h of `embeddings` embeds the h-th headline in task order, and an f64
        matrix is kept without a copy. Rejects a database without tasks, a
        duplicate task id, a task without steps, a matrix that is not one row
        per headline of dimension >= 1, and a zero row. Non-finite rows are
        the reader's to reject (`_read_matrix`). Messages start with `source`.
        """
        if not tasks:
            raise CorpusFormatError(f"{source}: step database contains no tasks")
        spans: dict[str, Task] = {}
        headlines: list[str] = []
        for task_id, task_name, texts in tasks:
            if task_id in spans:
                raise CorpusFormatError(f"{source}: duplicate task_id {task_id!r}")
            if not texts:
                raise CorpusFormatError(f"{source}: task {task_id!r} has no steps")
            spans[task_id] = Task(task_id, task_name, len(headlines), len(headlines) + len(texts))
            headlines.extend(texts)
        embeddings = np.asarray(embeddings, dtype=np.float64)
        if embeddings.ndim != 2 or embeddings.shape[0] != len(headlines):
            raise CorpusFormatError(f"{source}: embeddings of shape {embeddings.shape} are not "
                                    f"one row for each of {len(headlines)} headlines")
        if embeddings.shape[1] < 1:
            raise CorpusFormatError(f"{source}: embeddings must have dimension >= 1")
        zero = np.flatnonzero(~embeddings.any(axis=1))
        if zero.size:
            h = int(zero[0])
            task = next(t for t in spans.values() if h < t.stop)
            raise CorpusFormatError(
                f"{source}: task {task.task_id!r} step {h - task.start} has zero embedding"
            )
        return cls(tasks=tuple(spans.values()), headlines=tuple(headlines), embeddings=embeddings)


def load_step_database(path: str | Path) -> StepDatabase:
    """Read steps.jsonl (one task per line) and its steps.f64 matrix, then validate."""
    path = Path(path)
    tasks = []
    with JsonFile(path, "task record") as src:
        for rec in src.lines():
            if "steps" in rec:
                raise ValueError("holds inline embeddings, a layout this version no longer reads; "
                                 "rerun `pkgforge synth`")
            names = check_json([rec["task_id"], rec["task_name"]], "tuple[str, str]",
                               "task_id and task_name")
            tasks.append((*names, check_json(rec["headlines"], "tuple[str, ...]", "headlines")))
    embeddings = read_matrix_beside(path, STEPS_MAGIC, STEPS_VERSION, "embedding matrix")
    num_headlines = sum(len(headlines) for _, _, headlines in tasks)
    if embeddings.shape[0] != num_headlines:
        raise CorpusFormatError(
            f"{matrix_beside(path)}: holds {embeddings.shape[0]} rows but {path} lists "
            f"{num_headlines} headlines"
        )
    return StepDatabase.from_tasks(tasks, embeddings, str(path))


def save_step_database(db: StepDatabase, path: str | Path) -> None:
    """Write the embedding matrix, then the steps.jsonl index that makes it loadable."""
    write_matrix_beside(path, STEPS_MAGIC, STEPS_VERSION, db.embeddings)
    with atomic_write(path) as fh:
        for task in db.tasks:
            rec = {
                "task_id": task.task_id,
                "task_name": task.task_name,
                "headlines": list(db.headlines[task.start : task.stop]),
            }
            fh.write(canonical_json(rec) + "\n")


# ---------------------------------------------------------------------------
# binary matrices: segments.f32, steps.f64 and labels.f64


def _write_matrix(fh, magic: bytes, version: int, data: np.ndarray) -> None:
    """Write magic, u32 version/rows/dim, then the C-contiguous 2-D `data`'s bytes, from
    the array itself rather than a copy."""
    fh.write(magic)
    fh.write(struct.pack("<III", version, *data.shape))
    fh.write(data)


def _read_payload(fh, path, size: int, what: str) -> bytearray:
    """Read the `size` bytes from `fh`'s position to its end into a writeable buffer.

    Rejects a file that holds fewer or more bytes than that, naming the payload
    as `what`. The size is checked against the file first, so a damaged header
    never asks read() for gigabytes.
    """
    held = os.fstat(fh.fileno()).st_size - fh.tell()
    if held < size:
        raise CorpusFormatError(f"{path}: truncated {what}, expected {size} bytes, got {held}")
    if held > size:
        raise CorpusFormatError(f"{path}: trailing bytes after {what}")
    payload = bytearray(size)
    fh.readinto(payload)
    return payload


def _read_matrix(path: Path, magic: bytes, version: int, dtype: str) -> np.ndarray:
    """Read a writeable (rows, dim) matrix that `_write_matrix` wrote, in one copy.

    Rejects a short or foreign header, a payload shorter or longer than the
    header declares, and a row holding a non-finite value.
    """
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) < 16:
            raise CorpusFormatError(f"{path}: truncated header")
        if header[:4] != magic:
            raise CorpusFormatError(f"{path}: bad magic {header[:4]!r}")
        found, rows, dim = struct.unpack("<III", header[4:])
        if found != version:
            raise CorpusFormatError(f"{path}: unsupported version {found}")
        payload = _read_payload(fh, path, rows * dim * np.dtype(dtype).itemsize, "payload")
    data = np.frombuffer(payload, dtype=dtype).reshape(rows, dim)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise CorpusFormatError(f"{path}: row {int(np.argmin(finite))} holds a non-finite value")
    return data


def matrix_beside(path: str | Path) -> Path:
    """The .f64 matrix that sits beside a JSON index file (steps.f64, labels.f64)."""
    return Path(path).with_suffix(".f64")


def write_matrix_beside(path: str | Path, magic: bytes, version: int, data: np.ndarray) -> None:
    """Write a 2-D array as little-endian f64 to the matrix beside `path`, atomically."""
    with atomic_write(matrix_beside(path), binary=True) as fh:
        _write_matrix(fh, magic, version, np.ascontiguousarray(data, "<f8"))


def read_matrix_beside(path: str | Path, magic: bytes, version: int, what: str) -> np.ndarray:
    """The f64 matrix beside `path`; a missing one is named as `what` for `path`."""
    matrix_path = matrix_beside(path)
    try:
        return _read_matrix(matrix_path, magic, version, "<f8")
    except FileNotFoundError:
        raise CorpusFormatError(f"{matrix_path}: missing {what} for {path}") from None


# ---------------------------------------------------------------------------
# segment corpus


@dataclass
class Video:
    video_id: str
    corpus_task_name: str | None
    segments: np.ndarray  # (L, d), temporal order; loaded as a view of segments.f32


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
    with atomic_write(path, binary=True) as fh:
        _write_matrix(fh, FEATURE_MAGIC, FEATURE_VERSION, features)


def read_feature_file(path: str | Path) -> np.ndarray:
    """Read a feature file back as the (rows, dim) f32 array it stores."""
    return _read_matrix(Path(path), FEATURE_MAGIC, FEATURE_VERSION, "<f4")


def load_segment_corpus(manifest_path: str | Path) -> SegmentCorpus:
    """Read manifest.jsonl, then the segments.f32 beside it once; each video holds a view
    of the matrix's next `num_segments` rows in manifest order."""
    manifest_path = Path(manifest_path)
    entries: list[tuple[str, str | None, int]] = []
    line_of: dict[str, int] = {}
    with JsonFile(manifest_path, "manifest record") as src:
        for rec in src.lines():
            if "feature_file" in rec:
                raise ValueError("names a per-video feature file, a layout this version no "
                                 "longer reads; rerun `pkgforge synth`")
            video_id = check_json(rec["video_id"], "str", "video_id")
            task_name = check_json(rec["task_name"], "str | None", "task_name")
            num_segments = check_json(rec["num_segments"], "int", "num_segments")
            if num_segments < 0:
                raise ValueError(f"num_segments {num_segments} is negative")
            if video_id in line_of:
                raise ValueError(f"video_id {video_id!r} repeats line {line_of[video_id]}")
            line_of[video_id] = src.lineno
            entries.append((video_id, task_name, num_segments))
    matrix_path = manifest_path.with_name("segments.f32")
    try:
        matrix = read_feature_file(matrix_path)
    except FileNotFoundError:
        raise CorpusFormatError(f"{matrix_path}: missing segment matrix for "
                                f"{manifest_path}") from None
    counts = [n for _, _, n in entries]
    if matrix.shape[0] != sum(counts):
        raise CorpusFormatError(f"{matrix_path}: holds {matrix.shape[0]} rows but "
                                f"{manifest_path} lists {sum(counts)} segments")
    rows = np.split(matrix, np.cumsum(counts)[:-1])
    return SegmentCorpus([Video(i, task, view) for (i, task, _), view in zip(entries, rows)])


def save_segment_corpus(corpus: SegmentCorpus, out_dir: str | Path) -> Path:
    """Write segments.f32, every video's rows in order, then the manifest.jsonl
    index that makes it loadable; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.jsonl"
    segments = [v.segments for v in corpus.videos]
    write_feature_file(out_dir / "segments.f32",
                       np.concatenate(segments, dtype="<f4") if segments else np.zeros((0, 0)))
    with atomic_write(manifest_path) as fh:
        for video in corpus.videos:
            rec = {"video_id": video.video_id, "task_name": video.corpus_task_name,
                   "num_segments": len(video.segments)}
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
    with JsonFile(path, "checkpoint header") as src:
        header = src.header()
        shapes = [
            (check_json(name, "str", "shape name"), check_json(rows, "int", f"{name!r} rows"),
             check_json(cols, "int", f"{name!r} cols"))
            for name, rows, cols in header["shapes"]
        ]
        metadata = check_json(header["metadata"], "object", "metadata")
        check_json(metadata.get("config_hash"), "str | None", "config_hash")
        # an adapter's layer sizes, read by `trainer.adapter_from_checkpoint`
        for key in ("dim", "bottleneck"):
            if key in metadata and check_json(metadata[key], "int", key) < 1:
                raise ValueError(f"{key} {metadata[key]} must be >= 1")
        for name, rows, cols in shapes:
            if rows < 1 or cols < 1:
                raise ValueError(f"shape entry {name!r} is {rows}x{cols}; rows and cols must "
                                 "be >= 1")
        payload = _read_payload(src.fh, path, 4 * sum(r * c for _, r, c in shapes), "weights")
    weights = np.frombuffer(payload, dtype="<f4")
    bad = np.flatnonzero(~np.isfinite(weights))
    if bad.size:
        ends = np.cumsum([rows * cols for _, rows, cols in shapes])
        name = shapes[int(np.searchsorted(ends, bad[0], side="right"))][0]
        raise CorpusFormatError(f"{path}: entry {name!r} holds a non-finite weight")
    return ModelCheckpoint(shapes=shapes, weights=weights, metadata=metadata)
