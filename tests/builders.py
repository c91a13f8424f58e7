"""Seeded random artifact builders shared by the unit and acceptance tests."""

import numpy as np

from pkgforge.corpus_io import (
    ModelCheckpoint,
    SegmentCorpus,
    StepDatabase,
    Video,
    checkpoint_from_params,
)
from pkgforge.graph import DirectedEdge, ProceduralKnowledgeGraph, StepNode
from pkgforge.labeler import PseudoLabels, Ragged


def random_database(rng: np.random.Generator, n_tasks=None, dim=None) -> StepDatabase:
    n_tasks = n_tasks or int(rng.integers(1, 5))
    dim = dim or int(rng.integers(2, 7))
    tasks = []
    rows = []
    for t in range(n_tasks):
        steps = int(rng.integers(1, 6))
        tasks.append((f"t{t}", f"task {t}", [f"step {t}/{s}" for s in range(steps)]))
        # the offset keeps norms away from zero
        rows.extend(rng.normal(size=dim) + 0.01 for _ in range(steps))
    return StepDatabase.from_tasks(tasks, np.array(rows))


def random_corpus(rng: np.random.Generator, dim: int, n_videos=None) -> SegmentCorpus:
    n_videos = n_videos if n_videos is not None else int(rng.integers(0, 5))
    videos = []
    for v in range(n_videos):
        n_seg = int(rng.integers(1, 7))
        videos.append(
            Video(
                video_id=f"v{v:03d}",
                corpus_task_name=f"corpus task {v % 3}" if rng.random() < 0.8 else None,
                segments=rng.normal(size=(n_seg, dim)),
            )
        )
    return SegmentCorpus(videos=videos)


def random_graph(rng: np.random.Generator, max_nodes=12, density=0.35) -> ProceduralKnowledgeGraph:
    n = int(rng.integers(2, max_nodes + 1))
    nodes = [
        StepNode(node_id=i, members=((f"t{i % 3}", i, f"headline {i}"),)) for i in range(n)
    ]
    edges = []
    for src in range(n):
        for dst in range(n):
            if src != dst and rng.random() < density:
                edges.append(
                    DirectedEdge(
                        src=src,
                        dst=dst,
                        score=float(rng.uniform(0.05, 1.0)),
                        sources=("corpus",) if rng.random() < 0.5 else ("database",),
                    )
                )
    return ProceduralKnowledgeGraph(nodes=nodes, edges=edges, config_hash=None)


def random_checkpoint(rng: np.random.Generator) -> ModelCheckpoint:
    shapes, chunks = [], []
    for i in range(int(rng.integers(1, 5))):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 6))
        shapes.append((f"layer.{i}", rows, cols))
        chunks.append(rng.normal(size=rows * cols))
    return checkpoint_from_params(
        np.concatenate(chunks), shapes,
        {"dim": 4, "seed": int(rng.integers(100)), "config_hash": "abc123"},
    )


def identity_assignment(n: int) -> np.ndarray:
    """node_of for a partition with one headline per node."""
    return np.arange(n)


def row_targets(per_row: dict) -> dict[str, Ragged]:
    """Training targets from hand-built positive class ids: head -> one id list per row."""
    return {name: Ragged.from_lists(rows) for name, rows in per_row.items()}


SET_FIELDS = ("vtm_db", "vtm_corpus", "tcl_db", "tcl_corpus", "nrl")


def labels_from_records(records: list, nrl_hops: int) -> PseudoLabels:
    """Columnar labels from hand-built PseudoLabelSet records.

    Records whose set-derived lists are the same objects share one set, and
    sets and video ids are numbered in first-seen order, as `emit_labels`
    numbers them.
    """
    set_of: dict[tuple[int, ...], int] = {}
    sets, set_index = [], []
    for rec in records:
        key = tuple(id(getattr(rec, name)) for name in SET_FIELDS)
        if key not in set_of:
            set_of[key] = len(sets)
            sets.append(rec)
        set_index.append(set_of[key])
    video_of: dict[str, int] = {}
    video = [video_of.setdefault(rec.video_id, len(video_of)) for rec in records]
    families = {
        "vnm": Ragged.from_lists([rec.vnm for rec in records], scored=True),
        "vsm": Ragged.from_lists([rec.vsm for rec in records], scored=True),
    }
    for name in SET_FIELDS[:-1]:
        families[name] = Ragged.from_lists([getattr(rec, name) for rec in sets])
    for direction in ("in", "out"):
        for hop in range(nrl_hops):
            families[f"nrl_{direction}_{hop + 1}"] = Ragged.from_lists(
                [rec.nrl[direction][hop] for rec in sets], scored=True)
    return PseudoLabels(
        video_ids=tuple(video_of),
        video=np.array(video, dtype=np.int64),
        segment_index=np.array([rec.segment_index for rec in records], dtype=np.int64),
        set=np.array(set_index, dtype=np.int64),
        families=families,
    )
