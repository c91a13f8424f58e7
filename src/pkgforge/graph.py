"""Build and query the procedural knowledge graph.

Nodes are deduplicated step clusters; directed edges carry a confidence in
[0, 1] and remember whether they came from the step database (score 1.0),
the video corpus (log min-max normalized aggregate), or both.

The edge list is the graph's one representation of its edges:
`khop_neighbors` builds an adjacency CSR from it per query and advances
many seed sets at once, one hop at a time, and `export_dot` walks the list
itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dedup, matcher
from .corpus_io import (
    JsonFile, Ragged, StepDatabase, atomic_write, canonical_json, check_json, fits_json,
)

SOURCE_DATABASE = "database"
SOURCE_CORPUS = "corpus"
_SOURCES = frozenset({SOURCE_DATABASE, SOURCE_CORPUS})


@dataclass(frozen=True)
class StepNode:
    node_id: int
    members: tuple[tuple[str, int, str], ...]  # (task_id, step_index, headline)


@dataclass(frozen=True)
class DirectedEdge:
    src: int
    dst: int
    score: float
    sources: tuple[str, ...]  # sorted subset of {corpus, database}


@dataclass
class ProceduralKnowledgeGraph:
    nodes: list[StepNode]
    edges: list[DirectedEdge]
    config_hash: str | None = None

    def __post_init__(self):
        self._check()

    def _check(self):
        ids = [n.node_id for n in self.nodes]
        if ids != list(range(len(ids))):
            raise ValueError("node ids must be dense 0..N-1 in order")
        for node in self.nodes:
            if not node.members:
                raise ValueError(f"node {node.node_id} has no members")
        seen = set()
        for e in self.edges:
            if e.src == e.dst:
                raise ValueError(f"self-loop on node {e.src}")
            if (e.src, e.dst) in seen:
                raise ValueError(f"duplicate edge ({e.src}, {e.dst})")
            seen.add((e.src, e.dst))
            if not (0.0 <= e.score <= 1.0):
                raise ValueError(f"edge ({e.src}, {e.dst}) score {e.score} outside [0, 1]")
            if not (0 <= e.src < len(ids) and 0 <= e.dst < len(ids)):
                raise ValueError(f"edge ({e.src}, {e.dst}) references unknown node")

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def node_of(self, db: StepDatabase) -> np.ndarray:
        """Each headline's node id, as this graph's members name it."""
        task_of = {task.task_id: task for task in db.tasks}
        node_of = np.full(db.num_headlines, -1, dtype=np.int64)
        for node in self.nodes:
            for task_id, step_index, _ in node.members:
                task = task_of.get(task_id)
                if task is None or not 0 <= step_index < task.stop - task.start:
                    raise ValueError(
                        f"graph member {(task_id, step_index)} not present in step database"
                    )
                node_of[task.start + step_index] = node.node_id
        if (node_of < 0).any() or sum(len(node.members) for node in self.nodes) != db.num_headlines:
            raise ValueError("graph members do not cover the step database")
        return node_of


# ---------------------------------------------------------------------------
# construction


def database_transitions(db: StepDatabase, node_of: np.ndarray) -> list[tuple[int, int]]:
    """Node pairs for each adjacent headline pair of every task, deduplicated.

    Pairs that collapse onto one node after dedup are dropped; every
    returned pair carries an implicit score of 1.0.
    """
    pairs = set()
    for task in db.tasks:
        node_ids = node_of[task.start : task.stop].tolist()
        pairs.update((a, b) for a, b in zip(node_ids, node_ids[1:]) if a != b)
    return sorted(pairs)


def corpus_transitions(
    video_matches: list[list[list[tuple[int, float]]]], instance_threshold: float
) -> dict[tuple[int, int], float]:
    """Aggregate instance scores of adjacent-segment headline transitions.

    video_matches holds, per video and per segment, the matched
    (headline index, score) pairs. Each adjacent segment pair contributes
    score_src * score_dst for every cross-product combination with
    differing headlines. Accumulation runs in (video, segment, src index,
    dst index) order so the floating-point sums are reproducible, and pairs
    whose aggregate is not strictly above the threshold are pruned.
    """
    aggregates: dict[tuple[int, int], float] = {}
    for segments in video_matches:
        for earlier, later in zip(segments, segments[1:]):
            for hs, ss in sorted(earlier):
                for hd, sd in sorted(later):
                    if hs == hd:
                        continue
                    key = (hs, hd)
                    aggregates[key] = aggregates.get(key, 0.0) + ss * sd
    return {
        pair: total for pair, total in sorted(aggregates.items()) if total > instance_threshold
    }


def normalize_scores(aggregates: dict[tuple[int, int], float]) -> dict[tuple[int, int], float]:
    """Log min-max normalization onto [0, 1]; a single distinct value maps to 1.0."""
    if not aggregates:
        return {}
    for pair, value in aggregates.items():
        if value <= 0.0:
            raise ValueError(f"aggregate for {pair} must be positive, got {value}")
    logs = {pair: math.log(value) for pair, value in aggregates.items()}
    lo = min(logs.values())
    hi = max(logs.values())
    if lo == hi:
        return {pair: 1.0 for pair in aggregates}
    span = hi - lo
    return {pair: (lv - lo) / span for pair, lv in sorted(logs.items())}


def assemble_graph(
    db: StepDatabase,
    node_of: np.ndarray,
    db_pairs: list[tuple[int, int]],
    corpus_scores: dict[tuple[int, int], float],
    config_hash: str | None = None,
) -> ProceduralKnowledgeGraph:
    """Merge database and corpus transitions into the final edge list.

    node_of numbers the nodes; each node lists its members in headline
    order. Corpus scores arrive per headline pair (already normalized) and
    are mapped through node_of here. Per ordered node pair the edge keeps
    the maximum contributing score and the union of sources.
    """
    node_ids = node_of.tolist()
    members: list[list[tuple[str, int, str]]] = [[] for _ in range(max(node_ids) + 1)]
    for task in db.tasks:
        for h in range(task.start, task.stop):
            members[node_ids[h]].append((task.task_id, h - task.start, db.headlines[h]))
    nodes = [StepNode(node_id=nid, members=tuple(m)) for nid, m in enumerate(members)]

    best: dict[tuple[int, int], float] = {}
    sources: dict[tuple[int, int], set[str]] = {}
    for pair in db_pairs:
        best[pair] = 1.0
        sources.setdefault(pair, set()).add(SOURCE_DATABASE)
    for (hs, hd), score in sorted(corpus_scores.items()):
        ns, nd = node_ids[hs], node_ids[hd]
        if ns == nd:
            continue
        key = (ns, nd)
        if score > best.get(key, -1.0):
            best[key] = score
        sources.setdefault(key, set()).add(SOURCE_CORPUS)

    edges = [
        DirectedEdge(src=s, dst=d, score=best[(s, d)], sources=tuple(sorted(sources[(s, d)])))
        for s, d in sorted(best)
    ]
    return ProceduralKnowledgeGraph(nodes=nodes, edges=edges, config_hash=config_hash)


def build_graph(
    db: StepDatabase,
    corpus,
    dedup_threshold: float,
    match_threshold: float,
    instance_threshold: float,
    config_hash: str | None = None,
) -> ProceduralKnowledgeGraph:
    """Full construction: dedup headlines, match segments, assemble edges.

    Runs on the calling thread: numpy's BLAS already threads the dedup and
    scoring matmuls, and each video keeps its own `score_video` call so its
    scores round the same however many videos the corpus holds.
    """
    node_of = dedup.cluster_headlines(db.embeddings, dedup_threshold)

    video_matches = [
        [[(h, float(row[h])) for h in matcher.matched_headlines(row, match_threshold)]
         for row in matcher.score_video(video.segments, db)]
        for video in corpus.videos
    ]
    aggregates = corpus_transitions(video_matches, instance_threshold)
    normalized = normalize_scores(aggregates)
    db_pairs = database_transitions(db, node_of)
    return assemble_graph(db, node_of, db_pairs, normalized, config_hash=config_hash)


# ---------------------------------------------------------------------------
# queries


def khop_neighbors(graph: ProceduralKnowledgeGraph, seeds: Ragged, hops: int,
                   direction: str) -> list[Ragged]:
    """Per hop k = 1..hops, one CSR with a row per row of seed nodes: the nodes reached,
    ascending, each with its best path-product confidence from that row's seeds.

    Hop-k confidence is the maximum, over directed paths of exactly k edges leaving
    (direction "out") or entering (direction "in") any seed, of the product of edge
    scores along the path. Nodes may reappear at several hop depths; paths may revisit
    nodes. All rows advance together, one hop at a time, and each hop extends only the
    best product per (row, node): rounding is monotone, so no better path is lost.
    """
    if hops < 1:
        raise ValueError(f"hops must be >= 1, got {hops}")
    if direction not in ("in", "out"):
        raise ValueError(f"direction must be 'in' or 'out', got {direction!r}")
    outside = (seeds.ids < 0) | (seeds.ids >= graph.num_nodes)
    if outside.any():
        raise ValueError(f"seed node {seeds.ids[outside][0]} not in graph")

    ends = np.array([(e.src, e.dst) for e in graph.edges], dtype=np.int64).reshape(-1, 2).T
    near, far = ends if direction == "out" else ends[::-1]
    adjacency = Ragged.grouped(near, far, graph.num_nodes,
                               np.array([e.score for e in graph.edges], dtype=np.float64))
    reached = Ragged(seeds.indptr, seeds.ids, np.ones(len(seeds.ids)))
    result: list[Ragged] = []
    for _ in range(hops):
        step = adjacency.take(reached.ids)
        fanout = np.diff(step.indptr)
        reached = Ragged.grouped(np.repeat(reached.rows(), fanout), step.ids, len(seeds),
                                 step.scores * np.repeat(reached.scores, fanout), np.maximum)
        result.append(reached)
    return result


# ---------------------------------------------------------------------------
# serialization


def save_graph(graph: ProceduralKnowledgeGraph, path: str | Path) -> None:
    obj = {
        "config_hash": graph.config_hash,
        "nodes": [
            {
                "node_id": n.node_id,
                "members": [
                    {"task_id": t, "step_index": s, "headline": h} for t, s, h in n.members
                ],
            }
            for n in sorted(graph.nodes, key=lambda n: n.node_id)
        ],
        "edges": [
            {"src": e.src, "dst": e.dst, "score": e.score, "sources": list(e.sources)}
            for e in sorted(graph.edges, key=lambda e: (e.src, e.dst))
        ],
    }
    with atomic_write(path) as fh:
        fh.write(canonical_json(obj) + "\n")


def _edge(obj: dict) -> DirectedEdge:
    src, dst, sources = obj["src"], obj["dst"], obj["sources"]
    if not fits_json(sources, "tuple[str, ...]") or not _SOURCES.issuperset(sources):
        raise ValueError(f"sources {sources!r} is not a list drawn from 'corpus' and 'database'")
    score = check_json(obj["score"], "float", f"edge {src!r}->{dst!r} score")
    return DirectedEdge(check_json(src, "int", "src"), check_json(dst, "int", "dst"),
                        float(score), tuple(sources))


def load_graph(path: str | Path) -> ProceduralKnowledgeGraph:
    with JsonFile(path, "graph file") as src:
        obj = src.document()
        nodes = [
            StepNode(
                node_id=check_json(n["node_id"], "int", "node_id"),
                members=tuple(
                    (check_json(m["task_id"], "str", "task_id"),
                     check_json(m["step_index"], "int", "step_index"),
                     check_json(m["headline"], "str", "headline"))
                    for m in n["members"]
                ),
            )
            for n in obj["nodes"]
        ]
        edges = [_edge(e) for e in obj["edges"]]
        config_hash = check_json(obj.get("config_hash"), "str | None", "config_hash")
        return ProceduralKnowledgeGraph(nodes, edges, config_hash)


def graph_stats(graph: ProceduralKnowledgeGraph) -> dict:
    """Node and edge counts plus a ten-bin histogram of edge scores over [0, 1]."""
    histogram = [0] * 10
    for e in graph.edges:
        histogram[min(int(e.score * 10), 9)] += 1
    return {
        "num_nodes": graph.num_nodes,
        "num_multi_member_nodes": sum(1 for n in graph.nodes if len(n.members) > 1),
        "num_edges": len(graph.edges),
        "num_database_edges": sum(1 for e in graph.edges if SOURCE_DATABASE in e.sources),
        "num_corpus_edges": sum(1 for e in graph.edges if SOURCE_CORPUS in e.sources),
        "score_histogram": histogram,
        "config_hash": graph.config_hash,
    }


def export_dot(graph: ProceduralKnowledgeGraph, around_nodes: list[int] | None, hops: int) -> str:
    """Render the graph (or the hop-neighborhood of a node set) as DOT text."""
    keep = set(around_nodes or (n.node_id for n in graph.nodes))
    frontier = set(around_nodes or ())
    for _ in range(hops):  # edges count in both directions
        frontier = ({e.dst for e in graph.edges if e.src in frontier}
                    | {e.src for e in graph.edges if e.dst in frontier}) - keep
        keep |= frontier

    lines = ["digraph pkg {", "  rankdir=LR;"]
    for node in graph.nodes:
        if node.node_id not in keep:
            continue
        # DOT reads \" as a quote inside a quoted string, so backslashes are doubled
        label = node.members[0][2].replace("\\", "\\\\").replace('"', "'")
        if len(node.members) > 1:
            label += f" (+{len(node.members) - 1})"
        lines.append(f'  n{node.node_id} [label="{node.node_id}: {label}"];')
    for e in graph.edges:
        if e.src in keep and e.dst in keep:
            style = "solid" if SOURCE_DATABASE in e.sources else "dashed"
            lines.append(f'  n{e.src} -> n{e.dst} [label="{e.score:.3f}", style={style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
