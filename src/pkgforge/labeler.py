"""Per-segment pseudo labels mined from the knowledge graph.

Five label families are produced for every segment: matched step nodes
(vnm), matched tasks in database and corpus variants (vtm_db, vtm_corpus),
the step context those tasks imply (tcl_db, tcl_corpus), graph neighbors
of the matched nodes per hop and direction (nrl), and the headline-level
baseline (vsm), each at the paper's fixed size (the constants below).

Every family holds class ids. vtm_db's are positions in the database's
task list, in database order, and vtm_corpus's are occurrence columns, the
sorted corpus task names; only `save_labels` and `load_labels` map them to
and from the names the labels file and its header hold.

vnm and vsm are read off each segment's own score row. The vtm, tcl and
nrl families depend only on the set of matched nodes, so `emit_labels`
derives them once per distinct set, and records whose segments match the
same nodes share those lists. The corpus variants read occurrence counts
taken per node, and tcl_corpus ranks each corpus task column once, before
any set is derived.

Labels are materialized to labels.jsonl: one header line with the
class-index spaces, one line per distinct set block (the five set-derived
families), then one record per segment in (video, segment) order holding
vnm, vsm and the index of its set line. Writing and reading therefore
handle each set block once. `load_labels` is the one place that checks a
record's shape, so code downstream takes its records, and those
`emit_labels` builds, as they are.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import matcher
from .corpus_io import (
    CorpusFormatError, JsonFile, SegmentCorpus, StepDatabase, atomic_write, canonical_json,
    check_ids, check_json, check_ranked_ids, fits_json,
)
from .graph import ProceduralKnowledgeGraph, khop_neighbors

log = logging.getLogger(__name__)

LABELS_KIND = "pkgforge-labels"


# The paper's label sizes: top 3 nodes (vnm), corpus tasks (vtm_corpus), nodes
# per corpus task (tcl_corpus) and headlines (vsm); top 5 and 3 neighbors (nrl)
VNM_TOP_K = 3
VTM_CORPUS_TOP_K = 3
TCL_CORPUS_TOP_K = 3
VSM_TOP_K = 3
NRL_TOP_PER_HOP = (5, 3)
NRL_HOPS = len(NRL_TOP_PER_HOP)


@dataclass(frozen=True)
class OccurrenceMatrix:
    """Node x corpus-task-name count matrix.

    counts[n, c] sums the member count of node n over every segment of a
    video named task_names[c] that matched n. Column order is the
    lexicographically sorted set of observed task names, which keeps
    reruns byte-identical.
    """

    counts: np.ndarray  # (num_nodes, num_corpus_tasks) int64
    task_names: tuple[str, ...]


@dataclass
class PseudoLabelSet:
    """One segment's labels. Ids are ints inside the header's class spaces
    (vtm_db indexes `task_ids`, vtm_corpus `corpus_task_names`), and nrl maps
    "in" and "out" to `nrl_hops` ranked hop lists. vtm_db, vtm_corpus,
    tcl_db, tcl_corpus and nrl are the set-derived families: records of one
    matched-node set share these list objects, so they must not be mutated
    in place."""

    video_id: str
    segment_index: int
    vnm: list[tuple[int, float]]
    vtm_db: list[int]
    vtm_corpus: list[int]
    tcl_db: list[int]
    tcl_corpus: list[int]
    nrl: dict[str, list[list[tuple[int, float]]]]  # direction -> per-hop ranked lists
    vsm: list[tuple[int, float]]


# ---------------------------------------------------------------------------
# individual label operations


def vnm_labels(node_scores: np.ndarray) -> list[tuple[int, float]]:
    """The top VNM_TOP_K matched nodes with their raw matching scores."""
    ids = matcher.top_k_nodes(node_scores, k=VNM_TOP_K)
    return [(nid, float(node_scores[nid])) for nid in ids]


def vtm_db_labels(vnm_nodes: list[int], node_tasks: list[list[int]]) -> list[int]:
    """Sorted union of the database tasks (positions) behind the matched nodes' members."""
    tasks: set[int] = set()
    for nid in vnm_nodes:
        tasks.update(node_tasks[nid])
    return sorted(tasks)


def build_occurrence_matrix(
    segment_vnm: list[list[int]],
    video_task_names: list[str | None],
    video_of_segment: list[int],
    node_of: np.ndarray,
) -> tuple[OccurrenceMatrix, int]:
    """Count matched-node member headlines against the videos' task names.

    Each matched node adds its member count to the column of its segment's
    video. Segments of videos without a task name are skipped; the number
    of such videos is returned alongside the matrix so callers can report it.
    """
    names = sorted({n for n in video_task_names if n is not None})
    column = {name: i for i, name in enumerate(names)}
    sizes = np.bincount(node_of).tolist()
    counts = np.zeros((len(sizes), len(names)), dtype=np.int64)
    for seg_nodes, vi in zip(segment_vnm, video_of_segment):
        col = column.get(video_task_names[vi])
        if col is not None:
            for nid in seg_nodes:
                counts[nid, col] += sizes[nid]
    skipped = sum(1 for name in video_task_names if name is None)
    if skipped:
        log.warning("occurrence matrix skipped %d videos without task names", skipped)
    return OccurrenceMatrix(counts=counts, task_names=tuple(names)), skipped


def vtm_corpus_labels(vnm_nodes: list[int], occ: OccurrenceMatrix) -> list[int]:
    """The top VTM_CORPUS_TOP_K corpus task columns by summed node occurrence, ties by name."""
    totals = occ.counts[list(vnm_nodes)].sum(axis=0)
    return matcher.ranked_indices(totals, np.nonzero(totals)[0])[:VTM_CORPUS_TOP_K]


def tcl_db_labels(vtm_tasks: list[int], task_nodes: list[tuple[int, ...]]) -> list[int]:
    """Union of the node ids every matched task maps to, sorted."""
    nodes: set[int] = set()
    for task in vtm_tasks:
        nodes.update(task_nodes[task])
    return sorted(nodes)


def top_nodes_per_corpus_task(occ: OccurrenceMatrix) -> list[list[int]]:
    """Per corpus task column, up to TCL_CORPUS_TOP_K nodes with the largest nonzero
    count, ranked."""
    return [matcher.ranked_indices(col, np.nonzero(col)[0])[:TCL_CORPUS_TOP_K]
            for col in occ.counts.T]


# tcl_corpus unions the top nodes of each matched corpus task (from
# top_nodes_per_corpus_task) as tcl_db unions each matched task's own
# nodes; the two names keep the two label families apart
tcl_corpus_labels = tcl_db_labels


def nrl_labels(
    vnm_nodes: list[int], graph: ProceduralKnowledgeGraph
) -> dict[str, list[list[tuple[int, float]]]]:
    """Ranked neighbors of the matched node set per direction, for hops 1..NRL_HOPS,
    keeping NRL_TOP_PER_HOP[k] at hop k + 1."""
    out: dict[str, list[list[tuple[int, float]]]] = {}
    for direction in ("in", "out"):
        per_hop = (khop_neighbors(graph, vnm_nodes, NRL_HOPS, direction) if vnm_nodes
                   else [{}] * NRL_HOPS)
        ranked_hops = []
        for top, confidences in zip(NRL_TOP_PER_HOP, per_hop):
            ranked = sorted(confidences.items(), key=lambda item: (-item[1], item[0]))
            ranked_hops.append([(nid, conf) for nid, conf in ranked[:top]])
        out[direction] = ranked_hops
    return out


# ---------------------------------------------------------------------------
# orchestration


def task_node_map(db: StepDatabase, node_of: np.ndarray) -> list[tuple[int, ...]]:
    """Per database task, in database order, the sorted node ids of its own steps."""
    return [tuple(np.unique(node_of[task.start : task.stop]).tolist()) for task in db.tasks]


def emit_labels(
    corpus: SegmentCorpus, db: StepDatabase, graph: ProceduralKnowledgeGraph
) -> tuple[dict, list[PseudoLabelSet]]:
    """Generate one PseudoLabelSet per segment, in (video, segment) order.

    Returns the labels file header (class-index spaces plus bookkeeping)
    and the records. Each video is scored with one matmul, and vnm and vsm
    come from each segment's score row. The vtm, tcl and nrl families are
    derived once per distinct set of matched nodes, so records whose
    segments match the same nodes share those label lists. The label sizes
    are the module constants above.
    """
    node_of = graph.node_of(db)
    tasks_of = task_node_map(db, node_of)
    node_tasks: list[list[int]] = [[] for _ in range(graph.num_nodes)]
    for task, nodes in enumerate(tasks_of):
        for nid in nodes:
            node_tasks[nid].append(task)

    # (video index, segment index, vnm, vsm) per segment. Videos are scored
    # one call each: BLAS may round a short video's rows differently once
    # they are stacked into a larger matrix.
    scored: list[tuple[int, int, list[tuple[int, float]], list[tuple[int, float]]]] = []
    for vi, video in enumerate(corpus.videos):
        for seg_idx, row in enumerate(matcher.score_video(video.segments, db)):
            node_scores = matcher.node_scores_from_headlines(row, node_of, graph.num_nodes)
            vnm = vnm_labels(node_scores)
            vsm = [(h, float(row[h])) for h in matcher.vsm_top_headlines(row, k=VSM_TOP_K)]
            scored.append((vi, seg_idx, vnm, vsm))

    occ, skipped = build_occurrence_matrix(
        [[nid for nid, _ in vnm] for _, _, vnm, _ in scored],
        [v.corpus_task_name for v in corpus.videos],
        [vi for vi, _, _, _ in scored],
        node_of,
    )

    top_nodes = top_nodes_per_corpus_task(occ)

    def set_labels(nodes: list[int]) -> tuple:
        vtm_db = vtm_db_labels(nodes, node_tasks)
        vtm_corpus = vtm_corpus_labels(nodes, occ)
        return (
            vtm_db,
            vtm_corpus,
            tcl_db_labels(vtm_db, tasks_of),
            tcl_corpus_labels(vtm_corpus, top_nodes),
            nrl_labels(nodes, graph),
        )

    derived: dict[tuple[int, ...], tuple] = {}
    records: list[PseudoLabelSet] = []
    for vi, seg_idx, vnm, vsm in scored:
        key = tuple(sorted(nid for nid, _ in vnm))
        if key not in derived:
            derived[key] = set_labels(list(key))
        vtm_db, vtm_corpus, tcl_db, tcl_corpus, nrl = derived[key]
        records.append(
            PseudoLabelSet(
                video_id=corpus.videos[vi].video_id,
                segment_index=seg_idx,
                vnm=vnm,
                vtm_db=vtm_db,
                vtm_corpus=vtm_corpus,
                tcl_db=tcl_db,
                tcl_corpus=tcl_corpus,
                nrl=nrl,
                vsm=vsm,
            )
        )

    header = {
        "kind": LABELS_KIND,
        "config_hash": graph.config_hash,
        "num_videos": len(corpus.videos),
        "num_segments": len(records),
        "num_sets": len(derived),
        "num_nodes": graph.num_nodes,
        "num_headlines": db.num_headlines,
        "task_ids": [t.task_id for t in db.tasks],
        "corpus_task_names": list(occ.task_names),
        "nrl_hops": NRL_HOPS,
        "skipped_unnamed_videos": skipped,
    }
    return header, records


# ---------------------------------------------------------------------------
# serialization


def save_labels(header: dict, records: list[PseudoLabelSet], path: str | Path) -> None:
    """Write the header, one line per set block, then one line per record.

    A set block holds the five set-derived families, vtm_db and vtm_corpus
    as the header's names for their ids. Records whose block lists are the
    same objects, as `emit_labels` and `load_labels` return them, point at
    one shared line, so each block is encoded once. The header's `num_sets`
    is the number of set lines written.
    """
    task_ids, corpus_names = header["task_ids"], header["corpus_task_names"]
    set_of: dict[tuple[int, ...], int] = {}
    set_lines: list[str] = []
    record_lines: list[str] = []
    for rec in records:
        key = tuple(map(id, (rec.vtm_db, rec.vtm_corpus, rec.tcl_db, rec.tcl_corpus, rec.nrl)))
        index = set_of.get(key)
        if index is None:
            index = set_of[key] = len(set_lines)
            set_lines.append(canonical_json({
                "vtm_db": [task_ids[i] for i in rec.vtm_db],
                "vtm_corpus": [corpus_names[i] for i in rec.vtm_corpus],
                "tcl_db": rec.tcl_db, "tcl_corpus": rec.tcl_corpus, "nrl": rec.nrl,
            }))
        record_lines.append(canonical_json({
            "video_id": rec.video_id, "segment_index": rec.segment_index,
            "vnm": rec.vnm, "set": index, "vsm": rec.vsm,
        }))
    with atomic_write(path) as fh:
        fh.write(canonical_json(dict(header, num_sets=len(set_lines))) + "\n")
        for line in set_lines + record_lines:
            fh.write(line + "\n")


def _class_ids(names, position: dict[str, int], field: str, space: str) -> list[int]:
    missing = set(check_json(names, "tuple[str, ...]", field)).difference(position)
    if missing:
        raise ValueError(f"{field} names {space} missing from the header: {sorted(missing)}")
    return [position[name] for name in names]


def _set_block(obj: dict, header: dict, task_pos: dict[str, int],
               corpus_pos: dict[str, int]) -> dict:
    vtm_db = _class_ids(obj["vtm_db"], task_pos, "vtm_db", "task ids")
    vtm_corpus = _class_ids(obj["vtm_corpus"], corpus_pos, "vtm_corpus", "corpus tasks")
    nrl, hops = obj["nrl"], header["nrl_hops"]
    if not fits_json(nrl, "object") or sorted(nrl) != ["in", "out"]:
        raise ValueError("nrl is not an object with exactly the keys 'in' and 'out'")
    for direction, per_hop in nrl.items():
        if not fits_json(per_hop, "tuple[list, ...]") or len(per_hop) != hops:
            raise ValueError(f"nrl {direction} is not a list of {hops} hop lists")
    num_nodes = header["num_nodes"]
    return {
        "vtm_db": vtm_db, "vtm_corpus": vtm_corpus,
        "tcl_db": check_ids(obj["tcl_db"], num_nodes, "tcl_db"),
        "tcl_corpus": check_ids(obj["tcl_corpus"], num_nodes, "tcl_corpus"),
        "nrl": {
            direction: [check_ranked_ids(hop, num_nodes, f"nrl {direction}") for hop in per_hop]
            for direction, per_hop in nrl.items()
        },
    }


def load_labels(path: str | Path) -> tuple[dict, list[PseudoLabelSet]]:
    """Read a labels file; records that point at one set line share its lists.

    This is the one place that checks a record's shape (README §Formats).
    Set-derived families are checked once per set line. An error names the
    file, the line and the header, set or record at fault.
    """
    blocks: list[dict] = []
    records: list[PseudoLabelSet] = []
    with JsonFile(path, "header") as src:
        header = src.header()
        if header.get("kind") != LABELS_KIND:
            raise ValueError(f"has unexpected kind {header.get('kind')!r}")
        if "num_sets" not in header:
            raise ValueError("has no num_sets, so the file predates the set table; "
                             "rerun `pkgforge labels` to rewrite it")
        for key in ("num_sets", "num_segments", "num_nodes", "num_headlines", "nrl_hops"):
            check_json(header[key], "int", key)
        check_json(header.get("config_hash"), "str | None", "config_hash")
        task_pos = {name: i for i, name in
                    enumerate(check_json(header["task_ids"], "tuple[str, ...]", "task_ids"))}
        corpus_pos = {name: i for i, name in enumerate(
            check_json(header["corpus_task_names"], "tuple[str, ...]", "corpus_task_names"))}
        src.noun = "line"
        for obj in src.lines():
            if not records and "video_id" not in obj:
                src.noun = f"set {len(blocks)}"
                blocks.append(_set_block(obj, header, task_pos, corpus_pos))
                continue
            src.noun = f"record {len(records)}"
            set_index, video_id, segment = obj["set"], obj["video_id"], obj["segment_index"]
            if not fits_json(set_index, "int") or not 0 <= set_index < len(blocks):
                raise ValueError(f"points at set {set_index!r}, outside [0, {len(blocks)})")
            records.append(PseudoLabelSet(
                video_id=check_json(video_id, "str", "video_id"),
                segment_index=check_json(segment, "int", "segment_index"),
                vnm=check_ranked_ids(obj["vnm"], header["num_nodes"], "vnm"),
                vsm=check_ranked_ids(obj["vsm"], header["num_headlines"], "vsm"),
                **blocks[set_index],
            ))
    if header["num_sets"] != len(blocks):
        raise CorpusFormatError(
            f"{path}: header says {header['num_sets']} sets but the file holds "
            f"{len(blocks)} set lines"
        )
    if header["num_segments"] != len(records):
        raise CorpusFormatError(
            f"{path}: header says {header['num_segments']} segments but the file holds "
            f"{len(records)} records"
        )
    return header, records
