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

Labels are materialized as two files: labels.f64, a binary payload that
holds every label as named flat f64 columns (per record, per family length
and ids and scores, each distinct set once), written first, then
labels.jsonl, one JSON header line with the class-index spaces, the
distinct video ids, the column table and the payload's sha256. Records
point at their set by index, so writing and reading handle each set once.
`load_labels` is the one place that checks a record's shape, in whole-column
passes, so code downstream takes its records, and those `emit_labels`
builds, as they are.
"""

from __future__ import annotations

import gc
import hashlib
import logging
from dataclasses import dataclass
from itertools import chain, islice, zip_longest
from pathlib import Path

import numpy as np

from . import matcher
from .corpus_io import (
    CorpusFormatError, JsonFile, SegmentCorpus, StepDatabase, atomic_write, canonical_json,
    check_json, matrix_beside, read_matrix_beside, write_matrix_beside,
)
from .graph import ProceduralKnowledgeGraph, khop_neighbors

log = logging.getLogger(__name__)

LABELS_KIND = "pkgforge-labels"
LABELS_MAGIC = b"PKGL"
LABELS_VERSION = 1


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


# the payload's ragged families, in payload order: (name, owner, header bound, scored).
# A family holds one length per owner row, then its ids (and scores) end to end.
_FAMILIES = (("vnm", "record", "num_nodes", True), ("vsm", "record", "num_headlines", True),
             ("vtm_db", "set", "task_ids", False), ("vtm_corpus", "set", "corpus_task_names", False),
             ("tcl_db", "set", "num_nodes", False), ("tcl_corpus", "set", "num_nodes", False))
_DIRECTIONS = ("in", "out")
# header keys that describe the payload; `load_labels` strips them from the header it returns
_PAYLOAD_KEYS = ("video_ids", "columns", "payload_sha256")
# owner rows turned into Python lists at a time, so a load never holds a whole column as lists
_BLOCK = 4096


def _families(nrl_hops: int) -> list[tuple[str, str, str, bool]]:
    return list(_FAMILIES) + [(f"nrl_{d}_{hop}", "set", "num_nodes", True)
                              for d in _DIRECTIONS for hop in range(1, nrl_hops + 1)]


def _column_names(nrl_hops: int) -> list[str]:
    names = ["video", "segment_index", "set"]
    for family, _, _, scored in _families(nrl_hops):
        names += [f"{family}_len", f"{family}_id"] + [f"{family}_score"] * scored
    return names


def _split(payload: np.ndarray, sizes: dict[str, int]) -> dict[str, np.ndarray]:
    """Each named column as a view of the flat payload, by the column table."""
    ends = np.cumsum(list(sizes.values()), dtype=np.int64).tolist()
    return {name: payload[end - size : end] for (name, size), end in zip(sizes.items(), ends)}


def _family_rows(owners: list, family: str) -> list:
    """Each owner's list of `family`; nrl families name a direction and a hop."""
    if family.startswith("nrl_"):
        _, direction, hop = family.split("_")
        return [owner.nrl[direction][int(hop) - 1] for owner in owners]
    return [getattr(owner, family) for owner in owners]


def save_labels(header: dict, records: list[PseudoLabelSet], path: str | Path) -> None:
    """Write the labels payload labels.f64, then the one-line labels.jsonl header.

    The payload holds every label as named flat f64 columns (README §Formats):
    per record its video (an index into the header's `video_ids`), segment
    index and set index; per family one length per record or set, then the
    ids, and the scores where the family has them, end to end. Records whose
    set-derived lists are the same objects, as `emit_labels` and `load_labels`
    return them, share one set, so each set is written once; the header's
    `num_sets` is the number of sets written. The header adds the distinct
    video ids, the column table and the payload's sha256 to the fields given.
    A non-finite score is refused before either file is written.
    """
    set_of: dict[tuple[int, ...], int] = {}
    sets: list[PseudoLabelSet] = []

    def set_index(rec: PseudoLabelSet) -> int:
        key = tuple(map(id, (rec.vtm_db, rec.vtm_corpus, rec.tcl_db, rec.tcl_corpus, rec.nrl)))
        index = set_of.get(key)
        if index is None:
            index = set_of[key] = len(sets)
            sets.append(rec)
        return index

    video_of: dict[str, int] = {}
    count = len(records)
    fill = {
        "video": np.fromiter((video_of.setdefault(r.video_id, len(video_of)) for r in records),
                             np.float64, count),
        "segment_index": np.fromiter((r.segment_index for r in records), np.float64, count),
        "set": np.fromiter(map(set_index, records), np.float64, count),
    }
    sizes = {name: count for name in fill}
    families = []
    for family, owner, _, scored in _families(header["nrl_hops"]):
        rows = _family_rows(records if owner == "record" else sets, family)
        fill[f"{family}_len"] = lengths = np.fromiter(map(len, rows), np.float64, len(rows))
        total = int(lengths.sum())
        sizes |= {f"{family}_len": len(rows), f"{family}_id": total}
        sizes |= {f"{family}_score": total} if scored else {}
        families.append((family, rows, total, scored))
    # one preallocated payload, each column a view of it, filled one family at a time
    payload = np.empty(sum(sizes.values()), "<f8")
    view = _split(payload, sizes)
    for name, values in fill.items():
        view[name][:] = values
    for family, rows, total, scored in families:
        if scored:
            pairs = np.fromiter(chain.from_iterable(chain.from_iterable(rows)), np.float64,
                                2 * total).reshape(total, 2)
            view[f"{family}_id"][:], view[f"{family}_score"][:] = pairs.T
        else:
            view[f"{family}_id"][:] = np.fromiter(chain.from_iterable(rows), np.float64, total)
    if not np.isfinite(payload).all():
        name = next(name for name, column in view.items() if not np.isfinite(column).all())
        raise ValueError(f"{path}: column {name!r} holds a non-finite value")
    write_matrix_beside(path, LABELS_MAGIC, LABELS_VERSION, payload.reshape(-1, 1))
    header = dict(header, num_sets=len(sets), video_ids=list(video_of),
                  columns=sizes,
                  payload_sha256=hashlib.sha256(payload).hexdigest())
    with atomic_write(path) as fh:
        fh.write(canonical_json(header) + "\n")


def _check_header(header: dict) -> None:
    """Check the header's fields and column table, raising ValueError on the first fault."""
    if header.get("kind") != LABELS_KIND:
        raise ValueError(f"has unexpected kind {header.get('kind')!r}")
    if "columns" not in header:
        raise ValueError("has no column table, so the file predates labels.f64; "
                         "rerun `pkgforge labels` to rewrite it")
    for key in ("num_sets", "num_segments", "num_nodes", "num_headlines", "nrl_hops"):
        if check_json(header[key], "int", key) < 0:
            raise ValueError(f"{key} {header[key]} is negative")
    check_json(header.get("config_hash"), "str | None", "config_hash")
    check_json(header["payload_sha256"], "str", "payload_sha256")
    for key in ("task_ids", "corpus_task_names", "video_ids"):
        names = check_json(header[key], "tuple[str, ...]", key)
        if len(set(names)) != len(names):
            repeated = next(n for i, n in enumerate(names) if n in names[:i])
            raise ValueError(f"{key} repeats {repeated!r}")
    columns = check_json(header["columns"], "object", "columns")
    names, expected = list(columns), _column_names(header["nrl_hops"])
    if names != expected:
        i = next(i for i, pair in enumerate(zip_longest(names, expected)) if len(set(pair)) > 1)
        found, wanted = (repr(n[i]) if i < len(n) else "none" for n in (names, expected))
        raise ValueError(f"column {i} is {found}, expected {wanted}")
    for name, size in columns.items():
        if check_json(size, "int", f"column {name!r}") < 0:
            raise ValueError(f"column {name!r} length {size} is negative")
    counts = {"record": ("num_segments", "segments"), "set": ("num_sets", "sets")}
    owned = [("video", "record"), ("segment_index", "record"), ("set", "record")] + [
        (f"{family}_len", owner) for family, owner, _, _ in _families(header["nrl_hops"])]
    for name, owner in owned:
        key, noun = counts[owner]
        if columns[name] != header[key]:
            raise ValueError(f"says {header[key]} {noun} but column {name!r} holds "
                             f"{columns[name]}")
    for family, _, _, scored in _families(header["nrl_hops"]):
        ids, scores = f"{family}_id", f"{family}_score"
        if scored and columns[scores] != columns[ids]:
            raise ValueError(f"column {scores!r} holds {columns[scores]} values but {ids!r} "
                             f"holds {columns[ids]}")


def _check_ints(payload: Path, values: np.ndarray, bound: float, name: str, owner: str,
                lengths: np.ndarray | None = None) -> None:
    """Refuse a value that is not an integer in [0, bound), naming the record or set it
    belongs to: the row itself, or, for a flat column, the owner row `lengths` gives."""
    integral = values == np.floor(values)
    bad = ~integral | (values < 0) | (values >= bound)
    if bad.any():
        at = int(np.argmax(bad))
        value = int(values[at]) if integral[at] else values[at]
        fault = ("is not an integer" if not integral[at] else "is negative" if value < 0
                 else f"is outside [0, {bound})")
        row = at if lengths is None else int(np.searchsorted(np.cumsum(lengths), at, "right"))
        raise CorpusFormatError(f"{payload}: malformed {owner} {row}: {name} {value} {fault}")


def _lists(lengths: np.ndarray, ids: np.ndarray, scores: np.ndarray | None):
    """Yield each owner row's list of int ids, or of (id, score) pairs, converting
    _BLOCK rows at a time."""
    start = 0
    for first in range(0, len(lengths), _BLOCK):
        counts = lengths[first : first + _BLOCK].astype(np.int64).tolist()
        stop = start + sum(counts)
        items = ids[start:stop].astype(np.int64).tolist()
        if scores is not None:
            items = zip(items, scores[start:stop].tolist())
        it = iter(items)
        for count in counts:
            yield list(islice(it, count))
        start = stop


def _ints(values: np.ndarray):
    """Yield a column's values as Python ints, _BLOCK at a time."""
    for first in range(0, len(values), _BLOCK):
        yield from values[first : first + _BLOCK].astype(np.int64).tolist()


def load_labels(path: str | Path) -> tuple[dict, list[PseudoLabelSet]]:
    """Read labels.jsonl and the labels.f64 payload beside it; records that point at
    one set share its lists.

    This is the one place that checks a record's shape (README §Formats). The
    header is checked field by field, then the payload against the header's
    digest and column table, then every column in whole-array passes: ids are
    integers inside their class space, lengths are non-negative and sum to
    their column, and set indices fall inside the sets. The records are then
    built a block of rows at a time. The header returned is the one
    `save_labels` was given, with `num_sets` and without the payload's
    bookkeeping. An error names the file at fault, and the record or set.
    """
    path = Path(path)
    with JsonFile(path, "header") as src:
        header = src.header()
        _check_header(header)
        if src.fh.read(1):
            raise ValueError("is followed by more lines; a labels file is one header line")
    payload = matrix_beside(path)
    data = read_matrix_beside(path, LABELS_MAGIC, LABELS_VERSION, "label payload")
    if hashlib.sha256(data).hexdigest() != header["payload_sha256"]:
        raise CorpusFormatError(f"{payload}: sha256 differs from the payload_sha256 in {path}, "
                                "so the two files are not from one run")
    sizes = header["columns"]
    if data.shape != (sum(sizes.values()), 1):
        raise CorpusFormatError(f"{payload}: holds {data.size} values but {path}'s column table "
                                f"lists {sum(sizes.values())}")
    col = _split(data[:, 0], sizes)

    # a segment index has no class space; 2**53 keeps it exact in f64
    record_bounds = {"video": len(header["video_ids"]), "segment_index": 2**53,
                     "set": header["num_sets"]}
    for name, bound in record_bounds.items():
        _check_ints(payload, col[name], bound, name, "record")
    hops = header["nrl_hops"]
    for family, owner, bound_key, _ in _families(hops):
        lengths = col[f"{family}_len"]
        _check_ints(payload, lengths, np.inf, f"{family}_len", owner)
        if lengths.sum() != len(col[f"{family}_id"]):
            raise CorpusFormatError(f"{payload}: column {family + '_len'!r} sums to "
                                    f"{int(lengths.sum())} but {family + '_id'!r} holds "
                                    f"{len(col[family + '_id'])} values")
        bound = header[bound_key]
        _check_ints(payload, col[f"{family}_id"], bound if type(bound) is int else len(bound),
                    f"{family}_id", owner, lengths)

    def lists(family: str):
        return _lists(col[f"{family}_len"], col[f"{family}_id"], col.get(f"{family}_score"))

    # the records hold no reference cycles, so a collection during the build would only
    # walk them: about half of the load on the mine-videos benchmark world
    enabled = gc.isenabled()
    gc.disable()
    try:
        # each set's lists are built together, and kept in one list per family
        vtm_db, vtm_corpus, tcl_db, tcl_corpus, nrl = sets = [], [], [], [], []
        hop_families = [f"nrl_{d}_{hop}" for d in _DIRECTIONS for hop in range(1, hops + 1)]
        for row in zip(*map(lists, ("vtm_db", "vtm_corpus", "tcl_db", "tcl_corpus")),
                       *map(lists, hop_families)):
            for family, value in zip(sets, row[:4]):
                family.append(value)
            nrl.append({"in": list(row[4 : 4 + hops]), "out": list(row[4 + hops :])})
        video_ids = header["video_ids"]
        records = [
            PseudoLabelSet(video_ids[video], segment, vnm, vtm_db[k], vtm_corpus[k], tcl_db[k],
                           tcl_corpus[k], nrl[k], vsm)
            for video, segment, k, vnm, vsm in zip(
                _ints(col["video"]), _ints(col["segment_index"]), _ints(col["set"]),
                lists("vnm"), lists("vsm"),
            )
        ]
    finally:
        if enabled:
            gc.enable()
    return {k: v for k, v in header.items() if k not in _PAYLOAD_KEYS}, records
