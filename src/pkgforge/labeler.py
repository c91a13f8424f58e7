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

vnm and vsm are ranked one video at a time: the video's (segments,
headlines) score matrix is the block the `matcher` rankers take, so they
run once per video, not per segment. The vtm, tcl and nrl families depend
only on the set of matched nodes, so `emit_labels` numbers the distinct
sets in first-seen order (`numbered_sets`), each record points at its set
by index, and each family is derived for all sets at once, as one
`corpus_io.Ragged` CSR with a row per set:
- vtm_db, tcl_db and tcl_corpus are unions: a mapping CSR (node -> tasks,
  task -> nodes, corpus task -> top nodes) is gathered by `take` and
  grouped per set by `Ragged.grouped`;
- vtm_corpus sums each set's per-node occurrence counts the same way and
  keeps the top columns by `Ragged.ranked`;
- nrl ranks each hop of `graph.khop_neighbors`, which advances every set
  together.

Labels stay columnar from `emit_labels` to the trainer: `PseudoLabels`
holds the per-record columns (video, segment index, set) and one `Ragged`
CSR per family, per record for vnm and vsm and per set for the rest. They
are materialized as two files: labels.f64, a binary payload that holds
those columns as named flat f64 columns (per family its row lengths, ids
and scores), written first, then labels.jsonl, one JSON header line with
the class-index spaces, the distinct video ids, the column table and the
payload's sha256. `load_labels` is the one place that checks the labels'
shape, in whole-column passes, so code downstream takes its labels, and
those `emit_labels` builds, as they are.
"""

from __future__ import annotations

import hashlib
import logging
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path

import numpy as np

from . import matcher
from .corpus_io import (
    CorpusFormatError, JsonFile, Ragged, SegmentCorpus, StepDatabase, atomic_write,
    canonical_json, check_json, matrix_beside, read_matrix_beside, row_offsets,
    write_matrix_beside,
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
# sets gathered at once by unions
_SETS_PER_BLOCK = 2048


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
    """One segment's labels as a record, as `PseudoLabels`' record view yields them.

    Ids are ints inside the header's class spaces (vtm_db indexes `task_ids`,
    vtm_corpus `corpus_task_names`), and nrl maps "in" and "out" to `nrl_hops`
    ranked hop lists. vtm_db, vtm_corpus, tcl_db, tcl_corpus and nrl are the
    set-derived families: records of one matched-node set share these list
    objects, so they must not be mutated in place."""

    video_id: str
    segment_index: int
    vnm: list[tuple[int, float]]
    vtm_db: list[int]
    vtm_corpus: list[int]
    tcl_db: list[int]
    tcl_corpus: list[int]
    nrl: dict[str, list[list[tuple[int, float]]]]  # direction -> per-hop ranked lists
    vsm: list[tuple[int, float]]


@dataclass(frozen=True)
class PseudoLabels:
    """Every segment's labels as columns, one record per segment.

    Per record: `video` (an index into `video_ids`), `segment_index` and
    `set` (the index of the record's matched-node set), all int64.
    `families` holds one Ragged per label family, named and ordered as the
    payload names them: vnm and vsm with one row per record, then vtm_db,
    vtm_corpus, tcl_db, tcl_corpus and nrl_<direction>_<hop> with one row
    per distinct set.
    """

    video_ids: tuple[str, ...]
    video: np.ndarray
    segment_index: np.ndarray
    set: np.ndarray
    families: dict[str, Ragged]

    def __len__(self) -> int:
        return len(self.video)

    @property
    def num_sets(self) -> int:
        return len(self.families["vtm_db"])

    def __iter__(self) -> Iterator[PseudoLabelSet]:
        """One PseudoLabelSet per record, in record order; records of one set share
        that set's lists. This view is the only code that builds records; it serves
        readers that still take records, such as perfbench's `check_outputs`."""
        rows = {family: csr.lists() for family, csr in self.families.items()}
        hops = sum(family.startswith("nrl_in_") for family in rows)
        nrl = [{d: [rows[f"nrl_{d}_{hop}"][k] for hop in range(1, hops + 1)]
                for d in _DIRECTIONS} for k in range(self.num_sets)]
        sets = list(zip(rows["vtm_db"], rows["vtm_corpus"], rows["tcl_db"], rows["tcl_corpus"],
                        nrl))
        for video, segment, k, vnm, vsm in zip(self.video.tolist(), self.segment_index.tolist(),
                                               self.set.tolist(), rows["vnm"], rows["vsm"]):
            yield PseudoLabelSet(self.video_ids[video], segment, vnm, *sets[k], vsm)


# ---------------------------------------------------------------------------
# individual label operations


def vnm_labels(node_scores: np.ndarray) -> Ragged:
    """Per row of a (segments, num_nodes) block, the top VNM_TOP_K matched nodes,
    ranked, with their raw matching scores, the node scores at those ids."""
    return matcher.top_k_nodes(node_scores, k=VNM_TOP_K)


def numbered_sets(vnm: Ragged) -> tuple[np.ndarray, Ragged]:
    """Each vnm row's set of nodes, numbered in first-seen order, and those sets as
    ascending ids. Rows are padded with -1 to VNM_TOP_K and sorted, so that one
    np.unique over the rows finds the distinct sets."""
    padded = np.full((len(vnm), VNM_TOP_K), -1, dtype=np.int64)
    place = np.arange(len(vnm.ids)) - np.repeat(vnm.indptr[:-1], np.diff(vnm.indptr))
    padded[vnm.rows(), place] = vnm.ids
    padded.sort(axis=1)
    distinct, first, inverse = np.unique(padded, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(len(order))
    sets = distinct[order]
    kept = sets >= 0
    return number[inverse.reshape(-1)], Ragged(row_offsets(kept.sum(axis=1)), sets[kept])


def unions(sets: Ragged, mapping: Ragged, top: int | None = None) -> Ragged:
    """Per row of `sets`, the ascending distinct ids of the `mapping` rows its ids name,
    or, given `top`, the `top` ids with the largest sum of their `mapping` scores, ranked.
    A block of sets is gathered at a time, so all sets' mapping rows are never alive at once."""
    parts = []
    bounds = range(_SETS_PER_BLOCK, len(sets), _SETS_PER_BLOCK)
    for block in map(sets.take, np.array_split(np.arange(len(sets)), bounds)):
        picked = mapping.take(block.ids)
        part = Ragged.grouped(np.repeat(block.rows(), np.diff(picked.indptr)), picked.ids,
                              len(block), picked.scores)
        part = part if top is None else part.ranked(top)
        parts.append(Ragged(part.indptr, part.ids))
    return Ragged.stacked(parts)


# vtm_db maps each set's nodes to their tasks, tcl_db each vtm_db row's tasks to
# their nodes and tcl_corpus each vtm_corpus row's columns to their top nodes
# (from top_nodes_per_corpus_task); the names keep the three label families apart
vtm_db_labels = tcl_db_labels = tcl_corpus_labels = unions


def _nonzero_rows(counts: np.ndarray) -> Ragged:
    """Per row of a count matrix, its nonzero columns, ascending, with their counts."""
    row, column = np.nonzero(counts)
    return Ragged(row_offsets(np.bincount(row, minlength=len(counts))), column,
                  counts[row, column])


def build_occurrence_matrix(vnm: Ragged, video_task_names: list[str | None],
                            video_of_segment: np.ndarray,
                            node_of: np.ndarray) -> tuple[OccurrenceMatrix, int]:
    """Count matched-node member headlines against the videos' task names.

    Each node in a segment's vnm row adds its member count to the column of
    the segment's video. Segments of videos without a task name are skipped;
    the number of such videos is returned alongside the matrix so callers
    can report it.
    """
    names = sorted({n for n in video_task_names if n is not None})
    column = {name: i for i, name in enumerate(names)}
    sizes = np.bincount(node_of)
    counts = np.zeros((len(sizes), len(names)), dtype=np.int64)
    video_column = np.array([column.get(name, -1) for name in video_task_names], dtype=np.int64)
    columns = video_column[video_of_segment][vnm.rows()]
    nodes = vnm.ids[columns >= 0]
    np.add.at(counts, (nodes, columns[columns >= 0]), sizes[nodes])
    skipped = sum(1 for name in video_task_names if name is None)
    if skipped:
        log.warning("occurrence matrix skipped %d videos without task names", skipped)
    return OccurrenceMatrix(counts=counts, task_names=tuple(names)), skipped


def vtm_corpus_labels(sets: Ragged, occ: OccurrenceMatrix) -> Ragged:
    """Per set, the top VTM_CORPUS_TOP_K corpus task columns by the occurrence count
    summed over its nodes, ties by name. `unions` ranks each block of sets: a node may
    hold a count in every column, so the sums of all sets would be many times the labels."""
    return unions(sets, _nonzero_rows(occ.counts), VTM_CORPUS_TOP_K)


def top_nodes_per_corpus_task(occ: OccurrenceMatrix) -> Ragged:
    """Per corpus task column, up to TCL_CORPUS_TOP_K nodes with the largest nonzero
    count, ranked."""
    top = _nonzero_rows(occ.counts.T).ranked(TCL_CORPUS_TOP_K)
    return Ragged(top.indptr, top.ids)


def nrl_labels(sets: Ragged, graph: ProceduralKnowledgeGraph) -> dict[str, Ragged]:
    """Per set, its ranked neighbors as the families nrl_<direction>_<hop>, for hops
    1..NRL_HOPS, keeping NRL_TOP_PER_HOP[k] at hop k + 1."""
    return {f"nrl_{direction}_{hop}": reached.ranked(top)
            for direction in _DIRECTIONS
            for hop, (top, reached) in enumerate(
                zip(NRL_TOP_PER_HOP, khop_neighbors(graph, sets, NRL_HOPS, direction)), 1)}


# ---------------------------------------------------------------------------
# orchestration


def emit_labels(corpus: SegmentCorpus, db: StepDatabase,
                graph: ProceduralKnowledgeGraph) -> tuple[dict, PseudoLabels]:
    """Generate one record of labels per segment, in (video, segment) order.

    Returns the labels file header (class-index spaces plus bookkeeping)
    and the labels as columns. Each video is scored with one matmul, and
    vnm and vsm are ranked from that video's score matrix, one block per
    video. Segments are then grouped by their set of matched nodes,
    numbered in first-seen order, and the vtm, tcl and nrl families are
    derived for all distinct sets at once. The label sizes are the module
    constants above.
    """
    node_of = graph.node_of(db)

    # vnm and vsm one video at a time, each video's score matrix the block their
    # rankers take. Videos are scored one call each: BLAS may round a short video's
    # rows differently once they are stacked into a larger matrix. The empty first
    # part keeps the families scored when no video has segments.
    empty = Ragged(np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))
    ranked = {"vnm": [empty], "vsm": [empty]}
    for video in corpus.videos:
        block = matcher.score_video(video.segments, db)
        if len(block):
            ranked["vnm"].append(vnm_labels(
                matcher.node_scores_from_headlines(block, node_of, graph.num_nodes)))
            ranked["vsm"].append(matcher.vsm_top_headlines(block, k=VSM_TOP_K))
    families = {name: Ragged.stacked(parts) for name, parts in ranked.items()}
    sets, set_nodes = numbered_sets(families["vnm"])

    lengths = np.array([len(video.segments) for video in corpus.videos], dtype=np.int64)
    video_of = np.repeat(np.arange(len(lengths)), lengths)
    occ, skipped = build_occurrence_matrix(
        families["vnm"], [v.corpus_task_name for v in corpus.videos], video_of, node_of)

    task_of = np.repeat(np.arange(len(db.tasks)), [task.stop - task.start for task in db.tasks])
    families["vtm_db"] = vtm_db_labels(set_nodes, Ragged.grouped(node_of, task_of, graph.num_nodes))
    families["vtm_corpus"] = vtm_corpus_labels(set_nodes, occ)
    families["tcl_db"] = tcl_db_labels(families["vtm_db"],
                                       Ragged.grouped(task_of, node_of, len(db.tasks)))
    families["tcl_corpus"] = tcl_corpus_labels(families["vtm_corpus"],
                                               top_nodes_per_corpus_task(occ))
    families |= nrl_labels(set_nodes, graph)

    # a video without segments has no record, so it has no place in video_ids
    video_ids: dict[str, int] = {}
    position = [video_ids.setdefault(v.video_id, len(video_ids)) if n else -1
                for v, n in zip(corpus.videos, lengths)]
    starts = np.cumsum(lengths) - lengths
    labels = PseudoLabels(
        video_ids=tuple(video_ids),
        video=np.repeat(np.array(position, dtype=np.int64), lengths),
        segment_index=np.arange(len(video_of)) - starts[video_of],
        set=sets,
        families=families,
    )

    header = {
        "kind": LABELS_KIND,
        "config_hash": graph.config_hash,
        "num_videos": len(corpus.videos),
        "num_segments": len(labels),
        "num_sets": len(set_nodes),
        "num_nodes": graph.num_nodes,
        "num_headlines": db.num_headlines,
        "task_ids": [t.task_id for t in db.tasks],
        "corpus_task_names": list(occ.task_names),
        "nrl_hops": NRL_HOPS,
        "skipped_unnamed_videos": skipped,
    }
    return header, labels


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


def save_labels(header: dict, labels: PseudoLabels, path: str | Path) -> None:
    """Write the labels payload labels.f64, then the one-line labels.jsonl header.

    The payload holds every label as named flat f64 columns (README §Formats):
    per record its video (an index into the header's `video_ids`), segment
    index and set index; per family one length per record or set, then the
    ids, and the scores where the family has them, end to end. The header
    adds `num_sets`, the distinct video ids, the column table and the
    payload's sha256 to the fields given. A non-finite score is refused
    before either file is written.
    """
    columns = {"video": labels.video, "segment_index": labels.segment_index, "set": labels.set}
    for family, _, _, scored in _families(header["nrl_hops"]):
        csr = labels.families[family]
        columns |= {f"{family}_len": np.diff(csr.indptr), f"{family}_id": csr.ids}
        columns |= {f"{family}_score": csr.scores} if scored else {}
    payload = np.concatenate(list(columns.values()), dtype="<f8")
    if not np.isfinite(payload).all():
        name = next(name for name, column in columns.items() if not np.isfinite(column).all())
        raise ValueError(f"{path}: column {name!r} holds a non-finite value")
    write_matrix_beside(path, LABELS_MAGIC, LABELS_VERSION, payload.reshape(-1, 1))
    header = dict(header, num_sets=labels.num_sets, video_ids=list(labels.video_ids),
                  columns={name: len(column) for name, column in columns.items()},
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


def load_labels(path: str | Path) -> tuple[dict, PseudoLabels]:
    """Read labels.jsonl and the labels.f64 payload beside it.

    This is the one place that checks the labels' shape (README §Formats).
    The header is checked field by field, then the payload against the
    header's digest and column table, then every column in whole-array
    passes: ids are integers inside their class space, lengths are
    non-negative and sum to their column, and set indices fall inside the
    sets. The checked columns are then wrapped as they are; scores stay
    views of the payload. The header returned is the one `save_labels` was
    given, with `num_sets` and without the payload's bookkeeping. An error
    names the file at fault, and the record or set.
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
    families = {}
    for family, owner, bound_key, scored in _families(header["nrl_hops"]):
        lengths = col[f"{family}_len"]
        _check_ints(payload, lengths, np.inf, f"{family}_len", owner)
        if lengths.sum() != len(col[f"{family}_id"]):
            raise CorpusFormatError(f"{payload}: column {family + '_len'!r} sums to "
                                    f"{int(lengths.sum())} but {family + '_id'!r} holds "
                                    f"{len(col[family + '_id'])} values")
        bound = header[bound_key]
        _check_ints(payload, col[f"{family}_id"], bound if type(bound) is int else len(bound),
                    f"{family}_id", owner, lengths)
        families[family] = Ragged(row_offsets(lengths.astype(np.int64)),
                                  col[f"{family}_id"].astype(np.int64),
                                  col[f"{family}_score"] if scored else None)
    labels = PseudoLabels(tuple(header["video_ids"]), *(col[name].astype(np.int64)
                                                        for name in record_bounds), families)
    return {k: v for k, v in header.items() if k not in _PAYLOAD_KEYS}, labels
