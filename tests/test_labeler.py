"""Pseudo-label operations and the labels.jsonl format."""

import copy
import dataclasses
import hashlib
import json
import re
import struct
import tempfile
from contextlib import ExitStack
from itertools import chain
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pkgforge import labeler, matcher, synthgen
from pkgforge.config import PAPER_DEDUP_THRESHOLD, PAPER_MATCH_THRESHOLD
from pkgforge.corpus_io import (
    CorpusFormatError,
    Ragged,
    SegmentCorpus,
    StepDatabase,
    Video,
    canonical_json,
)
from pkgforge.graph import (
    DirectedEdge, ProceduralKnowledgeGraph, StepNode, assemble_graph, build_graph, load_graph,
    save_graph,
)
from pkgforge.synthgen import WorldConfig, graph_recovery_metrics

from builders import SET_FIELDS, labels_from_records
from oracles import (
    assignment_walk, dense_targets_per_row, emit_labels_per_segment, members_walk, nrl_per_segment,
    summed_per_node, task_node_map_walk, tcl_corpus_per_segment, tcl_db_per_segment,
    vtm_corpus_per_segment, vtm_db_per_segment,
)


def _tiny_world(task_ids=("t0", "t1")):
    """Two tasks sharing node 1; dims picked for explicit dot products.

    task t0 steps: h0 -> node 0, h1 -> node 1
    task t1 steps: h2 -> node 1 (duplicate of h1), h3 -> node 2
    """
    e = np.eye(3) * 2.0
    db = StepDatabase.from_tasks(
        [(task_ids[0], "task zero", ["h0", "h1"]), (task_ids[1], "task one", ["h2", "h3"])],
        e[[0, 1, 1, 2]],
    )
    node_of = np.array([0, 1, 1, 2])
    pkg = assemble_graph(db, node_of, [(0, 1), (1, 2)], {})
    return db, node_of, pkg


def _same_labels(a: labeler.PseudoLabels, b: labeler.PseudoLabels) -> bool:
    """Equal video ids, and every column equal in value and dtype."""
    def same(x, y):
        return (x is None) == (y is None) and (
            x is None or (x.dtype == y.dtype and np.array_equal(x, y)))

    return (a.video_ids == b.video_ids and list(a.families) == list(b.families)
            and all(same(getattr(a, name), getattr(b, name))
                    for name in ("video", "segment_index", "set"))
            and all(same(getattr(a.families[f], part), getattr(b.families[f], part))
                    for f in a.families for part in ("indptr", "ids", "scores")))


class TestVnmAndVtm:
    def test_vnm_top3(self):
        assert labeler.vnm_labels(np.array([[9.0, 7.0, 3.0, 1.0]])).ids.tolist() == [0, 1, 2]

    def test_vnm_fewer_than_k(self):
        assert labeler.vnm_labels(np.array([[2.0, 5.0]])).ids.tolist() == [1, 0]

    def test_vnm_tie_rule(self):
        assert labeler.vnm_labels(np.full((1, 5), 2.0)).ids.tolist() == [0, 1, 2]

    def test_vtm_db_union_sorted(self):
        # the tiny world's tasks per node: node 1 belongs to both
        node_tasks = Ragged.from_lists([[0], [0, 1], [1]])
        sets = Ragged.from_lists([[1], [2, 0], [0, 1, 2], [0], []])
        assert labeler.vtm_db_labels(sets, node_tasks).lists() == [[0, 1], [0, 1], [0, 1], [0], []]


class TestOccurrenceMatrix:
    def test_single_increment(self):
        _, node_of, _ = _tiny_world()
        occ, skipped = labeler.build_occurrence_matrix(
            Ragged.from_lists([[1]]), ["task zero"], np.array([0]), node_of
        )
        assert skipped == 0
        # node 1 has two members, headlines 1 and 2
        assert occ.task_names == ("task zero",)
        assert occ.counts[1, 0] == 2
        assert occ.counts.sum() == 2

    def test_additivity(self):
        _, node_of, _ = _tiny_world()
        occ, _ = labeler.build_occurrence_matrix(
            Ragged.from_lists([[1], [1]]), ["task zero"], np.array([0, 0]), node_of
        )
        assert occ.counts[1, 0] == 4

    def test_unnamed_videos_skipped(self):
        _, node_of, _ = _tiny_world()
        occ, skipped = labeler.build_occurrence_matrix(
            Ragged.from_lists([[0]]), [None], np.array([0]), node_of)
        assert skipped == 1
        assert occ.counts.shape == (3, 0)

    def test_count_conservation(self):
        rng = np.random.default_rng(0)
        _, node_of, _ = _tiny_world()
        names = ["a", "b", None]
        video_of = [int(rng.integers(0, 3)) for _ in range(30)]
        vnm = [list(rng.choice(3, size=int(rng.integers(0, 3)), replace=False)) for _ in range(30)]
        occ, _ = labeler.build_occurrence_matrix(
            Ragged.from_lists(vnm), names, np.array(video_of), node_of)
        sizes = [1, 2, 1]  # node 1 holds headlines 1 and 2
        expected = sum(
            sum(sizes[n] for n in nodes)
            for nodes, vi in zip(vnm, video_of)
            if names[vi] is not None
        )
        assert occ.counts.sum() == expected


class TestCorpusVariants:
    def test_vtm_corpus_ranking(self):
        occ = labeler.OccurrenceMatrix(
            counts=np.array([[5, 0], [0, 2], [0, 0]]), task_names=("T1", "T2")
        )
        sets = Ragged.from_lists([[0], [0, 1], [1]])
        assert labeler.vtm_corpus_labels(sets, occ).lists() == [[0], [0, 1], [1]]

    def test_vtm_corpus_all_zero(self):
        occ = labeler.OccurrenceMatrix(counts=np.zeros((3, 2), dtype=int), task_names=("T1", "T2"))
        assert labeler.vtm_corpus_labels(Ragged.from_lists([[0, 1, 2]]), occ).lists() == [[]]

    def test_vtm_corpus_lexicographic_tie(self):
        # column order is the sorted name order, so a tie by column is a tie by name
        occ = labeler.OccurrenceMatrix(
            counts=np.array([[1, 4, 4], [0, 0, 0], [0, 0, 0]]), task_names=("TA", "TB", "TC")
        )
        assert labeler.vtm_corpus_labels(Ragged.from_lists([[0]]), occ).lists() == [[1, 2, 0]]

    def test_tcl_db(self):
        db, node_of, pkg = _tiny_world()
        task_of = np.repeat(np.arange(len(db.tasks)), [t.stop - t.start for t in db.tasks])
        tasks_of = Ragged.grouped(task_of, node_of, len(db.tasks))
        assert tasks_of.lists() == [[0, 1], [1, 2]]
        vtm_db = Ragged.from_lists([[0], [1], [0, 1], []])
        assert labeler.tcl_db_labels(vtm_db, tasks_of).lists() == [[0, 1], [1, 2], [0, 1, 2], []]

    def test_tcl_corpus_top3_nonzero(self):
        occ = labeler.OccurrenceMatrix(counts=np.array([[7], [3], [0]]), task_names=("T1",))
        top_nodes = labeler.top_nodes_per_corpus_task(occ)
        assert top_nodes.lists() == [[0, 1]]
        assert labeler.tcl_corpus_labels(Ragged.from_lists([[0]]), top_nodes).lists() == [[0, 1]]

    def test_tcl_corpus_union(self):
        occ = labeler.OccurrenceMatrix(
            counts=np.array([[1, 0], [0, 2], [0, 0]]), task_names=("T1", "T2")
        )
        top_nodes = labeler.top_nodes_per_corpus_task(occ)
        assert top_nodes.lists() == [[0], [1]]
        vtm_corpus = Ragged.from_lists([[1], [0, 1], []])
        assert labeler.tcl_corpus_labels(vtm_corpus, top_nodes).lists() == [[1], [0, 1], []]


def _nrl_of_set(nodes, pkg):
    """nrl_labels of the one set `nodes`: family -> that set's ranked (node, confidence)
    list, in payload order."""
    got = labeler.nrl_labels(Ragged.from_lists([nodes]), pkg)
    assert list(got) == ["nrl_in_1", "nrl_in_2", "nrl_out_1", "nrl_out_2"]
    assert all(len(csr) == 1 for csr in got.values())
    return {family: csr.lists()[0] for family, csr in got.items()}


class TestNrl:
    def test_chain(self):
        _, _, pkg = _tiny_world()
        got = _nrl_of_set([1], pkg)
        assert got["nrl_in_1"] == [(0, 1.0)]
        assert got["nrl_out_1"] == [(2, 1.0)]

    def test_isolated_node(self):
        nodes = [StepNode(0, (("t", 0, "h"),)), StepNode(1, (("t", 1, "g"),))]
        pkg = ProceduralKnowledgeGraph(nodes=nodes, edges=[])
        got = _nrl_of_set([0], pkg)
        assert got == {"nrl_in_1": [], "nrl_in_2": [], "nrl_out_1": [], "nrl_out_2": []}

    def test_diamond_second_hop(self):
        nodes = [StepNode(i, (("t", i, f"h{i}"),)) for i in range(4)]
        edges = [
            DirectedEdge(0, 1, 0.9, ("corpus",)),
            DirectedEdge(1, 3, 0.5, ("corpus",)),
            DirectedEdge(0, 2, 0.8, ("corpus",)),
            DirectedEdge(2, 3, 0.8, ("corpus",)),
        ]
        pkg = ProceduralKnowledgeGraph(nodes=nodes, edges=edges)
        got = _nrl_of_set([0], pkg)
        assert got["nrl_out_2"] == [(3, pytest.approx(0.64))]

    def test_top_per_hop_truncation(self):
        nodes = [StepNode(i, (("t", i, f"h{i}"),)) for i in range(8)]
        edges = [DirectedEdge(0, d, 1.0 - 0.01 * d, ("corpus",)) for d in range(1, 8)]
        pkg = ProceduralKnowledgeGraph(nodes=nodes, edges=edges)
        got = _nrl_of_set([0], pkg)
        assert [n for n, _ in got["nrl_out_1"]] == [1, 2, 3, 4, 5]


def _random_sets(rng, num_nodes, count):
    """`count` node sets of 0..3 distinct nodes each, in no particular order."""
    return [rng.choice(num_nodes, size=int(rng.integers(0, min(num_nodes, 3) + 1)),
                       replace=False).tolist() for _ in range(count)]


class TestSetKernels:
    """Each set family for many sets in one call against its per-set referee in
    oracles.py, on random inputs with tied scores and counts, zero-score edges,
    empty sets, nodes without edges and nodes in no corpus task."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_sets=st.integers(0, 10))
    def test_vtm_db_and_tcl_db(self, seed, n_sets):
        rng = np.random.default_rng(seed)
        db, pkg, _ = _random_world(rng, integer_valued=True)
        node_of = pkg.node_of(db)
        task_of = np.repeat(np.arange(len(db.tasks)), [t.stop - t.start for t in db.tasks])
        sets = _random_sets(rng, pkg.num_nodes, n_sets)
        vtm_db = labeler.vtm_db_labels(Ragged.from_lists(sets),
                                       Ragged.grouped(node_of, task_of, pkg.num_nodes))
        position = {task.task_id: i for i, task in enumerate(db.tasks)}
        assert vtm_db.lists() == [vtm_db_per_segment(nodes, pkg, position) for nodes in sets]
        tcl_db = labeler.tcl_db_labels(vtm_db, Ragged.grouped(task_of, node_of, len(db.tasks)))
        tasks_of = task_node_map_walk(db, node_of)
        assert tcl_db.lists() == [tcl_db_per_segment(tasks, tasks_of) for tasks in vtm_db.lists()]

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_sets=st.integers(0, 10),
           top_k=st.tuples(st.integers(1, 3), st.integers(1, 3)))
    def test_vtm_corpus_and_tcl_corpus(self, seed, n_sets, top_k):
        rng = np.random.default_rng(seed)
        n_headlines, n_columns = int(rng.integers(1, 9)), int(rng.integers(0, 4))
        groups = np.unique(rng.integers(0, n_headlines, size=n_headlines), return_inverse=True)[1]
        members_of = members_walk(rng.permutation(groups.max() + 1)[groups])
        # counts of 0..2 tie often, and a headline row of zeros can leave a node in no
        # corpus task
        counts = rng.integers(0, 3, size=(n_headlines, n_columns)) * (
            rng.random((n_headlines, 1)) < 0.7)
        names = [f"c{c}" for c in range(n_columns)]  # sorted, so columns tie by name
        occ = labeler.OccurrenceMatrix(summed_per_node(counts, members_of), tuple(names))
        sets = _random_sets(rng, len(members_of), n_sets)
        sizes = dict(VTM_CORPUS_TOP_K=top_k[0], TCL_CORPUS_TOP_K=top_k[1])
        with mock.patch.multiple(labeler, **sizes):
            vtm_corpus = labeler.vtm_corpus_labels(Ragged.from_lists(sets), occ)
            tcl_corpus = labeler.tcl_corpus_labels(vtm_corpus,
                                                   labeler.top_nodes_per_corpus_task(occ))
        assert vtm_corpus.lists() == [
            vtm_corpus_per_segment(nodes, counts, names, members_of, top_k[0]) for nodes in sets]
        assert tcl_corpus.lists() == [tcl_corpus_per_segment(columns, counts, members_of, top_k[1])
                                      for columns in vtm_corpus.lists()]

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_sets=st.integers(0, 10),
           nrl_top=st.tuples(st.integers(1, 3), st.integers(1, 3)))
    def test_nrl(self, seed, n_sets, nrl_top):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        nodes = [StepNode(i, (("t", i, f"h{i}"),)) for i in range(n)]
        # tied scores, and 0.0, the score min-max normalisation gives the weakest
        # corpus edge; sparse edges leave some nodes without any
        edges = [DirectedEdge(s, d, float(rng.choice([0.0, 0.5, 1.0]) if rng.random() < 0.6
                                          else rng.uniform()), ("corpus",))
                 for s in range(n) for d in range(n) if s != d and rng.random() < 0.4]
        pkg = ProceduralKnowledgeGraph(nodes=nodes, edges=edges)
        sets = _random_sets(rng, n, n_sets)
        with mock.patch.object(labeler, "NRL_TOP_PER_HOP", nrl_top):
            got = labeler.nrl_labels(Ragged.from_lists(sets), pkg)
        want = [nrl_per_segment(nodes, pkg, nrl_top) for nodes in sets]
        assert list(got) == ["nrl_in_1", "nrl_in_2", "nrl_out_1", "nrl_out_2"]
        for family, csr in got.items():
            _, direction, hop = family.split("_")
            assert csr.lists() == [per_set[direction][int(hop) - 1] for per_set in want]


class TestEmitLabels:
    def _corpus(self):
        return SegmentCorpus(
            videos=[
                Video(
                    video_id="v0",
                    corpus_task_name="task zero",
                    segments=np.array([[10.0, 0.0, 0.0], [0.0, 10.0, 0.0]]),
                ),
                Video(
                    video_id="v1",
                    corpus_task_name="task one",
                    segments=np.array([[0.0, 0.0, 10.0]]),
                ),
            ]
        )

    def test_record_per_segment_in_order(self):
        db, _, pkg = _tiny_world()
        header, labels = labeler.emit_labels(self._corpus(), db, pkg)
        records = list(labels)
        assert header["num_segments"] == 3
        assert [(r.video_id, r.segment_index) for r in records] == [
            ("v0", 0),
            ("v0", 1),
            ("v1", 0),
        ]
        # segment (v0, 0) points at node 0 whose only task is t0, the database's first
        assert records[0].vnm[0][0] == 0
        assert records[0].vtm_db == [0] and header["task_ids"] == ["t0", "t1"]
        # segment (v0, 1) matches node 1, which both tasks share
        assert records[1].vtm_db == [0, 1]
        # the corpus columns are the sorted names "task one", "task zero"
        assert header["corpus_task_names"] == ["task one", "task zero"]
        assert records[0].vtm_corpus == [1] and records[2].vtm_corpus == [0]
        # tcl_db covers the matched nodes themselves
        for rec in records:
            assert set(n for n, _ in rec.vnm) <= set(rec.tcl_db)

    def test_vtm_db_in_database_order(self, tmp_path):
        # task ids that sort against database order: vtm_db lists database positions, and
        # the file stores those positions, with the names only in the header
        db, _, pkg = _tiny_world(task_ids=("tz", "ta"))
        header, labels = labeler.emit_labels(self._corpus(), db, pkg)
        assert header["task_ids"] == ["tz", "ta"]
        assert [r.vtm_db for r in labels] == [[0], [0, 1], [1]]
        path = tmp_path / "labels.jsonl"
        labeler.save_labels(header, labels, path)
        assert json.loads(path.read_text())["task_ids"] == ["tz", "ta"]
        assert _column(path, "vtm_db_id").tolist() == [0, 0, 1, 1]
        loaded_header, loaded = labeler.load_labels(path)
        assert loaded_header == header and _same_labels(loaded, labels)

    def test_empty_corpus(self):
        db, _, pkg = _tiny_world()
        header, labels = labeler.emit_labels(SegmentCorpus(videos=[]), db, pkg)
        assert len(labels) == 0 and list(labels) == [] and labels.video_ids == ()
        assert header["num_segments"] == 0
        assert header["corpus_task_names"] == []

    def test_rerun_does_not_change_output(self):
        db, _, pkg = _tiny_world()
        h1, l1 = labeler.emit_labels(self._corpus(), db, pkg)
        h2, l2 = labeler.emit_labels(self._corpus(), db, pkg)
        assert h1 == h2 and _same_labels(l1, l2)

    def test_referential_integrity(self):
        db, _, pkg = _tiny_world()
        header, labels = labeler.emit_labels(self._corpus(), db, pkg)
        num_tasks, num_names = len(header["task_ids"]), len(header["corpus_task_names"])
        for rec in labels:
            for nid, _ in rec.vnm:
                assert 0 <= nid < pkg.num_nodes
            assert all(type(t) is int and 0 <= t < num_tasks for t in rec.vtm_db)
            assert all(type(c) is int and 0 <= c < num_names for c in rec.vtm_corpus)
            for nid in rec.tcl_db + rec.tcl_corpus:
                assert 0 <= nid < pkg.num_nodes
            for hops in rec.nrl.values():
                for hop in hops:
                    for nid, conf in hop:
                        assert 0 <= nid < pkg.num_nodes
                        assert 0.0 < conf <= 1.0
            for hid, _ in rec.vsm:
                assert 0 <= hid < db.num_headlines

    def test_save_load_round_trip(self, tmp_path):
        db, _, pkg = _tiny_world()
        header, labels = labeler.emit_labels(self._corpus(), db, pkg)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        labeler.save_labels(header, labels, p1)
        h2, l2 = labeler.load_labels(p1)
        labeler.save_labels(h2, l2, p2)
        for suffix in (".jsonl", ".f64"):
            assert p1.with_suffix(suffix).read_bytes() == p2.with_suffix(suffix).read_bytes()
        assert h2 == header and _same_labels(l2, labels) and list(l2) == list(labels)

    def test_empty_file_has_valid_header(self, tmp_path):
        db, _, pkg = _tiny_world()
        header, labels = labeler.emit_labels(SegmentCorpus(videos=[]), db, pkg)
        path = tmp_path / "labels.jsonl"
        labeler.save_labels(header, labels, path)
        h2, l2 = labeler.load_labels(path)
        assert h2["kind"] == "pkgforge-labels" and len(l2) == 0 and _same_labels(l2, labels)

    def test_segment_count_mismatch_names_file_and_counts(self, tmp_path):
        db, _, pkg = _tiny_world()
        header, labels = labeler.emit_labels(self._corpus(), db, pkg)
        path = tmp_path / "labels.jsonl"
        labeler.save_labels(dict(header, num_segments=4), labels, path)
        with pytest.raises(
            CorpusFormatError,
            match=r"labels\.jsonl:1: malformed header: says 4 segments but column 'video' holds 3$",
        ):
            labeler.load_labels(path)

    def test_failed_save_leaves_no_file(self, tmp_path):
        db, _, pkg = _tiny_world()
        header, labels = labeler.emit_labels(self._corpus(), db, pkg)
        vsm = labels.families["vsm"]
        vsm.scores[vsm.indptr[1]] = float("nan")  # record 1's first vsm score
        path = tmp_path / "labels.jsonl"
        with pytest.raises(ValueError):
            labeler.save_labels(header, labels, path)
        assert list(tmp_path.iterdir()) == []


def _payload_values(path: Path) -> tuple[bytes, np.ndarray]:
    """The labels.f64 beside `path`: its 16-byte matrix header and its values."""
    raw = path.with_suffix(".f64").read_bytes()
    return raw[:16], np.frombuffer(raw[16:], dtype="<f8").copy()


def _offset(columns: dict, name: str) -> int:
    """Where column `name` starts in the payload, by the header's column table."""
    names = list(columns)
    return sum(columns[n] for n in names[: names.index(name)])


def _column(path: Path, name: str) -> np.ndarray:
    """One named payload column."""
    columns = json.loads(path.read_text())["columns"]
    start = _offset(columns, name)
    return _payload_values(path)[1][start : start + columns[name]]


def _edit(path: Path, edit) -> None:
    """Edit a saved labels file in place.

    `edit` is ("header", key, value), setting a header field (None deletes
    it, a callable maps the old value), or (column, index, value), setting
    one payload value and the header's digest to match, so the reader's
    checks behind the digest see the edit.
    """
    header = json.loads(path.read_text())
    where, key, value = edit
    if where == "header":
        if value is None:
            del header[key]
        else:
            header[key] = value(header[key]) if callable(value) else value
    else:
        head, values = _payload_values(path)
        values[_offset(header["columns"], where) + key] = value
        path.with_suffix(".f64").write_bytes(head + values.tobytes())
        header["payload_sha256"] = hashlib.sha256(values.tobytes()).hexdigest()
    path.write_text(canonical_json(header) + "\n")


class TestLabelsFile:
    """The labels.jsonl header and its labels.f64 payload: checks and shared sets."""

    def _saved(self, tmp_path, edit=None):
        """The three-segment labels file, optionally with one `_edit` applied."""
        db, _, pkg = _tiny_world()
        header, labels = labeler.emit_labels(TestEmitLabels()._corpus(), db, pkg)
        path = tmp_path / "labels.jsonl"
        labeler.save_labels(header, labels, path)
        if edit is not None:
            _edit(path, edit)
        return path

    def test_layout(self, tmp_path):
        path = self._saved(tmp_path)
        assert path.read_text().count("\n") == 1
        header = json.loads(path.read_text())
        assert header["num_sets"] == 3 and header["num_segments"] == 3
        assert header["video_ids"] == ["v0", "v1"]
        families = ["vnm", "vsm", "vtm_db", "vtm_corpus", "tcl_db", "tcl_corpus", "nrl_in_1",
                    "nrl_in_2", "nrl_out_1", "nrl_out_2"]
        scored = {"vnm", "vsm", "nrl_in_1", "nrl_in_2", "nrl_out_1", "nrl_out_2"}
        assert list(header["columns"]) == ["video", "segment_index", "set"] + [
            f"{f}_{c}" for f in families for c in ("len", "id", "score") if c != "score"
            or f in scored]
        head, values = _payload_values(path)
        assert head == b"PKGL" + struct.pack("<III", 1, sum(header["columns"].values()), 1)
        assert values.size == sum(header["columns"].values())
        assert header["payload_sha256"] == hashlib.sha256(values.tobytes()).hexdigest()
        assert _column(path, "video").tolist() == [0, 0, 1]
        assert _column(path, "set").tolist() == [0, 1, 2]
        assert _column(path, "vtm_db_len").tolist() == [1, 2, 1]
        assert _column(path, "vtm_db_id").tolist() == [0, 0, 1, 1]
        assert _column(path, "nrl_out_1_score").tolist() == [1.0, 1.0]

    def test_records_sharing_a_set_come_back_sharing_it(self, tmp_path):
        def block():
            return dict(vtm_db=[0], vtm_corpus=[0], tcl_db=[0, 1], tcl_corpus=[1],
                        nrl={"in": [[(1, 0.5)], []], "out": [[], []]})

        shared = block()
        records = [
            labeler.PseudoLabelSet(video_id="v", segment_index=i, vnm=[(i, 2.0)], vsm=[], **b)
            for i, b in enumerate([shared, shared, block()])
        ]
        header = {"kind": "pkgforge-labels", "num_segments": 3, "num_nodes": 3, "num_headlines": 1,
                  "task_ids": ["t0"], "corpus_task_names": ["a"], "nrl_hops": 2}
        path = tmp_path / "labels.jsonl"
        labeler.save_labels(header, labels_from_records(records, 2), path)
        h2, labels = labeler.load_labels(path)
        r2 = list(labels)
        assert h2 == dict(header, num_sets=2)
        assert r2 == records
        for name in SET_FIELDS:
            assert getattr(r2[0], name) is getattr(r2[1], name)
            assert getattr(r2[0], name) is not getattr(r2[2], name)

    @pytest.mark.parametrize("edit", [
        ("vnm_id", 2, 3, "record 2", "3 is outside \\[0, 3\\)"),
        ("vnm_id", 2, -1, "record 2", "-1 is negative"),
        ("tcl_db_id", 1, 3, "set 0", "3 is outside \\[0, 3\\)"),
        ("tcl_corpus_id", 2, 3, "set 1", "3 is outside \\[0, 3\\)"),
        ("nrl_out_1_id", 1, 3, "set 1", "3 is outside \\[0, 3\\)"),
    ])
    def test_node_id_out_of_range(self, tmp_path, edit):
        column, index, value, where, fault = edit
        located = rf"labels\.f64: malformed {where}: {column} {fault}$"
        with pytest.raises(CorpusFormatError, match=located):
            labeler.load_labels(self._saved(tmp_path, (column, index, value)))

    def test_headline_id_out_of_range(self, tmp_path):
        path = self._saved(tmp_path, ("vsm_id", 3, 4))
        located = r"labels\.f64: malformed record 2: vsm_id 4 is outside \[0, 4\)$"
        with pytest.raises(CorpusFormatError, match=located):
            labeler.load_labels(path)

    @pytest.mark.parametrize("edit, message", [
        (("vtm_db_id", 1, 2), r"set 1 vtm_db_id 2 is outside \[0, 2\)"),
        (("vtm_corpus_id", 2, 2), r"set 2 vtm_corpus_id 2 is outside \[0, 2\)"),
    ])
    def test_class_id_outside_the_header_list(self, tmp_path, edit, message):
        # vtm ids are positions in the header's task_ids and corpus_task_names
        where, detail = message[:5], message[6:]
        with pytest.raises(CorpusFormatError,
                           match=rf"labels\.f64: malformed {where}: {detail}$"):
            labeler.load_labels(self._saved(tmp_path, edit))

    @pytest.mark.parametrize("index, fault", [
        (3, r"3 is outside \[0, 3\)"), (-1, "-1 is negative"), (1.5, "1.5 is not an integer"),
    ], ids=["3", "-1", "1.5"])
    def test_set_index_out_of_range(self, tmp_path, index, fault):
        located = rf"labels\.f64: malformed record 2: set {fault}$"
        with pytest.raises(CorpusFormatError, match=located):
            labeler.load_labels(self._saved(tmp_path, ("set", 2, index)))

    @pytest.mark.parametrize("num_sets", [2, 4])
    def test_num_sets_differs_from_set_lines(self, tmp_path, num_sets):
        with pytest.raises(CorpusFormatError, match=(
            rf"labels\.jsonl:1: malformed header: says {num_sets} sets but column "
            r"'vtm_db_len' holds 3$"
        )):
            labeler.load_labels(self._saved(tmp_path, ("header", "num_sets", num_sets)))

    def test_header_without_num_sets_asks_for_rerun(self, tmp_path):
        # the set-table layout (a num_sets header, set and record lines) and the one before
        # it (no num_sets) both hold their labels as JSON lines, without a column table
        path = self._saved(tmp_path)
        header = json.loads(path.read_text())
        for key in ("columns", "num_sets"):
            del header[key]
            path.write_text(canonical_json(header) + "\n" + '{"video_id":"v0"}\n')
            with pytest.raises(CorpusFormatError, match=(
                r"labels\.jsonl:1: malformed header: has no column table, so the file predates "
                r"labels\.f64; rerun `pkgforge labels` to rewrite it$"
            )):
                labeler.load_labels(path)

    @pytest.mark.parametrize("edit, message", [
        (("header", "columns", 5), r"header columns 5 is not a JSON object"),
        (("header", "payload_sha256", 5), r"header payload_sha256 5 is not a string"),
        (("header", "columns", lambda cols: {k: v for k, v in cols.items()
                                             if not k.startswith("nrl_in")}),
         r"header column 17 is 'nrl_out_1_len', expected 'nrl_in_1_len'"),
        (("header", "nrl_hops", 1), r"header column 20 is 'nrl_in_2_len', expected 'nrl_out_1_len'"),
        (("header", "nrl_hops", None), r"header has no 'nrl_hops'"),
        (("header", "num_nodes", "3"), r"header num_nodes '3' is not a JSON integer"),
        (("header", "task_ids", ["t0", 1]), r"header task_ids \['t0', 1\] is not a list of strings"),
        (("tcl_db_id", 0, 0.7), r"set 0 tcl_db_id 0\.7 is not an integer"),
        (("vnm_id", 2, 0.5), r"record 2 vnm_id 0\.5 is not an integer"),
        (("header", "columns", lambda cols: dict(cols, vnm_id="3")),
         r"header column 'vnm_id' '3' is not a JSON integer"),
        (("segment_index", 2, 0.5), r"record 2 segment_index 0\.5 is not an integer"),
        (("video", 2, 2), r"record 2 video 2 is outside \[0, 2\)"),
        (("vtm_db_id", 0, -1), r"set 0 vtm_db_id -1 is negative"),
        (("vnm_len", 2, -1), r"record 2 vnm_len -1 is negative"),
        (("vsm_len", 2, 0.5), r"record 2 vsm_len 0\.5 is not an integer"),
        (("nrl_in_1_len", 0, -1), r"set 0 nrl_in_1_len -1 is negative"),
        (("header", "num_segments", 3.0), r"header num_segments 3\.0 is not a JSON integer"),
        (("header", "num_sets", 3.0), r"header num_sets 3\.0 is not a JSON integer"),
    ])
    def test_wrong_shape_names_the_set_or_record(self, tmp_path, edit, message):
        where = re.match(r"header|set \d+|record \d+", message).group()
        located = (r"labels\.jsonl:1: malformed header: " if where == "header"
                   else rf"labels\.f64: malformed {where}: ")
        with pytest.raises(CorpusFormatError, match=located + message[len(where) + 1 :]):
            labeler.load_labels(self._saved(tmp_path, edit))

    def test_integer_score_loads_as_float(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        header = {"kind": "pkgforge-labels", "num_segments": 1, "num_nodes": 2,
                  "num_headlines": 1, "task_ids": [], "corpus_task_names": [], "nrl_hops": 0}
        record = labeler.PseudoLabelSet("v", 0, [(0, 2), (1, 0.5)], [], [], [], [],
                                        {"in": [], "out": []}, [])
        labeler.save_labels(header, labels_from_records([record], 0), path)
        records = list(labeler.load_labels(path)[1])
        assert records[-1].vnm == [(0, 2.0), (1, 0.5)]
        assert [type(s) for _, s in records[-1].vnm] == [float, float]

    @pytest.mark.parametrize("name", ["task_ids", "corpus_task_names", "video_ids"])
    def test_repeated_header_name_rejected(self, tmp_path, name):
        # a repeated name would make two class ids, or two videos, of one name
        path = self._saved(tmp_path)
        names = json.loads(path.read_text())[name]
        _edit(path, ("header", name, [names[0]] * len(names)))
        with pytest.raises(CorpusFormatError, match=(
            rf"labels\.jsonl:1: malformed header: {name} repeats {names[0]!r}$"
        )):
            labeler.load_labels(path)

    def test_repeated_task_id_is_not_read_as_another_class(self, tmp_path):
        records = [labeler.PseudoLabelSet("v", 0, [], [0], [], [], [], {"in": [], "out": []}, [])]
        header = {"kind": "pkgforge-labels", "num_segments": 1, "num_nodes": 1, "num_headlines": 1,
                  "task_ids": ["t0", "t0"], "corpus_task_names": [], "nrl_hops": 0}
        labeler.save_labels(header, labels_from_records(records, 0), tmp_path / "labels.jsonl")
        with pytest.raises(CorpusFormatError, match=r"task_ids repeats 't0'$"):
            labeler.load_labels(tmp_path / "labels.jsonl")

    @pytest.mark.parametrize("fault, message", [
        ("missing", r"labels\.f64: missing label payload for .*labels\.jsonl$"),
        ("truncated", r"labels\.f64: truncated payload, expected \d+ bytes, got \d+$"),
        ("trailing", r"labels\.f64: trailing bytes after payload$"),
        ("another run", r"labels\.f64: sha256 differs from the payload_sha256 in .*labels\.jsonl, "
                        r"so the two files are not from one run$"),
        ("nan", r"labels\.f64: row 16 holds a non-finite value$"),
        ("inf", r"labels\.f64: row 16 holds a non-finite value$"),
    ], ids=["missing", "truncated", "trailing", "another-run", "nan", "inf"])
    def test_payload_fault_names_the_payload(self, tmp_path, fault, message):
        path = self._saved(tmp_path)
        payload = path.with_suffix(".f64")
        raw = payload.read_bytes()
        if fault == "missing":
            payload.unlink()
        elif fault == "truncated":
            payload.write_bytes(raw[:-8])
        elif fault == "trailing":
            payload.write_bytes(raw + raw[-8:])
        elif fault == "another run":
            (tmp_path / "other").mkdir()
            other = self._saved(tmp_path / "other", ("vnm_score", 0, 19.5))
            payload.write_bytes(other.with_suffix(".f64").read_bytes())
        else:  # vnm_score of record 1, the payload's row 16
            _edit(path, ("vnm_score", 1, float(fault)))
        with pytest.raises(CorpusFormatError, match=message):
            labeler.load_labels(path)

    def test_lengths_that_do_not_sum_to_their_column(self, tmp_path):
        path = self._saved(tmp_path, ("tcl_db_len", 0, 1))
        with pytest.raises(CorpusFormatError, match=(
            r"labels\.f64: column 'tcl_db_len' sums to 6 but 'tcl_db_id' holds 7 values$"
        )):
            labeler.load_labels(path)

    def test_lines_after_the_header_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        path.write_text(path.read_text() + "{}\n")
        with pytest.raises(CorpusFormatError, match=(
            r"labels\.jsonl:1: malformed header: is followed by more lines; a labels file is "
            r"one header line$"
        )):
            labeler.load_labels(path)

    def test_non_finite_score_refused_before_writing(self, tmp_path):
        db, _, pkg = _tiny_world()
        header, labels = labeler.emit_labels(TestEmitLabels()._corpus(), db, pkg)
        nrl_in = labels.families["nrl_in_1"]
        nrl_in.scores[nrl_in.indptr[labels.set[1]]] = float("inf")  # record 1's set, hop 1
        path = tmp_path / "labels.jsonl"
        with pytest.raises(ValueError, match=r"column 'nrl_in_1_score' holds a non-finite value"):
            labeler.save_labels(header, labels, path)
        assert list(tmp_path.iterdir()) == []

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), nrl_hops=st.integers(0, 2),
           num_nodes=st.integers(1, 5) | st.just(2**53),
           num_headlines=st.integers(1, 5), num_tasks=st.integers(0, 3),
           num_names=st.integers(0, 2))
    def test_random_records_round_trip(self, data, nrl_hops, num_nodes, num_headlines,
                                       num_tasks, num_names):
        task_ids = [f"t{i}" for i in range(num_tasks)]
        corpus_names = ["a", "b"][:num_names]
        score = st.floats(allow_nan=False, allow_infinity=False)

        def ids(bound):  # either end of the class space, or anything inside it
            return st.sampled_from([0, bound - 1]) | st.integers(0, bound - 1)

        def id_lists(bound, max_size):
            return st.lists(ids(bound), max_size=max_size) if bound else st.just([])

        def pairs(bound):
            return st.lists(st.tuples(ids(bound), score), max_size=3)

        def block():
            return {
                "vtm_db": data.draw(id_lists(num_tasks, 3)),
                "vtm_corpus": data.draw(id_lists(num_names, 2)),
                "tcl_db": data.draw(id_lists(num_nodes, 4)),
                "tcl_corpus": data.draw(id_lists(num_nodes, 4)),
                "nrl": {d: [data.draw(pairs(num_nodes)) for _ in range(nrl_hops)]
                        for d in ("in", "out")},
            }

        pool = [block() for _ in range(data.draw(st.integers(1, 3)))]
        records = []
        for _ in range(data.draw(st.integers(0, 6))):
            shared = pool[data.draw(st.integers(0, len(pool) - 1))]
            records.append(labeler.PseudoLabelSet(
                # a video's records need not be adjacent, nor its segment indices ordered
                video_id=data.draw(st.sampled_from(["v", "w", "\u00e9"]) | st.text(max_size=3)),
                segment_index=data.draw(st.integers(0, 2**53 - 1)),
                vnm=data.draw(pairs(num_nodes)), vsm=data.draw(pairs(num_headlines)),
                **(shared if data.draw(st.booleans()) else copy.deepcopy(shared)),
            ))
        header = {"kind": "pkgforge-labels", "num_segments": len(records),
                  "num_nodes": num_nodes, "num_headlines": num_headlines,
                  "task_ids": task_ids, "corpus_task_names": corpus_names, "nrl_hops": nrl_hops}

        def sharing(recs):
            first: dict = {}
            return [first.setdefault(tuple(id(getattr(r, f)) for f in SET_FIELDS), i)
                    for i, r in enumerate(recs)]

        with tempfile.TemporaryDirectory() as tmp:
            p1, p2 = Path(tmp) / "a.jsonl", Path(tmp) / "b.jsonl"
            labeler.save_labels(header, labels_from_records(records, nrl_hops), p1)
            h2, labels = labeler.load_labels(p1)
            labeler.save_labels(h2, labels, p2)
            for suffix in (".jsonl", ".f64"):
                assert p1.with_suffix(suffix).read_bytes() == p2.with_suffix(suffix).read_bytes()
        r2 = list(labels)
        assert h2 == dict(header, num_sets=len(set(sharing(records))))
        assert r2 == records and sharing(r2) == sharing(records)
        # ids come back as ints and scores as floats, so they serialize as emit_labels' do
        assert [canonical_json(dataclasses.asdict(r)) for r in r2] == [
            canonical_json(dataclasses.asdict(r)) for r in records]


class TestRagged:
    """The one CSR type the labels and the training targets share."""

    @settings(max_examples=200, deadline=None)
    @given(n_classes=st.integers(1, 9), scored=st.booleans(), data=st.data())
    def test_take_and_dense_equal_per_row_reference(self, n_classes, scored, data):
        # rows may be empty and may repeat a class id; a selection may repeat rows, take
        # them in any order, or take none
        per_row = data.draw(
            st.lists(st.lists(st.integers(0, n_classes - 1), max_size=5), min_size=1, max_size=12)
        )
        rows = st.integers(0, len(per_row) - 1)
        batch = np.array(
            data.draw(st.just([]) | st.permutations(range(len(per_row)))
                      | st.lists(rows, max_size=2 * len(per_row))),
            dtype=np.int64,
        )
        scores = [[float(i) / 2 for i in row] for row in per_row]
        target = labeler.Ragged.from_lists(
            [list(zip(ids, s)) for ids, s in zip(per_row, scores)] if scored else per_row,
            scored=scored)
        assert target.indptr[-1] == target.ids.size == sum(map(len, per_row))
        picked = target.take(batch)
        assert picked.take(np.arange(len(batch))).lists() == picked.lists()
        if scored:
            assert picked.lists() == [list(zip(per_row[i], scores[i])) for i in batch]
        else:
            assert picked.lists() == [per_row[i] for i in batch] and picked.scores is None
        # the picked rows' positives, as the trainer hands them to its BCE, scattered
        dense = np.zeros((len(batch), n_classes))
        dense[picked.rows(), picked.ids] = 1.0
        assert np.array_equal(dense, dense_targets_per_row(per_row, batch, n_classes))

    @settings(max_examples=200, deadline=None)
    @given(rows=st.integers(0, 5), data=st.data())
    def test_grouped_equals_per_row_reference(self, rows, data):
        # entries in any order, with repeated (row, id) pairs; zero rows, empty rows, or
        # no entries at all
        entries = data.draw(st.lists(
            st.tuples(st.integers(0, max(rows - 1, 0)), st.integers(0, 9), st.integers(-3, 3)),
            max_size=20 if rows else 0))
        row, ids, scores = np.array(entries, dtype=np.int64).reshape(-1, 3).T
        want = [sorted({i for r, i, _ in entries if r == k}) for k in range(rows)]
        plain = Ragged.grouped(row, ids, rows)
        assert plain.lists() == want and plain.scores is None and len(plain) == rows
        assert plain.ids.dtype == plain.indptr.dtype == np.int64
        for reduce, fold, values in ((np.add, sum, scores), (np.maximum, max, scores / 2)):
            got = Ragged.grouped(row, ids, rows, values, reduce)
            assert got.lists() == [
                [(i, fold(v for (r, j, _), v in zip(entries, values.tolist()) if (r, j) == (k, i)))
                 for i in ids_of_row] for k, ids_of_row in enumerate(want)]

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, 4), data=st.data())
    def test_ranked_equals_per_row_sort(self, k, data):
        # scores tie often (0.0 and -0.0 too); rows may be empty, and there may be none
        per_row = data.draw(st.lists(st.dictionaries(
            st.integers(0, 9), st.sampled_from([-0.0, 0.0, 0.5, 1.0, 2.0]) | st.floats(-1, 1)),
            max_size=6))
        csr = Ragged.from_lists([sorted(row.items()) for row in per_row], scored=True)
        assert csr.ranked(k).lists() == [
            sorted(row.items(), key=lambda item: (-item[1], item[0]))[:k] for row in per_row]

    @settings(max_examples=200, deadline=None)
    @given(scored=st.booleans(), data=st.data())
    def test_from_lists_round_trips(self, scored, data):
        # ids as large as the payload holds exactly; zero rows, empty rows, repeated ids
        ids = st.sampled_from([0, 2**53 - 1]) | st.integers(0, 2**53 - 1)
        item = st.tuples(ids, st.floats(allow_nan=False)) if scored else ids
        rows = data.draw(st.lists(st.lists(item, max_size=4), max_size=6))
        csr = labeler.Ragged.from_lists(rows, scored=scored)
        assert len(csr) == len(rows)
        assert csr.indptr.dtype == csr.ids.dtype == np.int64
        assert (csr.scores is not None) == scored
        assert csr.lists() == rows
        # plain Python ints and floats, as the record view hands them out
        flat = [x for row in csr.lists() for x in (row if not scored else chain(*row))]
        assert all(type(x) is (float if scored and k % 2 else int) for k, x in enumerate(flat))

    @settings(max_examples=100, deadline=None)
    @given(scored=st.booleans(), data=st.data())
    def test_stacked_equals_the_parts_rows_end_to_end(self, scored, data):
        item = st.tuples(st.integers(0, 9), st.floats(-1, 1)) if scored else st.integers(0, 9)
        parts = data.draw(st.lists(st.lists(st.lists(item, max_size=3), max_size=4),
                                   min_size=1, max_size=4))
        got = Ragged.stacked([Ragged.from_lists(rows, scored=scored) for rows in parts])
        assert got.lists() == [row for rows in parts for row in rows]
        assert (got.scores is not None) == scored


class TestNumberedSets:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_equals_first_seen_numbering_of_sorted_rows(self, data):
        # each row a ranked vnm row: up to VNM_TOP_K distinct node ids, any order
        rows = data.draw(st.lists(st.lists(st.integers(0, 5), max_size=labeler.VNM_TOP_K,
                                           unique=True), max_size=12))
        numbered: dict[tuple[int, ...], int] = {}
        want = [numbered.setdefault(tuple(sorted(row)), len(numbered)) for row in rows]
        sets, set_nodes = labeler.numbered_sets(Ragged.from_lists(rows))
        assert sets.tolist() == want and sets.dtype == np.int64
        assert set_nodes.lists() == [list(key) for key in numbered]


class TestPerVideoRanking:
    def test_rankers_run_once_per_nonempty_video(self):
        # a per-segment ranker would be called once per segment, more often than this
        world = WorldConfig(n_tasks=3, steps_per_task=(3, 4), n_shared_steps=1, n_videos=6,
                            segments_per_step=(1, 2), dim=16, signal_dim=12, seed=3)
        _, db, corpus = synthgen.generate(world)
        corpus = SegmentCorpus(videos=list(corpus.videos) + [
            Video(video_id="empty", corpus_task_name=None, segments=np.zeros((0, 16)))])
        pkg = build_graph(db, corpus, PAPER_DEDUP_THRESHOLD, PAPER_MATCH_THRESHOLD, 100.0)
        nonempty = sum(len(video.segments) > 0 for video in corpus.videos)
        assert corpus.num_segments > nonempty
        names = ("top_k_nodes", "vsm_top_headlines", "node_scores_from_headlines")
        with ExitStack() as stack:
            spies = {name: stack.enter_context(
                mock.patch.object(matcher, name, wraps=getattr(matcher, name))) for name in names}
            labeler.emit_labels(corpus, db, pkg)
        for name, spy in spies.items():
            assert 1 <= spy.call_count <= nonempty, name


# ---------------------------------------------------------------------------
# differential: emit_labels against the per-segment path it replaced


def _random_world(rng, integer_valued):
    """A small database, graph and corpus; integer values make ties common."""
    dim = int(rng.integers(2, 5))

    def values(shape):
        if integer_valued:
            return rng.integers(-2, 3, size=shape).astype(np.float64)
        return rng.normal(size=shape)

    tasks, rows = [], []
    n_tasks = int(rng.integers(1, 4))
    # task ids in any order, so that name order and database order often differ
    task_ids = [f"t{i}" for i in rng.permutation(n_tasks)]
    for t in range(n_tasks):
        headlines = []
        for s in range(int(rng.integers(1, 5))):
            emb = values(dim)
            emb[0] = emb[0] or 1.0  # step embeddings are never all zero
            headlines.append(f"h{t}/{s}")
            rows.append(emb)
        tasks.append((task_ids[t], f"task {t}", headlines))
    db = StepDatabase.from_tasks(tasks, np.array(rows))

    n = db.num_headlines
    groups = np.unique(rng.integers(0, max(1, n - 1), size=n), return_inverse=True)[1]
    # any dense numbering of the groups, not only dedup's smallest-member order
    node_of = rng.permutation(groups.max() + 1)[groups]
    corpus_scores = {
        (int(a), int(b)): float(rng.choice([0.25, 0.5, 1.0]))
        for a, b in rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))
        if a != b
    }
    pkg = assemble_graph(db, node_of, [], corpus_scores)

    videos = []
    for v in range(int(rng.integers(0, 6))):
        length = int(rng.integers(0, 5))  # zero-segment videos included
        videos.append(
            Video(
                video_id=f"v{v}",
                corpus_task_name=["zeta", "alpha", "mu", None][int(rng.integers(0, 4))],
                segments=values((length, dim)),
            )
        )
    return db, pkg, SegmentCorpus(videos=videos)


class TestAgainstPerSegmentPath:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        integer_valued=st.booleans(),
        top_k=st.tuples(*[st.integers(1, 3)] * 4),
        nrl_top=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    )
    def test_records_equal_reference(self, seed, integer_valued, top_k, nrl_top):
        db, pkg, corpus = _random_world(np.random.default_rng(seed), integer_valued)
        sizes = dict(zip(("VNM_TOP_K", "VTM_CORPUS_TOP_K", "TCL_CORPUS_TOP_K", "VSM_TOP_K"), top_k))
        with mock.patch.multiple(labeler, NRL_TOP_PER_HOP=nrl_top, **sizes):
            header, labels = labeler.emit_labels(corpus, db, pkg)
        expected = emit_labels_per_segment(corpus, db, pkg, *top_k, nrl_top)
        records = list(labels)

        # serialized form: equal values and plain Python ints and floats
        assert [canonical_json(dataclasses.asdict(r)) for r in records] == [
            canonical_json(dataclasses.asdict(r)) for r in expected
        ]
        assert header["num_segments"] == len(expected) == corpus.num_segments
        assert header["corpus_task_names"] == sorted(
            {v.corpus_task_name for v in corpus.videos} - {None}
        )
        assert header["skipped_unnamed_videos"] == sum(
            v.corpus_task_name is None for v in corpus.videos
        )

        # load_labels of save_labels gives back emit_labels' header and columns
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "labels.jsonl"
            labeler.save_labels(header, labels, path)
            loaded_header, loaded = labeler.load_labels(path)
            assert loaded_header == header and _same_labels(loaded, labels)


def _renumbered(pkg, perm):
    """The graph with node n renamed perm[n], on its nodes and its edges."""
    nodes = sorted((StepNode(perm[n.node_id], n.members) for n in pkg.nodes),
                   key=lambda n: n.node_id)
    edges = [DirectedEdge(perm[e.src], perm[e.dst], e.score, e.sources) for e in pkg.edges]
    return ProceduralKnowledgeGraph(nodes=nodes, edges=edges, config_hash=pkg.config_hash)


def _assert_renamed_ranking(old, new, perm, k):
    """`new` is the ranked (id, score) list `old` becomes once node n is named perm[n].

    Tied ids rank by ascending id, so a renaming may reorder a tie and, where
    a full list of k cuts through a tie, change which tied ids make the cut.
    """
    assert [s for _, s in new] == [s for _, s in old]
    cut = old[-1][1] if len(old) == k else None
    for score in {s for _, s in old} - {cut}:
        assert sorted(perm[i] for i, s in old if s == score) == sorted(
            i for i, s in new if s == score
        )


class TestRenumberedGraph:
    """A graph.json may number its nodes in any dense order; labels and
    recovery metrics follow the numbering it was written with."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16), noise=st.sampled_from([0.0, 1.0, 3.0]), data=st.data())
    def test_labels_follow_the_graph_numbering(self, seed, noise, data):
        world = WorldConfig(n_tasks=3, steps_per_task=(3, 4), n_shared_steps=1, n_videos=6,
                            segments_per_step=(1, 2), dim=16, signal_dim=12, noise_sigma=noise,
                            paraphrase_count=2, seed=seed)
        truth, db, corpus = synthgen.generate(world)
        pkg = build_graph(db, corpus, PAPER_DEDUP_THRESHOLD, PAPER_MATCH_THRESHOLD, 100.0)
        perm = data.draw(st.permutations(range(pkg.num_nodes)))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "graph.json"
            save_graph(_renumbered(pkg, perm), path)
            moved = load_graph(path)

        header, labels = labeler.emit_labels(corpus, db, pkg)
        moved_header, moved_labels = labeler.emit_labels(corpus, db, moved)
        records, moved_records = list(labels), list(moved_labels)
        assert moved_header == header
        expected = emit_labels_per_segment(
            corpus, db, moved, labeler.VNM_TOP_K, labeler.VTM_CORPUS_TOP_K,
            labeler.TCL_CORPUS_TOP_K, labeler.VSM_TOP_K, labeler.NRL_TOP_PER_HOP,
        )
        assert [canonical_json(dataclasses.asdict(r)) for r in moved_records] == [
            canonical_json(dataclasses.asdict(r)) for r in expected
        ]

        # per corpus task column, the nodes that must and the nodes that may rank in its top k
        video_of = {v.video_id: i for i, v in enumerate(corpus.videos)}
        occ, _ = labeler.build_occurrence_matrix(
            Ragged.from_lists([[n for n, _ in r.vnm] for r in records]),
            [v.corpus_task_name for v in corpus.videos],
            np.array([video_of[r.video_id] for r in records], dtype=np.int64),
            np.array(assignment_walk(pkg, db)[0]),
        )
        must, may = [], []
        for col in occ.counts.T:
            ranked = np.sort(col[col > 0])[::-1]
            k = labeler.TCL_CORPUS_TOP_K
            kth = ranked[k - 1] if ranked.size >= k else 0
            must.append({perm[n] for n in np.flatnonzero(col > kth)})
            may.append({perm[n] for n in np.flatnonzero((col >= kth) & (col > 0))})

        for old, new in zip(records, moved_records):
            assert (new.vtm_db, new.vtm_corpus, new.vsm) == (old.vtm_db, old.vtm_corpus, old.vsm)
            assert new.tcl_db == sorted(perm[n] for n in old.tcl_db)
            assert set().union(*(must[t] for t in old.vtm_corpus)) <= set(new.tcl_corpus)
            assert set(new.tcl_corpus) <= set().union(*(may[t] for t in old.vtm_corpus))
            _assert_renamed_ranking(old.vnm, new.vnm, perm, labeler.VNM_TOP_K)
            for direction in ("in", "out"):
                for hop, k in enumerate(labeler.NRL_TOP_PER_HOP):
                    _assert_renamed_ranking(
                        old.nrl[direction][hop], new.nrl[direction][hop], perm, k
                    )

        assert graph_recovery_metrics(moved, db, truth) == graph_recovery_metrics(pkg, db, truth)
