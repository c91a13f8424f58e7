"""Pseudo-label operations and the labels.jsonl format."""

import copy
import dataclasses
import json
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pkgforge import labeler, synthgen
from pkgforge.config import PAPER_DEDUP_THRESHOLD, PAPER_MATCH_THRESHOLD
from pkgforge.corpus_io import (
    CorpusFormatError,
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

from oracles import assignment_walk, emit_labels_per_segment


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


class TestVnmAndVtm:
    def test_vnm_top3(self):
        got = labeler.vnm_labels(np.array([9.0, 7.0, 3.0, 1.0]))
        assert got == [(0, 9.0), (1, 7.0), (2, 3.0)]

    def test_vnm_fewer_than_k(self):
        assert labeler.vnm_labels(np.array([2.0, 5.0])) == [(1, 5.0), (0, 2.0)]

    def test_vnm_tie_rule(self):
        assert [n for n, _ in labeler.vnm_labels(np.full(5, 2.0))] == [0, 1, 2]

    def test_vtm_db_union_sorted(self):
        # the tiny world's tasks per node: node 1 belongs to both
        node_tasks = [[0], [0, 1], [1]]
        assert labeler.vtm_db_labels([1], node_tasks) == [0, 1]
        assert labeler.vtm_db_labels([2, 0], node_tasks) == [0, 1]
        assert labeler.vtm_db_labels([0, 1, 2], node_tasks) == [0, 1]
        assert labeler.vtm_db_labels([0], node_tasks) == [0]
        assert labeler.vtm_db_labels([], node_tasks) == []


class TestOccurrenceMatrix:
    def test_single_increment(self):
        _, node_of, _ = _tiny_world()
        occ, skipped = labeler.build_occurrence_matrix(
            [[1]], ["task zero"], [0], node_of
        )
        assert skipped == 0
        # node 1 has two members, headlines 1 and 2
        assert occ.task_names == ("task zero",)
        assert occ.counts[1, 0] == 2
        assert occ.counts.sum() == 2

    def test_additivity(self):
        _, node_of, _ = _tiny_world()
        occ, _ = labeler.build_occurrence_matrix(
            [[1], [1]], ["task zero"], [0, 0], node_of
        )
        assert occ.counts[1, 0] == 4

    def test_unnamed_videos_skipped(self):
        _, node_of, _ = _tiny_world()
        occ, skipped = labeler.build_occurrence_matrix([[0]], [None], [0], node_of)
        assert skipped == 1
        assert occ.counts.shape == (3, 0)

    def test_count_conservation(self):
        rng = np.random.default_rng(0)
        _, node_of, _ = _tiny_world()
        names = ["a", "b", None]
        video_of = [int(rng.integers(0, 3)) for _ in range(30)]
        vnm = [list(rng.choice(3, size=int(rng.integers(0, 3)), replace=False)) for _ in range(30)]
        occ, _ = labeler.build_occurrence_matrix(vnm, names, video_of, node_of)
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
        assert labeler.vtm_corpus_labels([0], occ) == [0]
        assert labeler.vtm_corpus_labels([0, 1], occ) == [0, 1]
        assert labeler.vtm_corpus_labels([1], occ) == [1]

    def test_vtm_corpus_all_zero(self):
        occ = labeler.OccurrenceMatrix(counts=np.zeros((3, 2), dtype=int), task_names=("T1", "T2"))
        assert labeler.vtm_corpus_labels([0, 1, 2], occ) == []

    def test_vtm_corpus_lexicographic_tie(self):
        # column order is the sorted name order, so a tie by column is a tie by name
        occ = labeler.OccurrenceMatrix(
            counts=np.array([[1, 4, 4], [0, 0, 0], [0, 0, 0]]), task_names=("TA", "TB", "TC")
        )
        assert labeler.vtm_corpus_labels([0], occ) == [1, 2, 0]

    def test_tcl_db(self):
        db, node_of, pkg = _tiny_world()
        tasks_of = labeler.task_node_map(db, node_of)
        assert tasks_of == [(0, 1), (1, 2)]
        assert labeler.tcl_db_labels([0], tasks_of) == [0, 1]
        assert labeler.tcl_db_labels([1], tasks_of) == [1, 2]
        assert labeler.tcl_db_labels([0, 1], tasks_of) == [0, 1, 2]
        assert labeler.tcl_db_labels([], tasks_of) == []

    def test_tcl_corpus_top3_nonzero(self):
        occ = labeler.OccurrenceMatrix(counts=np.array([[7], [3], [0]]), task_names=("T1",))
        top_nodes = labeler.top_nodes_per_corpus_task(occ)
        assert top_nodes == [[0, 1]]
        assert labeler.tcl_corpus_labels([0], top_nodes) == [0, 1]

    def test_tcl_corpus_union(self):
        occ = labeler.OccurrenceMatrix(
            counts=np.array([[1, 0], [0, 2], [0, 0]]), task_names=("T1", "T2")
        )
        top_nodes = labeler.top_nodes_per_corpus_task(occ)
        assert top_nodes == [[0], [1]]
        assert labeler.tcl_corpus_labels([1], top_nodes) == [1]
        assert labeler.tcl_corpus_labels([0, 1], top_nodes) == [0, 1]
        assert labeler.tcl_corpus_labels([], top_nodes) == []


class TestNrl:
    def test_chain(self):
        _, _, pkg = _tiny_world()
        got = labeler.nrl_labels([1], pkg)
        assert got["in"][0] == [(0, 1.0)]
        assert got["out"][0] == [(2, 1.0)]

    def test_isolated_node(self):
        nodes = [StepNode(0, (("t", 0, "h"),)), StepNode(1, (("t", 1, "g"),))]
        pkg = ProceduralKnowledgeGraph(nodes=nodes, edges=[])
        got = labeler.nrl_labels([0], pkg)
        assert got == {"in": [[], []], "out": [[], []]}

    def test_diamond_second_hop(self):
        nodes = [StepNode(i, (("t", i, f"h{i}"),)) for i in range(4)]
        edges = [
            DirectedEdge(0, 1, 0.9, ("corpus",)),
            DirectedEdge(1, 3, 0.5, ("corpus",)),
            DirectedEdge(0, 2, 0.8, ("corpus",)),
            DirectedEdge(2, 3, 0.8, ("corpus",)),
        ]
        pkg = ProceduralKnowledgeGraph(nodes=nodes, edges=edges)
        got = labeler.nrl_labels([0], pkg)
        assert got["out"][1] == [(3, pytest.approx(0.64))]

    def test_top_per_hop_truncation(self):
        nodes = [StepNode(i, (("t", i, f"h{i}"),)) for i in range(8)]
        edges = [DirectedEdge(0, d, 1.0 - 0.01 * d, ("corpus",)) for d in range(1, 8)]
        pkg = ProceduralKnowledgeGraph(nodes=nodes, edges=edges)
        got = labeler.nrl_labels([0], pkg)
        assert [n for n, _ in got["out"][0]] == [1, 2, 3, 4, 5]


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
        header, records = labeler.emit_labels(self._corpus(), db, pkg)
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
        # task ids that sort against database order: vtm_db lists database positions,
        # and the set line names them in that order
        db, _, pkg = _tiny_world(task_ids=("tz", "ta"))
        header, records = labeler.emit_labels(self._corpus(), db, pkg)
        assert header["task_ids"] == ["tz", "ta"]
        assert [r.vtm_db for r in records] == [[0], [0, 1], [1]]
        path = tmp_path / "labels.jsonl"
        labeler.save_labels(header, records, path)
        sets = [json.loads(line) for line in path.read_text().splitlines()[1:4]]
        assert [s["vtm_db"] for s in sets] == [["tz"], ["tz", "ta"], ["ta"]]
        assert labeler.load_labels(path) == (header, records)

    def test_empty_corpus(self):
        db, _, pkg = _tiny_world()
        header, records = labeler.emit_labels(SegmentCorpus(videos=[]), db, pkg)
        assert records == []
        assert header["num_segments"] == 0
        assert header["corpus_task_names"] == []

    def test_rerun_does_not_change_output(self):
        db, _, pkg = _tiny_world()
        h1, r1 = labeler.emit_labels(self._corpus(), db, pkg)
        h2, r2 = labeler.emit_labels(self._corpus(), db, pkg)
        assert h1 == h2 and r1 == r2

    def test_referential_integrity(self):
        db, _, pkg = _tiny_world()
        header, records = labeler.emit_labels(self._corpus(), db, pkg)
        num_tasks, num_names = len(header["task_ids"]), len(header["corpus_task_names"])
        for rec in records:
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
        header, records = labeler.emit_labels(self._corpus(), db, pkg)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        labeler.save_labels(header, records, p1)
        h2, r2 = labeler.load_labels(p1)
        labeler.save_labels(h2, r2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert h2 == header and r2 == records

    def test_empty_file_has_valid_header(self, tmp_path):
        db, _, pkg = _tiny_world()
        header, records = labeler.emit_labels(SegmentCorpus(videos=[]), db, pkg)
        path = tmp_path / "labels.jsonl"
        labeler.save_labels(header, records, path)
        h2, r2 = labeler.load_labels(path)
        assert h2["kind"] == "pkgforge-labels" and r2 == []

    def test_segment_count_mismatch_names_file_and_counts(self, tmp_path):
        db, _, pkg = _tiny_world()
        header, records = labeler.emit_labels(self._corpus(), db, pkg)
        path = tmp_path / "labels.jsonl"
        labeler.save_labels(dict(header, num_segments=4), records, path)
        with pytest.raises(
            CorpusFormatError,
            match=r"labels\.jsonl: header says 4 segments but the file holds 3 records",
        ):
            labeler.load_labels(path)

    def test_failed_save_leaves_no_file(self, tmp_path):
        db, _, pkg = _tiny_world()
        header, records = labeler.emit_labels(self._corpus(), db, pkg)
        records[1].vsm = [(0, float("nan"))]  # canonical JSON refuses NaN mid-write
        path = tmp_path / "labels.jsonl"
        with pytest.raises(ValueError):
            labeler.save_labels(header, records, path)
        assert list(tmp_path.iterdir()) == []


SET_FIELDS = ["vtm_db", "vtm_corpus", "tcl_db", "tcl_corpus", "nrl"]
# the file line each `_saved` edit lands on: the header, the first set line, the last record
LINE_OF_EDIT = {0: 1, 1: 2, -1: 7}


class TestLabelsFile:
    """The set-table format: range checks and shared set lines."""

    def _saved(self, tmp_path, edit=None):
        """The three-segment labels file, optionally with one JSON line edited.

        `edit` is (line, key, value): line 0 is the header, line 1 the first
        set line and line -1 the last record.
        """
        db, _, pkg = _tiny_world()
        header, records = labeler.emit_labels(TestEmitLabels()._corpus(), db, pkg)
        path = tmp_path / "labels.jsonl"
        labeler.save_labels(header, records, path)
        if edit is not None:
            lines = [json.loads(line) for line in path.read_text().splitlines()]
            line, key, value = edit
            if value is None:
                del lines[line][key]
            else:
                lines[line][key] = value
            path.write_text("".join(canonical_json(obj) + "\n" for obj in lines))
        return path

    def test_layout(self, tmp_path):
        lines = [json.loads(line) for line in self._saved(tmp_path).read_text().splitlines()]
        header, sets, records = lines[0], lines[1:4], lines[4:]
        assert header["num_sets"] == 3 and header["num_segments"] == 3
        assert [list(s) for s in sets] == [SET_FIELDS] * 3
        assert [r["set"] for r in records] == [0, 1, 2]
        assert list(records[0]) == ["video_id", "segment_index", "vnm", "set", "vsm"]

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
        labeler.save_labels(header, records, path)
        h2, r2 = labeler.load_labels(path)
        assert h2 == dict(header, num_sets=2)
        assert r2 == records
        for name in SET_FIELDS:
            assert getattr(r2[0], name) is getattr(r2[1], name)
            assert getattr(r2[0], name) is not getattr(r2[2], name)

    @pytest.mark.parametrize("edit", [
        (-1, "vnm", [[3, 1.0]]),
        (-1, "vnm", [[-1, 1.0]]),
        (1, "tcl_db", [0, 3]),
        (1, "tcl_corpus", [3]),
        (1, "nrl", {"in": [[[3, 0.5]], []], "out": [[], []]}),
    ])
    def test_node_id_out_of_range(self, tmp_path, edit):
        line = LINE_OF_EDIT[edit[0]]
        located = rf"labels\.jsonl:{line}: malformed .*{edit[1]}.* outside \[0, 3\)"
        with pytest.raises(CorpusFormatError, match=located):
            labeler.load_labels(self._saved(tmp_path, edit))

    def test_headline_id_out_of_range(self, tmp_path):
        path = self._saved(tmp_path, (-1, "vsm", [[4, 1.0]]))
        located = r"labels\.jsonl:7: malformed record 2: vsm .* outside \[0, 4\)"
        with pytest.raises(CorpusFormatError, match=located):
            labeler.load_labels(path)

    @pytest.mark.parametrize("edit, message", [
        ((1, "vtm_db", ["t0", "t9"]), r"task ids missing from the header: \['t9'\]"),
        ((1, "vtm_corpus", ["nope"]), r"corpus tasks missing from the header: \['nope'\]"),
    ])
    def test_class_name_missing_from_header(self, tmp_path, edit, message):
        located = rf"^.*labels\.jsonl:2: malformed set 0: {edit[1]} names {message}$"
        with pytest.raises(CorpusFormatError, match=located):
            labeler.load_labels(self._saved(tmp_path, edit))

    @pytest.mark.parametrize("index", [3, -1, 1.0, "0"])
    def test_set_index_out_of_range(self, tmp_path, index):
        located = r"labels\.jsonl:7: malformed record 2: points at set .* outside \[0, 3\)"
        with pytest.raises(CorpusFormatError, match=located):
            labeler.load_labels(self._saved(tmp_path, (-1, "set", index)))

    @pytest.mark.parametrize("num_sets", [2, 4])
    def test_num_sets_differs_from_set_lines(self, tmp_path, num_sets):
        with pytest.raises(
            CorpusFormatError, match=rf"header says {num_sets} sets but the file holds 3 set lines"
        ):
            labeler.load_labels(self._saved(tmp_path, (0, "num_sets", num_sets)))

    def test_header_without_num_sets_asks_for_rerun(self, tmp_path):
        with pytest.raises(CorpusFormatError, match=r"predates the set table; rerun `pkgforge labels`"):
            labeler.load_labels(self._saved(tmp_path, (0, "num_sets", None)))

    @pytest.mark.parametrize("edit, message", [
        ((1, "nrl", {"out": [[], []]}), r"set 0 nrl is not an object with exactly the keys"),
        ((1, "nrl", {"in": [[], []], "out": [[], []], "up": [[], []]}),
         r"set 0 nrl is not an object with exactly the keys"),
        ((1, "nrl", {"in": [[]], "out": [[], []]}), r"set 0 nrl in is not a list of 2 hop lists"),
        ((1, "nrl", {"in": [[], []], "out": [[], 5]}), r"set 0 nrl out is not a list of 2 hop"),
        ((0, "nrl_hops", None), r"header has no 'nrl_hops'"),
        ((0, "num_nodes", "3"), r"header num_nodes '3' is not a JSON integer"),
        ((0, "task_ids", ["t0", 1]), r"header task_ids \['t0', 1\] is not a list of strings"),
        ((1, "tcl_db", [0.7]), r"set 0 tcl_db \[0\.7\] is not a list of JSON integers"),
        ((-1, "vnm", [[True, 1.0]]), r"record 2 vnm \[True\] is not a list of JSON integers"),
        ((-1, "vnm", [["2", 1.0]]), r"record 2 vnm \['2'\] is not a list of JSON integers"),
        ((-1, "segment_index", "0"), r"record 2 segment_index '0' is not a JSON integer"),
        ((-1, "video_id", 1), r"record 2 video_id 1 is not a string"),
        ((1, "vtm_db", [5]), r"set 0 vtm_db \[5\] is not a list of strings"),
        ((-1, "vnm", [[0, "7.5"]]), r"record 2 vnm scores \['7\.5'\] are not all JSON numbers"),
        ((-1, "vsm", [[0, True]]), r"record 2 vsm scores \[True\] are not all JSON numbers"),
        ((1, "nrl", {"in": [[[0, None]], []], "out": [[], []]}),
         r"set 0 nrl in scores \[None\] are not all JSON numbers"),
        ((0, "num_segments", 3.0), r"header num_segments 3\.0 is not a JSON integer"),
        ((0, "num_sets", 3.0), r"header num_sets 3\.0 is not a JSON integer"),
    ])
    def test_wrong_shape_names_the_set_or_record(self, tmp_path, edit, message):
        where = re.match(r"header|set \d+|record \d+", message).group()
        located = rf"labels\.jsonl:{LINE_OF_EDIT[edit[0]]}: malformed {where}: "
        with pytest.raises(CorpusFormatError, match=located + message[len(where) + 1 :]):
            labeler.load_labels(self._saved(tmp_path, edit))

    def test_integer_score_loads_as_float(self, tmp_path):
        _, records = labeler.load_labels(self._saved(tmp_path, (-1, "vnm", [[0, 2], [1, 0.5]])))
        assert records[-1].vnm == [(0, 2.0), (1, 0.5)]
        assert [type(s) for _, s in records[-1].vnm] == [float, float]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), nrl_hops=st.integers(1, 2), num_nodes=st.integers(1, 5),
           num_headlines=st.integers(1, 5))
    def test_random_records_round_trip(self, data, nrl_hops, num_nodes, num_headlines):
        task_ids, corpus_names = ["t0", "t1", "t2"], ["a", "b"]
        score = st.floats(allow_nan=False, allow_infinity=False)

        def pairs(bound):
            return st.lists(st.tuples(st.integers(0, bound - 1), score), max_size=3)

        def block():
            return {
                "vtm_db": data.draw(st.lists(st.integers(0, len(task_ids) - 1), max_size=3)),
                "vtm_corpus": data.draw(st.lists(st.integers(0, len(corpus_names) - 1),
                                                 max_size=2)),
                "tcl_db": data.draw(st.lists(st.integers(0, num_nodes - 1), max_size=4)),
                "tcl_corpus": data.draw(st.lists(st.integers(0, num_nodes - 1), max_size=4)),
                "nrl": {d: [data.draw(pairs(num_nodes)) for _ in range(nrl_hops)]
                        for d in ("in", "out")},
            }

        pool = [block() for _ in range(data.draw(st.integers(1, 3)))]
        records = []
        for i in range(data.draw(st.integers(0, 6))):
            shared = pool[data.draw(st.integers(0, len(pool) - 1))]
            records.append(labeler.PseudoLabelSet(
                video_id=data.draw(st.text(max_size=3)), segment_index=i,
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
            labeler.save_labels(header, records, p1)
            h2, r2 = labeler.load_labels(p1)
            labeler.save_labels(h2, r2, p2)
            assert p1.read_bytes() == p2.read_bytes()
        assert h2 == dict(header, num_sets=len(set(sharing(records))))
        assert r2 == records and sharing(r2) == sharing(records)


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
            header, records = labeler.emit_labels(corpus, db, pkg)
        expected = emit_labels_per_segment(corpus, db, pkg, *top_k, nrl_top)

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

        # load_labels of save_labels gives back emit_labels' header and records
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "labels.jsonl"
            labeler.save_labels(header, records, path)
            assert labeler.load_labels(path) == (header, records)


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

        header, records = labeler.emit_labels(corpus, db, pkg)
        moved_header, moved_records = labeler.emit_labels(corpus, db, moved)
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
            [[n for n, _ in r.vnm] for r in records], [v.corpus_task_name for v in corpus.videos],
            [video_of[r.video_id] for r in records], np.array(assignment_walk(pkg, db)[0]),
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
