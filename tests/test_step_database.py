"""The step database's task ranges and node-level occurrence counts against per-step walks.

Each property builds a database from nested per-task step lists and checks
every reader of the task ranges (headline order, database transitions, the
task -> nodes grouping, graph.node_of) and the node-level corpus counts
against the walks and headline-level counting they replaced, which
`oracles.py` keeps. Step embeddings come from a small palette, so repeats
are common, also across adjacent tasks, where one node then spans a task
boundary.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pkgforge import graph as G
from pkgforge import labeler
from pkgforge.corpus_io import CorpusFormatError, Ragged, StepDatabase
from pkgforge.dedup import cluster_headlines

from oracles import (
    assignment_walk,
    database_transitions_walk,
    headline_index_walk,
    members_walk,
    occurrence_per_headline,
    summed_per_node,
    task_node_map_walk,
)

# pairwise cosine distances of at least 0.29, far above the 0.09 dedup threshold
PALETTE = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])

# per task, the palette index of each step's embedding
task_steps = st.lists(
    st.lists(st.integers(0, len(PALETTE) - 1), min_size=1, max_size=4), min_size=1, max_size=4
)


def _database(spec) -> StepDatabase:
    return StepDatabase.from_tasks(
        [(f"t{t}", f"task {t}", [f"h{t}/{s}" for s in range(len(steps))])
         for t, steps in enumerate(spec)],
        PALETTE[[p for steps in spec for p in steps]],
    )


class TestTaskRanges:
    @settings(max_examples=200, deadline=None)
    @given(spec=task_steps)
    @example(spec=[[0]])  # one task of one step
    @example(spec=[[0, 1, 2]])  # a single task
    @example(spec=[[0, 1], [1, 2]])  # node 1 spans the task boundary
    @example(spec=[[0, 1], [1, 0]])  # (1, 0) only across the boundary, (0, 1) inside
    def test_readers_equal_per_step_walks(self, spec):
        db = _database(spec)
        walk = headline_index_walk(db)
        assert [db.tasks[ti].start + si for ti, si in walk] == list(range(db.num_headlines))
        assert [db.headlines[h] for h in range(db.num_headlines)] == [
            f"h{t}/{s}" for t, steps in enumerate(spec) for s in range(len(steps))
        ]
        np.testing.assert_array_equal(db.embeddings, PALETTE[[p for s in spec for p in s]])

        node_of = cluster_headlines(db.embeddings, 0.09)
        pairs = G.database_transitions(db, node_of)
        assert pairs == database_transitions_walk(db, node_of)
        # the task -> node map is one grouping of each headline's task and node
        task_of = np.repeat(np.arange(len(db.tasks)), [t.stop - t.start for t in db.tasks])
        assert task_of.tolist() == [ti for ti, _ in walk]
        assert Ragged.grouped(task_of, node_of, len(db.tasks)).lists() == [
            list(nodes) for nodes in task_node_map_walk(db, node_of)]

        pkg = G.assemble_graph(db, node_of, pairs, {})
        walked, _ = assignment_walk(pkg, db)
        assert pkg.node_of(db).tolist() == walked == node_of.tolist()

    def test_boundary_pair_is_no_transition(self):
        # t0 = a b, t1 = c d: (b, c) follows in headline order but in no task
        db = _database([[0, 1], [2, 3]])
        assert G.database_transitions(db, np.arange(4)) == [(0, 1), (2, 3)]

    def test_member_outside_its_task_rejected(self):
        db = _database([[0, 1], [2]])
        pkg = G.assemble_graph(_database([[0, 1, 2]]), np.arange(3), [], {})
        with pytest.raises(ValueError, match=r"\('t0', 2\) not present"):
            pkg.node_of(db)

    @pytest.mark.parametrize(
        "tasks, message",
        # (task entries, embedding matrix) pairs
        [
            (([], np.ones((0, 1))), "contains no tasks"),
            (([("t", "x", ["a"]), ("t", "y", ["b"])], [[1.0], [1.0]]), "duplicate task_id 't'"),
            (([("t", "x", [])], np.ones((0, 1))), "task 't' has no steps"),
            (([("t", "x", ["a", "b"])], [[1.0]]), "each of 2 headlines"),
            (([("t", "x", ["a"])], [1.0]), "each of 1 headlines"),  # not 2-D
            (([("t", "x", ["a"])], np.ones((1, 0))), "dimension >= 1"),
            (([("t", "x", ["a", "b"])], [[1.0], [-0.0]]), "task 't' step 1 has zero embedding"),
            (([("t", "x", ["a"]), ("u", "y", ["b"])], [[1.0], [0.0]]),
             "task 'u' step 0 has zero embedding"),
        ],
    )
    def test_constructor_rejects(self, tasks, message):
        with pytest.raises(CorpusFormatError, match=f"^here: .*{message}"):
            StepDatabase.from_tasks(*tasks, "here")

    def test_float64_matrix_kept_without_a_copy(self):
        matrix = np.array([[1.0, 0.0], [0.0, 2.0]])
        db = StepDatabase.from_tasks([("t", "x", ["a", "b"])], matrix)
        assert db.embeddings is matrix


class TestNodeOccurrenceCounts:
    @settings(max_examples=200, deadline=None)
    @given(
        spec=task_steps,
        data=st.data(),
        names=st.lists(st.sampled_from(["zeta", "alpha", "mu", None]), min_size=1, max_size=5),
    )
    def test_equal_headline_counts_summed_per_node(self, spec, data, names):
        db = _database(spec)
        node_of = cluster_headlines(db.embeddings, 0.09)
        members_of = members_walk(node_of)
        n_segments = data.draw(st.integers(0, 12))
        video_of = sorted(data.draw(st.integers(0, len(names) - 1)) for _ in range(n_segments))
        # empty vnm lists included; a named video whose lists are all empty
        # leaves its corpus task column at zero
        vnm = [
            data.draw(st.lists(st.integers(0, len(members_of) - 1), max_size=3, unique=True))
            for _ in range(n_segments)
        ]
        occ, skipped = labeler.build_occurrence_matrix(
            Ragged.from_lists(vnm), names, np.array(video_of, dtype=np.int64), node_of)
        counts, task_names, expected_skipped = occurrence_per_headline(
            vnm, names, video_of, members_of, db.num_headlines
        )
        assert occ.counts.dtype == np.int64
        np.testing.assert_array_equal(occ.counts, summed_per_node(counts, members_of))
        assert list(occ.task_names) == task_names
        assert skipped == expected_skipped
