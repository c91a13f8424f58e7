"""Segment scoring, match thresholds, and ranking tie rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pkgforge import matcher
from pkgforge.corpus_io import StepDatabase
from pkgforge.dedup import cluster_headlines

from oracles import members_walk, top_k_full_sort


def _db(vectors):
    headlines = [f"h{i}" for i in range(len(vectors))]
    return StepDatabase.from_tasks([("t0", "t", headlines)], np.asarray(vectors, dtype=float))


class TestHeadlineScores:
    def test_unit_dots(self):
        db = _db([(1.0, 0.0), (0.0, 1.0)])
        np.testing.assert_array_equal(
            matcher.score_video(np.array([[1.0, 0.0]]), db)[0], [1.0, 0.0]
        )

    def test_zero_segment(self):
        db = _db([(1.0, 2.0), (3.0, 4.0)])
        np.testing.assert_array_equal(matcher.score_video(np.zeros((1, 2)), db)[0], [0.0, 0.0])

    def test_plain_dot(self):
        db = _db([(4.0, -1.0)])
        assert matcher.score_video(np.array([[2.0, 3.0]]), db)[0, 0] == 5.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            matcher.score_video(np.ones((1, 3)), _db([(1.0, 0.0)]))


class TestMatchedHeadlines:
    def test_strictly_above_threshold(self):
        assert matcher.matched_headlines(np.array([12.1, 9.9, 10.0]), 10.0) == [0]

    def test_none_above(self):
        assert matcher.matched_headlines(np.array([1.0, 2.0]), 10.0) == []

    def test_tie_by_index(self):
        assert matcher.matched_headlines(np.array([11.0, 11.0]), 10.0) == [0, 1]

    def test_ordered_by_descending_score(self):
        assert matcher.matched_headlines(np.array([11.0, 13.0, 12.0]), 10.0) == [1, 2, 0]


def _ranked(ranker, scores, k):
    """One score row's ranking, through a block ranker given it as a one-row block."""
    return ranker(np.asarray(scores, dtype=np.float64)[None, :], k=k).ids.tolist()


def _node_scores(scores, node_of, num_nodes):
    """One headline score row's node scores, through the block aggregation."""
    return matcher.node_scores_from_headlines(np.asarray(scores)[None, :], node_of, num_nodes)[0]


class TestTopKNodes:
    def test_scores_and_ties(self):
        # ids: A=0, B=1, C=2, D=3 with scores 5, 7, 7, 1
        assert _ranked(matcher.top_k_nodes, [5.0, 7.0, 7.0, 1.0], 3) == [1, 2, 0]

    def test_fewer_candidates_than_k(self):
        assert _ranked(matcher.top_k_nodes, [2.0, 1.0], 3) == [0, 1]

    def test_all_equal_scores(self):
        assert _ranked(matcher.top_k_nodes, np.full(5, 3.0), 3) == [0, 1, 2]

    def test_nonpositive_scores_have_no_support(self):
        assert _ranked(matcher.top_k_nodes, [-1.0, 0.0, 2.0], 3) == [2]

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            scores = rng.uniform(0.1, 9.0, size=12)
            scale = float(rng.uniform(0.01, 50.0))
            assert (_ranked(matcher.top_k_nodes, scores, 4)
                    == _ranked(matcher.top_k_nodes, scores * scale, 4))


class TestPartitionTopK:
    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(st.integers(-3, 3), max_size=40),
        k=st.integers(1, 8),
    )
    def test_equals_full_sort_under_ties(self, values, k):
        scores = np.array(values, dtype=np.float64)
        assert _ranked(matcher.top_k_nodes, scores, k) == top_k_full_sort(scores, k)
        assert _ranked(matcher.vsm_top_headlines, scores, k) == top_k_full_sort(scores, k)


class TestVsmTopHeadlines:
    def test_sort_descending(self):
        assert _ranked(matcher.vsm_top_headlines, [3.0, 1.0, 2.0], 2) == [0, 2]

    def test_k_larger_than_count(self):
        assert _ranked(matcher.vsm_top_headlines, [3.0, 1.0, 2.0], 9) == [0, 2, 1]

    def test_tie_ascending_index(self):
        assert _ranked(matcher.vsm_top_headlines, [2.0, 2.0, 2.0], 2) == [0, 1]


class TestNodeAggregation:
    def test_max_over_members(self):
        scores = np.array([1.0, 5.0, 2.0])
        np.testing.assert_array_equal(_node_scores(scores, np.array([0, 0, 1]), 2), [5.0, 2.0])

    def test_aggregation_law_random(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(2, 20))
            emb = rng.normal(size=(n, 3))
            node_of = cluster_headlines(emb, float(rng.uniform(0.05, 0.9)))
            scores = rng.normal(size=n)
            members_of = members_walk(node_of)
            node_scores = _node_scores(scores, node_of, len(members_of))
            for nid, members in enumerate(members_of):
                assert node_scores[nid] == max(scores[m] for m in members)

    def test_match_segment_consistency(self):
        rng = np.random.default_rng(2)
        db = _db(rng.normal(size=(6, 4)))
        node_of = np.array([0, 0, 1, 2, 2, 3])
        scores = matcher.score_video(rng.normal(size=(1, 4)) * 10, db)[0]
        matched = matcher.matched_headlines(scores, 5.0)
        assert set(matched) <= set(range(6))
        assert all(scores[h] > 5.0 for h in matched)
        assert _node_scores(scores, node_of, 4).shape == (4,)


# block entries: integers tie at the k-th value, signed zeros have no support
block_values = st.one_of(st.integers(-3, 3).map(float), st.sampled_from([0.0, -0.0]),
                         st.floats(-5.0, 5.0, allow_subnormal=False))


class TestBlockRankers:
    """The block rankers against the per-row full-sort referee, row by row."""

    @settings(max_examples=300, deadline=None)
    @given(rows=st.integers(0, 6), columns=st.integers(0, 12), k=st.integers(1, 5),
           data=st.data())
    def test_rows_equal_full_sort(self, rows, columns, k, data):
        values = data.draw(st.lists(block_values, min_size=rows * columns,
                                    max_size=rows * columns))
        block = np.array(values, dtype=np.float64).reshape(rows, columns)
        for ranker in (matcher.top_k_nodes, matcher.vsm_top_headlines):
            ranked = ranker(block, k=k)
            assert len(ranked) == rows
            assert ranked.ids.dtype == np.int64
            for got, scores in zip(ranked.lists(), block):
                want = top_k_full_sort(scores, k)
                assert [i for i, _ in got] == want
                assert all(score == scores[i] for i, score in got)

    def test_all_nonpositive_and_narrow_blocks(self):
        block = np.array([[0.0, -0.0, -1.0], [-2.0, 0.0, 3.0], [1.0, 1.0, 1.0]])
        assert matcher.top_k_nodes(block, k=2).lists() == [[], [(2, 3.0)], [(0, 1.0), (1, 1.0)]]
        assert matcher.top_k_nodes(block, k=3).ids.tolist() == [2, 0, 1, 2]
        assert matcher.top_k_nodes(block, k=9).ids.tolist() == [2, 0, 1, 2]
        assert matcher.top_k_nodes(np.zeros((0, 4)), k=3).indptr.tolist() == [0]
        assert matcher.top_k_nodes(np.zeros((2, 0)), k=3).indptr.tolist() == [0, 0, 0]

    def test_k_below_one(self):
        with pytest.raises(ValueError, match="k must be"):
            matcher.top_k_nodes(np.ones((1, 3)), k=0)


class TestBlockNodeMax:
    @settings(max_examples=200, deadline=None)
    @given(sizes=st.lists(st.integers(1, 4), min_size=1, max_size=8),
           rows=st.integers(0, 5), data=st.data())
    def test_equals_per_row_member_max(self, sizes, rows, data):
        node_of = np.array(data.draw(st.permutations(np.repeat(np.arange(len(sizes)), sizes))))
        values = data.draw(st.lists(block_values, min_size=rows * len(node_of),
                                    max_size=rows * len(node_of)))
        block = np.array(values, dtype=np.float64).reshape(rows, len(node_of))
        got = matcher.node_scores_from_headlines(block, node_of, len(sizes))
        assert got.shape == (rows, len(sizes))
        members_of = members_walk(node_of)
        for row, scores in zip(got, block):
            want = np.full(len(sizes), -np.inf)
            np.maximum.at(want, node_of, scores)
            assert want.tobytes() == row.tobytes()
            assert all(row[n] == max(scores[m] for m in members)
                       for n, members in enumerate(members_of))

    def test_leaves_the_block_unchanged(self):
        block = np.array([[1.0, 5.0, 2.0], [4.0, 3.0, 6.0]])
        before = block.copy()
        got = matcher.node_scores_from_headlines(block, np.array([1, 0, 1]), 2)
        np.testing.assert_array_equal(got, [[5.0, 2.0], [3.0, 6.0]])
        np.testing.assert_array_equal(block, before)
