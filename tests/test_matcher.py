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


class TestTopKNodes:
    def test_scores_and_ties(self):
        # ids: A=0, B=1, C=2, D=3 with scores 5, 7, 7, 1
        assert matcher.top_k_nodes(np.array([5.0, 7.0, 7.0, 1.0]), k=3) == [1, 2, 0]

    def test_fewer_candidates_than_k(self):
        assert matcher.top_k_nodes(np.array([2.0, 1.0]), k=3) == [0, 1]

    def test_all_equal_scores(self):
        assert matcher.top_k_nodes(np.full(5, 3.0), k=3) == [0, 1, 2]

    def test_nonpositive_scores_have_no_support(self):
        assert matcher.top_k_nodes(np.array([-1.0, 0.0, 2.0]), k=3) == [2]

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            scores = rng.uniform(0.1, 9.0, size=12)
            scale = float(rng.uniform(0.01, 50.0))
            assert matcher.top_k_nodes(scores, 4) == matcher.top_k_nodes(scores * scale, 4)


class TestPartitionTopK:
    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(st.integers(-3, 3), max_size=40),
        k=st.integers(1, 8),
    )
    def test_equals_full_sort_under_ties(self, values, k):
        scores = np.array(values, dtype=np.float64)
        assert matcher.top_k_nodes(scores, k=k) == top_k_full_sort(scores, k)
        assert matcher.vsm_top_headlines(scores, k=k) == top_k_full_sort(scores, k)


class TestVsmTopHeadlines:
    def test_sort_descending(self):
        assert matcher.vsm_top_headlines(np.array([3.0, 1.0, 2.0]), k=2) == [0, 2]

    def test_k_larger_than_count(self):
        assert matcher.vsm_top_headlines(np.array([3.0, 1.0, 2.0]), k=9) == [0, 2, 1]

    def test_tie_ascending_index(self):
        assert matcher.vsm_top_headlines(np.array([2.0, 2.0, 2.0]), k=2) == [0, 1]


class TestNodeAggregation:
    def test_max_over_members(self):
        scores = np.array([1.0, 5.0, 2.0])
        np.testing.assert_array_equal(
            matcher.node_scores_from_headlines(scores, np.array([0, 0, 1]), 2), [5.0, 2.0]
        )

    def test_aggregation_law_random(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(2, 20))
            emb = rng.normal(size=(n, 3))
            node_of = cluster_headlines(emb, float(rng.uniform(0.05, 0.9)))
            scores = rng.normal(size=n)
            members_of = members_walk(node_of)
            node_scores = matcher.node_scores_from_headlines(scores, node_of, len(members_of))
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
        assert matcher.node_scores_from_headlines(scores, node_of, 4).shape == (4,)
