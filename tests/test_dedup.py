"""Single-linkage dedup against the connected-components oracle."""

import numpy as np
import pytest

from pkgforge.dedup import cluster_headlines

from oracles import components_partition, cosine_distance


def _partition(assignment):
    return {frozenset(members) for members in assignment.members_of}


class TestCosineDistance:
    def test_identical(self):
        assert cosine_distance(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 0.0

    def test_orthogonal(self):
        assert cosine_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_forty_five_degrees(self):
        got = cosine_distance(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert got == pytest.approx(1.0 - 1.0 / np.sqrt(2.0), abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            cosine_distance(np.zeros(2), np.array([1.0, 0.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            cosine_distance(np.ones(2), np.ones(3))


class TestClustering:
    def test_transitive_merge(self):
        # a-b and b-c below threshold, a-c above: single linkage joins all three
        a = np.array([1.0, 0.0])
        b = np.array([np.cos(0.25), np.sin(0.25)])
        c = np.array([np.cos(0.5), np.sin(0.5)])
        assert cosine_distance(a, b) < 0.09 < cosine_distance(a, c)
        result = cluster_headlines(np.vstack([a, b, c]), 0.09)
        assert result.num_nodes == 1
        assert result.members_of == ((0, 1, 2),)

    def test_all_far_apart(self):
        emb = np.eye(4)
        result = cluster_headlines(emb, 0.09)
        assert result.num_nodes == 4
        assert list(result.node_of) == [0, 1, 2, 3]

    def test_exact_duplicates_merge(self):
        emb = np.array([[1.0, 2.0], [2.0, 0.1], [1.0, 2.0]])
        result = cluster_headlines(emb, 1e-9)
        assert result.node_of[0] == result.node_of[2]
        assert result.node_of[0] != result.node_of[1]

    def test_node_numbering_by_smallest_member(self):
        emb = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        result = cluster_headlines(emb, 0.01)
        # cluster containing headline 0 gets node 0 even though 1,2 merge too
        assert result.node_of[0] == 0 and result.node_of[3] == 0
        assert result.node_of[1] == 1 and result.node_of[2] == 1

    def test_oracle_equivalence_random(self):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 33))
            dim = int(rng.integers(2, 6))
            emb = rng.normal(size=(n, dim))
            threshold = float(rng.uniform(0.02, 0.8))
            got = _partition(cluster_headlines(emb, threshold))
            want = components_partition(emb, threshold)
            assert got == want, f"seed {seed}"

    def test_determinism(self):
        rng = np.random.default_rng(7)
        emb = rng.normal(size=(30, 4))
        a = cluster_headlines(emb, 0.3)
        b = cluster_headlines(emb.copy(), 0.3)
        assert a.members_of == b.members_of
        assert np.array_equal(a.node_of, b.node_of)

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(11)
        emb = rng.normal(size=(25, 3))
        counts = [
            cluster_headlines(emb, t).num_nodes for t in (0.01, 0.05, 0.1, 0.3, 0.6, 1.0)
        ]
        assert counts == sorted(counts, reverse=True)

    def test_single_point(self):
        result = cluster_headlines(np.array([[3.0, 4.0]]), 0.09)
        assert result.num_nodes == 1

    def test_bad_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            cluster_headlines(np.ones((2, 2)), 0.0)
