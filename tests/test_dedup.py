"""Single-linkage dedup against the connected-components oracle."""

import numpy as np
import pytest

from pkgforge.dedup import cluster_headlines

from oracles import components_partition, cosine_distance, partition_of


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
        assert cluster_headlines(np.vstack([a, b, c]), 0.09).tolist() == [0, 0, 0]

    def test_all_far_apart(self):
        emb = np.eye(4)
        result = cluster_headlines(emb, 0.09)
        assert result.dtype == np.int64
        assert result.tolist() == [0, 1, 2, 3]

    def test_exact_duplicates_merge(self):
        emb = np.array([[1.0, 2.0], [2.0, 0.1], [1.0, 2.0]])
        assert cluster_headlines(emb, 1e-9).tolist() == [0, 1, 0]

    def test_node_numbering_by_smallest_member(self):
        emb = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        # cluster containing headline 0 gets node 0 even though 1,2 merge too
        assert cluster_headlines(emb, 0.01).tolist() == [0, 1, 1, 0]

    def test_oracle_equivalence_random(self):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 33))
            dim = int(rng.integers(2, 6))
            emb = rng.normal(size=(n, dim))
            threshold = float(rng.uniform(0.02, 0.8))
            got = partition_of(cluster_headlines(emb, threshold))
            want = components_partition(emb, threshold)
            assert got == want, f"seed {seed}"

    def test_determinism(self):
        rng = np.random.default_rng(7)
        emb = rng.normal(size=(30, 4))
        assert np.array_equal(cluster_headlines(emb, 0.3), cluster_headlines(emb.copy(), 0.3))

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(11)
        emb = rng.normal(size=(25, 3))
        counts = [
            cluster_headlines(emb, t).max() + 1 for t in (0.01, 0.05, 0.1, 0.3, 0.6, 1.0)
        ]
        assert counts == sorted(counts, reverse=True)

    def test_single_point(self):
        assert cluster_headlines(np.array([[3.0, 4.0]]), 0.09).tolist() == [0]

    def test_bad_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            cluster_headlines(np.ones((2, 2)), 0.0)
