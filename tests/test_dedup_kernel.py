"""Blockwise sub-threshold pairs, their connected components and
cluster_headlines against the per-pair reference and the connected-components
oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pkgforge.dedup import cluster_headlines, smallest_connected, sub_threshold_pairs

from oracles import (
    adjacency_partition, components_partition, partition_of, sub_threshold_pairs_reference,
)


def _pairs(embeddings, threshold):
    return [
        (i, j)
        for rows, cols in sub_threshold_pairs(embeddings, threshold)
        for i, j in zip(rows.tolist(), cols.tolist())
    ]


def _check_against_oracles(embeddings, threshold):
    assert _pairs(embeddings, threshold) == sub_threshold_pairs_reference(embeddings, threshold)
    got = partition_of(cluster_headlines(embeddings, threshold))
    assert got == components_partition(embeddings, threshold)


class TestInputs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_named(self, bad):
        emb = np.ones((5, 3))
        emb[3, 1] = bad
        emb[4, 0] = bad
        with pytest.raises(ValueError, match="non-finite embedding in row 3"):
            cluster_headlines(emb, 0.09)

    def test_pair_exactly_at_threshold_does_not_merge(self):
        emb = np.array([[1.0, 0.0], [0.0, 2.0]])  # distance exactly 1.0
        assert cluster_headlines(emb, 1.0).tolist() == [0, 1]
        assert cluster_headlines(emb, np.nextafter(1.0, 2.0)).tolist() == [0, 0]


class TestAgainstOracles:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        dim=st.integers(2, 6),
        n_planted=st.integers(0, 8),
        noise=st.sampled_from([0.0, 1e-6, 1e-3, 0.05]),
        threshold=st.floats(1e-4, 0.6),
    )
    def test_planted_near_duplicates(self, seed, n, dim, n_planted, noise, threshold):
        rng = np.random.default_rng(seed)
        emb = rng.normal(size=(n, dim))
        for _ in range(n_planted):
            src, dst = rng.integers(0, n, size=2)
            emb[dst] = emb[src] * rng.uniform(0.5, 2.0) + rng.normal(scale=noise, size=dim)
        _check_against_oracles(emb, threshold)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 30),
        dim=st.integers(2, 4),
        orthogonal_tie=st.booleans(),
    )
    def test_integer_embeddings_at_the_threshold(self, seed, n, dim, orthogonal_tie):
        rng = np.random.default_rng(seed)
        emb = rng.integers(-2, 3, size=(n, dim)).astype(np.float64)
        emb[~emb.any(axis=1), 0] = 1.0
        # integer rows repeat distances; put the threshold exactly on one of them
        # (1.0 is where every orthogonal pair sits), so strict < must leave it out.
        # For n <= 512 this full matmul rounds exactly as the one dedup block does.
        unit = emb / np.linalg.norm(emb, axis=1)[:, None]
        upper = np.triu_indices(n, 1)
        dist = (1.0 - unit @ unit.T)[upper]
        candidates = np.flatnonzero(dist > 0.0)
        if orthogonal_tie or candidates.size == 0:
            threshold = 1.0
        else:
            k = candidates[rng.integers(0, candidates.size)]
            threshold = float(dist[k])
            assert (int(upper[0][k]), int(upper[1][k])) not in _pairs(emb, threshold)
        _check_against_oracles(emb, threshold)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(601, 700),
        threshold=st.floats(1e-3, 0.05),
    )
    def test_pairs_across_the_block_boundary(self, seed, n, threshold):
        rng = np.random.default_rng(seed)
        emb = rng.normal(size=(n, 8))
        planted = [(511, 512), (3, 600)]
        for src, dst in planted:
            emb[dst] = emb[src] + rng.normal(scale=1e-4, size=8)
        assert set(planted) <= set(_pairs(emb, threshold))
        _check_against_oracles(emb, threshold)


class TestComponents:
    """Pair orders that make the component labels take many rounds to settle."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 120), n_chains=st.integers(1, 5),
           dim=st.integers(2, 6))
    def test_scrambled_chains(self, seed, n, n_chains, dim):
        # points along arcs of one circle, rows in random order: only neighbours
        # on an arc sit below the threshold, so each arc is one component
        rng = np.random.default_rng(seed)
        cuts = np.sort(rng.choice(np.arange(1, n), size=min(n_chains, n) - 1, replace=False))
        step = 2.5 / (n + 3 * n_chains)
        angles = step * (np.arange(n) + 3 * np.searchsorted(cuts, np.arange(n), side="right"))
        frame = np.linalg.qr(rng.normal(size=(dim, 2)))[0]
        emb = np.column_stack([np.cos(angles), np.sin(angles)]) @ frame.T
        emb = emb[rng.permutation(n)] * rng.uniform(0.5, 2.0, size=(n, 1))
        threshold = 1.0 - np.cos(1.5 * step)
        assert len(components_partition(emb, threshold)) == cuts.size + 1
        _check_against_oracles(emb, threshold)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 80), n_pairs=st.integers(0, 120))
    def test_random_pair_sets(self, seed, n, n_pairs):
        rng = np.random.default_rng(seed)
        rows, cols = rng.integers(0, n, size=(2, n_pairs))
        label = smallest_connected(n, rows, cols)
        adjacent = np.zeros((n, n), dtype=bool)
        adjacent[rows, cols] = adjacent[cols, rows] = True
        parts = adjacency_partition(adjacent)
        assert partition_of(np.unique(label, return_inverse=True)[1]) == parts
        assert all(set(label[sorted(part)].tolist()) == {min(part)} for part in parts)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5000))
    def test_long_scrambled_chain(self, seed, n):
        rng = np.random.default_rng(seed)
        chain = rng.permutation(n)
        order = rng.permutation(n - 1)
        label = smallest_connected(n, chain[:-1][order], chain[1:][order])
        assert label.tolist() == [0] * n
