"""Headline deduplication: single-linkage clustering under cosine distance.

Merging two clusters whenever their closest pair of members sits strictly
below the distance threshold makes the final partition equal to the
connected components of the sub-threshold pairwise-distance graph, which
is what the test-suite oracle checks against. That partition does not
depend on the order in which pairs are merged, so the distances are taken
blockwise and only the sub-threshold pairs are kept.
"""

from __future__ import annotations

import numpy as np


# Rows per distance block. Under OpenBLAS the shape of a matmul can change
# the last bits of its products, so this also fixes which pairs sitting
# exactly at the threshold merge; changing it can change graph.json.
_BLOCK = 512


def sub_threshold_pairs(embeddings: np.ndarray, distance_threshold: float):
    """Yield, per block of rows, the (i, j) index arrays of every pair i < j
    whose f64 cosine distance is strictly below distance_threshold."""
    finite = np.isfinite(embeddings).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite embedding in row {int(np.argmin(finite))}")
    norms = np.linalg.norm(embeddings, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("zero-norm embedding encountered")
    unit = embeddings / norms[:, None]
    n = unit.shape[0]
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        dist = unit[start:stop] @ unit.T  # (block, n) similarities, then distances
        np.subtract(1.0, dist, out=dist)
        rows, cols = np.nonzero(dist < distance_threshold)
        del dist  # so that at most one block is alive when the next is allocated
        rows += start
        upper = cols > rows
        yield rows[upper], cols[upper]


def smallest_connected(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """For each of n indices, the smallest index of its connected component
    in the graph whose edges are (rows[k], cols[k]).

    Every round hooks each edge's two roots onto the smaller of them, then
    jumps pointers until each index points at a root. A label only ever
    falls to a connected, smaller index, so once a round changes nothing
    each edge joins equal roots and every root is its component's minimum.
    """
    label = np.arange(n, dtype=np.int64)
    while True:
        roots_a, roots_b = label[rows], label[cols]
        low = np.minimum(roots_a, roots_b)
        hooked = label.copy()
        np.minimum.at(hooked, roots_a, low)
        np.minimum.at(hooked, roots_b, low)
        while True:
            jumped = hooked[hooked]
            if np.array_equal(jumped, hooked):
                break
            hooked = jumped
        if np.array_equal(hooked, label):
            return label
        label = hooked


def cluster_headlines(embeddings: np.ndarray, distance_threshold: float) -> np.ndarray:
    """Single-linkage agglomerative clustering, merging strictly below threshold.

    Returns node_of, the (num_headlines,) int64 node id of each headline.
    Node ids are dense 0..N-1 and ordered by each cluster's smallest member
    headline index, so identical inputs always number identically.

    Only the sub-threshold pairs are ever materialized, one block of rows at
    a time; the connected components over them do not depend on the order
    the pairs arrive in.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if embeddings.ndim != 2 or embeddings.shape[0] < 1:
        raise ValueError("need at least one embedding of shape (n, d)")
    if not distance_threshold > 0:
        raise ValueError(f"distance_threshold must be > 0, got {distance_threshold}")

    pairs = list(sub_threshold_pairs(embeddings, distance_threshold))
    roots = smallest_connected(
        embeddings.shape[0],
        np.concatenate([rows for rows, _ in pairs]),
        np.concatenate([cols for _, cols in pairs]),
    )
    # each root is its cluster's smallest headline, so numbering the sorted
    # roots densely orders nodes by their smallest member headline
    return np.unique(roots, return_inverse=True)[1].astype(np.int64, copy=False)
