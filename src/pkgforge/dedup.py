"""Headline deduplication: single-linkage clustering under cosine distance.

Merging two clusters whenever their closest pair of members sits strictly
below the distance threshold makes the final partition equal to the
connected components of the sub-threshold pairwise-distance graph, which
is what the test-suite oracle checks against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NodeAssignment:
    """Partition of headline indices into step nodes.

    Node ids are dense 0..N-1 and ordered by each cluster's smallest member
    headline index, so identical inputs always number identically.
    """

    node_of: np.ndarray  # (num_headlines,) int64
    members_of: tuple[tuple[int, ...], ...]  # node_id -> sorted headline indices

    @property
    def num_nodes(self) -> int:
        return len(self.members_of)

    @property
    def num_headlines(self) -> int:
        return self.node_of.shape[0]


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:  # path compression
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        # keep the smaller index as root so cluster identity stays canonical
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


def _pairwise_cosine_distances(embeddings: np.ndarray, block: int = 512):
    """Yield (i, j, dist) for all i < j, computed blockwise in f64."""
    norms = np.linalg.norm(embeddings, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("zero-norm embedding encountered")
    unit = embeddings / norms[:, None]
    n = unit.shape[0]
    for start in range(0, n, block):
        stop = min(start + block, n)
        sims = unit[start:stop] @ unit.T  # (block, n)
        for local_i in range(stop - start):
            i = start + local_i
            row = 1.0 - sims[local_i]
            for j in range(i + 1, n):
                yield i, j, float(row[j])


def cluster_headlines(embeddings: np.ndarray, distance_threshold: float = 0.09) -> NodeAssignment:
    """Single-linkage agglomerative clustering, merging strictly below threshold.

    Candidate merges are processed in ascending (distance, i, j) order --
    the documented tie rule -- although the resulting partition is
    order-independent for single linkage.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if embeddings.ndim != 2 or embeddings.shape[0] < 1:
        raise ValueError("need at least one embedding of shape (n, d)")
    if distance_threshold <= 0:
        raise ValueError(f"distance_threshold must be > 0, got {distance_threshold}")

    edges = [
        (dist, i, j)
        for i, j, dist in _pairwise_cosine_distances(embeddings)
        if dist < distance_threshold
    ]
    edges.sort()

    uf = _UnionFind(embeddings.shape[0])
    for _, i, j in edges:
        uf.union(i, j)

    return assignment_from_roots([uf.find(i) for i in range(embeddings.shape[0])])


def assignment_from_roots(roots: list[int]) -> NodeAssignment:
    """Build a NodeAssignment from an arbitrary headline -> group-key list."""
    clusters: dict[int, list[int]] = {}
    for idx, root in enumerate(roots):
        clusters.setdefault(root, []).append(idx)
    ordered = sorted(clusters.values(), key=lambda members: members[0])
    node_of = np.empty(len(roots), dtype=np.int64)
    for node_id, members in enumerate(ordered):
        for idx in members:
            node_of[idx] = node_id
    return NodeAssignment(node_of=node_of, members_of=tuple(tuple(m) for m in ordered))
