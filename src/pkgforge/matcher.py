"""Segment-to-headline and segment-to-node scoring.

Scores are plain dot products between a segment feature and each headline
embedding, computed in f64. A node's score is the max over its member
headlines. Every ranking in the pipeline uses one tie rule: descending
score, then ascending id.
"""

from __future__ import annotations

import numpy as np

from .corpus_io import StepDatabase


def score_video(segments: np.ndarray, db: StepDatabase) -> np.ndarray:
    """(L, num_headlines) score matrix for all segments of one video."""
    segments = np.asarray(segments, dtype=np.float64)
    emb = db.embeddings
    if segments.shape[1] != emb.shape[1]:
        raise ValueError(
            f"segment dimension {segments.shape[1]} does not match database dimension {emb.shape[1]}"
        )
    return segments @ emb.T


def ranked_indices(scores: np.ndarray, candidates: np.ndarray) -> list[int]:
    """Candidate indices ordered by descending score, ties by ascending index."""
    order = np.lexsort((candidates, -scores[candidates]))
    return candidates[order].tolist()


def matched_headlines(scores: np.ndarray, match_threshold: float) -> list[int]:
    """Headline indices scoring strictly above the threshold, ranked."""
    candidates = np.nonzero(scores > match_threshold)[0]
    return ranked_indices(scores, candidates)


def node_scores_from_headlines(
    scores: np.ndarray, node_of: np.ndarray, num_nodes: int
) -> np.ndarray:
    """Aggregate headline scores to nodes by taking the member-wise max."""
    node_scores = np.full(num_nodes, -np.inf)
    np.maximum.at(node_scores, node_of, scores)
    return node_scores


def top_k_nodes(scores: np.ndarray, k: int) -> list[int]:
    """Up to k indices with the largest positive score, ranked.

    Only indices with score > 0 have any support and are considered. Only
    candidates scoring at least the k-th largest positive score can rank in
    the top k, ties included, so only those are sorted.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    scores = np.asarray(scores, dtype=np.float64)
    candidates = np.nonzero(scores > 0)[0]
    if candidates.size > k:
        values = scores[candidates]
        kth = np.partition(values, values.size - k)[values.size - k]
        candidates = candidates[values >= kth]
    return ranked_indices(scores, candidates)[:k]


# vsm ranks a segment's raw headline scores by the same rule vnm applies to
# its node scores; the two names keep the two label families apart
vsm_top_headlines = top_k_nodes
