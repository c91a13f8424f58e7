"""Segment-to-headline and segment-to-node scoring.

Scores are plain dot products between a segment feature and each headline
embedding, computed in f64. A node's score is the max over its member
headlines. Every ranking in the pipeline uses one tie rule: descending
score, then ascending id.

The label rankers take a block, one video's (segments, classes) score
matrix, and rank all of its rows with a few whole-block array operations,
so their cost is per video, not per segment.
"""

from __future__ import annotations

import numpy as np

from .corpus_io import Ragged, StepDatabase, row_offsets


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
    """(rows, num_nodes) node scores of a (rows, num_headlines) block: per row, each
    node's max over its member headlines. Every node has a member, as a graph's do.

    Each node's first member is gathered as one column, then one np.maximum folds in
    its r-th member for every node that has one, rank by rank, in headline order.
    """
    order = np.argsort(node_of, kind="stable")
    sizes = np.bincount(node_of, minlength=num_nodes)
    rank = np.arange(len(order)) - np.repeat(row_offsets(sizes)[:-1], sizes)
    node_scores = scores[:, order[rank == 0]]
    for r in range(1, int(sizes.max(initial=0))):
        members = order[rank == r]
        nodes = node_of[members]
        node_scores[:, nodes] = np.maximum(node_scores[:, nodes], scores[:, members])
    return node_scores


def top_k_nodes(scores: np.ndarray, k: int) -> Ragged:
    """Per row of a (rows, classes) block, up to k columns with the largest positive
    score, ranked, with their scores.

    Only columns with score > 0 have any support and are considered. Only those
    scoring at least the row's k-th largest score can rank in its top k, ties
    included, so one partition of the block bounds each row and only the columns
    it keeps are sorted.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    scores = np.asarray(scores, dtype=np.float64)
    # a score is positive exactly when it reaches the least positive f64
    bound = np.nextafter(0.0, 1.0)
    if scores.shape[1] > k:
        bound = np.maximum(np.partition(scores, -k, axis=1)[:, -k, None], bound)
    row, column = np.divmod(np.flatnonzero(scores >= bound), scores.shape[1])
    return Ragged(row_offsets(np.bincount(row, minlength=len(scores))), column,
                  scores[row, column]).ranked(k)


# vsm ranks a block's raw headline scores by the same rule vnm applies to
# its node scores; the two names keep the two label families apart
vsm_top_headlines = top_k_nodes
