"""Independent brute-force oracles the implementation is checked against.

These deliberately share no code with the package: connected components by
BFS, transition aggregation by naive dict accumulation, k-hop confidences
by exhaustive path enumeration, and Adam as a per-tensor loop over named
parameters.
"""

from collections import defaultdict, deque

import numpy as np


def cosine_distance(u: np.ndarray, v: np.ndarray) -> float:
    """1 - cos(u, v); both vectors must be nonzero and of equal dimension."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine distance undefined for zero-norm vectors")
    return 1.0 - float(np.dot(u, v)) / (nu * nv)


def components_partition(embeddings: np.ndarray, threshold: float) -> set[frozenset]:
    """Connected components of the sub-threshold cosine-distance graph."""
    n = embeddings.shape[0]
    unit = embeddings / np.linalg.norm(embeddings, axis=1, keepdims=True)
    dist = 1.0 - unit @ unit.T
    seen = [False] * n
    parts = set()
    for start in range(n):
        if seen[start]:
            continue
        group = []
        queue = deque([start])
        seen[start] = True
        while queue:
            i = queue.popleft()
            group.append(i)
            for j in range(n):
                if not seen[j] and dist[i, j] < threshold:
                    seen[j] = True
                    queue.append(j)
        parts.add(frozenset(group))
    return parts


def transitions_bruteforce(video_matches, instance_threshold: float):
    """Naive enumeration of adjacent-segment headline transition aggregates."""
    totals = defaultdict(float)
    for segments in video_matches:
        for i in range(len(segments) - 1):
            for hs, ss in segments[i]:
                for hd, sd in segments[i + 1]:
                    if hs != hd:
                        totals[(hs, hd)] += ss * sd
    return {pair: v for pair, v in totals.items() if v > instance_threshold}


def khop_bruteforce(edges, seeds, hops: int, direction: str):
    """Max path-product confidences via exhaustive DFS over exact-length paths."""
    adj = defaultdict(list)
    for src, dst, score in edges:
        if direction == "out":
            adj[src].append((dst, score))
        else:
            adj[dst].append((src, score))
    best = [dict() for _ in range(hops)]

    def dfs(node, depth, product):
        if depth > 0 and product > best[depth - 1].get(node, -1.0):
            best[depth - 1][node] = product
        if depth == hops:
            return
        for other, score in adj[node]:
            dfs(other, depth + 1, product * score)

    for seed in seeds:
        dfs(seed, 0, 1.0)
    return best


def adam_per_tensor(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0):
    """Adam over a dict of named tensors, one tensor at a time, in place.

    `state` is a dict holding "m" and "v" (name -> array, zeros at start)
    and the step count "t". The ufunc sequence per tensor is the one the
    flat-vector optimizer must reproduce bit for bit.
    """
    state["t"] += 1
    bc1 = 1.0 - beta1 ** state["t"]
    bc2 = 1.0 - beta2 ** state["t"]
    for name, p in params.items():
        g = grads[name]
        if weight_decay:
            g = g + weight_decay * p
        m = state["m"][name]
        v = state["v"][name]
        sc = np.empty_like(p)
        m *= beta1
        np.multiply(g, 1.0 - beta1, out=sc)
        m += sc
        v *= beta2
        np.multiply(g, g, out=sc)
        sc *= 1.0 - beta2
        v += sc
        np.divide(v, bc2, out=sc)
        np.sqrt(sc, out=sc)
        sc += eps
        np.divide(m, sc, out=sc)
        sc *= lr / bc1
        p -= sc
