"""Independent brute-force oracles the implementation is checked against.

These deliberately share no code with the package: connected components by
BFS, sub-threshold headline pairs by a per-pair loop, transition
aggregation by naive dict accumulation, k-hop confidences by exhaustive
path enumeration, Adam as a per-tensor loop over named parameters, BCE
over dense 0/1 targets with one exponential per sign branch, and dense
targets and batch positives filled one row at a time.

The one exception is the per-segment label path the labeler replaced
(`emit_labels_per_segment`): it keeps that path's own top-k ranking,
headline-level corpus counting, node scoring, per-step database walks and
record loop and nrl cut, reads vtm_db off the graph's members, unions
tcl_db over the per-step task walk and takes nrl's neighbors from
`khop_bruteforce`. It builds the package's `PseudoLabelSet` records and
calls no package label function. Like the package, it names database
tasks by their position in the database and corpus tasks by their column,
the sorted name order.

`save_step_database_json` and `load_step_database_json` are the
steps.jsonl layout with inline JSON embeddings that the binary steps.f64
matrix replaced; the loader stacks the inline rows into one matrix and builds
through `StepDatabase.from_tasks`, the package's one validating constructor.

The training references (`early_stopping_reference`, `train_reference` and
`train_downstream_reference`) are the two hand-written epoch loops that
`trainer.train` and `downstream.train_downstream` kept before both moved
onto `nn.fit`. They call the package's models, losses and Adam, which the
loop did not change; only the loop around them is under test.

`split_examples_reference` is the per-video, per-step example walk that
`downstream.build_downstream_dataset` replaced with row ranges of one
matrix; it assumes annotations the builder accepts.

`aggregate_reference` and `position_grads_reference` are the per-example
aggregate and positional-gradient loops that `DownstreamModel.forward` and
`backward` replaced with padded blocks; they read the model's positional
table and nothing else of it.

`adapter_f64_reference` is `trainer.apply_adapter` as it stood when the
adapter was cast to f64 on load: it reads the adapter's layers, casts each
to f64 and runs the affine-rectifier chain in plain numpy.

`gradient_check` is the finite-difference referee for the hand-derived
gradients: it perturbs the package's flat parameter vector and compares
the package's own loss against `trainer.model_loss_and_grads`.
"""

import json
from collections import defaultdict, deque

import numpy as np

from pkgforge import downstream, labeler, trainer
from pkgforge.corpus_io import StepDatabase, checkpoint_from_params
from pkgforge.nn import AdamState, adam_step, softmax_cross_entropy


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


def sub_threshold_pairs_reference(
    embeddings: np.ndarray, threshold: float
) -> list[tuple[int, int]]:
    """Every (i, j), i < j, whose cosine distance is strictly below threshold, one pair at a time.

    This is the per-pair generator dedup ran before its blockwise kernel.
    It takes its distances from the same blocks of 512 rows, so they are
    bit-identical to the package's, and pairs exactly at the threshold
    must come out the same.
    """
    norms = np.linalg.norm(embeddings, axis=1)
    unit = embeddings / norms[:, None]
    n = unit.shape[0]
    pairs = []
    for start in range(0, n, 512):
        stop = min(start + 512, n)
        sims = unit[start:stop] @ unit.T
        for local_i in range(stop - start):
            i = start + local_i
            row = 1.0 - sims[local_i]
            for j in range(i + 1, n):
                if float(row[j]) < threshold:
                    pairs.append((i, j))
    return pairs


def components_partition(embeddings: np.ndarray, threshold: float) -> set[frozenset]:
    """Connected components of the sub-threshold cosine-distance graph."""
    unit = embeddings / np.linalg.norm(embeddings, axis=1, keepdims=True)
    return adjacency_partition(1.0 - unit @ unit.T < threshold)


def adjacency_partition(adjacent: np.ndarray) -> set[frozenset]:
    """Connected components, by breadth-first search, of the graph whose
    (n, n) boolean matrix says which index reaches which."""
    n = adjacent.shape[0]
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
                if not seen[j] and adjacent[i, j]:
                    seen[j] = True
                    queue.append(j)
        parts.add(frozenset(group))
    return parts


def members_walk(node_of) -> list[tuple[int, ...]]:
    """Node id -> its headlines in ascending order, one headline at a time."""
    members_of = [[] for _ in range(max(node_of) + 1)]
    for h, node in enumerate(node_of):
        members_of[int(node)].append(h)
    return [tuple(members) for members in members_of]


def partition_of(node_of) -> set[frozenset]:
    """The headline partition a node_of array spells out, in components_partition's form.

    An unused id below the largest one shows up as an empty part.
    """
    return {frozenset(members) for members in members_walk(node_of)}


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


def adapter_f64_reference(adapter, features):
    """An adapter's output on f64 rows through its layers cast to f64 first."""
    x = np.asarray(features, dtype=np.float64)
    last = len(adapter.weights) - 1
    for i, (w, b) in enumerate(zip(adapter.weights, adapter.biases)):
        x = x @ w.astype(np.float64)
        x += b.astype(np.float64)
        if i < last:
            x = np.maximum(x, 0.0)
    return x


def mlp_backward_preactivation_mask(mlp, x, grad_out):
    """An Mlp's forward and backward as they stood when the cache kept every
    pre-activation beside its activation and backward masked on pre > 0.
    Returns (weight gradients, bias gradients, input gradient) as new arrays."""
    acts, pres = [x], []
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        pre = acts[-1] @ w + b
        pres.append(pre)
        acts.append(np.maximum(pre, 0.0) if i < mlp.n_layers - 1 else pre)
    weight_grads, bias_grads, g = [], [], grad_out
    for i in reversed(range(mlp.n_layers)):
        dpre = g if i == mlp.n_layers - 1 else g * (pres[i] > 0)
        weight_grads.insert(0, acts[i].T @ dpre)
        bias_grads.insert(0, dpre.sum(axis=0))
        g = dpre @ mlp.weights[i].T
    return weight_grads, bias_grads, g


def sigmoid_two_pass(x):
    """Logistic function as the trainer computed it before: one exp per sign branch."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus_two_pass(x):
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def bce_two_pass(logits, targets):
    """Multi-label BCE over dense 0/1 targets with separate sigmoid and softplus
    exponentials; (loss, dlogits). This is the dense formula the package computed
    before its BCE took positives, and the referee of the positive form."""
    loss = float(np.mean(softplus_two_pass(logits) - targets * logits))
    dlogits = (sigmoid_two_pass(logits) - targets) / logits.size
    return loss, dlogits


def gradient_check(model, x, positives, h=1e-5, n_coords=200, rng=None) -> float:
    """Max relative error between analytic and central-difference gradients.

    Samples n_coords coordinates of the model's flat parameter vector. The
    denominator is floored at 1e-3 so coordinates with (near-)zero true
    gradient are judged on the absolute scale where finite differences are
    trustworthy.
    """
    rng = rng or np.random.default_rng(0)
    _, grads = trainer.model_loss_and_grads(model, x, positives)
    params = model.params
    picks = rng.choice(params.size, size=min(n_coords, params.size), replace=False)

    worst = 0.0
    for i in sorted(int(p) for p in picks):
        saved = params[i]
        params[i] = saved + h
        plus = trainer.model_loss(model, x, positives)
        params[i] = saved - h
        minus = trainer.model_loss(model, x, positives)
        params[i] = saved
        fd = (plus - minus) / (2.0 * h)
        an = float(grads[i])
        if abs(fd) < 1e-12 and abs(an) < 1e-12:
            continue
        worst = max(worst, abs(fd - an) / max(abs(fd) + abs(an), 1e-3))
    return worst


def dense_targets_per_row(index_lists, rows, n_classes):
    """Dense 0/1 targets for the selected rows, one fancy assignment per row."""
    dense = np.zeros((len(rows), n_classes))
    for out_row, idx in enumerate(rows):
        ids = np.asarray(index_lists[idx], dtype=np.int64)
        if ids.size:
            dense[out_row, ids] = 1.0
    return dense


def positives_per_row(csr, rows):
    """The selected rows' (row in the selection, class id) pairs, one row at a time."""
    out_rows, ids = [], []
    for out_row, r in enumerate(rows):
        row_ids = csr.ids[csr.indptr[r] : csr.indptr[r + 1]].tolist()
        out_rows += [out_row] * len(row_ids)
        ids += row_ids
    return np.array(out_rows, dtype=np.int64), np.array(ids, dtype=np.int64)


# ---------------------------------------------------------------------------
# the per-segment label path


def top_k_full_sort(scores, k):
    """Up to k indices with the largest positive score, by a lexsort of every candidate."""
    scores = np.asarray(scores, dtype=np.float64)
    candidates = np.nonzero(scores > 0)[0]
    order = np.lexsort((candidates, -scores[candidates]))
    return [int(candidates[i]) for i in order][:k]


def vtm_db_per_segment(vnm_nodes, graph, task_position):
    """Positions of the tasks that own a member of any matched node, in database order."""
    return sorted({task_position[task_id] for nid in vnm_nodes
                   for task_id, _, _ in graph.nodes[nid].members})


def vtm_corpus_per_segment(vnm_nodes, counts, task_names, members_of, k):
    """Top-k corpus task columns by summed member-headline occurrence, ties by name."""
    if counts.shape[1] == 0 or not vnm_nodes:
        return []
    totals = np.zeros(counts.shape[1], dtype=np.int64)
    for nid in vnm_nodes:
        for h in members_of[nid]:
            totals += counts[h]
    ranked = sorted(
        (i for i in range(len(totals)) if totals[i] > 0),
        key=lambda i: (-totals[i], task_names[i]),
    )
    return ranked[:k]


def tcl_corpus_per_segment(vtm_columns, counts, members_of, k):
    """Per corpus task column, recount node occurrences and keep the top-k nonzero; unioned."""
    out = set()
    for c in vtm_columns:
        col = counts[:, c]
        node_counts = [int(sum(col[h] for h in members)) for members in members_of]
        ranked = sorted(
            (n for n in range(len(members_of)) if node_counts[n] > 0),
            key=lambda n: (-node_counts[n], n),
        )
        out.update(ranked[:k])
    return sorted(out)


def tcl_db_per_segment(vtm_db, tasks_of):
    """Union of the nodes each matched task's own steps map to, sorted."""
    return sorted(set().union(*(tasks_of[task] for task in vtm_db)))


def nrl_per_segment(ids, graph, nrl_top_per_hop):
    """Each direction's hop-k neighbors of ids, fully sorted, cut at nrl_top_per_hop[k - 1]."""
    edges = [(e.src, e.dst, e.score) for e in graph.edges]
    return {direction: [sorted(conf.items(), key=lambda item: (-item[1], item[0]))[:top]
                        for top, conf in zip(nrl_top_per_hop, khop_bruteforce(
                            edges, ids, len(nrl_top_per_hop), direction))]
            for direction in ("in", "out")}


def emit_labels_per_segment(corpus, db, graph, vnm_k, vtm_corpus_k, tcl_corpus_k, vsm_k,
                            nrl_top_per_hop):
    """Records as the labeler built them before: every family derived per segment."""
    node_of, members_of = assignment_walk(graph, db)
    tasks_of = task_node_map_walk(db, node_of)
    task_position = {task.task_id: i for i, task in enumerate(db.tasks)}
    segment_vnm, segment_vsm, video_of_segment = [], [], []
    for vi, video in enumerate(corpus.videos):
        if not video.segments.shape[0]:
            continue
        for row in np.asarray(video.segments, dtype=np.float64) @ db.embeddings.T:
            node_scores = np.array([max(row[h] for h in members) for members in members_of])
            ids = top_k_full_sort(node_scores, vnm_k)
            segment_vnm.append([(nid, float(node_scores[nid])) for nid in ids])
            segment_vsm.append([(h, float(row[h])) for h in top_k_full_sort(row, vsm_k)])
            video_of_segment.append(vi)
    counts, task_names, _ = occurrence_per_headline(
        [[nid for nid, _ in vnm] for vnm in segment_vnm],
        [v.corpus_task_name for v in corpus.videos],
        video_of_segment,
        members_of,
        db.num_headlines,
    )
    records = []
    cursor = 0
    for video in corpus.videos:
        for seg_idx in range(video.segments.shape[0]):
            vnm = segment_vnm[cursor]
            ids = [nid for nid, _ in vnm]
            vtm_db = vtm_db_per_segment(ids, graph, task_position)
            vtm_corpus = vtm_corpus_per_segment(
                ids, counts, task_names, members_of, vtm_corpus_k
            )
            records.append(
                labeler.PseudoLabelSet(
                    video_id=video.video_id,
                    segment_index=seg_idx,
                    vnm=vnm,
                    vtm_db=vtm_db,
                    vtm_corpus=vtm_corpus,
                    tcl_db=tcl_db_per_segment(vtm_db, tasks_of),
                    tcl_corpus=tcl_corpus_per_segment(
                        vtm_corpus, counts, members_of, tcl_corpus_k
                    ),
                    nrl=nrl_per_segment(ids, graph, nrl_top_per_hop),
                    vsm=segment_vsm[cursor],
                )
            )
            cursor += 1
    return records


# ---------------------------------------------------------------------------
# the inline-JSON steps.jsonl layout the steps.f64 matrix replaced


def save_step_database_json(db, path):
    """One task per line, each step's embedding inline as JSON numbers (shortest repr)."""
    with open(path, "w", encoding="utf-8") as fh:
        for task in db.tasks:
            steps = zip(db.headlines[task.start : task.stop], db.embeddings[task.start : task.stop])
            rec = {
                "task_id": task.task_id,
                "task_name": task.task_name,
                "steps": [{"headline": h, "embedding": row.tolist()} for h, row in steps],
            }
            fh.write(json.dumps(rec, separators=(",", ":"), allow_nan=False) + "\n")


def load_step_database_json(path):
    """Parse the inline layout back through the package's one validating constructor."""
    tasks, rows = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            tasks.append((rec["task_id"], rec["task_name"], [s["headline"] for s in rec["steps"]]))
            rows.extend(s["embedding"] for s in rec["steps"])
    return StepDatabase.from_tasks(tasks, np.array(rows, dtype=np.float64), str(path))


# ---------------------------------------------------------------------------
# the per-step walks the step database's task ranges replaced


def headline_index_walk(db):
    """Global headline index -> (task position, step position), counting steps one by one."""
    out = []
    for ti, task in enumerate(db.tasks):
        out.extend((ti, si) for si in range(task.stop - task.start))
    return out


def database_transitions_walk(db, node_of):
    """Node pairs of adjacent steps within each task, deduplicated, self pairs dropped."""
    pairs = set()
    hidx = 0
    for task in db.tasks:
        n_steps = task.stop - task.start
        ids = [int(node_of[hidx + si]) for si in range(n_steps)]
        hidx += n_steps
        for a, b in zip(ids, ids[1:]):
            if a != b:
                pairs.add((a, b))
    return sorted(pairs)


def task_node_map_walk(db, node_of):
    """Per task, in database order, the sorted node ids of the task's own steps."""
    out = []
    hidx = 0
    for task in db.tasks:
        n_steps = task.stop - task.start
        out.append(tuple(sorted({int(node_of[hidx + si]) for si in range(n_steps)})))
        hidx += n_steps
    return out


def assignment_walk(graph, db):
    """(node_of, members_of) of the headline partition a graph's members spell out.

    Nodes keep the ids the graph gives them: members_of[node_id] lists that
    node's headlines in ascending order.
    """
    pos = {}
    for hidx, (ti, si) in enumerate(headline_index_walk(db)):
        pos[(db.tasks[ti].task_id, si)] = hidx
    node_of = [0] * len(pos)
    for node in graph.nodes:
        for task_id, step_index, _ in node.members:
            node_of[pos[(task_id, step_index)]] = node.node_id
    return node_of, members_walk(node_of)


def occurrence_per_headline(
    segment_vnm, video_task_names, video_of_segment, members_of, num_headlines
):
    """Headline x corpus-task counts, one member headline of a matched node at a time.

    Returns the counts, the sorted task names (the column order) and the
    number of videos without a task name, whose segments are skipped.
    """
    names = sorted({n for n in video_task_names if n is not None})
    counts = np.zeros((num_headlines, len(names)), dtype=np.int64)
    for nodes, vi in zip(segment_vnm, video_of_segment):
        if video_task_names[vi] is None:
            continue
        col = names.index(video_task_names[vi])
        for nid in nodes:
            for h in members_of[nid]:
                counts[h, col] += 1
    return counts, names, sum(n is None for n in video_task_names)


def summed_per_node(counts, members_of):
    """Headline-level counts summed over each node's members."""
    out = np.zeros((len(members_of), counts.shape[1]), dtype=np.int64)
    for nid, members in enumerate(members_of):
        for h in members:
            out[nid] += counts[h]
    return out


# ---------------------------------------------------------------------------
# the two early-stopping loops nn.fit replaced


def early_stopping_reference(params, n_train, batch_size, max_epochs, patience, rng, step,
                             validate):
    """trainer.train's loop with the batch work and the held-out score passed in.

    Returns (train losses, validation scores, best epoch, best score).
    """
    best_val = np.inf
    best = params.copy()
    best_epoch = 0
    stall = 0
    history = {"train_loss": [], "val_loss": []}

    batch = min(batch_size, n_train)
    for epoch in range(max_epochs):
        order = rng.permutation(n_train)
        epoch_loss = 0.0
        for start in range(0, order.size, batch):
            rows = order[start : start + batch]
            epoch_loss += step(rows) * rows.size
        history["train_loss"].append(epoch_loss / order.size)

        if validate is not None:
            val_loss = validate()
            history["val_loss"].append(val_loss)
            if val_loss < best_val:
                best_val = val_loss
                np.copyto(best, params)
                best_epoch = epoch
                stall = 0
            else:
                stall += 1
                if stall > patience:
                    break
        else:
            np.copyto(best, params)
            best_epoch = epoch
    params[...] = best
    return history["train_loss"], history["val_loss"], best_epoch, best_val


def train_reference(features, video_of, header, targets, config, config_hash=None):
    """trainer.train as it stood with its own epoch loop."""
    features = np.asarray(features, dtype=np.float64)
    n, dim = features.shape
    specs = trainer.head_specs_from_header(header, config.objectives, config.nrl_hops)

    rng = np.random.default_rng(config.seed)
    model = trainer.PaprikaModel.build(dim, specs, config.bottleneck, rng)
    params = model.params
    adam = AdamState.for_params(params)

    videos = np.unique(video_of)
    n_val_videos = int(round(config.val_fraction * videos.size))
    if 0 < n_val_videos < videos.size:
        shuffled = rng.permutation(videos)
        val_videos = set(shuffled[:n_val_videos].tolist())
        val_idx = np.nonzero([v in val_videos for v in video_of])[0]
        train_idx = np.nonzero([v not in val_videos for v in video_of])[0]
    else:
        train_idx = np.arange(n)
        val_idx = np.zeros(0, dtype=np.int64)

    best_val = np.inf
    best = params.copy()
    best_epoch = 0
    stall = 0
    history = {"train_loss": [], "val_loss": []}

    batch = min(config.batch_size, train_idx.size)
    for epoch in range(config.max_epochs):
        order = train_idx[rng.permutation(train_idx.size)]
        epoch_loss = 0.0
        for start in range(0, order.size, batch):
            rows = order[start : start + batch]
            positives = {s.name: positives_per_row(targets[s.name], rows) for s in specs}
            loss, grads = trainer.model_loss_and_grads(model, features[rows], positives)
            adam_step(params, grads, adam, lr=config.learning_rate)
            epoch_loss += loss * rows.size
        history["train_loss"].append(epoch_loss / order.size)

        if val_idx.size:
            val_loss = trainer._dataset_loss(model, features, targets, val_idx)
            history["val_loss"].append(val_loss)
            if val_loss < best_val:
                best_val = val_loss
                np.copyto(best, params)
                best_epoch = epoch
                stall = 0
            else:
                stall += 1
                if stall > config.patience:
                    break
        else:
            np.copyto(best, params)
            best_epoch = epoch

    metadata = {
        "dim": dim,
        "bottleneck": config.bottleneck,
        "heads": {s.name: s.n_classes for s in specs},
        "head_kinds": {s.name: s.kind for s in specs},
        "objectives": list(config.objectives),
        "nrl_hops": config.nrl_hops,
        "seed": config.seed,
        "config_hash": config_hash,
        "best_epoch": best_epoch,
        "best_val_loss": None if not val_idx.size else best_val,
    }
    return checkpoint_from_params(best, model.shapes(), metadata), history


def split_examples_reference(corpus, annotations, kind, config, transform=None):
    """{split: [(feature block, label), ...]} in the order the old builder made them."""
    by_id = {v.video_id: v for v in corpus.videos}
    order = np.random.default_rng(config.seed).permutation(len(annotations))
    n_train = int(round(config.train_fraction * len(annotations)))
    n_val = int(round(config.val_fraction * len(annotations)))
    out = {"train": [], "val": [], "test": []}
    for rank, ann_idx in enumerate(order):
        ann = annotations[ann_idx]
        feats = by_id[ann.video_id].segments
        if transform is not None:
            feats = transform(feats)
        if kind == "TR":
            examples = [(feats, ann.task_class)]
        elif kind == "SR":
            examples = [(feats[s.start : s.end], s.step_class)
                        for s in ann.steps if s.end > s.start]
        else:
            examples = [(feats[: s.start], s.step_class) for s in ann.steps[1:] if s.start > 0]
        split = "train" if rank < n_train else "val" if rank < n_train + n_val else "test"
        out[split].extend(examples)
    return out


def aggregate_reference(positions, examples):
    """Each example's mean of its rows plus the leading positional vectors, one at a time."""
    return np.stack([
        (examples.features[start : start + length] + positions[:length]).mean(axis=0)
        for start, length in zip(examples.start, examples.length)
    ])


def position_grads_reference(positions, examples, dagg):
    """The positional-table gradient, accumulated one example at a time in dagg's dtype."""
    dpos = np.zeros_like(positions)
    for row, length in enumerate(examples.length):
        dpos[:length] += dagg[row] / dagg.dtype.type(length)
    return dpos


def train_downstream_reference(splits, dim, config):
    """downstream.train_downstream as it stood with its own epoch loop."""
    rng = np.random.default_rng(config.seed)
    model = downstream.DownstreamModel(dim, splits.n_classes, splits.kind, config, rng)
    params = model.params
    adam = AdamState.for_params(params)

    best_acc = -1.0
    best = params.copy()
    stall = 0
    history = {"train_loss": [], "val_accuracy": []}
    batch_size = min(config.batch_size, len(splits.train))

    for epoch in range(config.max_epochs):
        order = rng.permutation(len(splits.train))
        epoch_loss = 0.0
        for start in range(0, order.size, batch_size):
            batch = splits.train[order[start : start + batch_size]]
            logits, cache = model.forward(batch)
            loss, dlogits = softmax_cross_entropy(logits, batch.label)
            grads = model.backward(batch, cache, dlogits)
            adam_step(
                params,
                grads,
                adam,
                lr=config.learning_rate,
                weight_decay=config.weight_decay,
            )
            epoch_loss += loss * len(batch)
        history["train_loss"].append(epoch_loss / len(splits.train))

        if splits.val:
            acc = downstream.evaluate(model, splits.val)
            history["val_accuracy"].append(acc)
            if acc > best_acc:
                best_acc = acc
                np.copyto(best, params)
                stall = 0
            else:
                stall += 1
                if stall > config.patience:
                    break
        else:
            np.copyto(best, params)

    params[...] = best
    return model, history
