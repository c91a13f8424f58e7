"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines as they complete. Criteria 7 and 8 train real models on the
default synthetic world and dominate the suite's runtime.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from pkgforge import downstream as ds
from pkgforge import graph as G
from pkgforge import labeler, synthgen, trainer
from pkgforge.cli import main as cli_main
from pkgforge.config import PipelineConfig, synthetic_preset
from pkgforge.corpus_io import (
    Ragged,
    load_checkpoint,
    load_segment_corpus,
    load_step_database,
    read_feature_file,
    save_checkpoint,
    save_segment_corpus,
    save_step_database,
    write_feature_file,
)
from pkgforge.dedup import cluster_headlines
from pkgforge.nn import bce_with_logits
from pkgforge.synthgen import graph_recovery_metrics, implied_min_support

from builders import (
    labels_from_records, random_checkpoint, random_corpus, random_database, random_graph,
    row_targets,
)
from oracles import (
    components_partition, gradient_check, khop_bruteforce, partition_of, transitions_bruteforce,
)

FIXED_SEEDS = (1, 2, 3, 4, 5)

# desk-scale training schedule for the representation-gain runs: the
# world, data flow, and model shapes are the defaults; only the step
# budget is compressed so both adapters train to convergence in minutes
PRETRAIN_LR = 1e-3
PRETRAIN_EPOCHS = 60
DOWNSTREAM_EPOCHS = 30
ALL_OBJECTIVES = ("vnm", "vtm_db", "vtm_corpus", "tcl_db", "tcl_corpus", "nrl")


def _report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_clustering_oracle():
    elapsed = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 65))
        dim = int(rng.integers(2, 8))
        if seed % 2:
            emb = rng.normal(size=(n, dim))
        else:  # clustered case: a few centers plus angular jitter
            centers = rng.normal(size=(int(rng.integers(1, 6)), dim))
            emb = centers[rng.integers(0, centers.shape[0], size=n)]
            emb = emb + 0.05 * rng.normal(size=(n, dim))
        emb[np.linalg.norm(emb, axis=1) == 0.0] += 1.0
        threshold = float(rng.uniform(0.02, 0.8))
        start = time.monotonic()
        node_of = cluster_headlines(emb, threshold)
        elapsed += time.monotonic() - start
        got = partition_of(node_of)
        want = components_partition(emb, threshold)
        assert got == want, f"partition mismatch at seed {seed}"
    _report(
        "criterion 1 (clustering oracle)",
        elapsed < 5.0,
        f"100/100 partitions exact, clustering time {elapsed:.2f}s < 5s",
    )


def test_criterion_02_edge_scoring_oracle():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        videos = []
        for _ in range(int(rng.integers(1, 11))):
            segments = []
            for _ in range(int(rng.integers(1, 9))):
                k = int(rng.integers(0, 5))
                heads = rng.choice(14, size=k, replace=False)
                segments.append([(int(h), float(rng.uniform(8.0, 25.0))) for h in heads])
            videos.append(segments)
        threshold = float(rng.uniform(0.0, 600.0))
        got = G.corpus_transitions(videos, threshold)
        want = transitions_bruteforce(videos, threshold)
        assert set(got) == set(want), f"pair set mismatch at seed {seed}"
        for pair in got:
            worst = max(worst, abs(got[pair] - want[pair]))
    _report(
        "criterion 2 (edge-scoring oracle)",
        worst <= 1e-9,
        f"50/50 corpora agree, max |difference| {worst:.2e} <= 1e-9",
    )


def test_criterion_03_normalization_properties():
    checked = 0
    for seed in range(1000):
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(1, 41))
        if seed % 10 == 0:  # degenerate: one distinct value
            values = np.full(n, float(np.exp(rng.uniform(0, 12))))
        else:
            values = np.exp(rng.uniform(0, 12, size=n))
        aggregates = {(i, i + 1): float(v) for i, v in enumerate(values)}
        got = G.normalize_scores(aggregates)
        assert all(0.0 <= v <= 1.0 for v in got.values())
        lo = min(values)
        hi = max(values)
        if lo == hi:
            assert all(v == 1.0 for v in got.values())
        else:
            assert got[min(aggregates, key=aggregates.get)] == 0.0
            assert got[max(aggregates, key=aggregates.get)] == 1.0
            ranked = sorted(aggregates, key=aggregates.get)
            for a, b in zip(ranked, ranked[1:]):
                if aggregates[a] < aggregates[b]:
                    assert got[a] < got[b], "order not strictly preserved"
        checked += 1
    _report(
        "criterion 3 (normalization properties)",
        checked == 1000,
        "1000/1000 random inputs satisfy range, endpoint, and order properties",
    )


def test_criterion_04_nrl_khop_oracle():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(3000 + seed)
        n = int(rng.integers(2, 26))
        density = float(rng.uniform(0.02, 0.3))
        edges = [
            (s, d, float(rng.uniform(0.01, 1.0)))
            for s in range(n)
            for d in range(n)
            if s != d and rng.random() < density
        ]
        nodes = [G.StepNode(i, (("t", i, f"h{i}"),)) for i in range(n)]
        pkg = G.ProceduralKnowledgeGraph(
            nodes=nodes, edges=[G.DirectedEdge(s, d, w, ("corpus",)) for s, d, w in edges]
        )
        n_seeds = int(rng.integers(1, min(4, n + 1)))
        seeds = [int(s) for s in rng.choice(n, size=n_seeds, replace=False)]
        hops = int(rng.integers(1, 4))
        for direction in ("in", "out"):
            # one seed set, as a one-row CSR; each hop's result is read off its row 0
            got = [dict(hop.lists()[0])
                   for hop in G.khop_neighbors(pkg, Ragged.from_lists([seeds]), hops, direction)]
            want = khop_bruteforce(edges, seeds, hops, direction)
            for k in range(hops):
                assert set(got[k]) == set(want[k]), f"hop {k + 1} node set, seed {seed}"
                for node, conf in got[k].items():
                    worst = max(worst, abs(conf - want[k][node]))
    _report(
        "criterion 4 (k-hop oracle)",
        worst <= 1e-9,
        f"100/100 graphs agree in both directions, max |difference| {worst:.2e} <= 1e-9",
    )


def test_criterion_05_gradient_check():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(4000 + seed)
        dim = int(rng.integers(4, 25))
        specs = [trainer.HeadSpec("vnm", trainer.NODE_STYLE, int(rng.integers(5, 41)))]
        if seed % 2:
            specs.append(trainer.HeadSpec("vtm_db", trainer.TASK_STYLE, int(rng.integers(3, 21))))
        if seed % 3 == 0:
            specs.append(trainer.HeadSpec("nrl_out_1", trainer.NODE_STYLE, int(rng.integers(5, 31))))
        model = trainer.PaprikaModel.build(dim, specs, bottleneck=int(rng.integers(6, 33)), rng=rng)
        batch = int(rng.integers(2, 7))
        x = rng.normal(size=(batch, dim))
        positives = {s.name: np.nonzero(rng.random(size=(batch, s.n_classes)) < 0.3)
                     for s in specs}
        err = gradient_check(model, x, positives, h=1e-5, n_coords=200, rng=rng)
        worst = max(worst, err)
    _report(
        "criterion 5 (gradient check)",
        worst < 1e-4,
        f"20/20 configurations, max relative error {worst:.2e} < 1e-4",
    )


def test_criterion_06_overfit_sanity():
    rng = np.random.default_rng(0)
    dim, n_nodes = 64, 180
    header = {
        "num_nodes": n_nodes,
        "task_ids": [f"t{i}" for i in range(20)],
        "corpus_task_names": [f"c{i}" for i in range(20)],
        "num_headlines": 2 * n_nodes,
        "nrl_hops": 2,
    }
    features = rng.normal(size=(1, dim)) * 3.0
    config = trainer.TrainConfig(max_epochs=2000, val_fraction=0.0, seed=0)
    targets = row_targets({
        "vnm": [np.array([0, 3, 7])],
        "vtm_db": [np.array([1])],
        "vtm_corpus": [np.array([0])],
        "tcl_db": [np.sort(rng.choice(n_nodes, size=12, replace=False))],
        "nrl_in_1": [np.array([5, 9, 11])],
        "nrl_out_1": [np.array([8, 9])],
    })
    _, history = trainer.train(features, np.zeros(1, dtype=int), header, targets, config)
    losses = history["train_loss"]
    hit = next((i + 1 for i, l in enumerate(losses) if l < 0.01), None)
    _report(
        "criterion 6 (overfit sanity)",
        hit is not None and hit <= 2000,
        f"single-sample loss < 0.01 after {hit} steps at default hyperparameters",
    )


def test_criterion_07_synthetic_graph_recovery():
    start = time.monotonic()
    passing = 0
    details = []
    for seed in FIXED_SEEDS:
        cfg = synthetic_preset(seed=seed, noise="low")
        truth, db, corpus = synthgen.generate(cfg.world)
        pkg = G.build_graph(
            db,
            corpus,
            dedup_threshold=cfg.dedup_threshold,
            match_threshold=cfg.match_threshold,
            instance_threshold=cfg.instance_threshold,
        )
        support = implied_min_support(cfg.instance_threshold, cfg.world.feature_scale)
        m = graph_recovery_metrics(pkg, db, truth, min_support=support)
        ok = (
            m["edge_recall"] >= 0.90
            and m["edge_precision"] >= 0.90
            and m["node_purity"] >= 0.95
        )
        passing += ok
        details.append(f"seed {seed}: P={m['edge_precision']:.3f} R={m['edge_recall']:.3f}")

    # zero-noise exactness, every seed
    for seed in FIXED_SEEDS:
        cfg = synthetic_preset(seed=seed, noise="zero")
        truth, db, corpus = synthgen.generate(cfg.world)
        pkg = G.build_graph(
            db,
            corpus,
            dedup_threshold=cfg.dedup_threshold,
            match_threshold=cfg.match_threshold,
            instance_threshold=cfg.instance_threshold,
        )
        support = implied_min_support(cfg.instance_threshold, cfg.world.feature_scale)
        m = graph_recovery_metrics(pkg, db, truth, min_support=support)
        assert m["edge_recall"] == 1.0, f"zero-noise recall {m['edge_recall']} at seed {seed}"
        assert m["node_purity"] == 1.0, f"zero-noise purity {m['node_purity']} at seed {seed}"

    elapsed = time.monotonic() - start
    _report(
        "criterion 7 (synthetic graph recovery)",
        passing >= 4 and elapsed < 120.0,
        f"{passing}/5 noisy seeds pass ({'; '.join(details)}); "
        f"zero-noise exact on all seeds; {elapsed:.1f}s < 120s",
    )


def _pretrained_transform(cfg, header, labels, features, video_of, objectives, nrl_hops=1):
    tc = cfg.train
    tc.learning_rate = PRETRAIN_LR
    tc.max_epochs = PRETRAIN_EPOCHS
    tc.patience = 10
    tc.objectives = objectives
    tc.nrl_hops = nrl_hops
    specs = trainer.head_specs_from_header(header, tc.objectives, tc.nrl_hops)
    targets = trainer.targets_from_labels(labels, specs)
    ckpt, _ = trainer.train(features, video_of, header, targets, tc)
    adapter = trainer.adapter_from_checkpoint(ckpt)
    return lambda f: trainer.apply_adapter(adapter, f)


@pytest.mark.slow
def test_criterion_08_representation_gain():
    gain_seeds = 0
    order_seeds = 0
    rows = []
    for seed in FIXED_SEEDS:
        cfg = synthetic_preset(seed=seed, noise="low")
        truth, db, corpus = synthgen.generate(cfg.world)
        pkg = G.build_graph(
            db,
            corpus,
            dedup_threshold=cfg.dedup_threshold,
            match_threshold=cfg.match_threshold,
            instance_threshold=cfg.instance_threshold,
        )
        header, labels = labeler.emit_labels(corpus, db, pkg)
        features = np.vstack([v.segments for v in corpus.videos])
        video_of = np.concatenate(
            [np.full(v.segments.shape[0], i) for i, v in enumerate(corpus.videos)]
        )
        transforms = {
            "raw": None,
            "all": _pretrained_transform(
                cfg, header, labels, features, video_of, ALL_OBJECTIVES, nrl_hops=2
            ),
            "vnm": _pretrained_transform(
                cfg, header, labels, features, video_of, ("vnm",)
            ),
        }
        dcfg = cfg.downstream
        dcfg.max_epochs = DOWNSTREAM_EPOCHS
        dcfg.patience = 8
        accs = {}
        for name, transform in transforms.items():
            splits = ds.build_downstream_dataset(
                corpus, truth.annotations, ds.STEP_RECOGNITION, dcfg, transform=transform
            )
            model, _ = ds.train_downstream(splits, cfg.world.dim, dcfg)
            accs[name] = ds.evaluate(model, splits.test)
        gain_seeds += accs["all"] > accs["raw"]
        order_seeds += accs["all"] >= accs["vnm"]
        rows.append(
            f"seed {seed}: raw={accs['raw']:.3f} all={accs['all']:.3f} vnm={accs['vnm']:.3f}"
        )
        print(f"  {rows[-1]}")
    _report(
        "criterion 8 (representation gain)",
        gain_seeds >= 4 and order_seeds >= 3,
        f"adapter>raw on {gain_seeds}/5 seeds, all-objectives>=vnm-only on {order_seeds}/5 seeds",
    )


def test_criterion_09_cli_determinism(tmp_path):
    config = {
        "seed": 0,
        "instance_threshold": 50.0,
        "world": {
            "n_tasks": 3,
            "steps_per_task": [3, 4],
            "n_shared_steps": 1,
            "n_videos": 8,
            "segments_per_step": [1, 2],
            "dim": 16,
            "signal_dim": 12,
            "noise_sigma": 0.1,
            "style_sigma": 1.0,
            "gain_jitter": 0.05,
            "paraphrase_count": 2,
        },
        "train": {"max_epochs": 2, "objectives": ["vnm", "vtm_db"], "val_fraction": 0.25},
        "downstream": {
            "max_epochs": 2, "patience": 5, "hidden_sr": 16, "hidden_tr": 8,
            "max_positions": 32,
        },
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))

    def run_stage(argv):
        assert cli_main([str(a) for a in argv]) == 0

    digests = []
    for attempt, threads in ((0, 1), (1, 4)):
        root = tmp_path / f"run{attempt}"
        world = root / "world"
        run_stage(["synth", "--config", config_path, "--out", world, "--threads", threads])
        run_stage(
            ["build-graph", "--config", config_path, "--world", world,
             "--out", root / "graph.json", "--threads", threads]
        )
        run_stage(
            ["labels", "--config", config_path, "--world", world,
             "--graph", root / "graph.json", "--out", root / "labels.jsonl",
             "--threads", threads]
        )
        run_stage(
            ["pretrain", "--config", config_path, "--world", world,
             "--labels", root / "labels.jsonl", "--out", root / "model.pkgc",
             "--threads", threads]
        )
        run_stage(
            ["eval", "--config", config_path, "--world", world,
             "--checkpoint", root / "model.pkgc", "--task", "SR", "--features", "both",
             "--out", root / "report.json", "--threads", threads]
        )
        run_stage(
            ["graph-stats", "--graph", root / "graph.json", "--out", root / "stats.json",
             "--dot", root / "graph.dot", "--threads", threads]
        )
        digest = {}
        for path in sorted(root.rglob("*")):
            if path.is_file():
                digest[str(path.relative_to(root))] = hashlib.sha256(
                    path.read_bytes()
                ).hexdigest()
        digests.append(digest)
    _report(
        "criterion 9 (CLI determinism)",
        digests[0] == digests[1],
        f"{len(digests[0])} artifact files byte-identical across reruns with "
        "--threads 1 vs --threads 4",
    )


def test_criterion_10_format_round_trips(tmp_path):
    checked = 0

    for seed in range(20):
        rng = np.random.default_rng(5000 + seed)

        # steps.jsonl + steps.f64
        db = random_database(rng)
        p1, p2 = tmp_path / f"s{seed}a.jsonl", tmp_path / f"s{seed}b.jsonl"
        save_step_database(db, p1)
        save_step_database(load_step_database(p1), p2)
        for suffix in (".jsonl", ".f64"):
            assert p1.with_suffix(suffix).read_bytes() == p2.with_suffix(suffix).read_bytes()

        # manifest.jsonl + segments.f32
        corpus = random_corpus(rng, dim=4, n_videos=int(rng.integers(1, 4)))
        d1, d2 = tmp_path / f"c{seed}a", tmp_path / f"c{seed}b"
        m1 = save_segment_corpus(corpus, d1)
        m2 = save_segment_corpus(load_segment_corpus(m1), d2)
        for name in ("manifest.jsonl", "segments.f32"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

        # graph.json
        pkg = random_graph(rng)
        g1, g2 = tmp_path / f"g{seed}a.json", tmp_path / f"g{seed}b.json"
        G.save_graph(pkg, g1)
        G.save_graph(G.load_graph(g1), g2)
        assert g1.read_bytes() == g2.read_bytes()

        # labels.jsonl + labels.f64
        n_nodes = pkg.num_nodes
        header = {
            "kind": "pkgforge-labels",
            "config_hash": "feed",
            "num_videos": 1,
            "num_segments": 3,
            "num_nodes": n_nodes,
            "num_headlines": n_nodes,
            "task_ids": ["t0", "t1"],
            "corpus_task_names": ["a"],
            "nrl_hops": 2,
            "skipped_unnamed_videos": 0,
        }
        records = [
            labeler.PseudoLabelSet(
                video_id="v0",
                segment_index=i,
                vnm=[(int(n), float(rng.uniform(1, 20))) for n in rng.choice(n_nodes, 2, replace=False)],
                vtm_db=[0],
                vtm_corpus=[0],
                tcl_db=sorted(int(n) for n in rng.choice(n_nodes, 2, replace=False)),
                tcl_corpus=[0],
                nrl={
                    "in": [[(0, float(rng.uniform(0.1, 1.0)))], []],
                    "out": [[(1, float(rng.uniform(0.1, 1.0)))], []],
                },
                vsm=[(0, float(rng.uniform(1, 20)))],
            )
            for i in range(3)
        ]
        l1, l2 = tmp_path / f"l{seed}a.jsonl", tmp_path / f"l{seed}b.jsonl"
        labeler.save_labels(header, labels_from_records(records, 2), l1)
        h2, loaded = labeler.load_labels(l1)
        labeler.save_labels(h2, loaded, l2)
        for suffix in (".jsonl", ".f64"):
            assert l1.with_suffix(suffix).read_bytes() == l2.with_suffix(suffix).read_bytes()

        # checkpoint
        ckpt = random_checkpoint(rng)
        k1, k2 = tmp_path / f"k{seed}a.pkgc", tmp_path / f"k{seed}b.pkgc"
        save_checkpoint(ckpt, k1)
        save_checkpoint(load_checkpoint(k1), k2)
        assert k1.read_bytes() == k2.read_bytes()

        checked += 1

    # binary feature format round-trips on its own as well
    for seed in range(20):
        rng = np.random.default_rng(6000 + seed)
        data = rng.normal(size=(int(rng.integers(1, 9)), int(rng.integers(1, 7))))
        f1, f2 = tmp_path / f"f{seed}a.pkgf", tmp_path / f"f{seed}b.pkgf"
        write_feature_file(f1, data)
        write_feature_file(f2, read_feature_file(f1))
        assert f1.read_bytes() == f2.read_bytes()

    _report(
        "criterion 10 (format round-trips)",
        checked == 20,
        "5 formats x 20 seeded instances load-save-load to identical bytes",
    )
