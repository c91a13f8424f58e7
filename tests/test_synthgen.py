"""Synthetic world generation and graph-recovery metrics."""

import dataclasses
import json
import re

import numpy as np
import pytest

from pkgforge import corpus_io, downstream, synthgen
from pkgforge.config import PAPER_DEDUP_THRESHOLD, PAPER_MATCH_THRESHOLD
from pkgforge.corpus_io import save_segment_corpus, save_step_database
from pkgforge.dedup import cluster_headlines
from pkgforge.graph import assemble_graph, build_graph
from pkgforge.synthgen import GroundTruth, WorldConfig, graph_recovery_metrics

from builders import identity_assignment


def _small_config(**overrides):
    base = dict(
        n_tasks=4,
        steps_per_task=(3, 5),
        n_shared_steps=2,
        n_videos=12,
        segments_per_step=(1, 3),
        dim=24,
        signal_dim=16,
        noise_sigma=0.0,
        style_sigma=0.0,
        gain_jitter=0.0,
        paraphrase_count=1,
        skip_prob=0.0,
        substitute_prob=0.0,
        seed=0,
    )
    base.update(overrides)
    return WorldConfig(**base)


def _step_rows(truth, db):
    """Each step's canonical embedding: the row of its first headline, worded 0."""
    steps, first = np.unique(truth.headline_true_step, return_index=True)
    assert steps.tolist() == list(range(truth.n_steps))
    assert all(db.headlines[h].endswith("(wording 0)") for h in first)
    return db.embeddings[first]


class TestGenerate:
    def test_deterministic_per_seed(self, tmp_path):
        for variant in ("a", "b"):
            truth, db, corpus = synthgen.generate(_small_config(seed=5))
            d = tmp_path / variant
            d.mkdir()
            save_step_database(db, d / "steps.jsonl")
            save_segment_corpus(corpus, d)
        names = ["manifest.jsonl", "segments.f32", "steps.f64", "steps.jsonl"]
        assert sorted(p.name for p in (tmp_path / "a").iterdir()) == names
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_different_seeds_differ(self):
        t1, db1, _ = synthgen.generate(_small_config(seed=1))
        t2, db2, _ = synthgen.generate(_small_config(seed=2))
        assert not np.array_equal(_step_rows(t1, db1), _step_rows(t2, db2))

    def test_zero_noise_top1_is_true_step(self):
        truth, db, corpus = synthgen.generate(_small_config())
        emb = db.embeddings
        headline_step = np.array(truth.headline_true_step)
        for video, ann in zip(corpus.videos, truth.annotations):
            for span in ann.steps:
                for seg in video.segments[span.start : span.end]:
                    best = int(np.argmax(emb @ seg))
                    assert headline_step[best] == span.step_class

    def test_dedup_recovers_canonical_step_count(self):
        truth, db, _ = synthgen.generate(
            _small_config(paraphrase_count=2, n_shared_steps=3, seed=3)
        )
        assert cluster_headlines(db.embeddings, 0.09).max() + 1 == truth.n_steps

    def test_shared_steps_span_tasks(self):
        truth, _, _ = synthgen.generate(_small_config(n_shared_steps=3, seed=2))
        owners = {}
        for t, seq in enumerate(truth.task_sequences):
            for s in seq:
                owners.setdefault(s, set()).add(t)
        assert any(len(tasks) > 1 for tasks in owners.values())

    def test_skip_changes_observed_transitions(self):
        truth, _, _ = synthgen.generate(_small_config(skip_prob=0.3, seed=4))
        assert any(pair not in truth.canonical_transitions for pair in truth.observed_transitions)

    def test_annotations_consistent_with_segments(self):
        truth, _, corpus = synthgen.generate(_small_config(seed=6))
        for video, ann in zip(corpus.videos, truth.annotations):
            assert ann.video_id == video.video_id
            assert ann.steps[0].start == 0
            assert ann.steps[-1].end == video.segments.shape[0]
            for a, b in zip(ann.steps, ann.steps[1:]):
                assert a.end == b.start

    def test_infeasible_separation_raises(self):
        with pytest.raises(ValueError, match="separate"):
            synthgen.generate(
                _small_config(n_tasks=30, steps_per_task=(8, 10), dim=3, signal_dim=2)
            )

    def test_style_is_orthogonal_to_headlines(self):
        cfg = _small_config(style_sigma=5.0, seed=7)
        truth, db, corpus = synthgen.generate(cfg)
        emb = db.embeddings
        steps = _step_rows(truth, db)
        # headlines live entirely in the signal coordinates
        assert np.all(emb[:, cfg.signal_dim :] == 0.0)
        # with zero noise/jitter the style offset cannot move any score
        headline_step = np.array(truth.headline_true_step)
        for video, ann in zip(corpus.videos, truth.annotations):
            for span in ann.steps:
                for seg in video.segments[span.start : span.end]:
                    scores = emb @ seg
                    want = cfg.feature_scale * (emb @ steps[span.step_class])
                    np.testing.assert_allclose(scores, want, atol=1e-9)
                    assert headline_step[int(np.argmax(scores))] == span.step_class


class TestRecoveryMetrics:
    def _identity_world(self, n=4):
        """Graph nodes are exactly the true steps of a 1-task world."""
        truth, db, _ = synthgen.generate(
            _small_config(n_tasks=1, steps_per_task=(n, n), n_shared_steps=0, n_videos=2)
        )
        return truth, db, identity_assignment(db.num_headlines)

    def _graph(self, db, node_of, pairs):
        return assemble_graph(db, node_of, pairs, {})  # database edges of score 1.0

    def test_identical_edges_perfect_scores(self):
        truth, db, node_of = self._identity_world()
        pairs = sorted(truth.canonical_transitions)
        m = graph_recovery_metrics(self._graph(db, node_of, pairs), db, truth)
        assert m["edge_precision"] == 1.0 and m["edge_recall"] == 1.0
        assert m["node_purity"] == 1.0

    def test_empty_prediction_convention(self):
        truth, db, node_of = self._identity_world()
        m = graph_recovery_metrics(self._graph(db, node_of, []), db, truth)
        assert m["edge_precision"] == 0.0 and m["edge_recall"] == 0.0

    def test_partial_arithmetic(self):
        truth, db, node_of = self._identity_world(n=7)
        true_pairs = sorted(truth.canonical_transitions)  # 6 transitions 0..6
        assert len(true_pairs) == 6
        predicted = true_pairs[:3] + [(6, 0)]  # 3 correct of 4 predicted
        m = graph_recovery_metrics(self._graph(db, node_of, predicted), db, truth)
        assert m["edge_precision"] == pytest.approx(0.75)
        assert m["edge_recall"] == pytest.approx(0.5)

    def test_min_support_filters_recall_target(self):
        truth, db, node_of = self._identity_world()
        high = max(truth.observed_transitions.values())
        m_all = graph_recovery_metrics(self._graph(db, node_of, []), db, truth, min_support=1)
        m_high = graph_recovery_metrics(
            self._graph(db, node_of, []), db, truth, min_support=high + 1
        )
        assert m_high["num_target_transitions"] <= m_all["num_target_transitions"]

    def test_implied_min_support(self):
        assert synthgen.implied_min_support(360.0, 12.0) == 3
        assert synthgen.implied_min_support(1000.0, 12.0) == 7
        assert synthgen.implied_min_support(100.0, 12.0) == 1


def _truth_text(**edits) -> str:
    """A small valid truth.json with `edits` applied at the top level or in world_config."""
    world = dataclasses.asdict(WorldConfig())
    obj = {"config_hash": None, "world_config": world, "n_steps": 2, "headline_true_step": [0, 1],
           "task_sequences": [[0, 1]], "canonical_transitions": [[0, 1]],
           "observed_transitions": [[0, 1, 3]]}
    for key, value in edits.items():
        (world if key in world else obj)[key] = value
    return json.dumps(obj)


class TestTruthSerialization:
    def test_hand_written_truth_loads(self, tmp_path):
        path = tmp_path / "truth.json"
        path.write_text(_truth_text())
        truth = synthgen.load_truth(path)
        assert truth.canonical_transitions == {(0, 1)}
        assert truth.observed_transitions == {(0, 1): 3}
        assert truth.config == WorldConfig()

    def test_round_trip(self, tmp_path):
        truth, _, _ = synthgen.generate(_small_config(skip_prob=0.2, seed=9))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        synthgen.save_truth(truth, p1, config_hash="cafe")
        back = synthgen.load_truth(p1)
        synthgen.save_truth(back, p2, config_hash="cafe")
        assert p1.read_bytes() == p2.read_bytes()
        assert back.canonical_transitions == truth.canonical_transitions
        assert back.observed_transitions == truth.observed_transitions
        assert back.headline_true_step == truth.headline_true_step

    @pytest.mark.parametrize("text", [
        "{", "[1]", '{"n_steps": 2}',
        # each of these once loaded coerced, or crashed on the one-item range
        pytest.param(_truth_text(canonical_transitions=[[0.5, True]]), id="transition"),
        pytest.param(_truth_text(observed_transitions=[[0, 1, 2.0]]), id="observed-count"),
        pytest.param(_truth_text(headline_true_step=[0, 1.9]), id="true-step"),
        pytest.param(_truth_text(task_sequences=[[0, "1"]]), id="sequence"),
        pytest.param(_truth_text(noise_sigma=True), id="world-noise"),
        pytest.param(_truth_text(steps_per_task=[3]), id="world-range"),
        # a step id outside [0, n_steps) would index the recovery metrics' vote table
        pytest.param(_truth_text(headline_true_step=[0, 2]), id="true-step-range"),
        pytest.param(_truth_text(headline_true_step=[-1, 1]), id="true-step-negative"),
    ])
    def test_malformed_truth_names_the_file(self, tmp_path, text):
        path = tmp_path / "truth.json"
        path.write_text(text)
        with pytest.raises(corpus_io.CorpusFormatError, match=re.escape(f"{path}:1: malformed truth file: ")):
            synthgen.load_truth(path)


class TestEndToEndRecovery:
    def test_zero_noise_exact_recovery(self):
        cfg = _small_config(n_videos=20, seed=11)
        truth, db, corpus = synthgen.generate(cfg)
        pkg = build_graph(db, corpus, PAPER_DEDUP_THRESHOLD, PAPER_MATCH_THRESHOLD, 360.0)
        support = synthgen.implied_min_support(360.0, cfg.feature_scale)
        m = graph_recovery_metrics(pkg, db, truth, min_support=support)
        assert m["edge_recall"] == 1.0
        assert m["node_purity"] == 1.0
        assert m["edge_precision"] == 1.0

    def test_recovery_degrades_with_noise_as_a_trend(self):
        # expectation-level monotonicity: quality at heavy noise should not
        # beat the zero-noise run, allowed to fail on one seed of five
        def quality(seed, sigma):
            cfg = _small_config(n_videos=20, seed=seed, noise_sigma=sigma)
            truth, db, corpus = synthgen.generate(cfg)
            pkg = build_graph(db, corpus, PAPER_DEDUP_THRESHOLD, PAPER_MATCH_THRESHOLD, 360.0)
            support = synthgen.implied_min_support(360.0, cfg.feature_scale)
            m = graph_recovery_metrics(pkg, db, truth, min_support=support)
            return m["edge_precision"] + m["edge_recall"] + m["node_purity"]

        hold = sum(quality(seed, 0.0) >= quality(seed, 3.5) - 1e-12 for seed in range(1, 6))
        assert hold >= 4


class TestWorldFiles:
    @pytest.mark.parametrize(
        "name",
        ["steps.f64", "steps.jsonl", "segments.f32", "manifest.jsonl", "truth.json",
         "downstream_labels.jsonl"],
    )
    def test_raise_mid_write_leaves_no_file(self, tmp_path, monkeypatch, name):
        truth, db, corpus = synthgen.generate(_small_config())

        def save_steps():
            save_step_database(db, tmp_path / "steps.jsonl")

        def save_corpus():
            save_segment_corpus(corpus, tmp_path)

        module, write = {
            "steps.f64": (corpus_io, save_steps),
            "steps.jsonl": (corpus_io, save_steps),
            "segments.f32": (corpus_io, save_corpus),
            "manifest.jsonl": (corpus_io, save_corpus),
            "truth.json": (synthgen, lambda: synthgen.save_truth(truth, tmp_path / name)),
            "downstream_labels.jsonl": (
                downstream, lambda: downstream.save_annotations(truth.annotations, tmp_path / name)
            ),
        }[name]
        if name in ("steps.f64", "segments.f32"):
            def interrupted(fh, magic, version, data):
                fh.write(magic)
                raise RuntimeError("interrupted")

            monkeypatch.setattr(corpus_io, "_write_matrix", interrupted)
        else:
            # truth.json is one record; the others fail after their first line is written
            fail_at = 1 if name == "truth.json" else 2
            encode, calls = module.canonical_json, []

            def interrupted(obj):
                calls.append(obj)
                if len(calls) == fail_at:
                    raise RuntimeError("interrupted")
                return encode(obj)

            monkeypatch.setattr(module, "canonical_json", interrupted)
        with pytest.raises(RuntimeError, match="interrupted"):
            write()
        # each matrix is written before its index; without the index it does not load
        left = [p.name for p in tmp_path.iterdir() if p.is_file()]
        matrix_of = {"steps.jsonl": ["steps.f64"], "manifest.jsonl": ["segments.f32"]}
        assert left == matrix_of.get(name, [])
