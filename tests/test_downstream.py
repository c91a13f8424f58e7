"""Downstream harness: dataset construction, model math, training, evaluation."""

import json

import numpy as np
import pytest

from pkgforge import downstream as ds
from pkgforge.corpus_io import CorpusFormatError, SegmentCorpus, Video
from pkgforge.downstream import (
    DownstreamConfig,
    DownstreamExample,
    DownstreamModel,
    StepSpan,
    VideoAnnotation,
)


def _corpus_and_annotations(rng, n_videos=10, dim=4, n_steps_per_video=3, n_classes=5):
    videos, annotations = [], []
    for v in range(n_videos):
        spans = []
        rows = []
        cursor = 0
        for s in range(n_steps_per_video):
            length = int(rng.integers(1, 4))
            cls = int(rng.integers(n_classes))
            rows.append(rng.normal(size=(length, dim)) + 3.0 * cls)
            spans.append(StepSpan(step_class=cls, start=cursor, end=cursor + length))
            cursor += length
        videos.append(Video(f"v{v}", f"task{v % 2}", np.vstack(rows)))
        annotations.append(VideoAnnotation(f"v{v}", task_class=v % 2, steps=spans))
    return SegmentCorpus(videos=videos), annotations


class TestDatasetConstruction:
    def test_tr_one_example_per_video(self):
        rng = np.random.default_rng(0)
        corpus, anns = _corpus_and_annotations(rng)
        cfg = DownstreamConfig(train_fraction=1.0, val_fraction=0.0)
        splits = ds.build_downstream_dataset(corpus, anns, "TR", cfg)
        assert len(splits.train) == 10
        assert splits.n_classes == 2

    def test_sr_one_example_per_step(self):
        rng = np.random.default_rng(1)
        corpus, anns = _corpus_and_annotations(rng, n_videos=4, n_steps_per_video=4)
        cfg = DownstreamConfig(train_fraction=1.0, val_fraction=0.0)
        splits = ds.build_downstream_dataset(corpus, anns, "SR", cfg)
        assert len(splits.train) == 16
        for ex in splits.train:
            assert 1 <= ex.features.shape[0] <= 3

    def test_sf_requires_full_first_step(self):
        rng = np.random.default_rng(2)
        corpus, anns = _corpus_and_annotations(rng, n_videos=1, n_steps_per_video=3)
        cfg = DownstreamConfig(train_fraction=1.0, val_fraction=0.0)
        splits = ds.build_downstream_dataset(corpus, anns, "SF", cfg)
        # steps 1 and 2 are predictable, each from all segments before them
        assert len(splits.train) == 2
        first = splits.train[0]
        assert first.features.shape[0] == anns[0].steps[1].start
        assert first.label == anns[0].steps[1].step_class

    def test_video_annotated_twice_rejected(self):
        # at most seeds a repeated annotation would put one video in two splits
        corpus, anns = _corpus_and_annotations(np.random.default_rng(3), n_videos=6)
        cfg = DownstreamConfig(train_fraction=0.5, val_fraction=0.25)
        with pytest.raises(ValueError, match="video v0 is annotated more than once"):
            ds.build_downstream_dataset(corpus, anns + [anns[0]] * 3, "SR", cfg)

    def test_video_disjoint_splits(self):
        rng = np.random.default_rng(3)
        corpus, anns = _corpus_and_annotations(rng, n_videos=20)
        cfg = DownstreamConfig(train_fraction=0.5, val_fraction=0.25, seed=7)
        splits = ds.build_downstream_dataset(corpus, anns, "SR", cfg)
        train_videos = {ex.video_id for ex in splits.train}
        val_videos = {ex.video_id for ex in splits.val}
        test_videos = {ex.video_id for ex in splits.test}
        assert not (train_videos & val_videos)
        assert not (train_videos & test_videos)
        assert not (val_videos & test_videos)

    def test_transform_applied(self):
        rng = np.random.default_rng(4)
        corpus, anns = _corpus_and_annotations(rng, n_videos=2)
        cfg = DownstreamConfig(train_fraction=1.0, val_fraction=0.0)
        doubled = ds.build_downstream_dataset(corpus, anns, "TR", cfg, transform=lambda f: 2 * f)
        plain = ds.build_downstream_dataset(corpus, anns, "TR", cfg)
        np.testing.assert_allclose(doubled.train[0].features, 2 * plain.train[0].features)

    def test_overlong_video_rejected(self):
        rng = np.random.default_rng(5)
        corpus, anns = _corpus_and_annotations(rng, n_videos=2)
        cfg = DownstreamConfig(max_positions=2, train_fraction=1.0, val_fraction=0.0)
        with pytest.raises(ValueError, match="max_positions"):
            ds.build_downstream_dataset(corpus, anns, "TR", cfg)

    @staticmethod
    def _six_segment_video(task_class, span):
        corpus = SegmentCorpus(videos=[Video("v0", "task0", np.ones((6, 2)))])
        return corpus, [VideoAnnotation("v0", task_class, [StepSpan(0, 0, 2), span])]

    @pytest.mark.parametrize(
        "task_class, span, what",
        [
            (-1, StepSpan(1, 2, 4), "task_class -1"),
            (0, StepSpan(-1, 2, 4), "step class -1"),
            (0, StepSpan(-1, 3, 9), "step class -1"),
            (0, StepSpan(1, -1, 4), r"step span \[-1, 4\)"),
            (0, StepSpan(1, 4, 3), r"step span \[4, 3\)"),
            (0, StepSpan(1, 3, 7), r"step span \[3, 7\)"),
        ],
        ids=["negative-task", "negative-step", "negative-step-long-span", "negative-start",
             "end-before-start", "end-past-video"],
    )
    @pytest.mark.parametrize("kind", ["TR", "SR", "SF"])
    def test_bad_annotation_rejected(self, task_class, span, what, kind):
        corpus, anns = self._six_segment_video(task_class, span)
        cfg = DownstreamConfig(train_fraction=1.0, val_fraction=0.0)
        with pytest.raises(ValueError, match=f"video v0: {what}"):
            ds.build_downstream_dataset(corpus, anns, kind, cfg)

    def test_empty_span_skipped(self):
        corpus, anns = self._six_segment_video(0, StepSpan(1, 6, 6))
        cfg = DownstreamConfig(train_fraction=1.0, val_fraction=0.0)
        splits = ds.build_downstream_dataset(corpus, anns, "SR", cfg)
        assert [ex.label for ex in splits.train] == [0]


class TestModelMath:
    def test_zero_features_zero_positions_bias_path(self):
        cfg = DownstreamConfig()
        model = DownstreamModel(3, 4, "TR", cfg, np.random.default_rng(0))
        model.positions[...] = 0.0
        ex = DownstreamExample(np.zeros((2, 3)), 0, "v")
        logits = model.forward([ex])[0][0]
        # with zero aggregate the classifier sees only its bias path
        hidden = np.maximum(model.classifier.biases[0], 0.0)
        want = hidden @ model.classifier.weights[1] + model.classifier.biases[1]
        np.testing.assert_allclose(logits, want, atol=1e-12)

    def test_length_one_uses_position_zero(self):
        cfg = DownstreamConfig()
        rng = np.random.default_rng(1)
        model = DownstreamModel(3, 4, "TR", cfg, rng)
        x = rng.normal(size=(1, 3))
        got = model.forward([DownstreamExample(x, 0, "v")])[0][0]
        want, _ = model.classifier.forward(x + model.positions[0])
        np.testing.assert_allclose(got, want[0], atol=1e-12)

    def test_hand_computed_length_two(self):
        cfg = DownstreamConfig(hidden_tr=2)
        model = DownstreamModel(2, 2, "TR", cfg, None)
        model.positions[0] = [0.1, 0.2]
        model.positions[1] = [-0.1, 0.3]
        model.classifier.weights[0][...] = np.eye(2)
        model.classifier.weights[1][...] = [[1.0, 0.0], [0.0, 2.0]]
        model.classifier.biases[1][...] = [0.05, 0.0]
        ex = DownstreamExample(np.array([[1.0, 0.0], [0.0, 1.0]]), 0, "v")
        logits = model.forward([ex])[0][0]
        # mean of (1.1, 0.2) and (-0.1, 1.3) is (0.5, 0.75)
        np.testing.assert_allclose(logits, [0.55, 1.5], atol=1e-12)

    def test_positional_shift_with_zero_first_layer(self):
        cfg = DownstreamConfig()
        rng = np.random.default_rng(2)
        model = DownstreamModel(3, 4, "TR", cfg, rng)
        model.classifier.weights[0][...] = 0.0
        ex = DownstreamExample(rng.normal(size=(2, 3)), 0, "v")
        before = model.forward([ex])[0][0]
        model.positions += np.array([1.0, -2.0, 0.5])  # constant shift of every entry
        after = model.forward([ex])[0][0]
        np.testing.assert_allclose(after, before, atol=1e-12)

    def test_aggregate_linear_in_position_shift(self):
        cfg = DownstreamConfig()
        rng = np.random.default_rng(3)
        model = DownstreamModel(3, 4, "TR", cfg, rng)
        ex = DownstreamExample(rng.normal(size=(4, 3)), 0, "v")
        agg_before = model._aggregate(ex.features)
        shift = np.array([0.3, -1.0, 2.0])
        model.positions += shift
        np.testing.assert_allclose(model._aggregate(ex.features), agg_before + shift, atol=1e-12)


class TestEvaluate:
    def _perfect_model(self):
        cfg = DownstreamConfig(hidden_tr=2)
        model = DownstreamModel(2, 2, "TR", cfg, None)
        model.classifier.weights[0][...] = np.eye(2)
        model.classifier.weights[1][...] = np.eye(2)
        return model

    def test_all_correct(self):
        model = self._perfect_model()
        exs = [
            DownstreamExample(np.array([[5.0, 0.0]]), 0, "a"),
            DownstreamExample(np.array([[0.0, 5.0]]), 1, "b"),
        ]
        assert ds.evaluate(model, exs) == 1.0

    def test_none_correct(self):
        model = self._perfect_model()
        exs = [DownstreamExample(np.array([[5.0, 0.0]]), 1, "a")]
        assert ds.evaluate(model, exs) == 0.0

    def test_three_of_four(self):
        model = self._perfect_model()
        exs = [
            DownstreamExample(np.array([[5.0, 0.0]]), 0, "a"),
            DownstreamExample(np.array([[5.0, 0.0]]), 0, "b"),
            DownstreamExample(np.array([[0.0, 5.0]]), 1, "c"),
            DownstreamExample(np.array([[0.0, 5.0]]), 0, "d"),
        ]
        assert ds.evaluate(model, exs) == 0.75

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        model = DownstreamModel(3, 4, "TR", DownstreamConfig(), rng)
        exs = [
            DownstreamExample(rng.normal(size=(2, 3)), int(rng.integers(4)), f"v{i}")
            for i in range(17)
        ]
        base = ds.evaluate(model, exs)
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(len(exs))
            assert ds.evaluate(model, [exs[i] for i in order]) == base

    def test_argmax_tie_smallest_class(self):
        cfg = DownstreamConfig(hidden_tr=2)
        model = DownstreamModel(2, 3, "TR", cfg, None)
        # all logits zero: every class ties, argmax must pick class 0
        exs = [DownstreamExample(np.array([[1.0, 1.0]]), 0, "a")]
        assert ds.evaluate(model, exs) == 1.0


class TestTraining:
    def test_separable_toy_reaches_full_train_accuracy(self):
        rng = np.random.default_rng(7)
        corpus, anns = _corpus_and_annotations(rng, n_videos=12, n_classes=2)
        cfg = DownstreamConfig(
            train_fraction=0.7, val_fraction=0.3, max_epochs=60, patience=60,
            learning_rate=1e-2, hidden_sr=16, seed=0,
        )
        splits = ds.build_downstream_dataset(corpus, anns, "SR", cfg)
        model, _ = ds.train_downstream(splits, 4, cfg)
        assert ds.evaluate(model, splits.train) == 1.0

    def test_fixed_seed_reproducible(self):
        rng = np.random.default_rng(8)
        corpus, anns = _corpus_and_annotations(rng, n_videos=8)
        cfg = DownstreamConfig(max_epochs=4, patience=10, seed=3, hidden_sr=8)
        splits = ds.build_downstream_dataset(corpus, anns, "SR", cfg)
        _, h1 = ds.train_downstream(splits, 4, cfg)
        _, h2 = ds.train_downstream(splits, 4, cfg)
        assert h1 == h2

    def test_patience_zero_stops_at_first_non_improvement(self):
        rng = np.random.default_rng(9)
        corpus, anns = _corpus_and_annotations(rng, n_videos=10)
        cfg = DownstreamConfig(max_epochs=50, patience=0, seed=1, hidden_sr=8)
        splits = ds.build_downstream_dataset(corpus, anns, "SR", cfg)
        _, hist = ds.train_downstream(splits, 4, cfg)
        accs = hist["val_accuracy"]
        # stopped right after the first epoch whose accuracy failed to improve
        assert all(b > a for a, b in zip(accs[:-2], accs[1:-1])) or len(accs) == 1
        if len(accs) > 1:
            assert accs[-1] <= max(accs[:-1])

    def test_raw_and_identity_adapter_share_harness_path(self):
        # an adapter computing the identity must reproduce raw results exactly
        rng = np.random.default_rng(10)
        corpus, anns = _corpus_and_annotations(rng, n_videos=8, dim=3)
        cfg = DownstreamConfig(max_epochs=3, patience=10, seed=5, hidden_sr=8)

        from pkgforge.nn import Mlp

        identity = Mlp([3, 128, 3])
        identity.weights[0][:, :3] = np.eye(3)
        identity.weights[0][:, 3:6] = -np.eye(3)
        identity.weights[1][:3] = np.eye(3)
        identity.weights[1][3:6] = -np.eye(3)
        transform = lambda f: identity.forward(f)[0]

        raw = ds.build_downstream_dataset(corpus, anns, "SR", cfg)
        refined = ds.build_downstream_dataset(corpus, anns, "SR", cfg, transform=transform)
        _, h_raw = ds.train_downstream(raw, 3, cfg)
        _, h_ref = ds.train_downstream(refined, 3, cfg)
        assert h_raw["val_accuracy"] == h_ref["val_accuracy"]
        np.testing.assert_allclose(h_raw["train_loss"], h_ref["train_loss"], atol=1e-9)

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ds.train_downstream(
                ds.DownstreamSplits("SR", 2, [], [], []), 3, DownstreamConfig()
            )
        with pytest.raises(ValueError, match="empty"):
            ds.evaluate(DownstreamModel(2, 2, "TR", DownstreamConfig(), None), [])


class TestAnnotationsFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        _, anns = _corpus_and_annotations(rng, n_videos=5)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        ds.save_annotations(anns, p1)
        back = ds.load_annotations(p1)
        ds.save_annotations(back, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert back == anns

    @pytest.mark.parametrize("step, key, value, message", [
        (False, "task_class", 2.7, "task_class 2.7 is not a JSON integer"),
        (False, "task_class", "1", "task_class '1' is not a JSON integer"),
        (True, "class", True, "step class True is not a JSON integer"),
        (True, "start", "0", "step start '0' is not a JSON integer"),
        (True, "end", 1.9, "step end 1.9 is not a JSON integer"),
    ])
    def test_wrong_typed_value_rejected(self, tmp_path, step, key, value, message):
        # each of these once loaded coerced: 2.7 as 2, True as 1, "0" as 0
        path = tmp_path / "a.jsonl"
        ds.save_annotations([VideoAnnotation("v0", 1, [StepSpan(0, 0, 2), StepSpan(1, 2, 3)])],
                            path)
        obj = json.loads(path.read_text())
        (obj["steps"][1] if step else obj)[key] = value
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(CorpusFormatError, match=rf"a\.jsonl:1: malformed annotation: {message}"):
            ds.load_annotations(path)
