"""Downstream harness: dataset construction, model math, training, evaluation."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pkgforge import downstream as ds
from pkgforge.corpus_io import CorpusFormatError, SegmentCorpus, Video
from pkgforge.downstream import (
    DownstreamConfig,
    DownstreamModel,
    Examples,
    StepSpan,
    VideoAnnotation,
)

from oracles import aggregate_reference, position_grads_reference, split_examples_reference


def _examples(blocks, labels, dim=None):
    """Examples over one matrix stacking `blocks`, the i-th labelled labels[i]."""
    lengths = np.array([len(b) for b in blocks], dtype=np.int64)
    features = np.vstack(blocks) if blocks else np.zeros((0, dim))
    return Examples(features, np.cumsum(lengths) - lengths, lengths,
                    np.array(labels, dtype=np.int64))


def _classifier_input(model, examples):
    """The classifier input that forward built."""
    _, acts = model.forward(examples)
    return acts[0]


def _zeroed_model(dim, n_classes, config):
    model = DownstreamModel(dim, n_classes, "TR", config, np.random.default_rng(0))
    model.params[...] = 0.0
    return model


def _rows(examples):
    return {r for s, n in zip(examples.start, examples.length) for r in range(s, s + n)}


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
        assert ((1 <= splits.train.length) & (splits.train.length <= 3)).all()

    def test_sf_requires_full_first_step(self):
        rng = np.random.default_rng(2)
        corpus, anns = _corpus_and_annotations(rng, n_videos=1, n_steps_per_video=3)
        cfg = DownstreamConfig(train_fraction=1.0, val_fraction=0.0)
        splits = ds.build_downstream_dataset(corpus, anns, "SF", cfg)
        # steps 1 and 2 are predictable, each from all segments before them
        assert len(splits.train) == 2
        assert splits.train.start.tolist() == [0, 0]
        assert splits.train.length[0] == anns[0].steps[1].start
        assert splits.train.label[0] == anns[0].steps[1].step_class

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_videos=st.integers(1, 12),
        kind=st.sampled_from(["TR", "SR", "SF"]),
        fractions=st.sampled_from([(1.0, 0.0), (0.5, 0.25), (0.6, 0.2), (0.3, 0.7)]),
        transformed=st.booleans(),
    )
    def test_equal_to_per_video_walk(self, seed, n_videos, kind, fractions, transformed):
        rng = np.random.default_rng(seed)
        videos, anns = [], []
        for v in range(n_videos):
            # empty spans, gaps, and steps starting at segment 0 after the first
            n_segments = int(rng.integers(0 if kind != "TR" else 1, 8))
            bounds = np.sort(rng.integers(0, n_segments + 1, size=(int(rng.integers(0, 5)), 2)))
            steps = [StepSpan(int(rng.integers(0, 4)), int(a), int(b)) for a, b in bounds]
            videos.append(Video(f"v{v}", "t", rng.normal(size=(n_segments, 3))))
            anns.append(VideoAnnotation(f"v{v}", int(rng.integers(0, 3)), steps))
        if kind != "TR" and not any(a.steps for a in anns):
            anns[0].steps.append(StepSpan(0, 0, 0))
        corpus = SegmentCorpus(videos=videos)
        cfg = DownstreamConfig(train_fraction=fractions[0], val_fraction=fractions[1],
                               seed=seed % 97)
        transform = (lambda f: np.tanh(f) * 3.0) if transformed else None
        splits = ds.build_downstream_dataset(corpus, anns, kind, cfg, transform)
        want = split_examples_reference(corpus, anns, kind, cfg, transform)
        for name in ("train", "val", "test"):
            got = getattr(splits, name)
            assert got.label.tolist() == [label for _, label in want[name]]
            assert [got.features[s : s + n].tobytes() for s, n in zip(got.start, got.length)] == [
                block.tobytes() for block, _ in want[name]
            ]

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
        train_rows, val_rows, test_rows = map(_rows, (splits.train, splits.val, splits.test))
        assert train_rows and val_rows and test_rows
        assert not (train_rows & val_rows)
        assert not (train_rows & test_rows)
        assert not (val_rows & test_rows)

    def test_transform_applied(self):
        rng = np.random.default_rng(4)
        corpus, anns = _corpus_and_annotations(rng, n_videos=2)
        cfg = DownstreamConfig(train_fraction=1.0, val_fraction=0.0)
        doubled = ds.build_downstream_dataset(corpus, anns, "TR", cfg, transform=lambda f: 2 * f)
        plain = ds.build_downstream_dataset(corpus, anns, "TR", cfg)
        np.testing.assert_array_equal(doubled.train.start, plain.train.start)
        np.testing.assert_allclose(doubled.train.features, 2 * plain.train.features)

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
        assert splits.train.label.tolist() == [0]

    @pytest.mark.parametrize("kind, what", [("TR", "videos"), ("SR", "steps"), ("SF", "steps")])
    def test_empty_class_space_named(self, kind, what):
        # once a bare "max() arg is an empty sequence"
        cfg = DownstreamConfig(train_fraction=1.0, val_fraction=0.0)
        corpus = SegmentCorpus(videos=[Video("v0", "task0", np.ones((3, 2)))])
        with pytest.raises(ValueError, match=f"no {kind} labels: the annotations hold no {what}"):
            ds.build_downstream_dataset(corpus, [], kind, cfg)
        if kind != "TR":
            with pytest.raises(ValueError, match=f"no {kind} labels"):
                ds.build_downstream_dataset(corpus, [VideoAnnotation("v0", 0, [])], kind, cfg)

    def test_task_of_a_zero_segment_video_rejected(self):
        # once "cannot classify an empty segment sequence", mid-training and unnamed
        corpus = SegmentCorpus(videos=[Video("v0", "task0", np.ones((3, 2))),
                                       Video("v1", "task0", np.ones((0, 2)))])
        anns = [VideoAnnotation("v0", 0, [StepSpan(0, 0, 3)]), VideoAnnotation("v1", 1, [])]
        cfg = DownstreamConfig(train_fraction=1.0, val_fraction=0.0)
        with pytest.raises(ValueError, match="video v1 has no segments"):
            ds.build_downstream_dataset(corpus, anns, "TR", cfg)
        # step tasks take nothing from it
        assert ds.build_downstream_dataset(corpus, anns, "SR", cfg).train.label.tolist() == [0]


class TestModelMath:
    def test_zero_features_zero_positions_bias_path(self):
        cfg = DownstreamConfig()
        model = DownstreamModel(3, 4, "TR", cfg, np.random.default_rng(0))
        model.positions[...] = 0.0
        logits = model.forward(_examples([np.zeros((2, 3))], [0]))[0][0]
        # with zero aggregate the classifier sees only its bias path
        hidden = np.maximum(model.classifier.biases[0], 0.0)
        want = hidden @ model.classifier.weights[1] + model.classifier.biases[1]
        np.testing.assert_allclose(logits, want, atol=1e-12)

    def test_length_one_uses_position_zero(self):
        cfg = DownstreamConfig()
        rng = np.random.default_rng(1)
        model = DownstreamModel(3, 4, "TR", cfg, rng)
        x = rng.normal(size=(1, 3))
        got = model.forward(_examples([x], [0]))[0][0]
        want, _ = model.classifier.forward(x + model.positions[0])
        np.testing.assert_allclose(got, want[0], atol=1e-12)

    def test_hand_computed_length_two(self):
        cfg = DownstreamConfig(hidden_tr=2)
        model = _zeroed_model(2, 2, cfg)
        model.positions[0] = [0.1, 0.2]
        model.positions[1] = [-0.1, 0.3]
        model.classifier.weights[0][...] = np.eye(2)
        model.classifier.weights[1][...] = [[1.0, 0.0], [0.0, 2.0]]
        model.classifier.biases[1][...] = [0.05, 0.0]
        ex = _examples([np.array([[1.0, 0.0], [0.0, 1.0]])], [0])
        logits = model.forward(ex)[0][0]
        # mean of (1.1, 0.2) and (-0.1, 1.3) is (0.5, 0.75)
        np.testing.assert_allclose(logits, [0.55, 1.5], atol=1e-12)

    def test_positional_shift_with_zero_first_layer(self):
        cfg = DownstreamConfig()
        rng = np.random.default_rng(2)
        model = DownstreamModel(3, 4, "TR", cfg, rng)
        model.classifier.weights[0][...] = 0.0
        ex = _examples([rng.normal(size=(2, 3))], [0])
        before = model.forward(ex)[0][0]
        model.positions += np.array([1.0, -2.0, 0.5])  # constant shift of every entry
        after = model.forward(ex)[0][0]
        np.testing.assert_allclose(after, before, atol=1e-12)

    def test_aggregate_linear_in_position_shift(self):
        cfg = DownstreamConfig()
        rng = np.random.default_rng(3)
        model = DownstreamModel(3, 4, "TR", cfg, rng)
        ex = _examples([rng.normal(size=(4, 3))], [0])
        agg_before = _classifier_input(model, ex)
        shift = np.array([0.3, -1.0, 2.0])
        model.positions += shift
        np.testing.assert_allclose(_classifier_input(model, ex), agg_before + shift, atol=1e-12)


class TestPaddedBlocks:
    """forward's aggregate and backward's positional gradient, bit for bit
    against the per-example loops they replaced.

    Widths start at 2: a (rows, 1) block is summed pairwise by numpy, so the
    per-example mean of a one-dimensional feature rounds differently.
    """

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_examples=st.integers(1, 256),
        max_positions=st.integers(1, 128),
        dim=st.integers(2, 6),
        block=st.integers(1, 40),
        spare_rows=st.integers(0, 8),
    )
    @example(seed=0, n_examples=256, max_positions=128, dim=2, block=16, spare_rows=0)
    @example(seed=1, n_examples=1, max_positions=1, dim=2, block=1, spare_rows=0)
    def test_equal_to_per_example_loops(
        self, seed, n_examples, max_positions, dim, block, spare_rows
    ):
        rng = np.random.default_rng(seed)
        cfg = DownstreamConfig(max_positions=max_positions, batch_size=block, hidden_tr=5)
        model = DownstreamModel(dim, 3, "TR", cfg, rng)
        # few spare rows, so most examples share rows with others
        n_rows = max_positions + spare_rows
        scale = 10.0 ** rng.uniform(np.log10(1e-3), np.log10(30.0), size=(n_rows, 1))
        features = rng.normal(size=(n_rows, dim)) * scale
        length = rng.integers(1, max_positions + 1, size=n_examples)
        length[rng.integers(n_examples)] = max_positions
        start = rng.integers(0, n_rows - length + 1)
        batch = Examples(features, start, length, rng.integers(0, 3, size=n_examples))

        logits, cache = model.forward(batch)
        want = aggregate_reference(model.positions, batch)
        assert cache[0].tobytes() == want.tobytes()

        dlogits = rng.normal(size=logits.shape)
        model.backward(batch, cache, dlogits)
        got = model.position_grads.copy()
        dagg = model.classifier.backward(cache, dlogits)
        assert got.tobytes() == position_grads_reference(model.positions, batch, dagg).tobytes()


class TestEvaluate:
    def _perfect_model(self):
        cfg = DownstreamConfig(hidden_tr=2)
        model = _zeroed_model(2, 2, cfg)
        model.classifier.weights[0][...] = np.eye(2)
        model.classifier.weights[1][...] = np.eye(2)
        return model

    def test_all_correct(self):
        model = self._perfect_model()
        exs = _examples([np.array([[5.0, 0.0]]), np.array([[0.0, 5.0]])], [0, 1])
        assert ds.evaluate(model, exs) == 1.0

    def test_none_correct(self):
        model = self._perfect_model()
        exs = _examples([np.array([[5.0, 0.0]])], [1])
        assert ds.evaluate(model, exs) == 0.0

    def test_three_of_four(self):
        model = self._perfect_model()
        a, b = np.array([[5.0, 0.0]]), np.array([[0.0, 5.0]])
        exs = _examples([a, a, b, b], [0, 0, 1, 0])
        assert ds.evaluate(model, exs) == 0.75

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        model = DownstreamModel(3, 4, "TR", DownstreamConfig(), rng)
        exs = _examples([rng.normal(size=(2, 3)) for _ in range(17)], rng.integers(4, size=17))
        base = ds.evaluate(model, exs)
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(len(exs))
            assert ds.evaluate(model, exs[order]) == base

    def test_argmax_tie_smallest_class(self):
        cfg = DownstreamConfig(hidden_tr=2)
        model = _zeroed_model(2, 3, cfg)
        # all logits zero: every class ties, argmax must pick class 0
        exs = _examples([np.array([[1.0, 1.0]])], [0])
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
        none = _examples([], [], dim=3)
        with pytest.raises(ValueError, match="empty"):
            ds.train_downstream(ds.DownstreamSplits("SR", 2, none, none, none), 3,
                                DownstreamConfig())
        with pytest.raises(ValueError, match="empty"):
            ds.evaluate(_zeroed_model(3, 2, DownstreamConfig()), none)


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
        with pytest.raises(CorpusFormatError, match=rf"a\.jsonl:1: malformed video annotation: {message}"):
            ds.load_annotations(path)
