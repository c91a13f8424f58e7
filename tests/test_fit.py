"""The shared early-stopping loop, and both trainings that run through it."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pkgforge import downstream, trainer
from pkgforge.corpus_io import SegmentCorpus, Video
from pkgforge.downstream import DownstreamConfig, StepSpan, VideoAnnotation
from pkgforge.labeler import Ragged
from pkgforge.nn import fit
from pkgforge.trainer import TrainConfig

from oracles import early_stopping_reference, train_downstream_reference, train_reference

# validation scores that tie, rise and fall, plus the two that never improve on inf
SCORES = st.one_of(st.sampled_from([0.0, 0.5, 1.0, np.inf, np.nan]), st.floats(-2.0, 2.0))


def _scripted_run(loop, n_train, losses, scores, with_val, seed):
    """Run `loop` with steps and validation scores read off scripts.

    Every step moves the parameters by an amount that depends on its call
    count, so the restored snapshot shows which epoch it was taken at.
    """
    params = np.zeros(3)
    seen = []
    loss_it, score_it = iter(losses), iter(scores)

    def step(rows):
        seen.append(rows.copy())
        params[:] += len(seen) * np.arange(1.0, 4.0)
        return next(loss_it)

    rng = np.random.default_rng(seed)
    out = loop(params, n_train, rng, step, (lambda: next(score_it)) if with_val else None)
    return params, seen, out, rng.bit_generator.state


class TestFit:
    @settings(max_examples=300, deadline=None)
    @given(
        n_train=st.integers(1, 9),
        batch_size=st.integers(1, 10),
        max_epochs=st.integers(1, 6),
        patience=st.integers(0, 3),
        with_val=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_equals_reference_loop(
        self, n_train, batch_size, max_epochs, patience, with_val, seed, data
    ):
        n_steps = max_epochs * math.ceil(n_train / min(batch_size, n_train))
        losses = data.draw(st.lists(st.floats(0.0, 10.0), min_size=n_steps, max_size=n_steps))
        scores = data.draw(st.lists(SCORES, min_size=max_epochs, max_size=max_epochs))
        config = SimpleNamespace(batch_size=batch_size, max_epochs=max_epochs, patience=patience)

        def shared(params, n, rng, step, validate):
            return fit(params, n, config, rng, step, validate)

        def reference(params, n, rng, step, validate):
            return early_stopping_reference(
                params, n, batch_size, max_epochs, patience, rng, step, validate
            )

        params, seen, result, rng_state = _scripted_run(
            shared, n_train, losses, scores, with_val, seed
        )
        ref_params, ref_seen, ref, ref_rng_state = _scripted_run(
            reference, n_train, losses, scores, with_val, seed
        )
        train_loss, val_score, best_epoch, best_score = ref
        assert np.array_equal(params, ref_params)
        assert len(seen) == len(ref_seen)
        assert all(np.array_equal(a, b) for a, b in zip(seen, ref_seen))
        assert result.train_loss == train_loss
        np.testing.assert_array_equal(result.val_score, val_score)  # NaN equals NaN here
        assert result.best_epoch == best_epoch
        assert result.best_score == best_score
        assert rng_state == ref_rng_state

    def test_ties_count_as_stalls_and_the_best_epoch_is_restored(self):
        config = SimpleNamespace(batch_size=2, max_epochs=10, patience=1)
        scores = iter([3.0, 2.0, 2.0, 5.0, 1.0])
        params = np.zeros(1)

        def step(rows):
            params[0] += 1.0
            return 0.0

        result = fit(params, 4, config, np.random.default_rng(0), step, lambda: next(scores))
        # epoch 2 ties epoch 1 and epoch 3 rises: two stalls exceed patience 1
        assert result.val_score == [3.0, 2.0, 2.0, 5.0]
        assert (result.best_epoch, result.best_score) == (1, 2.0)
        assert params[0] == 4.0  # two steps per epoch, restored to the end of epoch 1

    def test_without_validation_the_last_epoch_is_the_best(self):
        config = SimpleNamespace(batch_size=3, max_epochs=4, patience=0)
        params = np.zeros(1)

        def step(rows):
            params[0] += rows.size
            return 1.0

        result = fit(params, 5, config, np.random.default_rng(0), step)
        assert result.train_loss == [1.0] * 4
        assert (result.val_score, result.best_epoch, result.best_score) == ([], 3, np.inf)
        assert params[0] == 20.0


def _random_pretraining(rng, n, n_videos, dim, objectives):
    header = {
        "num_nodes": int(rng.integers(2, 8)),
        "task_ids": [f"t{i}" for i in range(int(rng.integers(1, 4)))],
        "corpus_task_names": [f"c{i}" for i in range(int(rng.integers(1, 4)))],
        "num_headlines": int(rng.integers(2, 10)),
        "nrl_hops": 2,
    }
    features = rng.normal(size=(n, dim))
    video_of = rng.integers(0, n_videos, size=n)
    targets = {}
    for spec in trainer.head_specs_from_header(header, objectives, 1):
        rows = [rng.choice(spec.n_classes, size=int(rng.integers(0, 3))) for _ in range(n)]
        targets[spec.name] = Ragged.from_lists(rows)
    return header, features, video_of, targets


def _random_downstream(rng, n_videos, dim, kind, config):
    videos, annotations = [], []
    for v in range(n_videos):
        spans, cursor = [], 0
        for _ in range(int(rng.integers(1, 4))):
            length = int(rng.integers(1, 3))
            spans.append(StepSpan(int(rng.integers(0, 3)), cursor, cursor + length))
            cursor += length
        videos.append(Video(f"v{v}", None, rng.normal(size=(cursor, dim))))
        annotations.append(VideoAnnotation(f"v{v}", int(rng.integers(0, 3)), spans))
    corpus = SegmentCorpus(videos=videos)
    return downstream.build_downstream_dataset(corpus, annotations, kind, config)


class TestTrainingsEqualTheirOwnLoops:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 16),
        n_videos=st.integers(1, 5),
        objectives=st.sampled_from([("vnm",), ("vnm", "vtm_db"), ("vtm_corpus", "nrl")]),
        batch_size=st.integers(1, 8),
        max_epochs=st.integers(1, 5),
        patience=st.integers(0, 2),
        val_fraction=st.sampled_from([0.0, 0.25, 0.5]),
        learning_rate=st.sampled_from([1e-3, 0.3]),
    )
    def test_train(
        self, seed, n, n_videos, objectives, batch_size, max_epochs, patience, val_fraction,
        learning_rate,
    ):
        rng = np.random.default_rng(seed)
        header, features, video_of, targets = _random_pretraining(
            rng, n, n_videos, int(rng.integers(2, 5)), objectives
        )
        config = TrainConfig(
            learning_rate=learning_rate, batch_size=batch_size, max_epochs=max_epochs,
            patience=patience, seed=seed % 1000, objectives=objectives, bottleneck=3,
            val_fraction=val_fraction,
        )
        ckpt, history = trainer.train(features, video_of, header, targets, config, "h")
        ref_ckpt, ref_history = train_reference(features, video_of, header, targets, config, "h")
        assert np.array_equal(ckpt.weights, ref_ckpt.weights)
        assert ckpt.shapes == ref_ckpt.shapes
        assert ckpt.metadata == ref_ckpt.metadata  # best_epoch and best_val_loss included
        assert history == ref_history

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_videos=st.integers(2, 8),
        kind=st.sampled_from(["TR", "SR", "SF"]),
        batch_size=st.integers(1, 8),
        max_epochs=st.integers(1, 5),
        patience=st.integers(0, 2),
        val_fraction=st.sampled_from([0.0, 0.2, 0.4]),
        learning_rate=st.sampled_from([1e-3, 0.3]),
    )
    def test_train_downstream(
        self, seed, n_videos, kind, batch_size, max_epochs, patience, val_fraction,
        learning_rate,
    ):
        config = DownstreamConfig(
            learning_rate=learning_rate, batch_size=batch_size, patience=patience,
            max_epochs=max_epochs, hidden_tr=4, hidden_sr=4, max_positions=16,
            train_fraction=0.5, val_fraction=val_fraction, seed=seed % 1000,
        )
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 5))
        splits = _random_downstream(rng, n_videos, dim, kind, config)
        assume(splits.train)
        model, history = downstream.train_downstream(splits, dim, config)
        ref_model, ref_history = train_downstream_reference(splits, dim, config)
        assert np.array_equal(model.params, ref_model.params)
        assert history == ref_history


class TestAdamStepsPerBatch:
    """Each training steps Adam once per mini-batch, through its own module's name.

    The trace of the benchmark wraps `trainer.adam_step` and
    `downstream.adam_step`; a step made under any other name would leave
    those counts at 0 without failing a check.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"trainer": 0, "downstream": 0}
        for name, module in (("trainer", trainer), ("downstream", downstream)):
            def counted(*args, _name=name, _step=module.adam_step, **kwargs):
                counts[_name] += 1
                return _step(*args, **kwargs)

            monkeypatch.setattr(module, "adam_step", counted)
        return counts

    def test_pretraining(self, calls):
        rng = np.random.default_rng(0)
        header, features, video_of, targets = _random_pretraining(rng, 10, 3, 3, ("vnm",))
        config = TrainConfig(objectives=("vnm",), batch_size=4, max_epochs=3, val_fraction=0.0)
        _, history = trainer.train(features, video_of, header, targets, config)
        assert len(history["train_loss"]) == 3
        assert calls == {"trainer": 3 * 3, "downstream": 0}  # batches of 4, 4 and 2 rows

    def test_downstream(self, calls):
        config = DownstreamConfig(
            batch_size=3, max_epochs=4, patience=1, hidden_sr=4, max_positions=16,
            train_fraction=0.5, val_fraction=0.25, seed=2,
        )
        splits = _random_downstream(np.random.default_rng(1), 12, 3, "SR", config)
        _, history = downstream.train_downstream(splits, 3, config)
        per_epoch = math.ceil(len(splits.train) / 3)
        assert calls == {"trainer": 0, "downstream": len(history["train_loss"]) * per_epoch}
