"""The compute dtype follows the features: f32 rows train and probe in f32
end to end, and f64 rows keep the f64 path they always had."""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pkgforge import downstream as ds
from pkgforge import graph as G
from pkgforge import labeler, synthgen, trainer
from pkgforge.config import PAPER_DEDUP_THRESHOLD, PAPER_MATCH_THRESHOLD
from pkgforge.corpus_io import SegmentCorpus, Video, checkpoint_from_params
from pkgforge.downstream import DownstreamConfig, DownstreamModel, Examples, StepSpan, VideoAnnotation
from pkgforge.nn import (
    AdamState, Mlp, adam_step, bce_loss, bce_with_logits, sigmoid, softmax_cross_entropy, softplus,
)
from pkgforge.synthgen import WorldConfig
from pkgforge.trainer import TrainConfig

from builders import row_targets
from oracles import adapter_f64_reference, aggregate_reference, position_grads_reference

F32 = np.dtype(np.float32)


def _all_f32(*arrays) -> bool:
    return all(a.dtype == F32 for a in arrays)


class TestF32Throughout:
    """Given f32 inputs, every kernel of pretraining and probing returns f32 arrays."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dims=st.lists(st.integers(1, 6), min_size=2, max_size=4),
           batch=st.integers(1, 6), weight_decay=st.sampled_from([0.0, 1e-3]))
    def test_nn_kernels(self, seed, dims, batch, weight_decay):
        rng = np.random.default_rng(seed)
        mlp = Mlp(dims, rng, params=np.zeros(Mlp.size(dims), F32))
        x = rng.normal(size=(batch, dims[0])).astype(F32)
        out, acts = mlp.forward(x)
        g = mlp.backward(acts, rng.normal(size=out.shape).astype(F32))
        assert _all_f32(out, *acts, g, mlp.grads, mlp.predict(x))

        positives = np.nonzero(rng.random(out.shape) < 0.3)
        e = np.exp(-np.abs(out))
        assert _all_f32(e, sigmoid(out, e), softplus(out, e))
        loss, dlogits = bce_with_logits(out, positives)
        assert _all_f32(dlogits) and isinstance(loss, float)
        assert isinstance(bce_loss(out, positives), float)
        loss, dlogits = softmax_cross_entropy(out, rng.integers(0, out.shape[1], size=batch))
        assert _all_f32(dlogits) and isinstance(loss, float)

        state = AdamState.for_params(mlp.params)
        for _ in range(2):
            adam_step(mlp.params, mlp.grads, state, lr=1e-3, weight_decay=weight_decay)
        assert _all_f32(mlp.params, state.m, state.v, state.scratch, state.decayed)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12), val_fraction=st.sampled_from([0.0, 0.5]))
    def test_train_params(self, seed, n, val_fraction):
        rng = np.random.default_rng(seed)
        header = {"num_nodes": 5, "task_ids": ["t0", "t1", "t2"], "corpus_task_names": ["c0", "c1"],
                  "num_headlines": 5, "nrl_hops": 2}
        targets = row_targets({
            "vnm": [np.sort(rng.choice(5, size=2, replace=False)) for _ in range(n)],
            "vtm_db": [rng.integers(0, 3, size=1) for _ in range(n)],
        })
        features = rng.normal(size=(n, 4)).astype(F32)
        config = TrainConfig(objectives=("vnm", "vtm_db"), max_epochs=2, batch_size=3,
                             bottleneck=3, seed=seed % 97, val_fraction=val_fraction)
        with mock.patch.object(trainer, "checkpoint_from_params",
                               wraps=checkpoint_from_params) as cast:
            ckpt, _ = trainer.train(features, np.arange(n) % 2, header, targets, config)
        assert _all_f32(cast.call_args.args[0], ckpt.weights)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_examples=st.integers(1, 40),
        max_positions=st.integers(1, 16),
        dim=st.integers(2, 5),
        block=st.integers(1, 8),
    )
    @example(seed=0, n_examples=2, max_positions=3, dim=2, block=2)
    def test_downstream_model(self, seed, n_examples, max_positions, dim, block):
        rng = np.random.default_rng(seed)
        cfg = DownstreamConfig(max_positions=max_positions, batch_size=block, hidden_tr=5)
        model = DownstreamModel(dim, 3, "TR", cfg, rng, F32)
        features = rng.normal(size=(max_positions + 2, dim)).astype(F32)
        # unequal lengths make every block divide by an int64 length column
        length = rng.integers(1, max_positions + 1, size=n_examples)
        start = rng.integers(0, features.shape[0] - length + 1)
        batch = Examples(features, start, length, rng.integers(0, 3, size=n_examples))

        logits, cache = model.forward(batch)
        assert _all_f32(logits, *cache)
        assert cache[0].tobytes() == aggregate_reference(model.positions, batch).tobytes()
        dlogits = rng.normal(size=logits.shape).astype(F32)
        grads = model.backward(batch, cache, dlogits)
        assert _all_f32(grads, model.position_grads)
        dagg = model.classifier.backward(cache, dlogits)
        want = position_grads_reference(model.positions, batch, dagg)
        assert model.position_grads.tobytes() == want.tobytes()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["TR", "SR", "SF"]),
           adapted=st.booleans())
    def test_downstream_dataset_and_training(self, seed, kind, adapted):
        rng = np.random.default_rng(seed)
        videos, anns = [], []
        for v in range(6):
            steps = [StepSpan(int(rng.integers(0, 3)), 2 * s, 2 * s + int(rng.integers(1, 3)))
                     for s in range(3)]
            videos.append(Video(f"v{v}", "t", rng.normal(size=(6, 4)).astype(F32)))
            anns.append(VideoAnnotation(f"v{v}", v % 2, steps))
        cfg = DownstreamConfig(max_epochs=2, batch_size=3, hidden_tr=4, hidden_sr=4,
                               max_positions=8, train_fraction=0.5, val_fraction=0.25)
        transform = None
        if adapted:  # an adapter as the CLI loads it: the checkpoint's f32 payload
            adapter = Mlp([4, 3, 4], rng, params=np.zeros(Mlp.size([4, 3, 4]), F32))
            transform = lambda f: trainer.apply_adapter(adapter, f)
        splits = ds.build_downstream_dataset(SegmentCorpus(videos=videos), anns, kind, cfg,
                                             transform)
        assert _all_f32(splits.train.features)
        model, _ = ds.train_downstream(splits, 4, cfg)
        assert _all_f32(model.params, model.grads)


class TestF64Unchanged:
    """f64 callers keep their bits, and f32 training tracks f64 training."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 12), bottleneck=st.integers(1, 9),
           rows=st.integers(0, 40))
    @example(seed=0, dim=96, bottleneck=128, rows=300)
    def test_f32_adapter_on_f64_rows_equals_its_f64_cast(self, seed, dim, bottleneck, rows):
        rng = np.random.default_rng(seed)
        dims = [dim, bottleneck, dim]
        params = Mlp(dims, rng).params * rng.uniform(0.5, 4.0)
        shapes = Mlp.shapes(dims, "adapter")
        ckpt = checkpoint_from_params(params, shapes, {"dim": dim, "bottleneck": bottleneck})
        adapter = trainer.adapter_from_checkpoint(ckpt)
        features = rng.normal(size=(rows, dim)) * 10.0
        got = trainer.apply_adapter(adapter, features)
        assert adapter.params.dtype == F32 and got.dtype == np.float64
        assert got.tobytes() == adapter_f64_reference(adapter, features).tobytes()

    def test_train_losses_track_across_dtypes(self):
        """The same f32-rounded rows trained as f32 and as f64. Over six such worlds
        and three training seeds, the largest relative gap between any two epoch
        losses was 1.1e-5 (one run; the other seventeen stayed under 1.4e-7), and
        this world's is 6e-8. The bound sits about ten times above the worst run."""
        world = WorldConfig(n_tasks=4, steps_per_task=(3, 5), n_shared_steps=2, n_videos=24,
                            segments_per_step=(1, 3), dim=32, signal_dim=24, seed=3)
        truth, db, corpus = synthgen.generate(world)
        pkg = G.build_graph(db, corpus, PAPER_DEDUP_THRESHOLD, PAPER_MATCH_THRESHOLD, 50.0)
        header, labels = labeler.emit_labels(corpus, db, pkg)
        objectives = ("vnm", "vtm_db", "tcl_db", "nrl")
        targets = trainer.targets_from_labels(
            labels, trainer.head_specs_from_header(header, objectives, 1))
        rows32 = np.vstack([v.segments for v in corpus.videos]).astype(F32)
        video_of = np.repeat(np.arange(len(corpus.videos)), [len(v.segments) for v in corpus.videos])
        config = TrainConfig(objectives=objectives, max_epochs=10, learning_rate=1e-2,
                             batch_size=32, val_fraction=0.25, seed=1)
        _, h32 = trainer.train(rows32, video_of, header, targets, config)
        _, h64 = trainer.train(rows32.astype(np.float64), video_of, header, targets, config)
        assert len(h32["val_loss"]) == len(h64["val_loss"]) == 10
        for key in ("train_loss", "val_loss"):
            np.testing.assert_allclose(h32[key], h64[key], rtol=1e-4)
