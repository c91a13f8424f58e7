"""Adapter/head forward math, BCE, Adam, gradient checks, training loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pkgforge import trainer
from pkgforge.config import PipelineConfig
from pkgforge.corpus_io import ModelCheckpoint, save_checkpoint
from pkgforge.nn import ADAM_CHUNK, AdamState, Mlp, adam_step, bce_with_logits, sigmoid, softplus

from builders import row_targets
from oracles import (
    adam_per_tensor,
    bce_two_pass,
    dense_targets_per_row,
    sigmoid_two_pass,
    softplus_two_pass,
)
from pkgforge.trainer import (
    HeadSpec,
    PaprikaModel,
    SparseTargets,
    TrainConfig,
    gradient_check,
    head_specs_from_header,
    model_loss,
    model_loss_and_grads,
)


def _header(n_nodes=10, n_tasks=3, n_corpus=2, n_headlines=12):
    return {
        "num_nodes": n_nodes,
        "task_ids": [f"t{i}" for i in range(n_tasks)],
        "corpus_task_names": [f"c{i}" for i in range(n_corpus)],
        "num_headlines": n_headlines,
        "nrl_hops": 2,
    }


def _random_model(rng, dim=6, specs=None):
    specs = specs or [HeadSpec("vnm", trainer.NODE_STYLE, 9), HeadSpec("vtm_db", trainer.TASK_STYLE, 4)]
    model = PaprikaModel.build(dim, specs, bottleneck=8, rng=rng)
    batch = int(rng.integers(2, 5))
    x = rng.normal(size=(batch, dim))
    dense = {}
    for spec in specs:
        t = (rng.random(size=(batch, spec.n_classes)) < 0.3).astype(float)
        dense[spec.name] = t
    return model, x, dense


class TestAdapterForward:
    def test_zero_weights_annihilate(self):
        adapter = Mlp([4, 128, 4])
        out, _ = adapter.forward(np.random.default_rng(0).normal(size=(3, 4)))
        np.testing.assert_array_equal(out, np.zeros((3, 4)))

    def test_identity_on_nonnegative(self):
        # W1 = [I; -I] and W2 = [I; -I]^T give relu(x) - relu(-x) = x
        d = 5
        adapter = Mlp([d, 2 * d, d])
        adapter.weights[0][...] = np.hstack([np.eye(d), -np.eye(d)])
        adapter.weights[1][...] = np.vstack([np.eye(d), -np.eye(d)])
        x = np.random.default_rng(1).normal(size=(4, d))
        out, _ = adapter.forward(x)
        np.testing.assert_allclose(out, x, atol=1e-12)

    def test_hand_computed_toy(self):
        mlp = Mlp([2, 3, 2])
        mlp.weights[0][...] = [[1.0, 0.0, -1.0], [2.0, 1.0, 0.0]]
        mlp.biases[0][...] = [0.5, -1.0, 0.0]
        mlp.weights[1][...] = [[1.0, 2.0], [0.0, 1.0], [3.0, 0.0]]
        mlp.biases[1][...] = [0.1, -0.2]
        out, _ = mlp.forward(np.array([[1.0, 1.0]]))
        # pre1 = [3.5, 0, -1] -> relu [3.5, 0, 0] -> [3.5 + 0.1, 7.0 - 0.2]
        np.testing.assert_allclose(out, [[3.6, 6.8]], atol=1e-12)

    def test_output_dim_equals_input_dim(self):
        rng = np.random.default_rng(2)
        for d in (3, 7, 16):
            adapter = Mlp([d, 128, d], rng)
            out, _ = adapter.forward(rng.normal(size=(2, d)))
            assert out.shape == (2, d)


class TestHeadArchitecture:
    def test_node_style_dims(self):
        spec = HeadSpec("vnm", trainer.NODE_STYLE, 100)
        assert spec.dims(16) == [16, 25, 50, 100]

    def test_task_style_dims(self):
        spec = HeadSpec("vtm_db", trainer.TASK_STYLE, 20)
        assert spec.dims(16) == [16, 10, 20]

    def test_tiny_class_counts_clamped(self):
        assert HeadSpec("vnm", trainer.NODE_STYLE, 3).dims(4) == [4, 1, 1, 3]

    def test_nrl_expansion(self):
        names = trainer.expand_objectives(("vnm", "nrl"), nrl_hops=2)
        assert names == ["vnm", "nrl_in_1", "nrl_out_1", "nrl_in_2", "nrl_out_2"]

    def test_heads_not_shared(self):
        rng = np.random.default_rng(3)
        specs = [
            HeadSpec("vnm", trainer.NODE_STYLE, 8),
            HeadSpec("tcl_db", trainer.NODE_STYLE, 8),
        ]
        model = PaprikaModel.build(4, specs, bottleneck=8, rng=rng)
        assert model.heads["vnm"].weights[0] is not model.heads["tcl_db"].weights[0]
        assert not np.array_equal(
            model.heads["vnm"].weights[0], model.heads["tcl_db"].weights[0]
        )


    def test_nrl_hops_beyond_labels_rejected(self):
        header = _header()
        with pytest.raises(ValueError, match="nrl_hops=3"):
            head_specs_from_header(header, ("vnm", "nrl"), 3)
        names = [s.name for s in head_specs_from_header(header, ("nrl",), 2)]
        assert names == ["nrl_in_1", "nrl_out_1", "nrl_in_2", "nrl_out_2"]

    def test_nrl_hops_beyond_labels_rejected_when_the_config_loads(self):
        # the labels always hold two hops, so a third fails before any stage runs
        with pytest.raises(ValueError, match=r"nrl_hops must lie in \[1, 2\], got 3"):
            TrainConfig(objectives=("nrl",), nrl_hops=3)
        with pytest.raises(ValueError, match="nrl_hops"):
            PipelineConfig.from_dict({"train": {"objectives": ["nrl"], "nrl_hops": 3}})
        assert TrainConfig(objectives=("nrl",), nrl_hops=2).nrl_hops == 2


class TestBce:
    def test_logit_zero_target_one(self):
        loss, _ = bce_with_logits(np.array([[0.0]]), np.array([[1.0]]))
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_saturated_positive(self):
        loss, _ = bce_with_logits(np.array([[30.0]]), np.array([[1.0]]))
        assert loss < 1e-12

    def test_mixed_pair(self):
        loss, _ = bce_with_logits(np.array([[1.0, -1.0]]), np.array([[1.0, 0.0]]))
        assert loss == pytest.approx(math.log(1.0 + math.exp(-1.0)), abs=1e-12)

    def test_gradient_is_sigmoid_minus_target(self):
        logits = np.array([[0.0, 2.0]])
        _, d = bce_with_logits(logits, np.array([[1.0, 0.0]]))
        want = np.array([[0.5 - 1.0, 1.0 / (1.0 + math.exp(-2.0))]]) / 2.0
        np.testing.assert_allclose(d, want, atol=1e-12)


# signed zeros, ties at zero, logits whose exp overflows or underflows, NaN
EDGE_LOGITS = [0.0, -0.0, 700.5, -700.5, 745.2, -745.2, 1e308, -1e308, math.inf, -math.inf, math.nan]
logit_values = st.one_of(
    st.sampled_from(EDGE_LOGITS), st.floats(-800.0, 800.0), st.floats(-1e-300, 1e-300)
)


class TestBceAgainstTwoPass:
    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(1, 6),
        cols=st.integers(1, 7),
        data=st.data(),
    )
    def test_bit_identical(self, rows, cols, data):
        x = np.array(data.draw(st.lists(logit_values, min_size=rows * cols, max_size=rows * cols)))
        x = x.reshape(rows, cols)
        t = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=x.size,
                                        max_size=x.size))).reshape(x.shape)
        with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 target, sums past 1e308
            loss, grad = bce_with_logits(x, t)
            want_loss, want_grad = bce_two_pass(x, t)
        e = np.exp(-np.abs(x))
        assert np.array_equal(sigmoid(x, e), sigmoid_two_pass(x), equal_nan=True)
        assert np.array_equal(softplus(x, e), softplus_two_pass(x), equal_nan=True)
        assert np.array_equal(grad, want_grad, equal_nan=True)
        assert np.array_equal(np.array(loss), np.array(want_loss), equal_nan=True)


class TestSparseTargets:
    @settings(max_examples=200, deadline=None)
    @given(
        n_classes=st.integers(1, 9),
        data=st.data(),
    )
    def test_batch_scatter_equals_per_row_reference(self, n_classes, data):
        # rows may be empty and may repeat a class id
        per_row = data.draw(
            st.lists(st.lists(st.integers(0, n_classes - 1), max_size=5), min_size=1, max_size=12)
        )
        batch = np.array(
            data.draw(st.lists(st.integers(0, len(per_row) - 1), max_size=2 * len(per_row))),
            dtype=np.int64,
        )
        target = SparseTargets.from_rows(per_row)
        assert target.indptr[-1] == target.indices.size == sum(map(len, per_row))
        assert np.array_equal(
            target.dense(batch, n_classes), dense_targets_per_row(per_row, batch, n_classes)
        )


def _same_bits(a, b):
    """Equal values, NaN where the other has NaN, and the same sign on every zero."""
    if not np.array_equal(a, b, equal_nan=True):
        return False
    num = ~np.isnan(a)
    return np.array_equal(np.signbit(a[num]), np.signbit(b[num]))


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        p = np.array([1.0, -2.0])
        state = AdamState.for_params(p)
        adam_step(p, np.zeros(2), state, lr=0.1)
        np.testing.assert_array_equal(p, [1.0, -2.0])
        np.testing.assert_array_equal(state.m, np.zeros(2))
        np.testing.assert_array_equal(state.v, np.zeros(2))

    def test_matches_scalar_reference_trace(self):
        # independent scalar implementation of two bias-corrected steps
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        g = 0.5
        p_ref, m_ref, v_ref = 1.0, 0.0, 0.0
        for t in (1, 2):
            m_ref = b1 * m_ref + (1 - b1) * g
            v_ref = b2 * v_ref + (1 - b2) * g * g
            p_ref -= lr * (m_ref / (1 - b1**t)) / (math.sqrt(v_ref / (1 - b2**t)) + eps)

        p = np.array([1.0])
        state = AdamState.for_params(p)
        for _ in range(2):
            adam_step(p, np.array([g]), state, lr=lr)
        assert p[0] == pytest.approx(p_ref, abs=1e-15)

    def test_first_step_magnitude_is_learning_rate(self):
        rng = np.random.default_rng(4)
        g = rng.normal(size=5)
        p = np.zeros(5)
        state = AdamState.for_params(p)
        adam_step(p, g, state, lr=0.01)
        np.testing.assert_allclose(np.abs(p), np.full(5, 0.01), rtol=1e-6)
        np.testing.assert_allclose(np.sign(p), -np.sign(g))

    @settings(max_examples=60, deadline=None)
    @given(
        shapes=st.lists(
            st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=1, max_size=5
        ),
        steps=st.integers(1, 6),
        weight_decay=st.sampled_from([0.0, 1e-3, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_flat_step_equals_per_tensor_reference(self, shapes, steps, weight_decay, seed):
        rng = np.random.default_rng(seed)
        tensors = {f"t{i}": rng.normal(size=shape) for i, shape in enumerate(shapes)}
        flat = np.concatenate([t.ravel() for t in tensors.values()])
        ref_state = {
            "m": {k: np.zeros_like(t) for k, t in tensors.items()},
            "v": {k: np.zeros_like(t) for k, t in tensors.items()},
            "t": 0,
        }
        state = AdamState.for_params(flat)
        for _ in range(steps):
            grads = {k: rng.normal(size=t.shape) for k, t in tensors.items()}
            flat_grad = np.concatenate([g.ravel() for g in grads.values()])
            adam_per_tensor(tensors, grads, ref_state, lr=0.01, weight_decay=weight_decay)
            adam_step(flat, flat_grad, state, lr=0.01, weight_decay=weight_decay)
            assert np.array_equal(flat_grad, np.concatenate([g.ravel() for g in grads.values()]))
        assert state.t == ref_state["t"] == steps
        assert np.array_equal(flat, np.concatenate([t.ravel() for t in tensors.values()]))
        assert np.array_equal(state.m, np.concatenate([m.ravel() for m in ref_state["m"].values()]))
        assert np.array_equal(state.v, np.concatenate([v.ravel() for v in ref_state["v"].values()]))

    @settings(max_examples=40, deadline=None)
    @given(
        size=st.sampled_from([1, ADAM_CHUNK - 1, ADAM_CHUNK, ADAM_CHUNK + 1, 3 * ADAM_CHUNK + 5]),
        n_cuts=st.integers(0, 6),
        steps=st.integers(1, 6),
        weight_decay=st.sampled_from([0.0, 1e-3, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_chunked_step_equals_per_tensor_reference(
        self, size, n_cuts, steps, weight_decay, seed
    ):
        # Flat vectors on both sides of each chunk boundary, split into tensors
        # at random cuts, with gradients holding signed zeros, subnormals,
        # infinities and NaN: every element must come out as the per-tensor
        # oracle computes it, whichever chunk it falls in.
        rng = np.random.default_rng(seed)
        cuts = np.unique(rng.integers(1, size, size=n_cuts)) if size > 1 else []
        tensors = {}
        for i, part in enumerate(np.split(rng.normal(size=size), cuts)):
            rows = int(rng.choice([r for r in (1, 2, 3, 4) if part.size % r == 0]))
            tensors[f"t{i}"] = part.reshape(rows, -1)
        flat = np.concatenate([t.ravel() for t in tensors.values()])
        ref_state = {
            "m": {k: np.zeros_like(t) for k, t in tensors.items()},
            "v": {k: np.zeros_like(t) for k, t in tensors.items()},
            "t": 0,
        }
        state = AdamState.for_params(flat)
        assert state.scratch.size == state.decayed.size == min(flat.size, ADAM_CHUNK)
        special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, np.inf, -np.inf, np.nan]
        offsets = np.cumsum([0] + [t.size for t in tensors.values()])
        for _ in range(steps):
            flat_grad = rng.normal(size=size)
            hits = rng.integers(0, size, size=int(rng.integers(0, 9)))
            flat_grad[hits] = rng.choice(special, size=hits.size)
            kept = flat_grad.copy()
            grads = {
                k: flat_grad[a:b].reshape(t.shape).copy()
                for (k, t), a, b in zip(tensors.items(), offsets, offsets[1:])
            }
            with np.errstate(invalid="ignore"):  # inf / inf where v saturates
                adam_per_tensor(tensors, grads, ref_state, lr=0.01, weight_decay=weight_decay)
                adam_step(flat, flat_grad, state, lr=0.01, weight_decay=weight_decay)
            assert _same_bits(flat_grad, kept)
        assert state.t == ref_state["t"] == steps
        assert _same_bits(flat, np.concatenate([t.ravel() for t in tensors.values()]))
        assert _same_bits(state.m, np.concatenate([m.ravel() for m in ref_state["m"].values()]))
        assert _same_bits(state.v, np.concatenate([v.ravel() for v in ref_state["v"].values()]))


class TestGradientCheck:
    def test_small_networks(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            model, x, dense = _random_model(rng)
            err = gradient_check(model, x, dense, rng=rng)
            assert err < 1e-4, f"seed {seed}: {err}"

    def test_zero_input_kills_first_layer_grads(self):
        rng = np.random.default_rng(9)
        model, x, dense = _random_model(rng)
        x = np.zeros_like(x)
        model_loss_and_grads(model, x, dense)
        w0_grad = model.adapter.weight_grads[0]
        np.testing.assert_array_equal(w0_grad, np.zeros_like(w0_grad))
        assert np.any(model.adapter.bias_grads[0] != 0.0)
        assert gradient_check(model, x, dense, rng=rng) < 1e-4

    def test_descent_direction(self):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            model, x, dense = _random_model(rng)
            before, grads = model_loss_and_grads(model, x, dense)
            state = AdamState.for_params(model.params)
            adam_step(model.params, grads, state, lr=1e-6)
            after = model_loss(model, x, dense)
            assert after <= before


class TestTrain:
    def _data(self, rng, n=16, dim=5, n_videos=4):
        header = _header(n_nodes=7, n_tasks=3, n_corpus=2, n_headlines=9)
        features = rng.normal(size=(n, dim))
        video_of = np.repeat(np.arange(n_videos), n // n_videos)
        specs = head_specs_from_header(header, ("vnm", "vtm_db"), 1)
        targets = row_targets({
            "vnm": [np.sort(rng.choice(7, size=2, replace=False)) for _ in range(n)],
            "vtm_db": [np.sort(rng.choice(3, size=1)) for _ in range(n)],
        })
        return header, features, video_of, targets

    def test_deterministic_checkpoints(self, tmp_path):
        rng = np.random.default_rng(5)
        header, features, video_of, targets = self._data(rng)
        config = TrainConfig(objectives=("vnm", "vtm_db"), max_epochs=3, seed=11, val_fraction=0.25)
        out = []
        for name in ("a", "b"):
            ckpt, hist = trainer.train(features, video_of, header, targets, config)
            path = tmp_path / f"{name}.pkgc"
            save_checkpoint(ckpt, path)
            out.append((path.read_bytes(), hist))
        assert out[0][0] == out[1][0]
        assert out[0][1] == out[1][1]

    def test_loss_decreases(self):
        rng = np.random.default_rng(6)
        header, features, video_of, targets = self._data(rng)
        config = TrainConfig(
            objectives=("vnm", "vtm_db"), max_epochs=20, seed=1,
            learning_rate=1e-2, val_fraction=0.0,
        )
        _, hist = trainer.train(features, video_of, header, targets, config)
        assert hist["train_loss"][-1] < hist["train_loss"][0]

    def test_zero_objectives_rejected(self):
        with pytest.raises(ValueError, match="objective"):
            TrainConfig(objectives=())

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError, match="unknown objective"):
            TrainConfig(objectives=("vnm", "bogus"))

    def test_early_stopping_restores_best(self):
        rng = np.random.default_rng(7)
        header, features, video_of, targets = self._data(rng)
        config = TrainConfig(
            objectives=("vnm",), max_epochs=50, seed=2, patience=2,
            learning_rate=5e-2, val_fraction=0.25,
        )
        ckpt, hist = trainer.train(features, video_of, header, targets, config)
        assert len(hist["val_loss"]) <= 50
        assert ckpt.metadata["best_val_loss"] == pytest.approx(min(hist["val_loss"]))

    def test_checkpoint_applies(self):
        rng = np.random.default_rng(8)
        header, features, video_of, targets = self._data(rng)
        config = TrainConfig(objectives=("vnm",), max_epochs=2, seed=3, val_fraction=0.0)
        ckpt, _ = trainer.train(features, video_of, header, targets, config)
        adapter = trainer.adapter_from_checkpoint(ckpt)
        out = trainer.apply_adapter(adapter, features)
        assert out.shape == features.shape

    def test_checkpoint_layout_adapter_then_heads_in_spec_order(self):
        rng = np.random.default_rng(14)
        header, features, video_of, targets = self._data(rng)
        config = TrainConfig(
            objectives=("vtm_db", "vnm"), max_epochs=1, seed=4, val_fraction=0.0, bottleneck=6
        )
        ckpt, _ = trainer.train(features, video_of, header, targets, config)
        # vtm_db is task-style over 3 tasks, vnm node-style over 7 nodes
        assert ckpt.shapes == [
            ("adapter.w0", 5, 6), ("adapter.b0", 1, 6),
            ("adapter.w1", 6, 5), ("adapter.b1", 1, 5),
            ("head.vtm_db.w0", 5, 1), ("head.vtm_db.b0", 1, 1),
            ("head.vtm_db.w1", 1, 3), ("head.vtm_db.b1", 1, 3),
            ("head.vnm.w0", 5, 1), ("head.vnm.b0", 1, 1),
            ("head.vnm.w1", 1, 3), ("head.vnm.b1", 1, 3),
            ("head.vnm.w2", 3, 7), ("head.vnm.b2", 1, 7),
        ]
        assert ckpt.weights.size == sum(r * c for _, r, c in ckpt.shapes)

    def test_adapter_from_checkpoint_rejects_foreign_layout(self):
        rng = np.random.default_rng(15)
        header, features, video_of, targets = self._data(rng)
        config = TrainConfig(objectives=("vnm",), max_epochs=1, seed=3, val_fraction=0.0)
        ckpt, _ = trainer.train(features, video_of, header, targets, config)
        renamed = [("other.w0", *ckpt.shapes[0][1:])] + ckpt.shapes[1:]
        wrong_dim = dict(ckpt.metadata, dim=4)
        for bad in (
            ModelCheckpoint(renamed, ckpt.weights, ckpt.metadata),
            ModelCheckpoint(ckpt.shapes, ckpt.weights, wrong_dim),
            ModelCheckpoint(ckpt.shapes[:3], ckpt.weights[:10], ckpt.metadata),
        ):
            with pytest.raises(ValueError, match="adapter layout"):
                trainer.adapter_from_checkpoint(bad)

    def test_vsm_objective_trains_headline_head(self):
        rng = np.random.default_rng(12)
        header = _header(n_headlines=9)
        n = 8
        features = rng.normal(size=(n, 5))
        video_of = np.repeat(np.arange(2), 4)
        targets = row_targets(
            {"vsm": [np.sort(rng.choice(9, size=2, replace=False)) for _ in range(n)]}
        )
        config = TrainConfig(objectives=("vsm",), max_epochs=2, seed=0, val_fraction=0.0)
        ckpt, hist = trainer.train(features, video_of, header, targets, config)
        assert ckpt.metadata["heads"] == {"vsm": 9}
        assert len(hist["train_loss"]) == 2

    def test_nrl_two_hop_heads(self):
        rng = np.random.default_rng(13)
        header = _header(n_nodes=6)
        features = rng.normal(size=(4, 5))
        video_of = np.zeros(4, dtype=int)
        targets = row_targets({
            name: [np.array([0]) for _ in range(4)]
            for name in ("nrl_in_1", "nrl_out_1", "nrl_in_2", "nrl_out_2")
        })
        config = TrainConfig(objectives=("nrl",), nrl_hops=2, max_epochs=1, val_fraction=0.0)
        ckpt, _ = trainer.train(features, video_of, header, targets, config)
        assert set(ckpt.metadata["heads"]) == set(targets)
