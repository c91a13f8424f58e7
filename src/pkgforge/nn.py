"""Minimal feed-forward machinery with hand-written backprop.

Everything computes in the float dtype of the parameters and inputs it is
given, and the models take theirs from their features:
`np.result_type(features.dtype, np.float32)`. So the CLI, which reads
f32 rows, trains and probes in f32, and an f64 caller (the finite-difference
gradient checks among them) gets f64 with every allocation and operation
order unchanged. Reruns are bit-identical in either. Layers are plain
affine maps with rectifiers between them and a linear output. `forward`'s
cache is its activations, one array per layer (the rectifier runs in place);
`predict` keeps none. BCE takes its targets as (row, class id) positives.
A model keeps all of its parameters in one flat vector (its layers are
views into it), so Adam, snapshots and checkpoints each handle a single
array; a checkpoint payload is the f32 cast of that vector in declaration
order. Adam walks that vector in fixed `ADAM_CHUNK`-element slices, so its
working set stays in cache and its scratch buffers are one slice long
whatever the model size.

`fit` is the one training loop (shuffled mini-batches, held-out early
stopping, best-epoch snapshot) for the adapter and every downstream probe.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

log = logging.getLogger(__name__)

# Elements per Adam slice: six f64 arrays of this length (param, grad, m, v and
# two scratch buffers) take 1.5 MiB, six f32 ones half that; either fits a
# typical per-core L2 cache.
ADAM_CHUNK = 32768

# Adam's moment decay rates and denominator epsilon (the Adam paper's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def sigmoid(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Logistic function without overflow, given `e` = exp(-|x|).

    Equals 1 / (1 + exp(-x)) where x >= 0 and exp(x) / (1 + exp(x)) elsewhere,
    bit for bit, from one exponential.
    """
    denom = 1.0 + e
    out = e / denom
    np.divide(1.0, denom, out=out, where=x >= 0)
    return out


def softplus(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)) without overflow, given `e` = exp(-|x|)."""
    return np.maximum(x, 0.0) + np.log1p(e)


class Mlp:
    """Affine layers with ReLU between them; the final layer stays linear.

    All weights and biases are reshaped views into one flat parameter vector
    laid out as w0, b0, w1, b1, ...; backward writes into views of a
    same-layout gradient vector. A model passes in its own slices of both so
    that every layer it owns lives in one buffer; a standalone Mlp allocates
    its own, f64 unless given parameters set the dtype. Given parameters keep
    their values unless rng draws new ones, which are rounded to their dtype.
    Activations take the dtype of input and parameters combined.
    """

    def __init__(
        self,
        dims: list[int],
        rng: np.random.Generator | None = None,
        params: np.ndarray | None = None,
        grads: np.ndarray | None = None,
    ):
        if len(dims) < 2:
            raise ValueError("an MLP needs at least input and output dimensions")
        if any(d < 1 for d in dims):
            raise ValueError(f"all layer widths must be >= 1, got {dims}")
        self.dims = list(dims)
        size = self.size(dims)
        self.params = np.zeros(size) if params is None else params
        self.grads = np.zeros_like(self.params) if grads is None else grads
        self.weights, self.biases = _layer_views(self.params, dims)
        self.weight_grads, self.bias_grads = _layer_views(self.grads, dims)
        if rng is not None:
            for w, b in zip(self.weights, self.biases):
                # biases share the layer's uniform range: exact-zero biases
                # park dead units right on the rectifier kink, which breaks
                # finite-difference verification
                limit = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
                w[...] = rng.uniform(-limit, limit, size=w.shape)
                b[...] = rng.uniform(-limit, limit, size=b.shape)

    @staticmethod
    def size(dims: list[int]) -> int:
        return sum(a * b + b for a, b in zip(dims, dims[1:]))

    @staticmethod
    def shapes(dims: list[int], prefix: str) -> list[tuple[str, int, int]]:
        """Checkpoint shape entries in layout order; biases are (name, 1, n)."""
        out = []
        for i, (a, b) in enumerate(zip(dims, dims[1:])):
            out += [(f"{prefix}.w{i}", a, b), (f"{prefix}.b{i}", 1, b)]
        return out

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def _layers(self, x: np.ndarray):
        """Yields each layer's output, rectified in place on all but the last."""
        if x.shape[1] != self.dims[0]:
            raise ValueError(f"input dimension {x.shape[1]} != expected {self.dims[0]}")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            x = x @ w
            x += b
            if i < self.n_layers - 1:
                np.maximum(x, 0.0, out=x)
            yield x

    def forward(self, x: np.ndarray):
        """Returns (output, cache); x is a (batch, dims[0]) array and the cache its
        activations, x first and the output last."""
        acts = [x, *self._layers(x)]
        return acts[-1], acts

    def predict(self, x: np.ndarray) -> np.ndarray:
        """forward's output, holding one activation at a time."""
        for out in self._layers(x):
            pass
        return out

    def backward(self, cache, grad_out: np.ndarray) -> np.ndarray:
        """Overwrites this layer stack's gradient slice; returns grad wrt input."""
        acts, g = cache, grad_out
        for i in reversed(range(self.n_layers)):
            # relu(p) > 0 exactly where p > 0, NaN included
            dpre = g if i == self.n_layers - 1 else g * (acts[i + 1] > 0)
            np.matmul(acts[i].T, dpre, out=self.weight_grads[i])
            dpre.sum(axis=0, out=self.bias_grads[i])
            g = dpre @ self.weights[i].T
        return g


def _layer_views(flat: np.ndarray, dims: list[int]):
    weights, biases = [], []
    offset = 0
    for a, b in zip(dims, dims[1:]):
        weights.append(flat[offset : offset + a * b].reshape(a, b))
        biases.append(flat[offset + a * b : offset + a * b + b])
        offset += a * b + b
    return weights, biases


def bce_loss(logits: np.ndarray, positives, e: np.ndarray | None = None) -> float:
    """Multi-label binary cross entropy, mean over batch and classes. `positives` is a
    (rows, class ids) pair of int arrays, a batch Ragged's (rows(), ids), where targets
    are 1; a pair given twice counts once. softplus(x) - target * x never hits a log(0),
    and x is subtracted at the positives only. `e` is exp(-|logits|), if computed."""
    rows, ids = positives
    per_class = softplus(logits, np.exp(-np.abs(logits)) if e is None else e)
    per_class[rows, ids] -= logits[rows, ids]
    return float(np.mean(per_class))


def bce_with_logits(logits: np.ndarray, positives):
    """(`bce_loss`, dLoss/dlogits) from one exp(-|logits|) pass; the per-class loss
    is freed before the gradient exists."""
    e = np.exp(-np.abs(logits))
    loss = bce_loss(logits, positives, e)
    dlogits = sigmoid(logits, e)
    dlogits[positives] -= 1.0
    dlogits /= logits.size
    return loss, dlogits


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Single-label cross entropy with stable log-softmax; mean over batch."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    batch = logits.shape[0]
    loss = float(-np.mean(logp[np.arange(batch), labels]))
    dlogits = np.exp(logp)
    dlogits[np.arange(batch), labels] -= 1.0
    return loss, dlogits / batch


@dataclass
class AdamState:
    """First and second moments laid out like the parameters, plus scratch.

    All four take the parameters' dtype. `m` and `v` are full-size; `scratch`
    and `decayed` (the weight-decayed gradient) hold one chunk,
    `min(size, ADAM_CHUNK)` elements, and are reused by every slice of every
    step.
    """

    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray
    decayed: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, params: np.ndarray) -> "AdamState":
        chunk = min(params.size, ADAM_CHUNK)
        return cls(
            m=np.zeros_like(params),
            v=np.zeros_like(params),
            scratch=np.empty(chunk, params.dtype),
            decayed=np.empty(chunk, params.dtype),
        )


def adam_step(
    param: np.ndarray,
    grad: np.ndarray,
    state: AdamState,
    lr: float,
    weight_decay: float = 0.0,
) -> None:
    """One in-place Adam update with bias correction (L2-style weight decay).

    Runs over a model's whole flat (1-D) parameter vector, one `ADAM_CHUNK`
    slice at a time, so the fifteen ufunc passes work on a cache-resident
    slice instead of each streaming the whole vector. Adam is elementwise
    and each element sees the same operations in the same order, so this
    equals a per-tensor update bit for bit. The decayed gradient and every
    intermediate go to the state's one-chunk buffers, so a step allocates
    nothing and leaves `grad` untouched.
    """
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    for start in range(0, param.size, ADAM_CHUNK):
        stop = start + ADAM_CHUNK
        p, g = param[start:stop], grad[start:stop]
        m, v = state.m[start:stop], state.v[start:stop]
        sc = state.scratch[: p.size]
        if weight_decay:
            g = np.multiply(p, weight_decay, out=state.decayed[: p.size])
            g += grad[start:stop]
        m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=sc)
        m += sc
        v *= ADAM_BETA2
        np.multiply(g, g, out=sc)
        sc *= 1.0 - ADAM_BETA2
        v += sc
        np.divide(v, bc2, out=sc)
        np.sqrt(sc, out=sc)
        sc += ADAM_EPS
        np.divide(m, sc, out=sc)
        sc *= lr / bc1
        p -= sc


@dataclass
class FitResult:
    """Per-epoch training losses and validation scores, and the best epoch."""

    train_loss: list[float] = field(default_factory=list)
    val_score: list[float] = field(default_factory=list)
    best_epoch: int = 0
    best_score: float = np.inf  # stays inf without validation


def fit(
    params: np.ndarray, n_train: int, config, rng: np.random.Generator,
    step: Callable[[np.ndarray], float], validate: Callable[[], float] | None = None,
) -> FitResult:
    """Mini-batch training with early stopping; leaves `params` at the best epoch.

    `config` (a TrainConfig or DownstreamConfig) gives batch_size, max_epochs
    and patience. `step` gets each `min(batch_size, n_train)`-row slice of an
    epoch's `rng.permutation(n_train)`, updates `params` and returns the batch
    mean loss. `validate` scores an epoch, lower being better; training stops
    after more than `patience` epochs without strict improvement (NaN never
    improves). Without `validate` every epoch counts as the best.
    """
    result, best, stall = FitResult(), params.copy(), 0
    batch = min(config.batch_size, n_train)
    for epoch in range(config.max_epochs):
        order = rng.permutation(n_train)
        epoch_loss = 0.0
        for start in range(0, n_train, batch):
            rows = order[start : start + batch]
            epoch_loss += step(rows) * rows.size
        result.train_loss.append(epoch_loss / n_train)

        if validate is None:
            np.copyto(best, params)
            result.best_epoch = epoch
            continue
        score = validate()
        result.val_score.append(score)
        if score < result.best_score:
            result.best_score = score
            np.copyto(best, params)
            result.best_epoch = epoch
            stall = 0
        else:
            stall += 1
            if stall > config.patience:
                log.info("early stop at epoch %d (best %d)", epoch, result.best_epoch)
                break
    np.copyto(params, best)
    return result
