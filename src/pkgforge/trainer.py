"""Train the feature adapter and its per-objective answer heads.

The adapter is a bottleneck MLP (input -> 128 -> input, ReLU inside) whose
output feeds one answer head per active objective. Heads over node-style
classes use hidden widths C//4 and C//2; heads over task-style classes use
a single C//2 hidden layer. Every objective is multi-label binary cross
entropy and the total loss is their unweighted sum. All gradients are
hand-derived and checked against central finite differences.

Each head's targets are one `labeler.Ragged` CSR of positive class ids
per segment, taken from the columnar labels before training: vnm and vsm
as stored, the set-derived families gathered by each segment's set. A
mini-batch's targets are its rows' positives, `take(rows)` as (row, id)
pairs, and its features its rows cast to f64 (the CLI keeps the corpus's
f32 rows). The held-out loss runs `Mlp.predict` and `nn.bce_loss`, so it
keeps no forward cache and computes no gradient.

The adapter and heads share one flat f64 parameter vector laid out as
adapter.w0, adapter.b0, ..., then head.<name>.w<k>, head.<name>.b<k> per
head in spec order. Adam steps that vector whole, and the checkpoint
payload is its f32 cast, with that layout as the shape table.

The epochs, early stopping and best-epoch restore are `nn.fit`, the loop
the downstream probes train through too; `train` supplies the batch step
and the held-out loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus_io import ModelCheckpoint, checkpoint_from_params
from .labeler import NRL_HOPS, PseudoLabels, Ragged
from .nn import AdamState, Mlp, adam_step, bce_loss, bce_with_logits, fit

BOTTLENECK_DIM = 128

NODE_STYLE = "node"
TASK_STYLE = "task"

# objective -> (head kind, which labels header field sizes the class space)
OBJECTIVE_SPECS = {
    "vnm": (NODE_STYLE, "num_nodes"),
    "vtm_db": (TASK_STYLE, "task_ids"),
    "vtm_corpus": (TASK_STYLE, "corpus_task_names"),
    "tcl_db": (NODE_STYLE, "num_nodes"),
    "tcl_corpus": (NODE_STYLE, "num_nodes"),
    "vsm": (NODE_STYLE, "num_headlines"),
}


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    batch_size: int = 256
    max_epochs: int = 60
    patience: int = 10
    seed: int = 0
    objectives: tuple[str, ...] = ("vnm", "vtm_db", "vtm_corpus", "tcl_db", "nrl")
    nrl_hops: int = 1
    bottleneck: int = BOTTLENECK_DIM
    val_fraction: float = 0.1

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        for name in ("batch_size", "max_epochs", "bottleneck"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 1 <= self.nrl_hops <= NRL_HOPS:  # the labels hold NRL_HOPS hops
            raise ValueError(f"nrl_hops must lie in [1, {NRL_HOPS}], got {self.nrl_hops}")
        if self.patience < 0:
            raise ValueError(f"patience must be >= 0, got {self.patience}")
        if not 0 <= self.val_fraction < 1:
            raise ValueError(f"val_fraction must lie in [0, 1), got {self.val_fraction}")
        if not self.objectives:
            raise ValueError("at least one training objective is required")
        for obj in self.objectives:
            if obj != "nrl" and obj not in OBJECTIVE_SPECS:
                raise ValueError(f"unknown objective {obj!r}")


@dataclass
class HeadSpec:
    name: str
    kind: str  # NODE_STYLE | TASK_STYLE
    n_classes: int

    def dims(self, input_dim: int) -> list[int]:
        c = self.n_classes
        if self.kind == NODE_STYLE:
            # C//4 and C//2, clamped so toy class counts stay constructible
            return [input_dim, max(1, c // 4), max(1, c // 2), c]
        return [input_dim, max(1, c // 2), c]


def expand_objectives(objectives, nrl_hops: int) -> list[str]:
    """Expand "nrl" into its per-direction, per-hop head names."""
    names = []
    for obj in objectives:
        if obj == "nrl":
            for k in range(1, nrl_hops + 1):
                names.extend([f"nrl_in_{k}", f"nrl_out_{k}"])
        else:
            names.append(obj)
    return names


def head_specs_from_header(header: dict, objectives, nrl_hops: int) -> list[HeadSpec]:
    if "nrl" in objectives and nrl_hops > header["nrl_hops"]:
        raise ValueError(f"nrl_hops={nrl_hops} exceeds the labels' nrl_hops={header['nrl_hops']}")
    specs = []
    for name in expand_objectives(objectives, nrl_hops):
        if name.startswith("nrl_"):
            specs.append(HeadSpec(name, NODE_STYLE, header["num_nodes"]))
            continue
        kind, size_field = OBJECTIVE_SPECS[name]
        size = header[size_field]
        n_classes = size if isinstance(size, int) else len(size)
        if n_classes < 1:
            raise ValueError(f"objective {name!r} has an empty class space")
        specs.append(HeadSpec(name, kind, n_classes))
    return specs


def targets_from_labels(labels: PseudoLabels, specs: list[HeadSpec]) -> dict[str, Ragged]:
    """Positive class ids per head, one CSR row per record (checked by `load_labels`):
    vnm and vsm as stored, each set-derived family gathered by the records' sets.
    Scores are not targets, so they are left behind."""
    targets: dict[str, Ragged] = {}
    for spec in specs:
        family = labels.families[spec.name]
        ids = Ragged(family.indptr, family.ids)
        targets[spec.name] = ids if spec.name in ("vnm", "vsm") else ids.take(labels.set)
    return targets


@dataclass
class PaprikaModel:
    """Adapter plus answer heads; only the adapter survives to evaluation."""

    adapter: Mlp
    heads: dict[str, Mlp]
    specs: list[HeadSpec]
    params: np.ndarray  # flat, adapter then heads in spec order
    grads: np.ndarray  # same layout as params

    @classmethod
    def build(cls, dim: int, specs: list[HeadSpec], bottleneck: int, rng: np.random.Generator):
        all_dims = [[dim, bottleneck, dim]] + [s.dims(dim) for s in specs]
        total = sum(Mlp.size(d) for d in all_dims)
        params, grads = np.zeros(total), np.zeros(total)
        mlps = []
        offset = 0
        for dims in all_dims:
            end = offset + Mlp.size(dims)
            mlps.append(Mlp(dims, rng, params[offset:end], grads[offset:end]))
            offset = end
        heads = {s.name: mlp for s, mlp in zip(specs, mlps[1:])}
        return cls(adapter=mlps[0], heads=heads, specs=specs, params=params, grads=grads)

    def shapes(self) -> list[tuple[str, int, int]]:
        out = Mlp.shapes(self.adapter.dims, "adapter")
        for spec in self.specs:
            out += Mlp.shapes(self.heads[spec.name].dims, f"head.{spec.name}")
        return out


def batch_positives(targets: dict[str, Ragged], rows: np.ndarray) -> dict[str, tuple]:
    """Per head, the given rows' positives as (row in the batch, class id) arrays."""
    picked = {name: csr.take(rows) for name, csr in targets.items()}
    return {name: (csr.rows(), csr.ids) for name, csr in picked.items()}


def model_loss_and_grads(model: PaprikaModel, x: np.ndarray, positives: dict[str, tuple]):
    """Total BCE over all heads; overwrites and returns the model's flat gradient."""
    z, adapter_cache = model.adapter.forward(x)
    total = 0.0
    dz = np.zeros_like(z)
    for spec in model.specs:
        head = model.heads[spec.name]
        logits, cache = head.forward(z)
        loss, dlogits = bce_with_logits(logits, positives[spec.name])
        total += loss
        dz += head.backward(cache, dlogits)
    model.adapter.backward(adapter_cache, dz)
    return total, model.grads


def model_loss(model: PaprikaModel, x, positives) -> float:
    """Total BCE over all heads, without a forward cache or a gradient."""
    z = model.adapter.predict(x)
    return sum(bce_loss(model.heads[s.name].predict(z), positives[s.name]) for s in model.specs)


def _dataset_loss(model, features, targets, indices) -> float:
    total = 0.0
    for start in range(0, len(indices), 1024):  # the chunk size fixes the loss bits
        rows = indices[start : start + 1024]
        x = features[rows].astype(np.float64, copy=False)  # exact from f32
        total += model_loss(model, x, batch_positives(targets, rows)) * len(rows)
    return total / max(1, len(indices))


def train(
    features: np.ndarray,
    video_of: np.ndarray,
    header: dict,
    targets: dict[str, Ragged],
    config: TrainConfig,
    config_hash: str | None = None,
) -> tuple[ModelCheckpoint, dict]:
    """Mini-batch Adam over shuffled segments with video-disjoint validation.

    `nn.fit` runs the epochs with early stopping on the held-out total loss:
    training stops once it has not improved for more than `patience`
    consecutive epochs, and the best-scoring parameters are the ones
    checkpointed. The whole procedure is a pure function of (features,
    targets, config).
    """
    n, dim = features.shape
    if n == 0:
        raise ValueError("cannot train on an empty segment set")
    specs = head_specs_from_header(header, config.objectives, config.nrl_hops)

    rng = np.random.default_rng(config.seed)
    model = PaprikaModel.build(dim, specs, config.bottleneck, rng)
    params = model.params
    adam = AdamState.for_params(params)

    videos = np.unique(video_of)
    n_val_videos = int(round(config.val_fraction * videos.size))
    is_val = np.zeros(n, dtype=bool)
    if 0 < n_val_videos < videos.size:
        is_val = np.isin(video_of, rng.permutation(videos)[:n_val_videos])
    train_idx, val_idx = np.nonzero(~is_val)[0], np.nonzero(is_val)[0]

    def step(batch: np.ndarray) -> float:
        rows = train_idx[batch]
        x = features[rows].astype(np.float64, copy=False)
        loss, grads = model_loss_and_grads(model, x, batch_positives(targets, rows))
        adam_step(params, grads, adam, lr=config.learning_rate)
        return loss

    def validate() -> float:
        return _dataset_loss(model, features, targets, val_idx)

    result = fit(params, train_idx.size, config, rng, step, validate if val_idx.size else None)

    metadata = {
        "dim": dim,
        "bottleneck": config.bottleneck,
        "heads": {s.name: s.n_classes for s in specs},
        "head_kinds": {s.name: s.kind for s in specs},
        "objectives": list(config.objectives),
        "nrl_hops": config.nrl_hops,
        "seed": config.seed,
        "config_hash": config_hash,
        "best_epoch": result.best_epoch,
        "best_val_loss": None if not val_idx.size else result.best_score,
    }
    history = {"train_loss": result.train_loss, "val_loss": result.val_score}
    return checkpoint_from_params(params, model.shapes(), metadata), history


# ---------------------------------------------------------------------------
# applying a trained adapter


def adapter_from_checkpoint(ckpt: ModelCheckpoint) -> Mlp:
    """The adapter from the leading slice of a pretraining checkpoint."""
    dim = ckpt.metadata.get("dim")
    dims = [dim, ckpt.metadata.get("bottleneck", BOTTLENECK_DIM), dim]
    want = Mlp.shapes(dims, "adapter")
    got = [tuple(entry) for entry in ckpt.shapes[: len(want)]]
    if got != want:
        raise ValueError(f"checkpoint does not start with the adapter layout {want}: {got}")
    return Mlp(dims, params=ckpt.weights[: Mlp.size(dims)].astype(np.float64))


def apply_adapter(adapter: Mlp, features: np.ndarray) -> np.ndarray:
    return adapter.predict(np.asarray(features, dtype=np.float64))

