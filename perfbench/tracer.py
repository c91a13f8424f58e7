"""Per-function spans for one pkgforge stage, recorded from outside the package.

Wrappers replace public functions on the namespace that calls them, so a
function imported by name into another module (``labeler.khop_neighbors``,
``trainer.adam_step``) is wrapped there as well as at home. Each wrapper
records calls, inclusive time and self time (inclusive minus the time of
wrapped calls made inside it, on the same thread). Functions that run once
per segment also keep every call's duration, for percentiles. Optional
hooks count work from the arguments or result: bytes read, dot products,
rows trained, flops computed from shapes.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from time import perf_counter


class FunctionStats:
    __slots__ = ("calls", "total_s", "self_s", "samples", "counters")

    def __init__(self, keep_samples: bool):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.samples: list[float] | None = [] if keep_samples else None
        self.counters: dict[str, float] = {}

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def summary(self) -> dict:
        out = {"calls": self.calls, "total_s": self.total_s, "self_s": self.self_s}
        if self.samples:
            ordered = sorted(self.samples)
            out["p50_ms"] = 1e3 * nearest_rank(ordered, 0.50)
            out["p99_ms"] = 1e3 * nearest_rank(ordered, 0.99)
        out.update(self.counters)
        return out


def nearest_rank(ordered: list[float], q: float) -> float:
    """The q-quantile of an ascending list by the nearest-rank rule."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tracer:
    """Owns the wrappers installed for one stage and the stats they record."""

    def __init__(self):
        self.stats: dict[str, FunctionStats] = {}
        # time inside outermost wrapped calls on the main thread; unlike summed
        # self time it does not count thread-pool work the main thread waits on
        self.main_thread_s = 0.0
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, label: str, fn, per_call: bool = False, hook=None):
        stats = self.stats.setdefault(label, FunctionStats(per_call))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                elif threading.current_thread() is threading.main_thread():
                    self.main_thread_s += elapsed
                with self._lock:
                    stats.calls += 1
                    stats.total_s += elapsed
                    stats.self_s += elapsed - inner
                    if stats.samples is not None:
                        stats.samples.append(elapsed)
            if hook is not None:
                with self._lock:
                    hook(stats, args, result)
            return result

        return traced

    def install(self, owner, attr: str, label: str, per_call: bool = False, hook=None) -> None:
        setattr(owner, attr, self.wrap(label, getattr(owner, attr), per_call, hook))

    def summary(self) -> dict:
        return {label: s.summary() for label, s in sorted(self.stats.items())}


# ---------------------------------------------------------------------------
# counting hooks


def _bytes_of_path(stats, args, result):
    stats.count("bytes", os.path.getsize(args[0]))


def _matched(stats, args, result):
    stats.count("nonempty", 1 if result else 0)


def _dot_products(stats, args, result):
    stats.count("dot_products", result.size)


def _kept(stats, args, result):
    stats.count("kept", len(result))


def _mac_count(mlp) -> int:
    return sum(a * b for a, b in zip(mlp.dims, mlp.dims[1:]))


def _forward_flop(stats, args, result):
    mlp, x = args[0], args[1]
    stats.count("flop", 2 * x.shape[0] * _mac_count(mlp))


def _backward_flop(stats, args, result):
    # weight gradient and input gradient, one multiply-add each per weight
    mlp, grad_out = args[0], args[2]
    stats.count("flop", 4 * grad_out.shape[0] * _mac_count(mlp))


def _rows(stats, args, result):
    stats.count("rows", args[1].shape[0])


def _examples(stats, args, result):
    stats.count("examples", len(args[1]))


def install_all(tracer: Tracer) -> None:
    """Wrap every traced function of pkgforge on the namespaces that call it."""
    from pkgforge import (
        corpus_io, dedup, downstream, graph, labeler, matcher, nn, synthgen, trainer,
    )

    plain = {
        synthgen: ["generate", "save_truth"],
        corpus_io: [
            "save_step_database", "save_segment_corpus", "write_feature_file",
            "save_checkpoint", "checkpoint_from_params",
        ],
        dedup: ["cluster_headlines"],
        graph: [
            "build_graph", "database_transitions", "normalize_scores", "assemble_graph",
            "save_graph", "load_graph", "graph_stats",
        ],
        labeler: ["emit_labels", "build_occurrence_matrix", "save_labels", "load_labels"],
        trainer: [
            "head_specs_from_header", "targets_from_labels", "train", "model_loss",
            "adapter_from_checkpoint", "apply_adapter",
        ],
        downstream: [
            "save_annotations", "load_annotations", "build_downstream_dataset",
            "train_downstream", "evaluate",
        ],
        nn: ["sigmoid", "softplus"],
    }
    for module, names in plain.items():
        prefix = module.__name__.rsplit(".", 1)[-1]
        for name in names:
            tracer.install(module, name, f"{prefix}.{name}")

    for name in ("load_step_database", "load_segment_corpus", "read_feature_file",
                 "load_checkpoint"):
        tracer.install(corpus_io, name, f"corpus_io.{name}", hook=_bytes_of_path)
    tracer.install(matcher, "score_video", "matcher.score_video", hook=_dot_products)
    tracer.install(graph, "corpus_transitions", "graph.corpus_transitions", hook=_kept)
    tracer.install(trainer, "model_loss_and_grads", "trainer.model_loss_and_grads", hook=_rows)

    # once per segment: keep per-call durations
    tracer.install(matcher, "matched_headlines", "matcher.matched_headlines", True, _matched)
    for name in ("node_scores_from_headlines", "top_k_nodes", "vsm_top_headlines"):
        tracer.install(matcher, name, f"matcher.{name}", per_call=True)
    for name in ("vnm_labels", "vtm_db_labels", "vtm_corpus_labels", "tcl_db_labels",
                 "tcl_corpus_labels", "nrl_labels"):
        tracer.install(labeler, name, f"labeler.{name}", per_call=True)
    tracer.install(labeler, "khop_neighbors", "graph.khop_neighbors", per_call=True)

    # nn functions imported by name into their callers
    tracer.install(trainer, "adam_step", "nn.adam_step")
    tracer.install(trainer, "bce_with_logits", "nn.bce_with_logits")
    tracer.install(downstream, "adam_step", "nn.adam_step")
    tracer.install(downstream, "softmax_cross_entropy", "nn.softmax_cross_entropy")

    tracer.install(nn.Mlp, "forward", "nn.Mlp.forward", hook=_forward_flop)
    tracer.install(nn.Mlp, "backward", "nn.Mlp.backward", hook=_backward_flop)
    tracer.install(downstream.DownstreamModel, "forward", "downstream.DownstreamModel.forward")
    tracer.install(
        downstream.DownstreamModel, "backward", "downstream.DownstreamModel.backward",
        hook=_examples,
    )
