"""Command-line pipeline: synth | build-graph | labels | pretrain | eval | graph-stats.

Every stage is config-driven and seeded. A stage's configuration comes
only from --config (a PipelineConfig JSON file), or else --preset, plus
--seed; there are no per-field flags. Artifacts embed the producing config
hash and later stages refuse inputs with a different hash, or with none,
unless --force is given, so every stage of one run must receive the same
--config/--preset/--seed. graph-stats reads no config. Every subcommand
accepts --threads and ignores it: each runs on one Python thread and
numpy's BLAS picks its own thread count. Set PKGFORGE_LOG=INFO (or DEBUG)
for progress logging.
"""

from __future__ import annotations

import argparse
import gc
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import corpus_io, downstream, graph as graph_mod, labeler, synthgen, trainer
from .config import (
    PAPER_DEDUP_THRESHOLD, PAPER_INSTANCE_THRESHOLD, PAPER_MATCH_THRESHOLD, PipelineConfig,
    synthetic_preset,
)

log = logging.getLogger("pkgforge")


class CliError(RuntimeError):
    pass


def _common_flags(p: argparse.ArgumentParser, force: bool = True) -> None:
    lr = np.format_float_scientific(trainer.TrainConfig.learning_rate, trim="-", exp_digits=1)
    p.add_argument(
        "--config", type=Path, default=None,
        help="pipeline config JSON; replaces --preset (every field not in the file "
        "keeps its paper default)",
    )
    p.add_argument(
        "--preset",
        choices=["paper", "synthetic"],
        default="paper",
        help="base config when no --config is given. paper: dedup threshold "
        f"{PAPER_DEDUP_THRESHOLD:g}, match threshold {PAPER_MATCH_THRESHOLD:g}, transition "
        f"prune {PAPER_INSTANCE_THRESHOLD:g}, lr {lr}, batch {trainer.TrainConfig.batch_size}; "
        "synthetic: the prune scaled to the synthetic world, at the low noise level",
    )
    p.add_argument("--seed", type=int, default=None, help="override the pipeline seed")
    if force:
        p.add_argument("--force", action="store_true", help="skip config-hash consistency checks")
    _threads_flag(p)


def _threads_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--threads", type=int, default=os.cpu_count() or 1,
        help="accepted and ignored: every stage runs on one Python thread "
        "(numpy's BLAS sets its own thread count)",
    )


def _resolve_config(args) -> PipelineConfig:
    if args.config is not None:
        cfg = PipelineConfig.load(args.config)
    elif args.preset == "synthetic":
        cfg = synthetic_preset()
    else:
        cfg = PipelineConfig()
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.__post_init__()
    return cfg


def _check_hash(artifact_hash: str | None, cfg: PipelineConfig, what: str, force: bool) -> None:
    if force:
        return
    if artifact_hash is None:
        raise CliError(
            f"{what} carries no config hash, so it cannot be matched to the current config "
            f"{cfg.config_hash()}; regenerate it or pass --force"
        )
    if artifact_hash != cfg.config_hash():
        raise CliError(
            f"{what} was produced under config hash {artifact_hash}, current is "
            f"{cfg.config_hash()}; rerun with the matching config or pass --force"
        )


def _load_corpus(world: Path, cfg: PipelineConfig, force: bool) -> corpus_io.SegmentCorpus:
    """The world's segment corpus, once a synthetic world's truth.json hash is checked;
    a world without one (real data) passes."""
    truth_path = world / "truth.json"
    if truth_path.exists():
        _check_hash(synthgen.load_truth(truth_path).config_hash, cfg, str(truth_path), force)
    return corpus_io.load_segment_corpus(world / "manifest.jsonl")


def _load_world(world: Path, cfg: PipelineConfig, force: bool):
    corpus = _load_corpus(world, cfg, force)
    return corpus_io.load_step_database(world / "steps.jsonl"), corpus


def _emit(obj: dict, out: Path | None) -> None:
    text = corpus_io.canonical_json(obj) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with corpus_io.atomic_write(out) as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommands


# what synth writes into --out
WORLD_FILES = ("manifest.jsonl", "segments.f32", "steps.jsonl", "steps.f64", "truth.json",
               "downstream_labels.jsonl")


def cmd_synth(args) -> None:
    cfg = _resolve_config(args)
    out: Path = args.out
    # a second world written over a first, and interrupted, would leave a
    # loadable mix of the two; so synth only writes where no world file is
    for name in WORLD_FILES:
        if (out / name).exists():
            raise CliError(f"{out / name} already exists; synth writes a world only into "
                           "a new or empty directory")
    out.mkdir(parents=True, exist_ok=True)
    truth, db, corpus = synthgen.generate(cfg.world)
    corpus_io.save_step_database(db, out / "steps.jsonl")
    corpus_io.save_segment_corpus(corpus, out)
    synthgen.save_truth(truth, out / "truth.json", config_hash=cfg.config_hash())
    downstream.save_annotations(truth.annotations, out / "downstream_labels.jsonl")
    log.info(
        "world: %d tasks, %d steps, %d videos, %d segments",
        cfg.world.n_tasks, truth.n_steps, len(corpus.videos), corpus.num_segments,
    )
    _emit(
        {
            "world": str(out),
            "num_steps": truth.n_steps,
            "num_headlines": db.num_headlines,
            "num_videos": len(corpus.videos),
            "num_segments": corpus.num_segments,
            "config_hash": cfg.config_hash(),
        },
        None,
    )


def cmd_build_graph(args) -> None:
    cfg = _resolve_config(args)
    db, corpus = _load_world(args.world, cfg, args.force)
    pkg = graph_mod.build_graph(
        db,
        corpus,
        dedup_threshold=cfg.dedup_threshold,
        match_threshold=cfg.match_threshold,
        instance_threshold=cfg.instance_threshold,
        config_hash=cfg.config_hash(),
    )
    graph_mod.save_graph(pkg, args.out)
    _emit(graph_mod.graph_stats(pkg), None)


def cmd_labels(args) -> None:
    cfg = _resolve_config(args)
    db, corpus = _load_world(args.world, cfg, args.force)
    pkg = graph_mod.load_graph(args.graph)
    _check_hash(pkg.config_hash, cfg, str(args.graph), args.force)
    header, records = labeler.emit_labels(corpus, db, pkg)
    labeler.save_labels(header, records, args.out)
    _emit({k: header[k] for k in ("num_segments", "num_nodes", "config_hash")}, None)


def cmd_pretrain(args) -> None:
    cfg = _resolve_config(args)
    # the corpus and the label records are dropped once consumed, so training
    # holds the features once and the labels only as CSR targets
    corpus = _load_corpus(args.world, cfg, args.force)
    keys = [(v.video_id, i) for v in corpus.videos for i in range(v.segments.shape[0])]
    lengths = [len(v.segments) for v in corpus.videos]
    # a world without videos has no rows to concatenate
    features = (np.concatenate([v.segments for v in corpus.videos], dtype=np.float64)
                if corpus.videos else np.zeros((0, 0)))
    video_of = np.repeat(np.arange(len(lengths)), lengths)
    del corpus
    # refused here, before the labels: such a world also leaves the heads' class spaces empty
    if not len(features):
        raise CliError("cannot train on an empty segment set")

    header, records = labeler.load_labels(args.labels)
    _check_hash(header.get("config_hash"), cfg, str(args.labels), args.force)
    if keys != [(r.video_id, r.segment_index) for r in records]:
        raise CliError("labels file does not line up with the corpus segment order")
    del keys
    specs = trainer.head_specs_from_header(header, cfg.train.objectives, cfg.train.nrl_hops)
    targets = trainer.targets_from_labels(records, specs)
    del records
    # the interpreter's free lists keep the last records' tuples, lists and dicts, and with
    # them whole allocator arenas of records; a full collection empties them before training
    gc.collect()
    ckpt, history = trainer.train(
        features, video_of, header, targets, cfg.train, config_hash=cfg.config_hash()
    )
    corpus_io.save_checkpoint(ckpt, args.out)
    with corpus_io.atomic_write(str(args.out) + ".history.json") as fh:
        fh.write(corpus_io.canonical_json(history) + "\n")
    _emit(
        {
            "checkpoint": str(args.out),
            "epochs": len(history["train_loss"]),
            "final_train_loss": history["train_loss"][-1],
            "config_hash": cfg.config_hash(),
        },
        None,
    )


def cmd_eval(args) -> None:
    cfg = _resolve_config(args)
    corpus = _load_corpus(args.world, cfg, args.force)
    annotations = downstream.load_annotations(args.world / "downstream_labels.jsonl")

    sources = ["raw", "adapter"] if args.features == "both" else [args.features]
    transforms = {}
    if "raw" in sources:
        transforms["raw"] = None
    if "adapter" in sources:
        if args.checkpoint is None:
            raise CliError("--checkpoint is required for adapter features")
        ckpt = corpus_io.load_checkpoint(args.checkpoint)
        _check_hash(ckpt.metadata.get("config_hash"), cfg, str(args.checkpoint), args.force)
        adapter = trainer.adapter_from_checkpoint(ckpt)
        del ckpt  # the heads' weights are not needed by the probes
        transforms["adapter"] = lambda feats: trainer.apply_adapter(adapter, feats)

    kinds = (
        [downstream.TASK_RECOGNITION, downstream.STEP_RECOGNITION, downstream.STEP_FORECASTING]
        if args.task == "all"
        else [args.task]
    )
    reports = []
    for source in sources:
        for kind in kinds:
            splits = downstream.build_downstream_dataset(
                corpus, annotations, kind, cfg.downstream, transform=transforms[source]
            )
            model, _ = downstream.train_downstream(splits, corpus.dim, cfg.downstream)
            accuracy = downstream.evaluate(model, splits.test)
            reports.append(
                {
                    "task": kind,
                    "accuracy": accuracy,
                    "n_test": len(splits.test),
                    "seed": cfg.seed,
                    "feature_source": source,
                    "config_hash": cfg.config_hash(),
                }
            )
            log.info("%s/%s accuracy %.4f", source, kind, accuracy)
    _emit({"config_hash": cfg.config_hash(), "reports": reports}, args.out)


def cmd_graph_stats(args) -> None:
    if args.hops < 0:
        raise CliError(f"--hops must be >= 0, got {args.hops}")
    pkg = graph_mod.load_graph(args.graph)
    nodes = _node_ids(args.nodes, len(pkg.nodes)) if args.nodes else None
    stats = graph_mod.graph_stats(pkg)
    if args.dot is not None:
        with corpus_io.atomic_write(args.dot) as fh:
            fh.write(graph_mod.export_dot(pkg, nodes, args.hops))
    _emit(stats, args.out)


def _node_ids(text: str, num_nodes: int) -> list[int]:
    nodes = []
    for entry in text.split(","):
        try:
            node = int(entry)
        except ValueError:
            raise CliError(f"--nodes: {entry!r} is not a node id") from None
        if not 0 <= node < num_nodes:
            raise CliError(f"--nodes: node {node} outside [0, {num_nodes})")
        nodes.append(node)
    return nodes


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pkgforge",
        description="Procedural knowledge graph pipeline: build, pseudo-label, "
        "pretrain the feature adapter, and evaluate downstream.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic world directory")
    _common_flags(p, force=False)  # synth reads no artifact, so it has no hash to check
    p.add_argument("--out", type=Path, required=True, help="world output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("build-graph", help="dedup steps, match segments, assemble the graph")
    _common_flags(p)
    p.add_argument("--world", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="graph.json output path")
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("labels", help="emit pseudo labels (vnm/vtm/tcl/nrl/vsm)")
    _common_flags(p)
    p.add_argument("--world", type=Path, required=True)
    p.add_argument("--graph", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="labels.jsonl output path")
    p.set_defaults(func=cmd_labels)

    p = sub.add_parser("pretrain", help="train the adapter and answer heads")
    _common_flags(p)
    p.add_argument("--world", type=Path, required=True)
    p.add_argument("--labels", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="checkpoint output path")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("eval", help="downstream TR/SR/SF accuracy, raw vs adapter features")
    _common_flags(p)
    p.add_argument("--world", type=Path, required=True)
    p.add_argument("--checkpoint", type=Path, default=None)
    p.add_argument("--task", choices=["TR", "SR", "SF", "all"], default="all")
    p.add_argument("--features", choices=["raw", "adapter", "both"], default="both")
    p.add_argument("--out", type=Path, default=None, help="report JSON path (default stdout)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("graph-stats", help="graph statistics and optional DOT export")
    _threads_flag(p)
    p.add_argument("--graph", type=Path, required=True)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--dot", type=Path, default=None, help="write a DOT rendering here")
    p.add_argument("--nodes", default=None, help="comma list of node ids to center the DOT on")
    p.add_argument("--hops", type=int, default=1, help="neighborhood radius for --dot")
    p.set_defaults(func=cmd_graph_stats)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=getattr(logging, os.environ.get("PKGFORGE_LOG", "WARNING").upper(), logging.WARNING)
    )
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (CliError, corpus_io.CorpusFormatError, ValueError, OSError) as exc:
        sys.stderr.write(corpus_io.canonical_json({"error": str(exc)}) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
