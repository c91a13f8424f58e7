"""pkgforge stage benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload mine-videos --seed 1 --seconds 20 --trace 0

Set-up runs ``pkgforge synth`` SETUP_REPEATS times as child processes and
reports the median as ``setup_s``. The timed loop then runs build-graph,
labels, pretrain and eval, each as its own ``pkgforge`` child process, one
at a time and with ``--threads`` equal to the CPUs this process may use,
until ``--seconds`` have passed; each stage time is the median over the
loop's iterations of the child's wall time, and ``peak_rss_mb`` the median
of each iteration's largest child peak RSS (from ``os.wait4``). Every
iteration's artifacts must be byte-identical to the first iteration's.
After the loop the outputs are checked against the generating world.

With ``--trace 1`` the same untraced loop runs first, then every stage once
more in a child that runs ``pkgforge.cli.main`` in-process with every layer
wrapped (traced_stage.py), and the per-layer metrics are printed instead of
the end-to-end ones. The traced artifacts must be byte-identical to the
untraced ones.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
``attempted`` counts stage processes run plus output checks made, and
``failed`` the stages that exited non-zero plus the checks that failed.
The line before it is a record of provenance, input sizes, artifact
digests, check details and the base of every ratio. Work files go to
``.perfbench/<workload>/`` in the checkout and are replaced on each run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from workloads import RECOVERY_FLOORS, WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"

SETUP_REPEATS = 3
STAGES = ("build_graph", "labels", "pretrain", "eval")
COMMANDS = {
    "setup": "synth", "build_graph": "build-graph", "labels": "labels",
    "pretrain": "pretrain", "eval": "eval",
}
ARTIFACTS = ("graph.json", "labels.jsonl", "model.pkgc", "model.pkgc.history.json", "report.json")
LABEL_FAMILIES = ("vnm", "vtm_db", "vtm_corpus", "tcl_db", "tcl_corpus", "nrl", "vsm")

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "build_graph_s": "s",
    "labels_s": "s",
    "pretrain_s": "s",
    "eval_s": "s",
    "peak_rss_mb": "MiB",
}


def _per_layer() -> dict[str, str]:
    """The traced metrics printed with --trace 1, name -> unit (at most 128)."""
    out: dict[str, str] = {"cli.import_s": "s"}

    def fn(stage, label, *fields):
        units = {"calls": "count", "self_s": "s", "p50_ms": "ms", "p99_ms": "ms"}
        for f in fields:
            out[f"{stage}.{label}.{f}"] = units[f]

    def trace(stage):
        out[f"{stage}.trace.overhead_s"] = "s"
        out[f"{stage}.trace.coverage"] = "ratio"

    fn("setup", "synthgen.generate", "self_s")
    fn("setup", "corpus_io.write_feature_file", "calls", "self_s")
    trace("setup")

    for label in ("corpus_io.load_step_database", "corpus_io.load_segment_corpus"):
        fn("build_graph", label, "self_s")
    fn("build_graph", "corpus_io.read_feature_file", "calls", "self_s")
    out["build_graph.corpus_io.bytes_read"] = "B"
    out["build_graph.corpus_io.read_mb_s"] = "MB/s"
    fn("build_graph", "dedup.cluster_headlines", "self_s")
    out["dedup.pairs"] = "count"
    out["dedup.merge_ratio"] = "ratio"
    fn("build_graph", "matcher.score_video", "calls", "self_s")
    fn("build_graph", "matcher.matched_headlines", "calls", "self_s", "p50_ms", "p99_ms")
    out["matcher.dot_products"] = "count"
    out["matcher.matched_ratio"] = "ratio"
    for label in ("graph.build_graph", "graph.corpus_transitions", "graph.normalize_scores",
                  "graph.database_transitions", "graph.assemble_graph", "graph.save_graph"):
        fn("build_graph", label, "self_s")
    out["graph.transitions_kept"] = "count"
    out["graph.edges_per_node"] = "ratio"
    trace("build_graph")

    fn("labels", "corpus_io.read_feature_file", "self_s")
    fn("labels", "graph.load_graph", "self_s")
    fn("labels", "matcher.score_video", "self_s")
    fn("labels", "matcher.node_scores_from_headlines", "calls", "self_s", "p50_ms", "p99_ms")
    for label in ("matcher.top_k_nodes", "matcher.vsm_top_headlines", "labeler.vnm_labels",
                  "labeler.vtm_db_labels", "labeler.vtm_corpus_labels", "labeler.tcl_db_labels",
                  "labeler.nrl_labels"):
        fn("labels", label, "self_s", "p50_ms", "p99_ms")
    fn("labels", "labeler.tcl_corpus_labels", "calls", "self_s", "p50_ms", "p99_ms")
    fn("labels", "graph.khop_neighbors", "calls", "self_s", "p50_ms", "p99_ms")
    for label in ("labeler.build_occurrence_matrix", "labeler.emit_labels", "labeler.save_labels"):
        fn("labels", label, "self_s")
    for family in LABEL_FAMILIES:
        out[f"labeler.{family}.nonempty_ratio"] = "ratio"
    trace("labels")

    fn("pretrain", "corpus_io.read_feature_file", "self_s")
    for label in ("labeler.load_labels", "trainer.targets_from_labels", "trainer.train",
                  "trainer.model_loss", "nn.Mlp.backward", "nn.bce_with_logits", "nn.sigmoid",
                  "nn.softplus", "corpus_io.save_checkpoint"):
        fn("pretrain", label, "self_s")
    for label in ("trainer.model_loss_and_grads", "nn.Mlp.forward", "nn.adam_step"):
        fn("pretrain", label, "calls", "self_s")
    out["pretrain.nn.Mlp.gflop_computed"] = "Gflop"
    out["trainer.epochs"] = "count"
    out["trainer.train_rows"] = "count"
    out["trainer.samples_per_s"] = "1/s"
    trace("pretrain")

    for label in ("corpus_io.load_checkpoint", "downstream.build_downstream_dataset",
                  "trainer.apply_adapter", "downstream.train_downstream",
                  "downstream.DownstreamModel.backward", "nn.Mlp.forward", "nn.Mlp.backward",
                  "nn.softmax_cross_entropy"):
        fn("eval", label, "self_s")
    for label in ("downstream.evaluate", "downstream.DownstreamModel.forward", "nn.adam_step"):
        fn("eval", label, "calls", "self_s")
    out["eval.nn.Mlp.gflop_computed"] = "Gflop"
    out["downstream.examples_per_s"] = "1/s"
    trace("eval")
    return out


PER_LAYER = _per_layer()

RATIO_BASES = {
    "failed": "stages that exited non-zero plus output checks that failed, over attempted",
    "dedup.merge_ratio": "(headlines - nodes) / dedup.pairs, pairs = headlines*(headlines-1)/2",
    "matcher.matched_ratio": "segments with a headline above the match threshold / segments "
    "scored in build_graph",
    "labeler.<family>.nonempty_ratio": "segments whose <family> label is nonempty / segments",
    "graph.edges_per_node": "graph edges / graph nodes",
    "<stage>.trace.coverage": "time inside wrapped calls on the main thread / in-process "
    "time of pkgforge.cli.main for the stage",
    "<stage>.trace.overhead_s": "traced child wall time - median untraced child wall time",
    "<stage>.corpus_io.read_mb_s": "bytes_read / self time of the corpus_io readers",
    "trainer.samples_per_s": "rows through model_loss_and_grads / trainer.train time",
    "downstream.examples_per_s": "examples through DownstreamModel.backward / "
    "train_downstream time",
    "<stage>.nn.Mlp.gflop_computed": "computed from shapes: 2*batch*sum(in*out) per forward, "
    "4*batch*sum(in*out) per backward; not measured",
}


# ---------------------------------------------------------------------------
# child processes


@dataclass
class ChildRun:
    wall_s: float
    peak_rss_mb: float
    exit_code: int


def run_child(argv: list[str], log_stem: Path, env: dict) -> ChildRun:
    """Run one child to completion; wall time and its own peak RSS."""
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(wall, usage.ru_maxrss / 1024.0, proc.returncode)


def cli_args(stage: str, workload: Workload, config: Path, world: Path, out: Path,
             threads: int) -> list[str]:
    args = [COMMANDS[stage], "--config", str(config), "--threads", str(threads)]
    if stage == "setup":
        return args + ["--out", str(world)]
    args += ["--world", str(world)]
    if stage == "build_graph":
        return args + ["--out", str(out / "graph.json")]
    if stage == "labels":
        return args + ["--graph", str(out / "graph.json"), "--out", str(out / "labels.jsonl")]
    if stage == "pretrain":
        return args + ["--labels", str(out / "labels.jsonl"), "--out", str(out / "model.pkgc")]
    return args + [
        "--checkpoint", str(out / "model.pkgc"), "--task", workload.eval_task,
        "--features", workload.eval_features, "--out", str(out / "report.json"),
    ]


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def tree_digest(root: Path, pattern: str = "*") -> str:
    """One sha256 over the relative paths and contents of the files under root."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob(pattern) if p.is_file()):
        h.update(f"{path.relative_to(root)}\0{sha256_file(path)}\n".encode())
    return h.hexdigest()


def digests(world: Path, out: Path) -> dict[str, str]:
    """sha256 of the world directory (as one digest) and of each stage artifact."""
    result = {"world": tree_digest(world)}
    for name in ARTIFACTS:
        if (out / name).exists():
            result[name] = sha256_file(out / name)
    return result


# ---------------------------------------------------------------------------
# the run


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)

    def stage(self, name: str, run: ChildRun) -> bool:
        self.attempted += 1
        if run.exit_code != 0:
            self.failed += 1
            self.checks.append({"check": f"{name} exit code", "ok": False,
                                "detail": run.exit_code})
        return run.exit_code == 0

    def check(self, name: str, ok: bool, detail=None) -> bool:
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})
        return ok


class Bench:
    def __init__(self, workload: Workload, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.threads = len(os.sched_getaffinity(0))
        self.work = WORK_ROOT / workload.name
        self.config = self.work / "config.json"
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.tally = Tally()

    def child(self, stage: str, world: Path, out: Path, log_name: str) -> ChildRun:
        argv = [sys.executable, "-m", "pkgforge.cli",
                *cli_args(stage, self.workload, self.config, world, out, self.threads)]
        return run_child(argv, self.work / "logs" / log_name, self.env)

    def prepare(self) -> None:
        if self.work.exists():
            shutil.rmtree(self.work)
        (self.work / "logs").mkdir(parents=True)
        self.config.write_text(json.dumps(self.workload.config(self.seed), indent=1) + "\n")

    def setup(self) -> tuple[Path, list[float]] | None:
        """Synth SETUP_REPEATS times; every copy must be byte-identical."""
        times, worlds = [], []
        for i in range(SETUP_REPEATS):
            world = self.work / f"world{i}"
            run = self.child("setup", world, world, f"setup{i}")
            if not self.tally.stage("synth", run):
                return None
            times.append(run.wall_s)
            worlds.append(tree_digest(world))
        self.tally.check("synth repeats byte-identical", len(set(worlds)) == 1)
        return self.work / "world0", times

    def timed_loop(self, world: Path) -> tuple[list[dict], dict] | None:
        out = self.work / "out"
        out.mkdir()
        iterations: list[dict] = []
        reference = None
        start = perf_counter()
        while not iterations or perf_counter() - start < self.seconds:
            runs = {}
            for stage in STAGES:
                run = self.child(stage, world, out, f"{stage}{len(iterations)}")
                if not self.tally.stage(stage, run):
                    return None
                runs[stage] = run
            sums = digests(world, out)
            if reference is None:
                reference = sums
            else:
                self.tally.check(f"iteration {len(iterations)} artifacts byte-identical",
                                 sums == reference)
            iterations.append(runs)
        return iterations, reference

    def traced(self, world_digests: dict) -> dict | None:
        traced = self.work / "traced"
        world = traced / "world"
        traced.mkdir()
        out = {}
        for stage in ("setup",) + STAGES:
            trace_json = traced / f"{stage}.trace.json"
            argv = [sys.executable, str(BENCH_DIR / "traced_stage.py"), str(trace_json), "--",
                    *cli_args(stage, self.workload, self.config, world, traced, self.threads)]
            run = run_child(argv, self.work / "logs" / f"traced_{stage}", self.env)
            if not self.tally.stage(f"traced {stage}", run):
                return None
            with open(trace_json, encoding="utf-8") as fh:
                out[stage] = json.load(fh)
            out[stage]["wall_s"] = run.wall_s
        traced_digests = digests(world, traced)
        self.tally.check("traced artifacts byte-identical to untraced",
                         traced_digests == world_digests,
                         None if traced_digests == world_digests else traced_digests)
        return out


# ---------------------------------------------------------------------------
# output checks, provenance and metrics


def check_outputs(bench: Bench, world: Path) -> dict:
    """Check the first iteration's artifacts; returns input-size facts."""
    import numpy as np

    from pkgforge import corpus_io, graph, labeler, synthgen
    from pkgforge.config import PipelineConfig

    workload, tally, out = bench.workload, bench.tally, bench.work / "out"
    cfg = PipelineConfig.load(bench.config)
    config_hash = cfg.config_hash()
    db = corpus_io.load_step_database(world / "steps.jsonl")
    corpus = corpus_io.load_segment_corpus(world / "manifest.jsonl")
    pkg = graph.load_graph(out / "graph.json")

    if workload.check_recovery:
        truth = synthgen.load_truth(world / "truth.json")
        support = synthgen.implied_min_support(cfg.instance_threshold, cfg.world.feature_scale)
        recovery = synthgen.graph_recovery_metrics(pkg, db, truth, min_support=support)
        tally.check("graph recovery floors",
                    all(recovery[k] >= floor for k, floor in RECOVERY_FLOORS.items()),
                    recovery)
    tally.check("graph config hash", pkg.config_hash == config_hash)

    header, records = labeler.load_labels(out / "labels.jsonl")
    expected = [(v.video_id, i) for v in corpus.videos for i in range(v.segments.shape[0])]
    tally.check("labels line up with corpus order and config hash",
                header.get("config_hash") == config_hash
                and header.get("num_segments") == len(records)
                and [(r.video_id, r.segment_index) for r in records] == expected)

    ckpt = corpus_io.load_checkpoint(out / "model.pkgc")
    tally.check("checkpoint reloads with finite parameters",
                ckpt.metadata.get("config_hash") == config_hash
                and all(np.isfinite(a).all() for a in ckpt.unpack().values()))

    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    entries = report.get("reports", [])
    accuracies = {f"{e['task']}/{e['feature_source']}": e["accuracy"] for e in entries}
    off = {
        key: (acc, workload.reference_accuracy.get(key))
        for key, acc in accuracies.items()
        if key not in workload.reference_accuracy
        or abs(acc - workload.reference_accuracy[key]) > workload.accuracy_tolerance
    }
    tally.check("eval report entries and accuracies",
                len(entries) == workload.expected_reports and not off
                and all(e.get("config_hash") == config_hash for e in entries),
                {"accuracy": accuracies, "tolerance": workload.accuracy_tolerance,
                 "outside": off})

    history = json.loads((out / "model.pkgc.history.json").read_text(encoding="utf-8"))
    nonempty = {f: 0 for f in LABEL_FAMILIES}
    for rec in records:
        for f in LABEL_FAMILIES:
            value = getattr(rec, f)
            if f == "nrl":
                value = [hop for hops in value.values() for hop in hops if hop]
            nonempty[f] += bool(value)
    return {
        "segments": corpus.num_segments,
        "videos": len(corpus.videos),
        "headlines": db.num_headlines,
        "nodes": pkg.num_nodes,
        "edges": len(pkg.edges),
        "pretrain_epochs": len(history["train_loss"]),
        "label_nonempty": nonempty,
        "accuracy": accuracies,
    }


def provenance(threads: int, loadavg: tuple) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "commit": commit,
        "source_sha256": tree_digest(SRC, "*.py"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads_flag": threads,
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg_start": list(loadavg),
    }


def end_to_end(setup_times: list[float], iterations: list[dict]) -> dict[str, float]:
    metrics = {"setup_s": statistics.median(setup_times)}
    metrics["pipeline_s"] = statistics.median(
        sum(it[s].wall_s for s in STAGES) for it in iterations
    )
    for stage in STAGES:
        metrics[f"{stage}_s"] = statistics.median(it[stage].wall_s for it in iterations)
    metrics["peak_rss_mb"] = statistics.median(
        max(it[s].peak_rss_mb for s in STAGES) for it in iterations
    )
    return metrics


def layer_metrics(traces: dict, untraced: dict[str, float], facts: dict) -> dict[str, float]:
    """Every traced number, stage-prefixed, plus the derived counts and ratios."""
    out: dict[str, float] = {}
    for stage, trace in traces.items():
        funcs = trace["functions"]
        for label, stats in funcs.items():
            for key, value in stats.items():
                if key in ("calls", "self_s", "total_s", "p50_ms", "p99_ms"):
                    out[f"{stage}.{label}.{key}"] = value
        wall_key = "setup_s" if stage == "setup" else f"{stage}_s"
        out[f"{stage}.trace.overhead_s"] = trace["wall_s"] - untraced[wall_key]
        out[f"{stage}.trace.coverage"] = trace["main_thread_s"] / trace["stage_s"]
        readers = [funcs.get(f"corpus_io.{n}", {}) for n in
                   ("load_step_database", "load_segment_corpus", "read_feature_file",
                    "load_checkpoint")]
        read_bytes = sum(r.get("bytes", 0) for r in readers)
        read_time = sum(r.get("self_s", 0.0) for r in readers)
        out[f"{stage}.corpus_io.bytes_read"] = read_bytes
        if read_time > 0:
            out[f"{stage}.corpus_io.read_mb_s"] = read_bytes / 1e6 / read_time
        flop = sum(funcs.get(f"nn.Mlp.{m}", {}).get("flop", 0) for m in ("forward", "backward"))
        out[f"{stage}.nn.Mlp.gflop_computed"] = flop / 1e9

    out["cli.import_s"] = statistics.median(t["import_s"] for t in traces.values())
    headlines, nodes = facts["headlines"], facts["nodes"]
    pairs = headlines * (headlines - 1) // 2
    out["dedup.pairs"] = pairs
    out["dedup.merge_ratio"] = (headlines - nodes) / pairs if pairs else 0.0
    bg = traces["build_graph"]["functions"]
    out["matcher.dot_products"] = bg["matcher.score_video"]["dot_products"]
    matched = bg["matcher.matched_headlines"]
    out["matcher.matched_ratio"] = matched["nonempty"] / matched["calls"]
    out["graph.transitions_kept"] = bg["graph.corpus_transitions"]["kept"]
    out["graph.edges_per_node"] = facts["edges"] / nodes
    for family, count in facts["label_nonempty"].items():
        out[f"labeler.{family}.nonempty_ratio"] = count / facts["segments"]

    pre = traces["pretrain"]["functions"]
    rows = pre["trainer.model_loss_and_grads"]["rows"]
    out["trainer.epochs"] = facts["pretrain_epochs"]
    out["trainer.train_rows"] = rows / facts["pretrain_epochs"]
    out["trainer.samples_per_s"] = rows / pre["trainer.train"]["total_s"]
    ev = traces["eval"]["functions"]
    out["downstream.examples_per_s"] = (
        ev["downstream.DownstreamModel.backward"]["examples"]
        / ev["downstream.train_downstream"]["total_s"]
    )
    return out


def top_self_time(traces: dict, n: int = 15) -> list[list]:
    rows = [
        [f"{stage}.{label}", stats["calls"], stats["self_s"], stats["self_s"] / trace["stage_s"]]
        for stage, trace in traces.items()
        for label, stats in trace["functions"].items()
    ]
    return sorted(rows, key=lambda r: -r[2])[:n]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pkgforge" / "cli.py").is_file():
        sys.stderr.write(f"no pkgforge source under {SRC}; run from a source checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    loadavg = os.getloadavg()

    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds)
    bench.prepare()
    tally = bench.tally
    record: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "seconds": args.seconds}
    metrics: dict[str, float] = {}
    units = PER_LAYER if args.trace else END_TO_END

    setup = bench.setup()
    loop = bench.timed_loop(setup[0]) if setup else None
    if loop:
        world, setup_times = setup
        iterations, artifact_digests = loop
        e2e = end_to_end(setup_times, iterations)
        try:
            facts = check_outputs(bench, world)
        except (ValueError, KeyError, OSError) as exc:  # a malformed artifact fails the run
            tally.check("artifacts load", False, repr(exc))
            facts = None
        record.update(
            iterations=len(iterations),
            samples={"setup_s": setup_times, **{
                f"{s}_s": [it[s].wall_s for it in iterations] for s in STAGES}},
            input=facts,
            artifacts_sha256=artifact_digests,
        )
        metrics = e2e
        if args.trace and facts:
            traces = bench.traced(artifact_digests)
            if traces:
                layers = layer_metrics(traces, e2e, facts)
                missing = sorted(set(PER_LAYER) - set(layers))
                tally.check("trace covers every per-layer metric", not missing, missing)
                metrics = {k: layers[k] for k in PER_LAYER if k in layers}
                record["top_self_time"] = top_self_time(traces)
                (bench.work / "layers.json").write_text(json.dumps(layers, indent=1) + "\n")
                for name, calls, self_s, share in record["top_self_time"]:
                    print(f"{name:58s} {calls:9d} {self_s:9.4f} s {100 * share:5.1f}%")
    record.update(provenance=provenance(bench.threads, loadavg), ratio_bases=RATIO_BASES,
                  checks=tally.checks)
    (bench.work / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()
                    if k in units},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
