"""The benchmark's world shapes and pipeline settings, one per workload.

Every workload runs the whole pipeline (synth, then build-graph, labels,
pretrain and eval) on a synthetic world made from the run's seed, with the
synthetic preset's low noise. The shapes differ along the three axes whose
costs decide whether the pipeline reaches the paper's regime:

- mine-videos: many videos against the default 200-headline database, so
  the per-segment kernels (feature reads, matching, transitions, the label
  families, the labels write) carry build-graph and labels, while dedup
  does almost none;
- mine-headlines: ten times the headlines with few videos, so quadratic
  dedup and the per-node rankers over a wide class space carry the mining
  stages;
- adapt-1x: the 1x world with a multi-epoch training budget, so nn,
  trainer and downstream carry the run.

Training budgets are fixed epoch counts: patience sits above the budget
for both trainings, so early stopping never shortens a run. Steps per task
are fixed at 10 so that the headline count, and with it the work of every
stage, is the same at every seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

ALL_OBJECTIVES = ["vnm", "vtm_db", "vtm_corpus", "tcl_db", "tcl_corpus", "nrl"]

# the synthetic preset's corpus-transition prune (pkgforge.config)
SYNTH_INSTANCE_THRESHOLD = 360.0

# graph recovery floors against the generating world, as acceptance
# criterion 7 sets them for the low-noise preset
RECOVERY_FLOORS = {"edge_precision": 0.90, "edge_recall": 0.90, "node_purity": 0.95}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    world: dict
    train: dict
    downstream: dict
    eval_task: str = "all"
    eval_features: str = "both"
    # "task/feature_source" -> accuracy, the median over seeds 1..5 at the
    # commit that defined the benchmark; every run must land within tolerance
    reference_accuracy: dict = field(default_factory=dict)
    accuracy_tolerance: float = 0.25
    # the tiny smoke world is not a driver workload and has no world floors
    check_recovery: bool = True

    def config(self, seed: int) -> dict:
        """A pkgforge --config document; unspecified fields keep their defaults."""
        return {
            "seed": seed,
            "instance_threshold": SYNTH_INSTANCE_THRESHOLD,
            "world": dict(self.world),
            "train": dict(self.train),
            "downstream": dict(self.downstream),
        }

    @property
    def expected_reports(self) -> int:
        tasks = 3 if self.eval_task == "all" else 1
        sources = 2 if self.eval_features == "both" else 1
        return tasks * sources


_BYSTANDER_TRAIN = {"objectives": ["vnm"], "max_epochs": 1, "patience": 2}
_BYSTANDER_DOWNSTREAM = {"max_epochs": 1, "patience": 2}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mine-videos",
            why="400 videos on 200 headlines: per-segment matching, transitions and "
            "label families carry build-graph and labels; dedup does almost nothing",
            world={"n_videos": 400, "steps_per_task": [10, 10]},
            train=_BYSTANDER_TRAIN,
            downstream=_BYSTANDER_DOWNSTREAM,
            eval_task="SR",
            eval_features="adapter",
            reference_accuracy={"SR/adapter": 0.03},
        ),
        Workload(
            name="mine-headlines",
            why="2000 headlines and 100 videos: quadratic dedup and per-node rankers "
            "over a wide class space carry build-graph and labels",
            world={
                "n_tasks": 200, "n_shared_steps": 200, "n_videos": 100,
                "steps_per_task": [10, 10], "dim": 256, "signal_dim": 192,
            },
            train=_BYSTANDER_TRAIN,
            downstream=_BYSTANDER_DOWNSTREAM,
            eval_task="SR",
            eval_features="adapter",
            reference_accuracy={"SR/adapter": 0.0},
        ),
        Workload(
            name="adapt-1x",
            why="the 1x world trained for a fixed epoch budget: adapter pretraining "
            "and six downstream trainings carry the run; graph layers do little",
            world={"steps_per_task": [10, 10]},
            train={
                "objectives": ALL_OBJECTIVES, "nrl_hops": 2, "learning_rate": 1e-3,
                "max_epochs": 4, "patience": 5,
            },
            downstream={"learning_rate": 1e-3, "max_epochs": 2, "patience": 3},
            reference_accuracy={
                "TR/raw": 0.05, "SR/raw": 0.85, "SF/raw": 0.13,
                "TR/adapter": 0.03, "SR/adapter": 0.21, "SF/adapter": 0.02,
            },
        ),
        Workload(
            name="smoke",
            why="criterion 9's tiny world, for the benchmark's own tests",
            world={
                "n_tasks": 3, "steps_per_task": [3, 4], "n_shared_steps": 1, "n_videos": 8,
                "segments_per_step": [1, 2], "dim": 16, "signal_dim": 12,
                "noise_sigma": 0.1, "style_sigma": 1.0, "gain_jitter": 0.05,
            },
            train={"objectives": ALL_OBJECTIVES, "nrl_hops": 2, "max_epochs": 2,
                   "patience": 3, "val_fraction": 0.25},
            downstream={"max_epochs": 2, "patience": 3, "hidden_sr": 16, "hidden_tr": 8,
                        "max_positions": 32},
            eval_task="SR",
            # eight videos leave one or two test examples: any accuracy is plausible
            reference_accuracy={"SR/raw": 0.5, "SR/adapter": 0.5},
            accuracy_tolerance=0.5,
            check_recovery=False,
        ),
    )
}

# the workloads BENCHMARK.json lists, in its order
DRIVER_WORKLOADS = ("mine-videos", "mine-headlines", "adapt-1x")
