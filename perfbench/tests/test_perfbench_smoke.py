"""The benchmark's own tests: the smoke world end to end, and the metric contract.

Each run of the smoke workload takes a few seconds: criterion 9's tiny
world (3 tasks, 8 videos, 2 epochs) through every stage as child processes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from workloads import DRIVER_WORKLOADS, WORKLOADS  # noqa: E402


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, expected", [("0", run.END_TO_END), ("1", run.PER_LAYER)])
def test_smoke_prints_every_metric_with_its_unit(trace, expected):
    proc = _bench(ROOT, "--workload", "smoke", "--seed", "3", "--seconds", "0",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())

    record = json.loads(proc.stdout.strip().splitlines()[-2])["record"]
    assert all(check["ok"] for check in record["checks"])
    assert {"graph.json", "labels.jsonl", "model.pkgc", "report.json"} <= set(
        record["artifacts_sha256"]
    )


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(DRIVER_WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert len(spec["per_layer"]) <= 128


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "mine-videos", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
