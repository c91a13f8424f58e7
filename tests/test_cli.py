"""End-to-end CLI behavior: pipeline stages, determinism, hash checks."""

import hashlib
import json
from pathlib import Path

import pytest

from pkgforge.cli import main

SMALL_CONFIG = {
    "seed": 0,
    "instance_threshold": 50.0,
    "world": {
        "n_tasks": 3,
        "steps_per_task": [3, 4],
        "n_shared_steps": 1,
        "n_videos": 8,
        "segments_per_step": [1, 2],
        "dim": 16,
        "signal_dim": 12,
        "noise_sigma": 0.1,
        "style_sigma": 1.0,
        "gain_jitter": 0.05,
        "paraphrase_count": 2,
    },
    "train": {"max_epochs": 2, "objectives": ["vnm", "vtm_db"], "val_fraction": 0.25},
    "downstream": {
        "max_epochs": 2,
        "patience": 5,
        "hidden_sr": 16,
        "hidden_tr": 8,
        "max_positions": 32,
    },
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return path


def _dir_digest(root: Path) -> dict[str, str]:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def _run(*argv) -> int:
    return main([str(a) for a in argv])


class TestPipeline:
    def test_full_pipeline(self, tmp_path, config_path, capsys):
        world = tmp_path / "world"
        assert _run("synth", "--config", config_path, "--out", world) == 0
        for name in ("steps.jsonl", "manifest.jsonl", "truth.json", "downstream_labels.jsonl"):
            assert (world / name).exists()

        graph = tmp_path / "graph.json"
        assert _run("build-graph", "--config", config_path, "--world", world, "--out", graph) == 0
        stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert stats["num_nodes"] > 0 and stats["num_edges"] > 0

        labels = tmp_path / "labels.jsonl"
        assert _run(
            "labels", "--config", config_path, "--world", world, "--graph", graph, "--out", labels
        ) == 0

        ckpt = tmp_path / "model.pkgc"
        assert _run(
            "pretrain", "--config", config_path, "--world", world,
            "--labels", labels, "--out", ckpt,
        ) == 0
        assert ckpt.exists() and Path(str(ckpt) + ".history.json").exists()

        report = tmp_path / "report.json"
        assert _run(
            "eval", "--config", config_path, "--world", world, "--checkpoint", ckpt,
            "--task", "SR", "--features", "both", "--out", report,
        ) == 0
        body = json.loads(report.read_text())
        sources = {r["feature_source"] for r in body["reports"]}
        assert sources == {"raw", "adapter"}
        for r in body["reports"]:
            assert r["task"] == "SR"
            assert 0.0 <= r["accuracy"] <= 1.0
            assert r["n_test"] > 0
            assert r["config_hash"] == body["config_hash"]

        stats_out = tmp_path / "stats.json"
        dot = tmp_path / "graph.dot"
        assert _run(
            "graph-stats", "--graph", graph, "--out", stats_out, "--dot", dot, "--nodes", "0",
        ) == 0
        assert dot.read_text().startswith("digraph")
        assert json.loads(stats_out.read_text())["num_nodes"] == stats["num_nodes"]

    def test_pretrain_and_eval_read_no_step_database(self, tmp_path, config_path):
        world = tmp_path / "world"
        graph, labels, ckpt = tmp_path / "g.json", tmp_path / "l.jsonl", tmp_path / "m.pkgc"
        assert _run("synth", "--config", config_path, "--out", world) == 0
        assert _run("build-graph", "--config", config_path, "--world", world, "--out", graph) == 0
        assert _run(
            "labels", "--config", config_path, "--world", world, "--graph", graph, "--out", labels
        ) == 0
        (world / "steps.jsonl").unlink()
        assert _run(
            "pretrain", "--config", config_path, "--world", world, "--labels", labels,
            "--out", ckpt,
        ) == 0
        assert _run(
            "eval", "--config", config_path, "--world", world, "--checkpoint", ckpt,
            "--task", "SR", "--out", tmp_path / "report.json",
        ) == 0

    def test_graph_on_zero_video_corpus(self, tmp_path, config_path, capsys):
        cfg = dict(SMALL_CONFIG)
        cfg["world"] = dict(SMALL_CONFIG["world"], n_videos=1)
        config2 = tmp_path / "c2.json"
        config2.write_text(json.dumps(cfg))
        world = tmp_path / "w"
        assert _run("synth", "--config", config2, "--out", world) == 0
        # drop the only video from the manifest
        (world / "manifest.jsonl").write_text("")
        graph = tmp_path / "g.json"
        assert _run(
            "build-graph", "--config", config2, "--world", world, "--out", graph, "--force"
        ) == 0
        stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert stats["num_corpus_edges"] == 0
        assert stats["num_edges"] == stats["num_database_edges"] > 0


class TestDeterminism:
    def test_synth_rerun_identical(self, tmp_path, config_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert _run("synth", "--config", config_path, "--out", a) == 0
        assert _run("synth", "--config", config_path, "--out", b) == 0
        assert _dir_digest(a) == _dir_digest(b)

    def test_stages_thread_invariant(self, tmp_path, config_path):
        world = tmp_path / "world"
        _run("synth", "--config", config_path, "--out", world)
        outputs = []
        for threads in (1, 3):
            g = tmp_path / f"g{threads}.json"
            l = tmp_path / f"l{threads}.jsonl"
            assert _run(
                "build-graph", "--config", config_path, "--world", world,
                "--out", g, "--threads", threads,
            ) == 0
            assert _run(
                "labels", "--config", config_path, "--world", world, "--graph", g,
                "--out", l, "--threads", threads,
            ) == 0
            outputs.append((g.read_bytes(), l.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_pretrain_rerun_identical(self, tmp_path, config_path):
        world = tmp_path / "world"
        _run("synth", "--config", config_path, "--out", world)
        g = tmp_path / "g.json"
        l = tmp_path / "l.jsonl"
        _run("build-graph", "--config", config_path, "--world", world, "--out", g)
        _run("labels", "--config", config_path, "--world", world, "--graph", g, "--out", l)
        blobs = []
        for name in ("m1", "m2"):
            ckpt = tmp_path / f"{name}.pkgc"
            assert _run(
                "pretrain", "--config", config_path, "--world", world,
                "--labels", l, "--out", ckpt,
            ) == 0
            blobs.append(ckpt.read_bytes())
        assert blobs[0] == blobs[1]


class TestHashChecks:
    def test_mismatched_config_refused(self, tmp_path, config_path, capsys):
        world = tmp_path / "world"
        _run("synth", "--config", config_path, "--out", world)
        g = tmp_path / "g.json"
        assert _run(
            "build-graph", "--config", config_path, "--world", world, "--out", g,
            "--seed", "999",
        ) == 1
        err = capsys.readouterr().err
        assert "config hash" in json.loads(err)["error"]

    def test_force_overrides(self, tmp_path, config_path):
        world = tmp_path / "world"
        _run("synth", "--config", config_path, "--out", world)
        g = tmp_path / "g.json"
        assert _run(
            "build-graph", "--config", config_path, "--world", world, "--out", g,
            "--seed", "999", "--force",
        ) == 0


class TestErrors:
    def test_missing_world_is_single_line_json_error(self, tmp_path, capsys):
        assert _run("build-graph", "--world", tmp_path / "nope", "--out", tmp_path / "g") == 1
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        assert "error" in json.loads(err_lines[0])

    def test_adapter_eval_requires_checkpoint(self, tmp_path, config_path, capsys):
        world = tmp_path / "world"
        _run("synth", "--config", config_path, "--out", world)
        assert _run(
            "eval", "--config", config_path, "--world", world, "--features", "adapter",
        ) == 1
        assert "checkpoint" in json.loads(capsys.readouterr().err)["error"]

    def test_help_lists_paper_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["build-graph", "--help"])
        text = capsys.readouterr().out
        assert "0.09" in text and "10" in text and "1000" in text
        with pytest.raises(SystemExit):
            main(["pretrain", "--help"])
        text = capsys.readouterr().out
        assert "1e-4" in text and "256" in text
