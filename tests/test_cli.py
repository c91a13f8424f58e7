"""End-to-end CLI behavior: pipeline stages, determinism, hash checks."""

import gc
import hashlib
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from pkgforge import cli, corpus_io, downstream, graph, labeler, synthgen
from pkgforge.cli import main
from pkgforge.config import PipelineConfig

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
        for name in ("steps.jsonl", "steps.f64", "manifest.jsonl", "truth.json",
                     "downstream_labels.jsonl"):
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
        (world / "steps.f64").unlink()
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
        # drop the only video from the manifest and its rows from the segment matrix
        dim = corpus_io.load_segment_corpus(world / "manifest.jsonl").dim
        (world / "manifest.jsonl").write_text("")
        corpus_io.write_feature_file(world / "segments.f32", np.zeros((0, dim)))
        graph = tmp_path / "g.json"
        assert _run(
            "build-graph", "--config", config2, "--world", world, "--out", graph, "--force"
        ) == 0
        stats = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert stats["num_corpus_edges"] == 0
        assert stats["num_edges"] == stats["num_database_edges"] > 0

    def test_pretrain_on_a_corpus_without_segments(self, artifacts, tmp_path, capsys):
        world = tmp_path / "world"
        shutil.copytree(artifacts["world"], world)
        corpus = corpus_io.load_segment_corpus(world / "manifest.jsonl")
        for video in corpus.videos:
            video.segments = video.segments[:0]
        corpus_io.save_segment_corpus(corpus, world)
        common = ["--config", artifacts["config"], "--world", world]
        labels = tmp_path / "l.jsonl"
        assert _run("labels", *common, "--graph", artifacts["graph"], "--out", labels) == 0
        capsys.readouterr()
        assert _run("pretrain", *common, "--labels", labels, "--out", tmp_path / "m.pkgc") == 1
        assert _one_line_error(capsys) == "cannot train on an empty segment set"

    def test_pretrain_on_a_world_without_videos(self, tmp_path, capsys):
        # under the small config's objectives and under the default ones, whose vtm_corpus
        # head has an empty class space on such a world: the empty set is named first
        default_train = {k: v for k, v in SMALL_CONFIG["train"].items() if k != "objectives"}
        for name, train in [("small", SMALL_CONFIG["train"]), ("default", default_train)]:
            config, world = tmp_path / f"{name}.json", tmp_path / name
            config.write_text(json.dumps(dict(SMALL_CONFIG, train=train)))
            assert _run("synth", "--config", config, "--out", world) == 0
            dim = corpus_io.load_segment_corpus(world / "manifest.jsonl").dim
            (world / "manifest.jsonl").write_text("")
            corpus_io.write_feature_file(world / "segments.f32", np.zeros((0, dim)))
            common = ["--config", config, "--world", world]
            graph, labels = tmp_path / f"{name}.g.json", tmp_path / f"{name}.l.jsonl"
            assert _run("build-graph", *common, "--out", graph) == 0
            assert _run("labels", *common, "--graph", graph, "--out", labels) == 0
            capsys.readouterr()
            out = tmp_path / f"{name}.pkgc"
            assert _run("pretrain", *common, "--labels", labels, "--out", out) == 1
            assert _one_line_error(capsys) == "cannot train on an empty segment set"
            assert not out.exists()


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
    def test_same_seed_override_on_every_stage_passes(self, tmp_path, config_path):
        world = tmp_path / "world"
        seeded = ["--config", config_path, "--seed", "999"]
        graph, labels, ckpt = tmp_path / "g.json", tmp_path / "l.jsonl", tmp_path / "m.pkgc"
        assert _run("synth", *seeded, "--out", world) == 0
        assert _run("build-graph", *seeded, "--world", world, "--out", graph) == 0
        assert _run("labels", *seeded, "--world", world, "--graph", graph, "--out", labels) == 0
        assert _run("pretrain", *seeded, "--world", world, "--labels", labels, "--out", ckpt) == 0
        report = tmp_path / "report.json"
        assert _run(
            "eval", *seeded, "--world", world, "--checkpoint", ckpt,
            "--task", "SR", "--out", report,
        ) == 0
        assert all(r["seed"] == 999 for r in json.loads(report.read_text())["reports"])

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


@pytest.fixture(scope="class")
def artifacts(tmp_path_factory):
    """A world and the graph, labels and checkpoint made from it under SMALL_CONFIG."""
    root = tmp_path_factory.mktemp("artifacts")
    paths = {
        "config": root / "config.json",
        "world": root / "world",
        "graph": root / "graph.json",
        "labels": root / "labels.jsonl",
        "checkpoint": root / "model.pkgc",
    }
    paths["config"].write_text(json.dumps(SMALL_CONFIG))
    common = ["--config", paths["config"], "--world", paths["world"]]
    assert _run("synth", "--config", paths["config"], "--out", paths["world"]) == 0
    assert _run("build-graph", *common, "--out", paths["graph"]) == 0
    assert _run("labels", *common, "--graph", paths["graph"], "--out", paths["labels"]) == 0
    assert _run("pretrain", *common, "--labels", paths["labels"], "--out", paths["checkpoint"]) == 0
    return paths


def _set_hash(path: Path, value) -> None:
    """Rewrite one artifact in place with its config_hash set to `value`."""
    if path.suffix == ".pkgc":
        header, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(header)
        header["metadata"]["config_hash"] = value
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + payload)
        return
    lines = path.read_text(encoding="utf-8").splitlines()
    head = json.loads(lines[0])
    head["config_hash"] = value
    path.write_text("\n".join([json.dumps(head), *lines[1:]]) + "\n", encoding="utf-8")


# stage -> (the input whose hash it checks, its arguments besides --config/--world)
HASHED_INPUTS = {
    "build-graph": ("world/truth.json", ["--out", "out.json"]),
    "labels": ("graph.json", ["--graph", "graph.json", "--out", "out.jsonl"]),
    "pretrain": ("labels.jsonl", ["--labels", "labels.jsonl", "--out", "out.pkgc"]),
    "eval": (
        "model.pkgc",
        ["--checkpoint", "model.pkgc", "--task", "SR", "--features", "adapter"],
    ),
}


def _run_with_input_hash(stage, artifacts, tmp_path, *extra, config_hash=None) -> int:
    shutil.copytree(artifacts["world"], tmp_path / "world")
    for name in ("graph", "labels", "checkpoint"):
        shutil.copy(artifacts[name], tmp_path / artifacts[name].name)
    shutil.copy(artifacts["labels"].with_suffix(".f64"), tmp_path)
    unhashed, args = HASHED_INPUTS[stage]
    _set_hash(tmp_path / unhashed, config_hash)
    return _run(
        stage, "--config", artifacts["config"], "--world", tmp_path / "world",
        *[tmp_path / a if a.endswith((".json", ".jsonl", ".pkgc")) else a for a in args],
        *extra,
    )


class TestMissingHash:
    @pytest.mark.parametrize("stage", sorted(HASHED_INPUTS))
    def test_refused(self, stage, artifacts, tmp_path, capsys):
        assert _run_with_input_hash(stage, artifacts, tmp_path) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert "carries no config hash" in error
        assert HASHED_INPUTS[stage][0].split("/")[-1] in error

    @pytest.mark.parametrize("stage", sorted(HASHED_INPUTS))
    def test_force_accepts(self, stage, artifacts, tmp_path):
        assert _run_with_input_hash(stage, artifacts, tmp_path, "--force") == 0

    @pytest.mark.parametrize("stage", sorted(HASHED_INPUTS))
    def test_non_string_hash_named_even_with_force(self, stage, artifacts, tmp_path, capsys):
        # a hash that is neither a string nor null is a malformed artifact, not a mismatch
        # that --force may accept, so labels never copies one into labels.jsonl
        assert _run_with_input_hash(stage, artifacts, tmp_path, "--force", config_hash=[5]) == 1
        what = {"build-graph": "truth file", "labels": "graph file", "pretrain": "header",
                "eval": "checkpoint header"}[stage]
        path = tmp_path / HASHED_INPUTS[stage][0]
        assert _one_line_error(capsys) == (
            f"{path}:1: malformed {what}: config_hash [5] is not a string or null"
        )

    def test_eval_checks_world_hash(self, artifacts, tmp_path, capsys):
        assert _run(
            "eval", "--config", artifacts["config"], "--world", artifacts["world"],
            "--seed", "999", "--task", "SR", "--features", "raw", "--out", tmp_path / "r.json",
        ) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert "truth.json" in error and "config hash" in error

    @pytest.mark.parametrize("stage", ["labels", "pretrain", "eval"])
    def test_every_world_reader_checks_world_hash(self, stage, artifacts, tmp_path, capsys):
        # the stage's own input carries the current config's hash; only the world does not
        other = PipelineConfig.load(artifacts["config"])
        other.seed = 999
        other.__post_init__()  # as --seed does: the sections follow the top-level seed
        assert _run_with_input_hash(stage, artifacts, tmp_path, "--seed", "999",
                                    config_hash=other.config_hash()) == 1
        assert _one_line_error(capsys) == (
            f"{tmp_path / 'world' / 'truth.json'} was produced under config hash "
            f"{PipelineConfig.load(artifacts['config']).config_hash()}, current is "
            f"{other.config_hash()}; rerun with the matching config or pass --force"
        )

    def test_world_without_truth_accepted(self, artifacts, tmp_path):
        world = tmp_path / "world"
        shutil.copytree(artifacts["world"], world)
        (world / "truth.json").unlink()
        common = ["--config", artifacts["config"], "--world", world]
        graph, labels, ckpt = tmp_path / "g.json", tmp_path / "l.jsonl", tmp_path / "m.pkgc"
        assert _run("build-graph", *common, "--out", graph) == 0
        assert _run("labels", *common, "--graph", graph, "--out", labels) == 0
        assert _run("pretrain", *common, "--labels", labels, "--out", ckpt) == 0
        assert _run(
            "eval", *common, "--checkpoint", ckpt, "--task", "SR", "--out", tmp_path / "r.json"
        ) == 0


class TestOverridesValidated:
    """Out-of-range training fields in a --config file fail before any stage work."""

    @staticmethod
    def _config_with(tmp_path, section, name, value) -> Path:
        data = json.loads(json.dumps(SMALL_CONFIG))
        data[section][name] = value
        path = tmp_path / "bad_config.json"
        path.write_text(json.dumps(data))
        return path

    @pytest.mark.parametrize("name", ["max_epochs", "batch_size", "learning_rate"])
    def test_pretrain_rejects_zero(self, name, artifacts, tmp_path, capsys):
        out = tmp_path / "model.pkgc"
        assert _run(
            "pretrain", "--config", self._config_with(tmp_path, "train", name, 0),
            "--world", artifacts["world"], "--labels", artifacts["labels"], "--out", out,
        ) == 1
        assert name in json.loads(capsys.readouterr().err)["error"]
        assert not out.exists()

    def test_negative_seed_flag_named_before_any_work(self, tmp_path, capsys):
        out = tmp_path / "w"
        assert _run("synth", "--preset", "synthetic", "--seed", -1, "--out", out) == 1
        assert _one_line_error(capsys) == "seed must be >= 0, got -1"
        assert not out.exists()

    def test_eval_rejects_zero_epochs(self, artifacts, tmp_path, capsys):
        # before the check, eval trained nothing and reported the untrained heads
        out = tmp_path / "report.json"
        assert _run(
            "eval", "--config", self._config_with(tmp_path, "downstream", "max_epochs", 0),
            "--world", artifacts["world"], "--task", "TR", "--features", "raw", "--out", out,
        ) == 1
        assert "max_epochs" in json.loads(capsys.readouterr().err)["error"]
        assert not out.exists()


# flags that once set single config fields, per stage that had them; a config file
# is the only way to set those fields
REMOVED_FLAGS = [
    *[
        (stage, flag)
        for stage in ("build-graph", "labels", "pretrain")
        for flag in ("--dedup-threshold", "--match-threshold", "--instance-threshold",
                     "--pool-factor")
    ],
    ("labels", "--vnm-top-k"),
    *[("pretrain", flag) for flag in ("--objectives", "--lr", "--batch-size", "--max-epochs")],
    ("eval", "--max-epochs"),
    ("synth", "--noise"),
]

# each stage's required arguments besides the configuration
STAGE_ARGS = {
    "synth": ["--out", "w"],
    "build-graph": ["--world", "w", "--out", "g.json"],
    "labels": ["--world", "w", "--graph", "g.json", "--out", "l.jsonl"],
    "pretrain": ["--world", "w", "--labels", "l.jsonl", "--out", "m.pkgc"],
    "eval": ["--world", "w"],
    "graph-stats": ["--graph", "g.json"],
}


class TestConfigSurface:
    @pytest.mark.parametrize("stage, flag", REMOVED_FLAGS)
    def test_removed_flag_is_a_usage_error(self, stage, flag, tmp_path, capsys):
        args = [a if a.startswith("--") else str(tmp_path / a) for a in STAGE_ARGS[stage]]
        value = "high" if flag == "--noise" else "1"  # a value the old flag accepted
        with pytest.raises(SystemExit) as exc:
            main([stage, *args, flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("stage", sorted(STAGE_ARGS))
    def test_help_lists_only_the_configuration_inputs(self, stage, capsys):
        with pytest.raises(SystemExit):
            main([stage, "--help"])
        text = capsys.readouterr().out
        assert not [flag for _, flag in REMOVED_FLAGS if flag in text]
        for flag in ("--config", "--preset", "--seed"):
            assert (flag in text) == (stage != "graph-stats")
        # only the stages that check an input artifact's config hash can skip that check
        assert ("--force" in text) == (stage not in ("synth", "graph-stats"))
        assert "--threads" in text

    def test_synth_has_no_force(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out", str(tmp_path / "w"), "--force"])
        assert exc.value.code == 2
        assert "--force" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestGraphStats:
    @pytest.mark.parametrize(
        "extra, bad",
        [
            (["--nodes", "0,999"], "999"),
            (["--hops", "-1"], "-1"),
            (["--nodes", "0,x"], "--nodes: 'x'"),
        ],
    )
    def test_bad_dot_arguments_rejected(self, extra, bad, artifacts, tmp_path, capsys):
        dot, out = tmp_path / "g.dot", tmp_path / "stats.json"
        assert _run(
            "graph-stats", "--graph", artifacts["graph"], "--dot", dot, "--out", out, *extra
        ) == 1
        assert bad in json.loads(capsys.readouterr().err)["error"]
        assert not dot.exists() and not out.exists()


def _one_line_error(capsys) -> str:
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert len(err_lines) == 1, err_lines  # no traceback
    return json.loads(err_lines[0])["error"]


class TestWrongShapedJson:
    """Valid JSON in the wrong shape gets the one-line error naming the file or field."""

    @pytest.mark.parametrize(
        "data, named",
        [
            ([1], "a config must be a JSON object"),
            ({"train": None}, "config section 'train'"),
            ({"train": {"objectives": 5}}, "train.objectives"),
            ({"world": {"segments_per_step": 3}}, "world.segments_per_step"),
            ({"dedup_threshold": -1.0}, "dedup_threshold must be > 0, got -1.0"),
            ({"dedup_threshold": float("nan")}, "NaN is not valid JSON"),
            ({"match_threshold": -5.0, "instance_threshold": -100.0},
             "instance_threshold must be >= 0, got -100.0"),
            # each once failed inside synth: numpy's seed check, math.acos's domain
            ({"seed": -2}, "seed must be >= 0, got -2"),
            ({"world": {"paraphrase_max_distance": 3.0}},
             "paraphrase_max_distance must lie in [0, 2], got 3.0"),
            ({"world": {"paraphrase_max_distance": -1.0}},
             "paraphrase_max_distance must lie in [0, 2], got -1.0"),
        ],
    )
    def test_synth_config(self, data, named, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert _run("synth", "--config", path, "--out", tmp_path / "w") == 1
        error = _one_line_error(capsys)
        assert "bad.json" in error and named in error
        assert not (tmp_path / "w").exists()

    def test_pretrain_labels_header_not_an_object(self, artifacts, tmp_path, capsys):
        labels = tmp_path / "labels.jsonl"
        lines = artifacts["labels"].read_text(encoding="utf-8").splitlines()
        labels.write_text("\n".join(["[]", *lines[1:]]) + "\n", encoding="utf-8")
        assert _run(
            "pretrain", "--config", artifacts["config"], "--world", artifacts["world"],
            "--labels", labels, "--out", tmp_path / "m.pkgc",
        ) == 1
        error = _one_line_error(capsys)
        assert f"{labels}:1: malformed header: a header must be a JSON object" in error

    def test_pretrain_labels_set_without_in_direction(self, artifacts, tmp_path, capsys):
        # the column table without the nrl "in" columns: the reader names the first column
        # that is not the one its layout expects, before it reads the payload
        labels = tmp_path / "labels.jsonl"
        header = json.loads(artifacts["labels"].read_text(encoding="utf-8"))
        header["columns"] = {k: v for k, v in header["columns"].items()
                             if not k.startswith("nrl_in")}
        labels.write_text(json.dumps(header) + "\n", encoding="utf-8")
        shutil.copy(artifacts["labels"].with_suffix(".f64"), tmp_path)
        assert _run(
            "pretrain", "--config", artifacts["config"], "--world", artifacts["world"],
            "--labels", labels, "--out", tmp_path / "m.pkgc",
        ) == 1
        error = _one_line_error(capsys)
        assert error == (f"{labels}:1: malformed header: column 17 is 'nrl_out_1_len', "
                         "expected 'nrl_in_1_len'")
        assert not (tmp_path / "m.pkgc").exists()

    @pytest.mark.parametrize("stage", ["labels", "graph-stats"])
    def test_graph_sources_not_a_list(self, stage, artifacts, tmp_path, capsys):
        path = tmp_path / "graph.json"
        obj = json.loads(artifacts["graph"].read_text(encoding="utf-8"))
        obj["edges"][0]["sources"] = "database"
        path.write_text(json.dumps(obj))
        out = tmp_path / "out.json"
        extra = [] if stage == "graph-stats" else [
            "--config", artifacts["config"], "--world", artifacts["world"]]
        assert _run(stage, *extra, "--graph", path, "--out", out) == 1
        error = _one_line_error(capsys)
        assert f"{path}:1: malformed graph file: sources 'database' is not a list" in error
        assert not out.exists()

    def test_graph_stats_dot_member_headline_not_a_string(self, artifacts, tmp_path, capsys):
        path = tmp_path / "graph.json"
        obj = json.loads(artifacts["graph"].read_text(encoding="utf-8"))
        obj["nodes"][0]["members"][0]["headline"] = 5
        path.write_text(json.dumps(obj))
        dot = tmp_path / "graph.dot"
        assert _run("graph-stats", "--graph", path, "--dot", dot) == 1
        error = _one_line_error(capsys)
        assert f"{path}:1: malformed graph file: headline 5 is not a string" in error
        assert not dot.exists()

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda obj: obj["nodes"][0].update(members=[]), "node 0 has no members",
                     id="node-without-members"),
        pytest.param(lambda obj: obj["edges"].append(obj["edges"][0]), "duplicate edge",
                     id="duplicate-edge"),
    ])
    def test_graph_stats_dot_graph_that_is_no_graph(self, edit, message, artifacts, tmp_path,
                                                    capsys):
        path = tmp_path / "graph.json"
        obj = json.loads(artifacts["graph"].read_text(encoding="utf-8"))
        edit(obj)
        path.write_text(json.dumps(obj))
        dot = tmp_path / "graph.dot"
        assert _run("graph-stats", "--graph", path, "--dot", dot) == 1
        assert f"{path}:1: malformed graph file: {message}" in _one_line_error(capsys)
        assert not dot.exists()

    @pytest.mark.parametrize("name, line, key, value, reader", [
        ("config.json", 0, "dedup_threshold", float("nan"), PipelineConfig.load),
        ("world/steps.jsonl", 0, "task_name", float("nan"), corpus_io.load_step_database),
        ("world/manifest.jsonl", 0, "num_segments", float("inf"), corpus_io.load_segment_corpus),
        ("world/downstream_labels.jsonl", 0, "task_class", float("-inf"),
         downstream.load_annotations),
        ("world/truth.json", 0, "n_steps", float("nan"), synthgen.load_truth),
        ("world/truth.json", 0, "n_steps", float("nan"),
         lambda path: cli._load_corpus(path.parent, PipelineConfig(), force=True)),
        ("graph.json", 0, "config_hash", float("nan"), graph.load_graph),
        ("labels.jsonl", 0, "num_nodes", float("nan"), labeler.load_labels),
        ("model.pkgc", 0, "metadata", {"seed": float("inf")}, corpus_io.load_checkpoint),
    ], ids=["config", "steps", "manifest", "annotations", "truth", "check-world", "graph",
            "labels", "checkpoint"])
    def test_non_standard_json_token_names_the_file(self, name, line, key, value, reader,
                                                     artifacts, tmp_path):
        # Python's json reads NaN, Infinity and -Infinity; no pkgforge writer emits them
        root = artifacts["config"].parent
        shutil.copytree(root, tmp_path, dirs_exist_ok=True)
        path = tmp_path / name
        lines = path.read_bytes().splitlines(keepends=True)
        obj = json.loads(lines[line])
        obj[key] = value
        lines[line] = json.dumps(obj).encode("utf-8") + b"\n"
        path.write_bytes(b"".join(lines))
        token = re.search(r"NaN|-?Infinity", json.dumps(value)).group()
        message = rf"{re.escape(str(path))}.* {token} is not valid JSON"
        with pytest.raises(ValueError, match=message):
            reader(path)

    def test_eval_checkpoint_metadata_not_an_object(self, artifacts, tmp_path, capsys):
        ckpt = corpus_io.load_checkpoint(artifacts["checkpoint"])
        ckpt.metadata = 5
        path = tmp_path / "m.pkgc"
        corpus_io.save_checkpoint(ckpt, path)
        assert _run(
            "eval", "--config", artifacts["config"], "--world", artifacts["world"],
            "--checkpoint", path, "--task", "SR", "--features", "adapter",
        ) == 1
        error = _one_line_error(capsys)
        assert "m.pkgc" in error and "metadata" in error

    def test_build_graph_truth_not_an_object(self, artifacts, tmp_path, capsys):
        world = tmp_path / "world"
        shutil.copytree(artifacts["world"], world)
        (world / "truth.json").write_text("[1]\n")
        assert _run(
            "build-graph", "--config", artifacts["config"], "--world", world,
            "--out", tmp_path / "g.json",
        ) == 1
        error = _one_line_error(capsys)
        assert "truth.json:1: malformed truth file: a truth file must be a JSON object" in error
        assert not (tmp_path / "g.json").exists()

    @pytest.mark.parametrize("stage", ["build-graph", "eval"])
    def test_truth_not_json_names_the_file(self, stage, artifacts, tmp_path, capsys):
        world = tmp_path / "world"
        shutil.copytree(artifacts["world"], world)
        (world / "truth.json").write_text("{")
        out = tmp_path / "out.json"
        assert _run(stage, "--config", artifacts["config"], "--world", world, "--out", out) == 1
        error = _one_line_error(capsys)
        assert f"{world / 'truth.json'}:1: malformed truth file: Expecting property name" in error
        assert not out.exists()

    @staticmethod
    def _copy_of(artifacts, tmp_path, name) -> Path:
        shutil.copytree(artifacts["config"].parent, tmp_path, dirs_exist_ok=True)
        return tmp_path / name

    @staticmethod
    def _raises_at(reader, path, line, what, detail):
        located = rf"^{re.escape(str(path))}:{line}: malformed {what}: {detail}"
        with pytest.raises(corpus_io.CorpusFormatError, match=located) as exc:
            reader(path)
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("fault, detail", [
        pytest.param(lambda line: line[:-1] + b"\xff\n", "'utf-8' codec can't decode byte 0xff",
                     id="undecodable"),
        pytest.param(lambda line: b"[1,2]\n", "a {what} must be a JSON object", id="array"),
        pytest.param(lambda line: b'"x"\n', "a {what} must be a JSON object", id="string"),
        # a stray tab in the first key: the file's line, then the column on it, and no other line
        pytest.param(lambda line: line[:2] + b"\t" + line[2:],
                     "Invalid control character at: column 3$", id="control"),
    ])
    @pytest.mark.parametrize("name, reader, what", [
        ("world/steps.jsonl", corpus_io.load_step_database, "task record"),
        ("world/manifest.jsonl", corpus_io.load_segment_corpus, "manifest record"),
        ("world/downstream_labels.jsonl", downstream.load_annotations, "video annotation"),
        # labels.jsonl is one line, the header; its labels are in labels.f64
        ("labels.jsonl", labeler.load_labels, "header"),
    ], ids=["steps", "manifest", "annotations", "labels"])
    def test_json_lines_fault_names_its_line(self, name, reader, what, fault, detail, artifacts,
                                             tmp_path):
        path = self._copy_of(artifacts, tmp_path, name)
        lines = path.read_bytes().splitlines(keepends=True)
        middle = len(lines) // 2  # 0-based, so the fault sits on line middle + 1
        lines[middle] = fault(lines[middle])
        path.write_bytes(b"".join(lines))
        self._raises_at(reader, path, middle + 1, what, detail.format(what=what))

    @pytest.mark.parametrize("name, reader, what", [
        ("graph.json", graph.load_graph, "graph file"),
        ("world/truth.json", synthgen.load_truth, "truth file"),
        ("world/truth.json",
         lambda path: cli._load_corpus(path.parent, PipelineConfig(), force=True), "truth file"),
        ("config.json", PipelineConfig.load, "config"),
    ], ids=["graph", "truth", "check-world", "config"])
    def test_json_document_fault_names_its_line(self, name, reader, what, artifacts, tmp_path):
        path = self._copy_of(artifacts, tmp_path, name)
        obj = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps([obj]))
        self._raises_at(reader, path, 1, what, f"a {what} must be a JSON object")
        # a document over several lines names the line an undecodable byte is on
        lines = json.dumps(obj, indent=1).encode("utf-8").splitlines(keepends=True)
        lines[2] = lines[2][:-1] + b"\xff\n"
        path.write_bytes(b"".join(lines))
        self._raises_at(reader, path, 3, what, "'utf-8' codec can't decode byte 0xff")
        lines[2] = b"}\n"
        path.write_bytes(b"".join(lines))
        self._raises_at(reader, path, 3, what, "Expecting ")


def _alive(*types) -> list:
    return [o for o in gc.get_objects() if isinstance(o, types)]


class TestTrainingHoldsOneCopy:
    """pretrain and eval drop the inputs they have consumed before training starts."""

    def _made_by_stage_at(self, monkeypatch, module, name, types, argv):
        """Run a stage; the `types` objects it made that are alive when module.name is called."""
        before = _alive(*types)  # held here, so no new object can reuse their ids
        held = {id(o) for o in before}
        seen = []
        real = getattr(module, name)

        def spy(*args, **kwargs):
            seen.append([type(o).__name__ for o in _alive(*types) if id(o) not in held])
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
        assert _run(*argv) == 0
        assert len(seen) >= 1
        return seen

    def test_pretrain_drops_records_and_corpus(self, artifacts, tmp_path, monkeypatch):
        seen = self._made_by_stage_at(
            monkeypatch, cli.trainer, "train", (labeler.PseudoLabelSet, corpus_io.Video),
            ["pretrain", "--config", artifacts["config"], "--world", artifacts["world"],
             "--labels", artifacts["labels"], "--out", tmp_path / "m.pkgc"],
        )
        assert seen == [[]]
        assert (tmp_path / "m.pkgc").read_bytes() == artifacts["checkpoint"].read_bytes()

    def test_eval_drops_the_checkpoint(self, artifacts, tmp_path, monkeypatch):
        seen = self._made_by_stage_at(
            monkeypatch, cli.downstream, "train_downstream", (corpus_io.ModelCheckpoint,),
            ["eval", "--config", artifacts["config"], "--world", artifacts["world"],
             "--checkpoint", artifacts["checkpoint"], "--task", "SR", "--features", "adapter",
             "--out", tmp_path / "report.json"],
        )
        assert seen == [[]]

    def test_the_check_sees_what_a_stage_holds(self, artifacts, tmp_path, monkeypatch):
        # while the targets are built the records are alive, and the same check finds them
        seen = self._made_by_stage_at(
            monkeypatch, cli.trainer, "targets_from_labels", (labeler.PseudoLabelSet,),
            ["pretrain", "--config", artifacts["config"], "--world", artifacts["world"],
             "--labels", artifacts["labels"], "--out", tmp_path / "m.pkgc"],
        )
        header, _ = labeler.load_labels(artifacts["labels"])
        assert seen == [["PseudoLabelSet"] * header["num_segments"]]


class TestSynthRefusesAWorld:
    @pytest.mark.parametrize("name", ["manifest.jsonl", "segments.f32", "steps.jsonl",
                                      "steps.f64", "truth.json", "downstream_labels.jsonl"])
    def test_refused_and_named(self, name, tmp_path, config_path, capsys):
        world = tmp_path / "world"
        world.mkdir()
        (world / name).write_text("")
        assert _run("synth", "--config", config_path, "--out", world) == 1
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        assert str(world / name) in json.loads(err_lines[0])["error"]
        assert [p.name for p in world.iterdir()] == [name]

    def test_empty_or_unrelated_directory_allowed(self, tmp_path, config_path):
        empty, other = tmp_path / "empty", tmp_path / "other"
        empty.mkdir()
        other.mkdir()
        (other / "notes.txt").write_text("kept")
        assert _run("synth", "--config", config_path, "--out", empty) == 0
        assert _run("synth", "--config", config_path, "--out", other) == 0
        assert (other / "notes.txt").read_text() == "kept"
        assert _dir_digest(empty) == {k: v for k, v in _dir_digest(other).items()
                                      if k != "notes.txt"}

    def test_interrupted_resynth_leaves_the_first_world(self, tmp_path, monkeypatch, capsys):
        # a high-noise synth over a low-noise world, interrupted as it writes the segment
        # matrix, must not leave high-noise rows under the low-noise manifest
        low_world = dict(SMALL_CONFIG["world"], n_videos=40)
        high_world = dict(low_world, noise_sigma=1.0, style_sigma=8.0, gain_jitter=0.25)
        low, high = tmp_path / "low.json", tmp_path / "high.json"
        low.write_text(json.dumps(dict(SMALL_CONFIG, seed=3, world=low_world)))
        high.write_text(json.dumps(dict(SMALL_CONFIG, seed=3, world=high_world)))
        world = tmp_path / "world"
        assert _run("synth", "--config", low, "--out", world) == 0
        first = _dir_digest(world)

        written = []

        def interrupted(path, features):
            written.append(path)
            raise RuntimeError("interrupted")

        monkeypatch.setattr(corpus_io, "write_feature_file", interrupted)
        capsys.readouterr()
        assert _run("synth", "--config", high, "--out", world) == 1
        assert "manifest.jsonl already exists" in json.loads(capsys.readouterr().err)["error"]
        assert written == []
        assert _dir_digest(world) == first
        assert _run("build-graph", "--config", low, "--world", world,
                    "--out", tmp_path / "g.json") == 0


class TestErrors:
    def test_missing_world_is_single_line_json_error(self, tmp_path, capsys):
        assert _run("build-graph", "--world", tmp_path / "nope", "--out", tmp_path / "g") == 1
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        assert "error" in json.loads(err_lines[0])

    def test_checkpoint_declaring_gigabytes_is_single_line_json_error(
        self, artifacts, tmp_path, capsys
    ):
        # an adapter entry declaring 1e9 x 1e9 weights is refused on the file size,
        # before anything is read or allocated
        ckpt = tmp_path / "model.pkgc"
        header_line, payload = artifacts["checkpoint"].read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        header["shapes"][0][1:] = [1000000000, 1000000000]
        ckpt.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        assert _run(
            "eval", "--config", artifacts["config"], "--world", artifacts["world"],
            "--checkpoint", ckpt, "--task", "SR", "--features", "adapter",
        ) == 1
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        assert "model.pkgc: truncated weights" in json.loads(err_lines[0])["error"]

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
