"""Pipeline configuration: serialization, hashing, seed propagation."""

import json

import pytest

from pkgforge import labeler
from pkgforge.config import PipelineConfig, synthetic_preset
from pkgforge.corpus_io import canonical_json


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = synthetic_preset(seed=7)
        path = tmp_path / "c.json"
        path.write_text(canonical_json(cfg.to_dict()) + "\n", encoding="utf-8")
        back = PipelineConfig.load(path)
        assert back.to_dict() == cfg.to_dict()
        assert back.config_hash() == cfg.config_hash()

    def test_seed_propagates(self):
        cfg = PipelineConfig(seed=42)
        assert cfg.train.seed == 42
        assert cfg.downstream.seed == 42
        assert cfg.world.seed == 42

    def test_hash_covers_every_field(self):
        base = PipelineConfig().config_hash()
        assert PipelineConfig(seed=1).config_hash() != base
        assert PipelineConfig(dedup_threshold=0.1).config_hash() != base
        cfg = PipelineConfig()
        cfg.train.batch_size = 128
        assert cfg.config_hash() != base
        cfg2 = PipelineConfig()
        cfg2.world.n_videos = 7
        assert cfg2.config_hash() != base

    def test_hash_stable_across_processes(self):
        # pure function of the field values, no id()/repr leakage
        assert PipelineConfig(seed=3).config_hash() == PipelineConfig(seed=3).config_hash()

    @pytest.mark.parametrize("noise", ["zero", "high"])
    def test_config_file_reproduces_noise_levels(self, noise):
        # the world fields of a config file set a noise level other than the preset's
        levels = {"zero": (0.0, 0.0, 0.0), "high": (1.0, 8.0, 0.25)}
        world = dict(zip(("noise_sigma", "style_sigma", "gain_jitter"), levels[noise]))
        cfg = PipelineConfig.from_dict({"instance_threshold": 360.0, "world": world})
        assert cfg.config_hash() == synthetic_preset(noise=noise).config_hash()

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            PipelineConfig.from_dict({"bogus_field": 1})
        with pytest.raises(ValueError, match="unknown"):
            PipelineConfig.from_dict({"train": {"bogus": 2}})

    @pytest.mark.parametrize(
        "section, name, value",
        [
            (None, "pool_factor", 1),
            ("train", "beta1", 0.9),
            ("train", "beta2", 0.999),
            ("train", "eps", 1e-8),
            ("train", "weight_decay", 0.0),
            ("train", "loss_coefficients", {}),
            ("downstream", "aggregation", "mean"),
            (None, "labels", {}),
        ],
    )
    def test_removed_field_rejected(self, section, name, value):
        # each once held its default only, so even that default is now refused
        data = {name: value} if section is None else {section: {name: value}}
        with pytest.raises(ValueError, match=f"unknown .*{name}"):
            PipelineConfig.from_dict(data)

    @pytest.mark.parametrize(
        "labels", [{"vnm_top_k": 0}, {"tcl_corpus_top_k": 0}, {"nrl_top_per_hop": [0, 3]}]
    )
    def test_label_sizes_are_not_configurable(self, labels):
        # the sizes are the paper's constants; a labels section is an unknown field
        with pytest.raises(ValueError, match=r"unknown PipelineConfig fields: \['labels'\]"):
            PipelineConfig.from_dict({"labels": labels})

    def test_integer_spelling_of_a_float_hashes_alike(self):
        as_int = PipelineConfig.from_dict({"instance_threshold": 360, "world": {"noise_sigma": 1}})
        as_float = PipelineConfig.from_dict(
            {"instance_threshold": 360.0, "world": {"noise_sigma": 1.0}}
        )
        assert type(as_int.instance_threshold) is float
        assert type(as_int.world.noise_sigma) is float
        assert as_int.config_hash() == as_float.config_hash()
        preset_spelling = PipelineConfig.from_dict({"instance_threshold": 360})
        assert preset_spelling.config_hash() == synthetic_preset().config_hash()

    @pytest.mark.parametrize("section", ["train", "downstream", "world"])
    def test_section_seed_must_match_top_level(self, section):
        with pytest.raises(ValueError, match=rf"{section}\.seed=5 .*top-level seed=0"):
            PipelineConfig.from_dict({section: {"seed": 5}})
        with pytest.raises(ValueError, match=rf"{section}\.seed=0 .*top-level seed=3"):
            PipelineConfig.from_dict({"seed": 3, section: {"seed": 0}})
        assert PipelineConfig.from_dict({"seed": 3, section: {"seed": 3}}).config_hash() == (
            PipelineConfig(seed=3).config_hash()
        )

    def test_pinned_hashes(self):
        # every artifact embeds this hash: a change here moves every artifact's bytes
        assert PipelineConfig().config_hash() == "81942e27ba3385b4"
        assert synthetic_preset().config_hash() == "a23b401d0af63bc6"

    @pytest.mark.parametrize(
        "section, name, value",
        [
            ("train", "learning_rate", 0.0),
            ("train", "learning_rate", float("nan")),
            ("train", "batch_size", 0),
            ("train", "max_epochs", 0),
            ("downstream", "learning_rate", -1e-4),
            ("downstream", "learning_rate", float("nan")),
            ("downstream", "batch_size", 0),
            ("downstream", "max_epochs", 0),
            ("downstream", "hidden_tr", 0),
            ("downstream", "hidden_sr", 0),
            ("downstream", "max_positions", 0),
            ("downstream", "patience", -1),
            ("downstream", "train_fraction", 0.0),
            ("downstream", "val_fraction", -0.1),
            # section None: a top-level field
            (None, "dedup_threshold", 0.0),
            (None, "dedup_threshold", -1.0),
            (None, "dedup_threshold", float("nan")),
            (None, "instance_threshold", -100.0),
            (None, "instance_threshold", float("nan")),
            (None, "seed", -1),
            ("world", "paraphrase_max_distance", 2.5),
            ("world", "paraphrase_max_distance", -0.5),
            ("world", "paraphrase_max_distance", float("nan")),
        ],
    )
    def test_out_of_range_training_field_named(self, section, name, value):
        with pytest.raises(ValueError, match=name):
            PipelineConfig.from_dict({section: {name: value}} if section else {name: value})

    @pytest.mark.parametrize(
        "name, value",
        [("nrl_hops", 0), ("patience", -3), ("val_fraction", -0.5), ("val_fraction", 1.0),
         ("bottleneck", 0)],
    )
    def test_train_field_that_trains_the_wrong_model_named(self, name, value):
        # nrl_hops 0 would train no head at all and report a loss of 0.0
        with pytest.raises(ValueError, match=name):
            PipelineConfig.from_dict({"train": {name: value}})

    @pytest.mark.parametrize(
        "data, named",
        [
            ([1], "a config must be a JSON object"),
            ({"train": None}, "config section 'train' must be a JSON object"),
            ({"train": {"objectives": 5}}, r"train\.objectives must be tuple\[str, \.\.\.\]"),
            ({"world": {"segments_per_step": 3}}, r"world\.segments_per_step must be"),
            ({"world": {"steps_per_task": [1]}}, r"world\.steps_per_task must be tuple\[int, int\]"),
            ({"train": {"max_epochs": "x"}}, r"train\.max_epochs must be int"),
            ({"train": {"objectives": ["vnm", 3]}}, r"train\.objectives must be"),
            ({"seed": True}, "seed must be int"),
        ],
    )
    def test_wrong_shaped_json_named(self, data, named, tmp_path):
        with pytest.raises(ValueError, match=named):
            PipelineConfig.from_dict(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=rf"bad\.json:1: malformed config: {named}"):
            PipelineConfig.load(path)

    def test_downstream_fractions_sum_to_at_most_one(self):
        with pytest.raises(ValueError, match=r"train_fraction \+ val_fraction"):
            PipelineConfig.from_dict({"downstream": {"train_fraction": 0.9, "val_fraction": 0.2}})
        edge = {"train_fraction": 1.0, "val_fraction": 0.0, "patience": 0}
        assert PipelineConfig.from_dict({"downstream": edge}).downstream.train_fraction == 1.0

    def test_paper_defaults(self):
        cfg = PipelineConfig()
        assert cfg.dedup_threshold == 0.09
        assert cfg.match_threshold == 10.0
        assert cfg.instance_threshold == 1000.0
        assert cfg.train.learning_rate == 1e-4
        assert cfg.train.batch_size == 256
        sizes = (labeler.VNM_TOP_K, labeler.VTM_CORPUS_TOP_K, labeler.TCL_CORPUS_TOP_K)
        assert sizes + (labeler.VSM_TOP_K,) == (3, 3, 3, 3)
        assert labeler.NRL_TOP_PER_HOP == (5, 3) and labeler.NRL_HOPS == 2
        assert cfg.downstream.weight_decay == 1e-3
        assert cfg.downstream.batch_size == 16
        assert cfg.downstream.patience == 50
        assert cfg.downstream.hidden_tr == 128
        assert cfg.downstream.hidden_sr == 768

    def test_synthetic_preset_scales_prune(self):
        cfg = synthetic_preset()
        assert cfg.instance_threshold < 1000.0
        assert cfg.world.n_tasks == 20
        assert cfg.world.n_videos == 200
