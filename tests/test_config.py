"""Flat run configuration: parsing, formatting, presets, and validation."""

from __future__ import annotations

from dataclasses import fields, replace

import pytest

from piareid import synthbench, trainer
from piareid.model import ArchConfig, ModelConfig
from piareid.config import (
    ABLATION_PRESETS,
    ConfigError,
    RunConfig,
    build_config,
    format_config,
    parse_config_text,
)


class TestParseConfigText:
    def test_basic_lines(self):
        raw = parse_config_text("epochs = 5\nseed=3\n")
        assert raw == {"epochs": "5", "seed": "3"}

    def test_comments_and_blanks(self):
        raw = parse_config_text("# a comment\n\nepochs = 5  # trailing\n")
        assert raw == {"epochs": "5"}

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("epochs = 5\nnot a pair\n")

    def test_empty_key(self):
        with pytest.raises(ConfigError, match="empty key"):
            parse_config_text("= 5\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("epochs = 5\nepochs = 6\n")


class TestBuildConfig:
    def test_defaults(self):
        cfg = build_config()
        assert cfg == RunConfig()

    def test_file_overrides_defaults(self):
        cfg = build_config("epochs = 7\nwidths = 4,4\nuse_dbdl = false\n")
        assert cfg.epochs == 7
        assert cfg.widths == (4, 4)
        assert cfg.use_dbdl is False

    def test_cli_overrides_file(self):
        cfg = build_config("epochs = 7\n", {"epochs": "9"})
        assert cfg.epochs == 9

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown configuration key"):
            build_config("no_such_field = 1\n")

    @pytest.mark.parametrize(
        "text,match",
        [
            ("epochs = soon\n", "integer"),
            ("base_lr = fast\n", "number"),
            ("use_dbdl = maybe\n", "boolean"),
            ("widths = a,b\n", "integers"),
            ("widths = \n", "integers"),
        ],
    )
    def test_type_errors(self, text, match):
        with pytest.raises(ConfigError, match=match):
            build_config(text)

    def test_bool_spellings(self):
        for raw, expected in (("true", True), ("1", True), ("Yes", True),
                              ("false", False), ("0", False), ("No", False)):
            assert build_config(f"use_dbdl = {raw}\nuse_orth = false\n").use_dbdl is expected


class TestFormatRoundTrip:
    def test_format_parse_round_trip(self):
        cfg = replace(
            RunConfig(), epochs=11, base_lr=2.5e-3, widths=(4, 8), use_inter=False,
            data_dir="elsewhere",
        )
        rebuilt = build_config(format_config(cfg))
        assert rebuilt == cfg

    def test_every_field_appears(self):
        text = format_config(RunConfig())
        for f in fields(RunConfig):
            assert any(line.startswith(f"{f.name} = ") for line in text.splitlines())

    def test_float_precision_survives(self):
        cfg = replace(RunConfig(), base_lr=3.5e-4, tau=1.0 / 16.0)
        rebuilt = build_config(format_config(cfg))
        assert rebuilt.base_lr == 3.5e-4
        assert rebuilt.tau == 1.0 / 16.0


class TestAblationPresets:
    def test_presets_form_a_cumulative_chain(self):
        order = ["base", "dbdl", "orth", "intra", "full"]
        enabled_counts = [
            sum(ABLATION_PRESETS[name].values()) for name in order
        ]
        assert enabled_counts == [0, 1, 2, 3, 4]

    def test_with_ablation_base(self):
        cfg = RunConfig().with_ablation("base")
        assert not (cfg.use_dbdl or cfg.use_orth or cfg.use_intra or cfg.use_inter)
        assert cfg.epochs == RunConfig().epochs

    def test_with_ablation_full_is_default_switches(self):
        assert RunConfig().with_ablation("full") == RunConfig()

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown ablation preset"):
            RunConfig().with_ablation("extra")

    def test_presets_respect_switch_dependency(self):
        # every preset must itself be a valid configuration
        for name in ABLATION_PRESETS:
            RunConfig().with_ablation(name).validate()


class TestValidate:
    def test_default_is_valid(self):
        RunConfig().validate()

    def test_generation_errors_become_config_errors(self):
        with pytest.raises(ConfigError):
            replace(RunConfig(), n_identities=1).validate()

    def test_training_errors_become_config_errors(self):
        with pytest.raises(ConfigError):
            replace(RunConfig(), base_lr=-1.0).validate()

    def test_orth_without_dbdl_rejected(self):
        with pytest.raises(ConfigError):
            replace(RunConfig(), use_dbdl=False, use_orth=True).validate()

    @pytest.mark.parametrize("name, value", [
        (name, value)
        for name in ("base_lr", "tau", "lambda_orth", "lambda_inter")
        for value in ("nan", "inf", "-inf", "-0.5")
    ])
    def test_non_finite_or_negative_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            build_config(None, {name: value}).validate()

    def test_zero_loss_weights_are_valid(self):
        build_config(None, {"lambda_orth": "0", "lambda_inter": "0"}).validate()


class TestDerivedConfigs:
    def test_gen_config_fields(self):
        gen = RunConfig().gen_config()
        assert gen.n_identities == 48
        assert gen.images_per_identity_per_modality == 12
        assert gen.image_height == 64 and gen.image_width == 32

    def test_train_config_fields(self):
        cfg = replace(RunConfig(), epochs=5, tau=0.25)
        train_cfg = cfg.train_config()
        assert train_cfg.epochs == 5
        assert train_cfg.tau == 0.25
        assert train_cfg.widths == (16, 32, 32)

    def test_seed_is_shared(self):
        cfg = replace(RunConfig(), seed=17)
        assert cfg.gen_config().seed == 17
        assert cfg.train_config().seed == 17


class TestFieldOwnership:
    def test_shared_fields_have_equal_defaults(self):
        gen = {f.name: f.default for f in fields(synthbench.GenConfig)}
        shared = [f for f in fields(trainer.TrainConfig) if f.name in gen]
        assert sorted(f.name for f in shared) == ["image_height", "image_width", "seed"]
        for f in shared:
            assert f.default == gen[f.name], f.name

    def test_run_config_is_both_parents_plus_paths(self):
        names = [f.name for f in fields(RunConfig)]
        parents = {f.name for cls in (synthbench.GenConfig, trainer.TrainConfig)
                   for f in fields(cls)}
        assert len(names) == 33
        assert set(names) == parents | {"data_dir", "out_dir", "checkpoint"}
        assert RunConfig().gen_config() == synthbench.GenConfig()
        assert RunConfig().train_config() == trainer.TrainConfig()

    def test_architecture_fields_are_declared_once(self):
        arch = [f.name for f in fields(ArchConfig)]
        assert len(arch) == 7
        for cls in (ModelConfig, trainer.TrainConfig):
            assert issubclass(cls, ArchConfig)
            assert [f.name for f in fields(cls)][:7] == arch
            assert not any(name in vars(cls).get("__annotations__", {}) for name in arch)
        assert [f.name for f in fields(ModelConfig)][7:] == [
            "num_identities", "num_clothing_classes", "seed",
        ]

    def test_default_model_config_matches_training_defaults(self):
        assert trainer.TrainConfig().model_config(5, 7) == ModelConfig(
            num_identities=5, num_clothing_classes=7
        )
