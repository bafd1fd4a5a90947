"""Config files: round trips, hashing, presets, environment override."""

import pytest

from protodro.config import (
    ExperimentConfig,
    GeneratorConfig,
    OUTPUT_DIR_ENV,
    canonical_text,
    config_hash,
    load_config,
    preset,
    save_config,
    shift_at_level,
)


class TestGeneratorConfig:
    def test_defaults_valid(self):
        gen = GeneratorConfig()
        assert gen.eig_range == (0.4, 1.2)
        assert gen.shots == (3, 8)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            GeneratorConfig(eig_low=1.5, eig_high=1.0)
        with pytest.raises(ValueError):
            GeneratorConfig(shots_low=0)
        with pytest.raises(ValueError):
            GeneratorConfig(n_train=0)

    def test_negative_noise_sigma_fails_to_load(self, tmp_path):
        path = tmp_path / "noisy.cfg"
        path.write_text("[generator]\nnoise_sigma = -1\n")
        with pytest.raises(ValueError, match="noise_sigma"):
            load_config(path)


class TestExperimentConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.task == "classification"
        assert "pgdro" in cfg.methods

    def test_rejects_unknown_task(self):
        with pytest.raises(ValueError):
            ExperimentConfig(task="segmentation")

    def test_rejects_empty_methods_or_seeds(self):
        with pytest.raises(ValueError):
            ExperimentConfig(methods=())
        with pytest.raises(ValueError):
            ExperimentConfig(seeds=())

    def test_output_dir_env_fallback(self, monkeypatch):
        cfg = ExperimentConfig()
        monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
        assert cfg.resolve_output_dir() == "results"
        monkeypatch.setenv(OUTPUT_DIR_ENV, "/tmp/elsewhere")
        assert cfg.resolve_output_dir() == "/tmp/elsewhere"
        cfg2 = ExperimentConfig(output_dir="explicit")
        assert cfg2.resolve_output_dir() == "explicit"


class TestSerialization:
    def test_round_trip_preserves_hash(self, tmp_path):
        cfg = preset("paper-classification")
        path = tmp_path / "exp.cfg"
        save_config(cfg, path)
        loaded = load_config(path)
        assert config_hash(loaded) == config_hash(cfg)
        assert loaded.task == cfg.task
        assert loaded.seeds == cfg.seeds
        assert loaded.generator.n_train == cfg.generator.n_train

    def test_partial_file_uses_defaults(self, tmp_path):
        path = tmp_path / "partial.cfg"
        path.write_text("[experiment]\ntask = regression\nseeds = 7\n")
        cfg = load_config(path)
        assert cfg.task == "regression"
        assert cfg.seeds == (7,)
        assert cfg.generator.n_classes == 8

    def test_unknown_key_rejected(self, tmp_path):
        # the solver's lambda box, flat tolerance, Phase-I OT budget and the
        # optimizer are constants of the code, not config keys
        path = tmp_path / "bad.cfg"
        for section, key, raw in (("dro", "warp_factor", "9"),
                                  ("dro", "lambda_max", "1e6"),
                                  ("dro", "flat_tol", "1e-6"),
                                  ("prior", "ot_max_iters", "100000"),
                                  ("train", "optimizer", "sgd")):
            path.write_text(f"[{section}]\n{key} = {raw}\n")
            with pytest.raises(ValueError, match=key):
                load_config(path)

    def test_unknown_experiment_key_rejected(self, tmp_path):
        # a misspelled key must not leave the default seeds or methods in force
        path = tmp_path / "bad.cfg"
        for key, raw in (("seed", "3"), ("method", "ot")):
            path.write_text(f"[experiment]\n{key} = {raw}\n")
            with pytest.raises(ValueError,
                               match=rf"unknown key '{key}' in section \[experiment\]"):
                load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        # a misspelled [train] must not leave the default epochs in force
        path = tmp_path / "bad.cfg"
        path.write_text("[tarin]\nepochs = 1\n")
        with pytest.raises(ValueError, match=r"unknown section \[tarin\] in .*bad\.cfg"):
            load_config(path)

    def test_experiment_round_trips_every_field(self, tmp_path):
        cfg = ExperimentConfig(task="regression", methods=("erm", "ot"), seeds=(3, 11),
                               levels=(0.1, 1 / 3, 2.0000000000000004),
                               output_dir="runs/x")
        path = tmp_path / "exp.cfg"
        save_config(cfg, path)
        assert ("levels = 0.10000000000000001,0.33333333333333331,2.0000000000000004\n"
                in path.read_text())
        assert load_config(path) == cfg
        path.write_text("[experiment]\nmethods = erm, ,ot\nseeds = 0, ,2\n"
                        "levels = 1.5,,3\n")
        loaded = load_config(path)
        assert (loaded.methods, loaded.seeds, loaded.levels) == (("erm", "ot"), (0, 2),
                                                                 (1.5, 3.0))

    def test_missing_file_raises_with_path(self, tmp_path):
        missing = tmp_path / "nope.cfg"
        with pytest.raises(FileNotFoundError, match="nope.cfg"):
            load_config(missing)

    def test_canonical_text_is_deterministic(self):
        a = canonical_text(preset("paper-classification"))
        b = canonical_text(preset("paper-classification"))
        assert a == b

    def test_hash_sensitive_to_any_field(self):
        base = preset("paper-classification")
        h = config_hash(base)
        import dataclasses
        changed = dataclasses.replace(base, seeds=(0, 1, 2, 3, 4, 5))
        assert config_hash(changed) != h
        changed2 = dataclasses.replace(
            base, dro=dataclasses.replace(base.dro, rho=2.0)
        )
        assert config_hash(changed2) != h


class TestPresets:
    def test_classification_preset_values(self):
        cfg = preset("paper-classification")
        gen = cfg.generator
        assert (gen.n_classes, gen.dim, gen.n_train, gen.n_test) == (8, 10, 6000, 3000)
        assert cfg.shift.dirichlet_target == pytest.approx(0.15)
        assert cfg.dro.rho == 1.0
        assert cfg.train.epochs == 200
        assert cfg.train.learning_rate == pytest.approx(1e-3)
        assert cfg.levels == (1.0, 2.0, 3.0, 4.0, 5.0)

    def test_regression_preset_values(self):
        cfg = preset("paper-regression")
        assert cfg.shift.dirichlet_target == pytest.approx(0.20)
        assert cfg.shift.cov_scale_floor == pytest.approx(1.15)
        assert cfg.generator.noise_sigma == pytest.approx(0.5)
        assert cfg.levels == (0.0, 1.0, 2.0)

    def test_preset_hashes_are_stable(self):
        # the hash is stamped into every result row; it changed (from
        # 67dba0916ae9 and b81b8273c5ca) when the dual solver's lambda box and
        # flat tolerance, the Phase-I OT budget and the optimizer choice
        # stopped being config fields, which removed seven canonical lines,
        # and again (from 3fc30b35b070 and 39585972c8ef) when the default
        # Newton budget of the dual solver rose from 8 to 16 steps, so that
        # dual rows that had stopped unconverged at 8 reach the tolerance
        assert config_hash(preset("paper-classification")) == "ae7e78dd3058"
        assert config_hash(preset("paper-regression")) == "6c0353217f37"

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("paper-vision")


class TestShiftAtLevel:
    def test_level_drives_cov_only(self):
        cfg = preset("paper-classification")
        s3 = shift_at_level(cfg, 3.0)
        assert s3.lambda_cov == 3.0
        assert s3.lambda_mean == cfg.shift.lambda_mean == 1.0
        assert s3.rotation_deg == cfg.shift.rotation_deg

    def test_level_zero_keeps_floor(self):
        cfg = preset("paper-regression")
        s0 = shift_at_level(cfg, 0.0)
        assert s0.effective_cov_scale == pytest.approx(1.15)
