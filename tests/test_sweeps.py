"""Sweep orchestration: smoke runs, determinism, containment, heatmap trend."""

import os

import numpy as np
import pytest

import protodro.sweeps as sweeps
from protodro.config import (
    ExperimentConfig,
    GeneratorConfig,
    config_hash,
    preset,
)
from protodro.dro import DroConfig
from protodro.models import TrainConfig, barycentric_transport
from protodro.priors import PriorConfig
from protodro.synthgen import ShiftSpec


def tiny_config(task="classification", methods=("pgdro", "ot", "erm"),
                seeds=(0, 1), levels=(0.0, 1.0)):
    return ExperimentConfig(
        task=task,
        generator=GeneratorConfig(
            n_classes=4, dim=6, n_train=600, n_test=300,
            mean_scale=1.0, eig_low=0.3, eig_high=0.9,
        ),
        shift=ShiftSpec(lambda_mean=1.0, lambda_cov=0.0),
        prior=PriorConfig(atoms_per_component=8),
        dro=DroConfig(rho=1.0, epsilon=1.0),
        train=TrainConfig(epochs=10, batch_size=128),
        methods=methods,
        seeds=seeds,
        levels=levels,
    )


SMALL_GENERATOR = GeneratorConfig(n_train=600, n_test=300)


class TestEntropicOtCells:
    """Cells whose entropic OT ran out of alternating updates: 1,000 in
    Phase I, 20,000 in the barycentric map of the `ot` baseline."""

    @pytest.mark.parametrize("name, level, seed", [
        ("paper-classification", 4.0, 1),
        ("paper-classification", 5.0, 1),
        ("paper-regression", 0.0, 0),
        ("paper-regression", 1.0, 0),
    ])
    def test_phase1_priors_build(self, name, level, seed):
        cfg = preset(name)
        priors = sweeps.build_adapted_priors(sweeps.make_pair(cfg, level, seed), cfg.prior)
        for prior in priors:
            assert np.all(np.isfinite(prior.weights))
            assert prior.weights.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("cfg, level, seed", [
        (preset("paper-classification"), 3.0, 22),
        (ExperimentConfig(generator=SMALL_GENERATOR), 3.0, 1),
        (ExperimentConfig(task="regression", generator=SMALL_GENERATOR), 2.0, 1),
    ], ids=["paper-classification", "small-classification", "small-regression"])
    def test_barycentric_transport_is_finite(self, cfg, level, seed):
        pair = sweeps.make_pair(cfg, level, seed)
        moved = barycentric_transport(pair.source, pair.target_train_supports)
        assert moved.shape == pair.source.features.shape
        assert np.all(np.isfinite(moved))


class TestTable1Sweep:
    def test_smoke_completes_all_cells(self, tmp_path):
        cfg = tiny_config()
        result = sweeps.run_sweep(cfg, tmp_path)
        assert not result.failed_cells()
        n_cells = len(cfg.levels) * len(cfg.methods) * len(cfg.seeds)
        assert len(result.cells) == n_cells
        assert (tmp_path / "cells.csv").exists()
        assert (tmp_path / "table1.csv").exists()
        assert (tmp_path / "manifest.txt").exists()

    def test_cells_csv_shape_and_hash(self, tmp_path):
        cfg = tiny_config(methods=("erm",), seeds=(0,), levels=(1.0,))
        result = sweeps.run_sweep(cfg, tmp_path)
        lines = (tmp_path / "cells.csv").read_text().strip().splitlines()
        assert lines[0] == "config_hash,level,method,seed,avg_accuracy,worst10_accuracy"
        assert len(lines) == 2
        row = lines[1].split(",")
        assert row[0] == config_hash(cfg) == result.config_digest
        assert row[2] == "erm"
        acc = float(row[4])
        assert 0.0 <= acc <= 1.0

    def test_byte_determinism(self, tmp_path):
        cfg = tiny_config(methods=("pgdro", "erm"), seeds=(0,), levels=(1.0,))
        d1, d2 = tmp_path / "a", tmp_path / "b"
        sweeps.run_sweep(cfg, d1)
        sweeps.run_sweep(cfg, d2)
        assert (d1 / "cells.csv").read_bytes() == (d2 / "cells.csv").read_bytes()
        assert (d1 / "table1.csv").read_bytes() == (d2 / "table1.csv").read_bytes()

    def test_manifest_names_the_levels_that_share_data(self, tmp_path):
        # levels 0 and 1 both sit at the default covariance floor of 1
        cfg = tiny_config(methods=("erm",), seeds=(0,), levels=(0.0, 1.0, 2.0))
        sweeps.run_sweep(cfg, tmp_path)
        manifest = (tmp_path / "manifest.txt").read_text().splitlines()
        assert "same_data_levels = 0,1" in manifest
        rows = [line.split(",")[1:] for line in
                (tmp_path / "cells.csv").read_text().splitlines()[1:]]
        assert rows[0][1:] == rows[1][1:] != rows[2][1:]

    @pytest.mark.parametrize("name, shared", [
        ("paper-regression", "0,1"),
        ("paper-classification", "none"),
    ])
    def test_preset_levels_that_share_data(self, name, shared):
        assert sweeps.same_data_levels(preset(name)) == shared

    def test_cell_failure_contained(self, tmp_path, monkeypatch):
        cfg = tiny_config(methods=("erm", "fewshot"), seeds=(0,), levels=(1.0,))
        real = sweeps._classification_predictions

        def flaky(method, pair, cfg_, seed):
            if method == "erm":
                raise RuntimeError("synthetic cell failure")
            return real(method, pair, cfg_, seed)

        monkeypatch.setattr(sweeps, "_classification_predictions", flaky)
        result = sweeps.run_sweep(cfg, tmp_path)
        failed = result.failed_cells()
        assert [c.method for c in failed] == ["erm"]
        assert failed[0].status == "failed:RuntimeError"
        lines = (tmp_path / "cells.csv").read_text().strip().splitlines()
        assert len(lines) == 2  # header + the fewshot cell
        assert failed[0].message == "synthetic cell failure"
        manifest = (tmp_path / "manifest.txt").read_text()
        assert "status=failed:RuntimeError" in manifest
        # the message rides on its own line, which no `cell` or
        # `key = value` reader of the manifest picks up
        failures = [line for line in manifest.splitlines() if line.startswith("failure ")]
        assert failures == ["failure level=1 method=erm seed=0: RuntimeError: "
                            "synthetic cell failure"]
        table = (tmp_path / "table1.csv").read_text().splitlines()[1]
        assert "nan" in table

    def test_failure_line_is_one_line_without_key_value(self, tmp_path):
        cells = [sweeps.CellStatus(0.5, "ot", 3, "ok", 1.0),
                 sweeps.CellStatus.failed(0.5, "ot", 4, ValueError("tol = 1e-5\n  missed"), 2.0)]
        path = tmp_path / "manifest.txt"
        sweeps.write_manifest(path, tiny_config(), {"task": "classification"}, 0.0, cells)
        lines = path.read_text().splitlines()
        assert lines[-3:] == [
            "cell level=0.5 method=ot seed=3 status=ok seconds=1.000",
            "cell level=0.5 method=ot seed=4 status=failed:ValueError seconds=2.000",
            "failure level=0.5 method=ot seed=4: ValueError: tol=1e-5 missed",
        ]
        assert not any(" = " in line for line in lines if not line.startswith(
            ("config_hash", "version", "task", "wall_seconds")))

    def test_rejects_wrong_task(self, tmp_path):
        with pytest.raises(ValueError):
            sweeps.run_sweep(tiny_config(task="heatmap"), tmp_path)
        assert not list(tmp_path.iterdir())

    def test_rejects_unknown_method(self, tmp_path):
        # configs take any method name; the registry lookup rejects it
        # before a directory is made
        cfg = tiny_config(methods=("pgdro", "boosting"))
        with pytest.raises(ValueError, match="'boosting' has no classification"):
            sweeps.run_sweep(cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()
        with pytest.raises(ValueError, match="'saa' has no regression"):
            sweeps.method_fit("regression", "saa")

    def test_all_methods_run(self, tmp_path):
        cfg = tiny_config(
            methods=("pgdro", "erm", "ot", "saa", "wdro", "fewshot"),
            seeds=(0,), levels=(1.0,),
        )
        result = sweeps.run_sweep(cfg, tmp_path)
        assert not result.failed_cells()
        assert len(result.aggregate) == 6


class TestRegressionSweep:
    def test_smoke(self, tmp_path):
        cfg = tiny_config(task="regression", methods=("erm", "ot", "pgdro"),
                          seeds=(0,), levels=(0.0, 1.0))
        result = sweeps.run_sweep(cfg, tmp_path)
        assert not result.failed_cells()
        lines = (tmp_path / "regression_cells.csv").read_text().strip().splitlines()
        assert lines[0] == "config_hash,level,method,seed,mse,mae,worst10_mse"
        assert len(lines) == 1 + 2 * 3
        for line in lines[1:]:
            parts = line.split(",")
            mse, mae, w10 = float(parts[4]), float(parts[5]), float(parts[6])
            assert w10 >= mse >= 0.0
            assert mae >= 0.0

    def test_byte_determinism(self, tmp_path):
        cfg = tiny_config(task="regression", methods=("erm",), seeds=(0,),
                          levels=(1.0,))
        d1, d2 = tmp_path / "a", tmp_path / "b"
        sweeps.run_sweep(cfg, d1)
        sweeps.run_sweep(cfg, d2)
        assert (d1 / "regression_cells.csv").read_bytes() == (
            d2 / "regression_cells.csv"
        ).read_bytes()


class TestHeatmap:
    def test_matrices_and_trace(self, tmp_path):
        cfg = tiny_config(seeds=(0, 1))
        result = sweeps.run_heatmap(cfg, shots_list=(1, 2), out_dir=tmp_path)
        assert not result.failed_cells()
        trace = (tmp_path / "heatmap_trace.csv").read_text().strip().splitlines()
        assert trace[0] == "config_hash,seed,shots,diagonal_mass"
        assert len(trace) == 1 + 2 * 2
        matrix = (tmp_path / "heatmap_seed0_k2.csv").read_text().strip().splitlines()
        rows = [line.split(",")[1:] for line in matrix[1:]]
        cols = np.array(rows, dtype=float)
        np.testing.assert_allclose(cols.sum(axis=0), 1.0, atol=1e-10)

    def test_failed_cell_keeps_its_message(self, tmp_path, monkeypatch):
        real = sweeps.prior_weights

        def flaky(protos, supports, prior_cfg):
            if supports.features.shape[0] == 2 * 4:
                raise RuntimeError("synthetic heatmap failure")
            return real(protos, supports, prior_cfg)

        monkeypatch.setattr(sweeps, "prior_weights", flaky)
        result = sweeps.run_heatmap(tiny_config(seeds=(0,)), shots_list=(1, 2),
                                    out_dir=tmp_path)
        assert [(c.level, c.status) for c in result.failed_cells()] == [
            (2.0, "failed:RuntimeError")]
        manifest = (tmp_path / "heatmap_manifest.txt").read_text().splitlines()
        assert "failure level=2 method=heatmap seed=0: RuntimeError: " \
               "synthetic heatmap failure" in manifest

    def test_identity_shift_diagonal_heavy_at_k16(self, tmp_path):
        # matched classes with no shift: by 16 shots the coupling should
        # put most mass on the true class
        cfg = tiny_config(seeds=(0,))
        cfg = ExperimentConfig(
            task="heatmap", generator=cfg.generator,
            shift=ShiftSpec(lambda_mean=0.0, lambda_cov=0.0, rotation_deg=0.0),
            prior=cfg.prior, dro=cfg.dro, train=cfg.train,
            methods=cfg.methods, seeds=(0, 1, 2), levels=cfg.levels,
        )
        result = sweeps.run_heatmap(cfg, shots_list=(16,), out_dir=tmp_path)
        masses = [result.aggregate[(s, 16)] for s in (0, 1, 2)]
        assert float(np.mean(masses)) >= 0.6

    def test_matrices_draw_no_atoms(self, tmp_path, monkeypatch):
        # the matrices are the prior weights alone: with the atom draw
        # made to fail, every file but the manifest is written the same
        cfg = tiny_config(seeds=(0, 1))
        sweeps.run_heatmap(cfg, shots_list=(1, 4), out_dir=tmp_path / "a")

        def no_atoms(*args, **kwargs):
            raise AssertionError("the heatmap drew atoms")

        monkeypatch.setattr("protodro.priors.draw_atoms", no_atoms)
        result = sweeps.run_heatmap(cfg, shots_list=(1, 4), out_dir=tmp_path / "b")
        assert not result.failed_cells()
        names = sorted(os.listdir(tmp_path / "a"))
        assert names == sorted(os.listdir(tmp_path / "b"))
        csvs = [n for n in names if n.endswith(".csv")]
        assert len(csvs) == 2 * 2 + 1
        for name in csvs:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_nested_supports_prefix_property(self):
        pair = sweeps.make_pair(tiny_config(), 0.0, 3)
        from protodro.numkit import SeededRng
        a = sweeps.nested_supports(pair.target_params, 4, SeededRng(3, 7).child(99))
        b = sweeps.nested_supports(pair.target_params, 8, SeededRng(3, 7).child(99))
        assert np.array_equal(a, b[:, :4, :])


class TestManifest:
    def test_version_names_the_package_checkout(self, tmp_path, monkeypatch):
        # the revision comes from the checkout the package lives in, not
        # from the directory the command was started in
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        monkeypatch.chdir(repo_root)
        from_root = sweeps.version_string.__wrapped__()
        monkeypatch.chdir(tmp_path)
        assert sweeps.version_string.__wrapped__() == from_root
