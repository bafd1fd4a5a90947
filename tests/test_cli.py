"""Command-line interface: train, sweep and eval on a tiny saved config."""

import os

import pytest

import numpy as np

import protodro.sweeps as sweeps
from protodro import cli, dro, harnesses
from protodro.config import (
    ExperimentConfig,
    GeneratorConfig,
    load_config,
    save_config,
)
from protodro.dro import DroConfig
from protodro.metrics import eval_classification
from protodro.models import TrainConfig, load_head
from protodro.priors import PriorConfig, load_priors
from protodro.synthgen import ShiftSpec

CLASSIFICATION_METHODS = ("pgdro", "erm", "ot", "saa", "wdro", "fewshot")
REGRESSION_METHODS = ("pgdro", "ot", "erm")
# methods whose trained head needs priors for robust prediction
WITH_PRIORS = {"classification": {"pgdro", "wdro"}, "regression": {"pgdro"}}


def write_tiny_config(path, task="classification", methods=("pgdro", "erm")):
    cfg = ExperimentConfig(
        task=task,
        generator=GeneratorConfig(
            n_classes=3, dim=4, n_train=150, n_test=60,
            eig_low=0.3, eig_high=0.9,
        ),
        shift=ShiftSpec(lambda_mean=1.0, lambda_cov=0.0),
        prior=PriorConfig(atoms_per_component=4),
        dro=DroConfig(rho=1.0, epsilon=1.0),
        train=TrainConfig(epochs=2, batch_size=64),
        methods=methods,
        seeds=(0,),
        levels=(1.0,),
    )
    save_config(cfg, path)
    return str(path)


@pytest.fixture(scope="module")
def cls_config(tmp_path_factory):
    return write_tiny_config(tmp_path_factory.mktemp("cfg") / "cls.ini")


@pytest.fixture(scope="module")
def reg_config(tmp_path_factory):
    return write_tiny_config(tmp_path_factory.mktemp("cfg") / "reg.ini",
                             task="regression")


def _train(config, method, out):
    return cli.main(["train", "--config", config, "--method", method,
                     "--out", str(out)])


def test_method_names_match_registry():
    # the parametrized tests below cover every registered method
    assert set(sweeps.GRIDS["classification"].methods) == set(CLASSIFICATION_METHODS)
    assert set(sweeps.GRIDS["regression"].methods) == set(REGRESSION_METHODS)


def test_seeds_flag_skips_blank_entries():
    args = cli.build_parser().parse_args(["sweep", "--seeds", " 0, ,2"])
    assert cli._resolve_config(args).seeds == (0, 2)


class TestTrain:
    @pytest.mark.parametrize("method", CLASSIFICATION_METHODS)
    def test_classification_methods(self, cls_config, tmp_path, method):
        assert _train(cls_config, method, tmp_path) == 0
        assert (tmp_path / f"head_{method}_s000.txt").exists()
        has_priors = (tmp_path / f"priors_{method}_s000.txt").exists()
        assert has_priors == (method in WITH_PRIORS["classification"])
        assert (tmp_path / f"train_{method}_s000_manifest.txt").exists()

    @pytest.mark.parametrize("method", REGRESSION_METHODS)
    def test_regression_methods(self, reg_config, tmp_path, method):
        assert _train(reg_config, method, tmp_path) == 0
        assert (tmp_path / f"head_{method}_s000.txt").exists()
        has_priors = (tmp_path / f"priors_{method}_s000.txt").exists()
        assert has_priors == (method in WITH_PRIORS["regression"])

    def test_regression_rejects_classification_only_method(self, reg_config,
                                                           tmp_path):
        assert _train(reg_config, "saa", tmp_path) == 1
        assert not os.listdir(tmp_path)

    def test_unknown_method_exits_1_before_any_work(self, cls_config, tmp_path,
                                                    monkeypatch):
        monkeypatch.setattr(sweeps, "make_pair", _no_work)
        assert _train(cls_config, "boosting", tmp_path) == 1
        assert not os.listdir(tmp_path)


def _no_work(*args):
    raise AssertionError("a rejected command must not reach any work")


class TestSweep:
    @pytest.mark.parametrize("task, methods", [
        ("regression", ("pgdro", "saa")),  # saa has no regression runner
        ("classification", ("pgdro", "boosting")),
    ])
    def test_unregistered_method_exits_1_before_any_work(
            self, tmp_path, monkeypatch, task, methods):
        config = write_tiny_config(tmp_path / "cfg.ini", task=task,
                                   methods=methods)
        monkeypatch.setattr(sweeps, "make_pair", _no_work)
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", config, "--out", str(out)]) == 1
        assert not out.exists()

    def test_completes(self, cls_config, tmp_path):
        assert cli.main(["sweep", "--config", cls_config,
                         "--out", str(tmp_path)]) == 0
        for name in ("cells.csv", "table1.csv", "manifest.txt"):
            assert (tmp_path / name).exists()

    def test_failed_cell_exits_2(self, cls_config, tmp_path, monkeypatch):
        real = sweeps._classification_predictions

        def flaky(method, pair, cfg, seed):
            if method == "erm":
                raise RuntimeError("synthetic cell failure")
            return real(method, pair, cfg, seed)

        monkeypatch.setattr(sweeps, "_classification_predictions", flaky)
        assert cli.main(["sweep", "--config", cls_config,
                         "--out", str(tmp_path)]) == 2
        manifest = (tmp_path / "manifest.txt").read_text()
        assert "method=erm seed=0 status=failed:RuntimeError" in manifest
        assert "method=pgdro seed=0 status=ok" in manifest


class TestHarnessArguments:
    @pytest.mark.parametrize("argv", [
        ["consistency", "--replicates", "0"],
        ["contraction", "--steps", "0"],
        ["contraction", "--steps", "-5"],
        ["contraction", "--eta", "5", "--steps", "0"],
        ["contraction", "--eta", "0"],
        ["contraction", "--eta", "nan"],
    ])
    def test_bad_argument_exits_1_before_any_work(self, tmp_path, monkeypatch, capsys,
                                                  argv):
        monkeypatch.setattr(harnesses, "_build_instance", _no_work)
        out = tmp_path / "out"
        assert cli.main(argv + ["--out", str(out)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()


class TestEval:
    @pytest.mark.parametrize("method", ["pgdro", "wdro"])
    def test_round_trip(self, cls_config, tmp_path, method):
        # the saved head and priors must predict as the in-memory path does:
        # the same test-set predictions, so the same metrics
        out = tmp_path / "out"
        assert cli.main(["gen", "--config", cls_config, "--out", str(out)]) == 0
        assert _train(cls_config, method, out) == 0
        assert cli.main([
            "eval", "--config", cls_config, "--out", str(out),
            "--head", str(out / f"head_{method}_s000.txt"),
            "--data", str(out / "s000_test.csv"),
            "--priors", str(out / f"priors_{method}_s000.txt"),
        ]) == 0
        lines = (out / "eval.csv").read_text().splitlines()
        assert lines[0] == "config_hash,split,metric,value"
        assert [line.split(",")[2] for line in lines[1:]] == [
            "avg_accuracy", "worst10_accuracy"]
        for line in lines[1:]:
            assert 0.0 <= float(line.split(",")[3]) <= 1.0

        cfg = load_config(cls_config)
        pair = sweeps.make_pair(cfg, cfg.shift.lambda_cov, 0)
        predictions = sweeps._classification_predictions(method, pair, cfg, 0)
        saved = sweeps.predict_classes(
            load_head(out / f"head_{method}_s000.txt"),
            load_priors(str(out / f"priors_{method}_s000.txt")),
            pair.target_test.features, cfg.dro)
        np.testing.assert_array_equal(saved, predictions)
        in_memory = eval_classification(predictions, pair.target_test.labels,
                                        cfg.generator.n_classes)
        assert float(lines[1].split(",")[3]) == in_memory.avg_accuracy
        assert float(lines[2].split(",")[3]) == in_memory.worst10_accuracy
        manifest = (out / "eval_manifest.txt").read_text().splitlines()
        assert f"priors = {out / f'priors_{method}_s000.txt'}" in manifest


class TestOnePath:
    """Each dual row has one evaluator: the robust classifiers' rows the
    Gaussian-component one, the harnesses' atom rows the atom table."""

    def test_robust_classifiers_never_reach_the_atom_table(self, tmp_path, monkeypatch):
        def no_table(*args):
            raise AssertionError("the atom table evaluator ran")

        monkeypatch.setattr(dro, "_table_terms", no_table)
        config = write_tiny_config(tmp_path / "cfg.ini", methods=("pgdro", "wdro"))
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", config, "--out", str(out)]) == 0
        assert (out / "manifest.txt").read_text().count("status=ok") == 2

    def test_harnesses_never_reach_the_component_evaluator(self, tmp_path, monkeypatch):
        def no_components(*args):
            raise AssertionError("the component evaluator ran")

        monkeypatch.setattr(dro, "_component_terms", no_components)
        assert cli.main(["consistency", "--replicates", "1", "--out", str(tmp_path)]) == 0
