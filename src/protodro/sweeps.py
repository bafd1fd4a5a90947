"""Sweep orchestration: the method registry, disturbance grids, weight
heatmaps, CSV and manifest persistence.

A method is named, checked and trained in one place: the `methods` field
of its task's GridSpec in GRIDS maps the name to the function that trains
it. `protodro train` and the sweep grid both look methods up there
(`method_fit`), so an unknown method, or one the config's task lacks, is a
ValueError before any cell runs or any file is written.

Every sweep writes three kinds of artifact into its output directory:
per-cell CSV rows (one line per level x method x seed), an aggregate CSV
(mean and std over seeds), and a manifest with the config hash, version,
wall time, and per-cell status. Reals are serialized with 17 significant
digits so reruns are byte-comparable; wall times live only in the manifest.
"""

from __future__ import annotations

import functools
import os
import subprocess
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import __version__, models
from .config import ExperimentConfig, config_hash, prepare_output_dir, shift_at_level
from .metrics import eval_classification, eval_regression
from .models import (
    RobustClassifier,
    TrainConfig,
    empirical_prior,
    train_ce_head,
    train_huber_head,
    train_pgdro_classifier,
    train_pgdro_regressor,
    train_saa,
)
from .numkit import SeededRng, gaussian_sample
from .priors import (PriorConfig, SupportSet, build_priors, compute_class_stats,
                     prior_weights)
from .synthgen import DomainPair, RegressionTask, make_domain_pair, make_regression

DATA_STREAM = 7
REGRESSION_STREAM = 8


def format_real(value: float) -> str:
    return format(float(value), ".17g")


def write_csv(path, columns, rows) -> None:
    """Plain comma-separated text, one header line, deterministic order."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


@functools.cache
def version_string() -> str:
    """Package version plus the short revision of the git checkout the
    package lives in; the bare version outside a checkout."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=5, check=True,
        ).stdout.strip()
        return f"{__version__}+{rev}"
    except (OSError, subprocess.SubprocessError):
        return __version__


@dataclass
class CellStatus:
    """One cell's outcome: status "ok" or "failed:<ExceptionType>", and the
    exception's message for a failed cell."""

    level: float
    method: str
    seed: int
    status: str
    seconds: float
    message: str = ""

    @classmethod
    def failed(cls, level: float, method: str, seed: int, exc: Exception,
               seconds: float) -> "CellStatus":
        return cls(level, method, seed, f"failed:{type(exc).__name__}", seconds, str(exc))


@dataclass
class SweepResult:
    """A sweep's cell bookkeeping and the files it wrote; its values are
    in those files."""

    cells: list[CellStatus] = field(default_factory=list)
    output_files: list[str] = field(default_factory=list)

    def failed_cells(self) -> list[CellStatus]:
        return [c for c in self.cells if c.status != "ok"]


def write_manifest(path, cfg: ExperimentConfig, fields: dict, t_start: float,
                   cells=()) -> None:
    """The one run manifest: config hash, version, the caller's fields in
    order, wall time since t_start, then one line per cell. A failed cell's
    line is followed by a `failure` line with its exception's type and
    message, on one line and with no ` = `, so that neither `key = value`
    nor `cell ...` readers see it."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"config_hash = {config_hash(cfg)}\n")
        fh.write(f"version = {version_string()}\n")
        for key, value in fields.items():
            fh.write(f"{key} = {value}\n")
        fh.write(f"wall_seconds = {time.time() - t_start:.3f}\n")
        for cell in cells:
            where = f"level={format_real(cell.level)} method={cell.method} seed={cell.seed}"
            fh.write(f"cell {where} status={cell.status} seconds={cell.seconds:.3f}\n")
            if cell.status != "ok":
                message = " ".join(cell.message.split()).replace(" = ", "=")
                fh.write(f"failure {where}: {cell.status.removeprefix('failed:')}: "
                         f"{message}\n")


def make_pair(cfg: ExperimentConfig, level: float, seed: int) -> DomainPair:
    return make_domain_pair(cfg.generator, shift_at_level(cfg, level),
                            SeededRng(seed, DATA_STREAM))


def make_task(cfg: ExperimentConfig, pair: DomainPair, seed: int) -> RegressionTask:
    """Regression responses for a domain pair, from the seed's own stream."""
    return make_regression(
        pair, SeededRng(seed, REGRESSION_STREAM), cfg.generator.noise_sigma
    )


def build_adapted_priors(pair: DomainPair, prior_cfg: PriorConfig) -> list:
    """Phase-I pipeline: source class stats, soft-min OT coupling, priors."""
    stats = compute_class_stats(pair.source.features, pair.source.labels)
    return build_priors(stats, pair.source.per_class(),
                        pair.target_train_supports, prior_cfg)


def _pgdro_inputs(pair: DomainPair, cfg: ExperimentConfig, train: TrainConfig):
    """Adapted priors (atoms drawn from the cell seed) and the samples the
    robust loss sees: base samples and supports alike, batched together."""
    priors = build_adapted_priors(pair, replace(cfg.prior, atom_seed=train.seed))
    supports = pair.target_train_supports
    data = SupportSet(
        features=np.vstack([pair.source.features, supports.features]),
        labels=np.concatenate([pair.source.labels, supports.labels]),
    )
    return priors, data


def _fit_ce(features, labels, cfg, train):
    return train_ce_head(features, labels, cfg.generator.n_classes, train).head, None


def _transported(pair: DomainPair) -> np.ndarray:
    """Source features moved onto the target supports, class by class (the
    OT baselines); called through models, where the benchmark traces it."""
    return models.barycentric_transport(pair.source, pair.target_train_supports)


def _fit_saa(pair, cfg, train):
    return train_saa(pair.target_train_supports, cfg.generator.n_classes,
                     train).head, None


def _fit_wdro(pair, cfg, train):
    """One empirical reference shared by every class: the robust machinery
    without the adaptive priors."""
    supports = pair.target_train_supports
    priors = [empirical_prior(supports.features)] * cfg.generator.n_classes
    return train_pgdro_classifier(supports, priors, train, cfg.dro).head, priors


def _fit_pgdro(pair, cfg, train):
    priors, data = _pgdro_inputs(pair, cfg, train)
    return train_pgdro_classifier(data, priors, train, cfg.dro).head, priors


def _fit_pgdro_regressor(pair, task, cfg, train):
    priors, data = _pgdro_inputs(pair, cfg, train)
    responses = np.concatenate([task.source_responses, task.support_responses])
    return train_pgdro_regressor(data, responses, priors, train, cfg.dro).head, priors


def method_fit(task: str, method: str) -> Callable:
    """The registered fit of one method of a grid task.

    Raises ValueError for a task without a grid or a method its registry
    lacks; `protodro train` and the sweep call this before writing a file.
    """
    if task not in GRIDS:
        raise ValueError(
            f"expected a classification or regression config, got {task!r}")
    methods = GRIDS[task].methods
    if method not in methods:
        raise ValueError(f"method {method!r} has no {task} runner; "
                         f"choose from {', '.join(methods)}")
    return methods[method]


def fit(task: str, method: str, inputs: tuple, cfg: ExperimentConfig,
        seed: int):
    """Train one method on a cell's inputs: (head, priors or None)."""
    return method_fit(task, method)(*inputs, cfg, replace(cfg.train, seed=seed))


def predict_classes(head, priors, features: np.ndarray, dro_cfg) -> np.ndarray:
    """Robust decisions when the head comes with priors, argmax otherwise."""
    if priors is None:
        return head.predict(features)
    return RobustClassifier(head, priors, dro_cfg).predict(features)


def _classification_predictions(method: str, pair: DomainPair,
                                cfg: ExperimentConfig, seed: int) -> np.ndarray:
    """Train one method and return its test-set class predictions."""
    head, priors = fit("classification", method, (pair,), cfg, seed)
    return predict_classes(head, priors, pair.target_test.features, cfg.dro)


def _regression_predictions(method: str, pair: DomainPair, task: RegressionTask,
                            cfg: ExperimentConfig, seed: int) -> np.ndarray:
    """Train one method and return its test-set response predictions."""
    head, _ = fit("regression", method, (pair, task), cfg, seed)
    return head.predict_response(pair.target_test.features)


@dataclass(frozen=True)
class GridSpec:
    """One task's method registry and what its disturbance grid computes.

    methods maps each method name to fit(*inputs, cfg, train_cfg), which
    returns (head, priors or None); `protodro train` saves the priors next
    to the head, and a classifier that returns them predicts robustly.
    inputs(cfg, pair, seed) gives the cell arguments between the method and
    the config, shared by every method at that level and seed; cell(method,
    *inputs, cfg, seed) scores one method on them. The cells CSV gets one
    column per metric; the aggregate CSV the mean and std over seeds of each
    (column stem, metric) pair.
    """

    methods: dict[str, Callable]
    inputs: Callable
    cell: Callable
    metrics: tuple[str, ...]
    aggregates: tuple[tuple[str, str], ...]
    files: tuple[str, str, str]  # cells CSV, aggregate CSV, manifest


# the cell functions are looked up at call time, so a wrapper installed on
# this module's _*_predictions attribute sees every cell
GRIDS = {
    "classification": GridSpec(
        methods={
            "pgdro": _fit_pgdro,
            "erm": lambda pair, cfg, train: _fit_ce(
                pair.source.features, pair.source.labels, cfg, train),
            "ot": lambda pair, cfg, train: _fit_ce(
                _transported(pair), pair.source.labels, cfg, train),
            "saa": _fit_saa,
            "wdro": _fit_wdro,
            "fewshot": lambda pair, cfg, train: _fit_ce(
                pair.target_train_supports.features,
                pair.target_train_supports.labels, cfg, train),
        },
        inputs=lambda cfg, pair, seed: (pair,),
        cell=lambda method, pair, cfg, seed: eval_classification(
            _classification_predictions(method, pair, cfg, seed),
            pair.target_test.labels, cfg.generator.n_classes),
        metrics=("avg_accuracy", "worst10_accuracy"),
        aggregates=(("avg", "avg_accuracy"), ("w10", "worst10_accuracy")),
        files=("cells.csv", "table1.csv", "manifest.txt"),
    ),
    "regression": GridSpec(
        methods={
            "pgdro": _fit_pgdro_regressor,
            "ot": lambda pair, task, cfg, train: (train_huber_head(
                _transported(pair), task.source_responses, train).head, None),
            "erm": lambda pair, task, cfg, train: (train_huber_head(
                pair.source.features, task.source_responses, train).head, None),
        },
        inputs=lambda cfg, pair, seed: (pair, make_task(cfg, pair, seed)),
        cell=lambda method, pair, task, cfg, seed: eval_regression(
            _regression_predictions(method, pair, task, cfg, seed),
            task.test_responses),
        metrics=("mse", "mae", "worst10_mse"),
        aggregates=(("mse", "mse"), ("w10mse", "worst10_mse")),
        files=("regression_cells.csv", "regression_table.csv",
               "regression_manifest.txt"),
    ),
}


def run_sweep(cfg: ExperimentConfig, out_dir=None) -> SweepResult:
    """Disturbance-level grid over methods and seeds for cfg.task."""
    for method in cfg.methods:
        method_fit(cfg.task, method)
    spec = GRIDS[cfg.task]
    out_dir = prepare_output_dir(cfg, out_dir)
    digest = config_hash(cfg)
    result = SweepResult()
    t_start = time.time()

    cell_rows = []
    scores: dict = {}
    for level in cfg.levels:
        inputs = {seed: spec.inputs(cfg, make_pair(cfg, level, seed), seed)
                  for seed in cfg.seeds}
        for method in cfg.methods:
            for seed in cfg.seeds:
                t0 = time.time()
                try:
                    report = spec.cell(method, *inputs[seed], cfg, seed)
                except Exception as exc:  # contain the cell, keep sweeping
                    result.cells.append(
                        CellStatus.failed(level, method, seed, exc, time.time() - t0))
                    continue
                result.cells.append(CellStatus(level, method, seed, "ok", time.time() - t0))
                scores.setdefault((level, method), []).append(report)
                cell_rows.append((digest, format_real(level), method, str(seed)) + tuple(
                    format_real(getattr(report, name)) for name in spec.metrics
                ))

    cells_name, table_name, manifest_name = spec.files
    cells_path = os.path.join(out_dir, cells_name)
    write_csv(cells_path, ("config_hash", "level", "method", "seed") + spec.metrics,
              cell_rows)
    result.output_files.append(cells_path)

    agg_columns = ["config_hash", "level"]
    for method in cfg.methods:
        for stem, _ in spec.aggregates:
            agg_columns += [f"{method}_{stem}_mean", f"{method}_{stem}_std"]
    agg_rows = []
    for level in cfg.levels:
        row = [digest, format_real(level)]
        for method in cfg.methods:
            reports = scores.get((level, method), [])
            if not reports:
                row += ["nan"] * (2 * len(spec.aggregates))
                continue
            for _, name in spec.aggregates:
                values = np.array([getattr(r, name) for r in reports])
                row += [format_real(values.mean()), format_real(values.std())]
        agg_rows.append(tuple(row))
    table_path = os.path.join(out_dir, table_name)
    write_csv(table_path, agg_columns, agg_rows)
    result.output_files.append(table_path)

    manifest_path = os.path.join(out_dir, manifest_name)
    fields = {**_sweep_fields(cfg), "same_data_levels": same_data_levels(cfg)}
    write_manifest(manifest_path, cfg, fields, t_start, result.cells)
    result.output_files.append(manifest_path)
    return result


def _sweep_fields(cfg: ExperimentConfig) -> dict:
    return {"task": cfg.task, "seeds": ",".join(str(s) for s in cfg.seeds)}


def same_data_levels(cfg: ExperimentConfig) -> str:
    """The levels of cfg that draw the same data as another of its levels,
    comma-separated, or "none".

    A level reaches the data only through its shift's effective covariance
    scale, max(level, cov_scale_floor), so every level at or below the
    floor draws the same pairs at a given seed and its table rows repeat.
    """
    scales = [shift_at_level(cfg, level).effective_cov_scale for level in cfg.levels]
    shared = [format_real(level) for level, scale in zip(cfg.levels, scales)
              if scales.count(scale) > 1]
    return ",".join(shared) or "none"


def nested_supports(target_params, k_max: int, rng: SeededRng) -> np.ndarray:
    """Per-class draws of k_max supports whose prefixes nest across budgets."""
    return np.stack([
        gaussian_sample(params, k_max, rng.child(c))
        for c, params in enumerate(target_params)
    ])


def run_heatmap(cfg: ExperimentConfig, shots_list=(1, 4, 16),
                out_dir=None) -> SweepResult:
    """Adaptive-weight matrices at growing support budgets.

    Support draws nest across budgets (the k-shot set is a prefix of the
    4k-shot set) so the diagonal-mass trend reflects budget, not redraw
    noise. Matrices are written one CSV per (seed, k) with classes as
    columns; the trace CSV records the mean diagonal mass.
    """
    out_dir = prepare_output_dir(cfg, out_dir)
    digest = config_hash(cfg)
    result = SweepResult()
    t_start = time.time()
    k_max = max(shots_list)
    n_classes = cfg.generator.n_classes

    trace_rows = []
    for seed in cfg.seeds:
        pair = make_pair(cfg, cfg.shift.lambda_cov, seed)
        draws = nested_supports(
            pair.target_params, k_max, SeededRng(seed, DATA_STREAM).child(99)
        )
        protos = pair.source.per_class()
        for k in shots_list:
            t0 = time.time()
            supports = SupportSet(
                features=draws[:, :k, :].reshape(n_classes * k, cfg.generator.dim),
                labels=np.repeat(np.arange(n_classes), k),
            )
            try:
                weights = prior_weights(protos, supports, cfg.prior).T  # B x C
            except Exception as exc:
                result.cells.append(
                    CellStatus.failed(float(k), "heatmap", seed, exc, time.time() - t0))
                continue
            diag_mass = float(np.mean(np.diag(weights)))
            matrix_path = os.path.join(out_dir, f"heatmap_seed{seed}_k{k}.csv")
            write_csv(
                matrix_path,
                ["base_class"] + [f"target_{c}" for c in range(n_classes)],
                [
                    tuple([str(b)] + [format_real(weights[b, c])
                                      for c in range(n_classes)])
                    for b in range(weights.shape[0])
                ],
            )
            result.output_files.append(matrix_path)
            trace_rows.append((
                digest, str(seed), str(k), format_real(diag_mass)
            ))
            result.cells.append(
                CellStatus(float(k), "heatmap", seed, "ok", time.time() - t0)
            )

    trace_path = os.path.join(out_dir, "heatmap_trace.csv")
    write_csv(trace_path, ("config_hash", "seed", "shots", "diagonal_mass"),
              trace_rows)
    result.output_files.append(trace_path)
    manifest_path = os.path.join(out_dir, "heatmap_manifest.txt")
    write_manifest(manifest_path, cfg, _sweep_fields(cfg), t_start, result.cells)
    result.output_files.append(manifest_path)
    return result
