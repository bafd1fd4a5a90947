"""The four workloads. Each builds its program inputs from the benchmark
seed in its constructor (set-up) and runs one operation per run_op() call.

Why these four (README.md has the layer map):
  cls-cell    the one workload where the dual solver does almost all the work
  reg-cell    the control: Gibbs tilts, Huber loop and barycentric OT, no
              dual solver, so a dual-solver change should not move it
  prior-scan  Phase I alone over the presets' own seed grid, where its
              ConvergenceError failures live
  harness     the scalar dual path (thousands of one-row solves), the
              opposite use of the dual layer from cls-cell
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import checks

CLS_LEVEL = 3.0
# one cold epoch plus two warm ones; the paper runs 200 (see layers.py)
CLS_EPOCHS = 3
REG_LEVEL = 2.0
SCAN_PRESETS = ("paper-classification", "paper-regression")
SCAN_SEEDS = range(10)
CONTRACTION_ARGS = ("contraction", "--eta", "1")
CONSISTENCY_ARGS = ("consistency", "--replicates", "32")
# the committed results/ were produced at this harness seed
COMMITTED_HARNESS_SEED = 0


@dataclass
class OpResult:
    """What one operation did: counts, failure messages, check problems."""

    attempted: int
    failures: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    quality: dict[str, float] = field(default_factory=dict)


@contextlib.contextmanager
def _record_failures(module, attr: str, sink: list[str]):
    """Keep the full message of every exception a sweep cell raises.

    The sweep itself records only the exception type; the wrapped function
    takes (method, ..., seed) and the exception still propagates to it.
    """
    original = getattr(module, attr)

    def recorded(method, *args):
        try:
            return original(method, *args)
        except Exception as exc:
            sink.append(f"{method} seed {args[-1]}: {type(exc).__name__}: {exc}")
            raise

    setattr(module, attr, recorded)
    try:
        yield
    finally:
        setattr(module, attr, original)


class SweepCell:
    """One sweep cell (all preset methods at one level and seed) via the CLI."""

    def __init__(self, work_dir, preset_name: str, level: float, seed: int,
                 epochs: int | None, files: tuple[str, str], predictions: str,
                 quality: tuple[str, str]) -> None:
        from protodro.config import preset, save_config

        cfg = preset(preset_name)
        train = cfg.train if epochs is None else replace(cfg.train, epochs=epochs)
        self.cfg = replace(cfg, levels=(level,), seeds=(seed,), train=train,
                           output_dir=os.path.join(work_dir, "sweep"))
        self.epochs = train.epochs
        self.config_path = os.path.join(work_dir, "sweep.ini")
        save_config(self.cfg, self.config_path)
        self.cells_file, self.manifest_file = files
        self.predictions = predictions
        self.quality_name, self.quality_column = quality

    def run_op(self) -> OpResult:
        from protodro import cli, sweeps

        out = self.cfg.output_dir
        result = OpResult(attempted=len(self.cfg.methods))
        try:
            with _record_failures(sweeps, self.predictions, result.failures), \
                    contextlib.redirect_stdout(sys.stderr):
                code = cli.main(["sweep", "--config", self.config_path])
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
        if code not in (0, 2):
            result.failures = [f"sweep ended with {code}"] * result.attempted
            return result
        cells = checks.cell_statuses(os.path.join(out, self.manifest_file))
        failed = [c for c in cells if c["status"] != "ok"]
        # a failed cell whose exception the wrapper did not see keeps its status
        result.failures += [f"{c['method']} seed {c['seed']}: {c['status']}"
                            for c in failed[len(result.failures):]]
        header, rows = checks.value_columns(
            *checks.read_csv(os.path.join(out, self.cells_file)))
        value_names = [name for name in header
                       if name not in ("level", "method", "seed")]
        result.problems += checks.nonfinite_cells(header, rows, value_names)
        if len(rows) + len(failed) != len(cells):
            result.problems.append(
                f"{len(rows)} result rows for {len(cells) - len(failed)} ok cells")
        result.digest = checks.digest([header, rows, [c["status"] for c in cells]])
        for row in rows:
            if row[header.index("method")] == "pgdro":
                result.quality[self.quality_name] = float(
                    row[header.index(self.quality_column)])
        return result


def cls_cell(work_dir, seed: int, root) -> SweepCell:
    return SweepCell(work_dir, "paper-classification", CLS_LEVEL, seed,
                     CLS_EPOCHS, ("cells.csv", "manifest.txt"),
                     "_classification_predictions",
                     ("test_accuracy", "avg_accuracy"))


def reg_cell(work_dir, seed: int, root) -> SweepCell:
    return SweepCell(work_dir, "paper-regression", REG_LEVEL, seed, None,
                     ("regression_cells.csv", "regression_manifest.txt"),
                     "_regression_predictions", ("test_mse", "mse"))


class PriorScan:
    """Phase I (domain pair + adapted priors) over both presets' levels and
    data seeds 0-9; the benchmark seed only moves the atom draws.

    Data seeds stay at the presets' own range on purpose: 4 of those 80
    cells fail Phase I today, while seeds 10-39 have no failure, so drawing
    the data seeds from the benchmark seed would hide the defect.
    """

    def __init__(self, seed: int) -> None:
        from protodro.config import preset

        self.cells = []
        for name in SCAN_PRESETS:
            cfg = preset(name)
            for level in cfg.levels:
                for data_seed in SCAN_SEEDS:
                    prior = replace(cfg.prior,
                                    atom_seed=len(SCAN_SEEDS) * seed + data_seed)
                    self.cells.append((name, cfg, level, data_seed, prior))

    def run_op(self) -> OpResult:
        from protodro import sweeps

        result = OpResult(attempted=len(self.cells))
        h = hashlib.sha256()
        for name, cfg, level, data_seed, prior in self.cells:
            label = f"{name} level {level:g} seed {data_seed}"
            try:
                pair = sweeps.make_pair(cfg, level, data_seed)
                priors = sweeps.build_adapted_priors(pair, prior)
            except Exception as exc:
                result.failures.append(f"{label}: {type(exc).__name__}: {exc}")
                h.update(f"{label}: failed".encode("utf-8"))
                continue
            weights = np.stack([p.weights for p in priors])
            atoms = priors[0].atoms
            if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(atoms))):
                result.problems.append(f"{label}: non-finite prior")
            h.update(weights.tobytes())
            h.update(atoms.tobytes())
        result.digest = h.hexdigest()[:16]
        return result


def prior_scan(work_dir, seed: int, root) -> PriorScan:
    return PriorScan(seed)


class Harness:
    """The contraction and consistency CLI commands at the committed settings.

    The timed operations run at the benchmark seed. warm_up() runs them once,
    untimed, at the seed of the committed results/ and compares the outputs
    with those files, so every run checks them whatever its seed.
    """

    def __init__(self, work_dir, seed: int, root) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.reference = os.path.join(root, "results")

    def warm_up(self) -> OpResult:
        return self._run(COMMITTED_HARNESS_SEED, "harness-committed")

    def run_op(self) -> OpResult:
        return self._run(self.seed, "harness")

    def _run(self, seed: int, out_name: str) -> OpResult:
        from protodro import cli

        out = os.path.join(self.work_dir, out_name)
        common = ("--seeds", str(seed), "--out", out)
        commands = [CONTRACTION_ARGS + common, CONSISTENCY_ARGS + common]
        result = OpResult(attempted=len(commands))
        for argv in commands:
            try:
                with contextlib.redirect_stdout(sys.stderr):
                    code = cli.main(list(argv))
            except Exception as exc:
                result.failures.append(
                    f"{argv[0]} seed {seed}: {type(exc).__name__}: {exc}")
                continue
            if code != 0:
                result.failures.append(f"{argv[0]} seed {seed} exited {code}")
        if result.failures:
            return result
        result.problems += checks.compare_harness(
            out, self.reference,
            committed_seed=seed == COMMITTED_HARNESS_SEED)
        tables = [checks.read_csv(os.path.join(out, name))
                  for name in checks.HARNESS_CSVS]
        for header, rows in tables:
            result.problems += checks.nonfinite_cells(header, rows, header)
        verdicts = [
            checks.read_manifest(os.path.join(out, name))[key]
            for name, keys in checks.HARNESS_VERDICTS.items() for key in keys
        ]
        result.digest = checks.digest([tables, verdicts])
        return result


WORKLOADS = {
    "cls-cell": cls_cell,
    "reg-cell": reg_cell,
    "prior-scan": prior_scan,
    "harness": Harness,
}
