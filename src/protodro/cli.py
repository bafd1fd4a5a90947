"""Command-line interface: generation, training, sweeps, and harnesses.

`train` and `sweep` name, check and train methods through the registry in
sweeps (the `methods` of each task's GridSpec), the one place a method is
added; a method the config's task lacks is a configuration problem.

Exit codes: 0 on success, 1 on configuration problems (bad flags, missing
or invalid config file, task/method mismatches), 2 on numerical failure
inside a run.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
import time
from dataclasses import replace

import numpy as np

from .config import (ExperimentConfig, config_hash, load_config, parse_as,
                     prepare_output_dir, preset)
from .harnesses import run_consistency, run_contraction
from .metrics import eval_classification, eval_regression
from .models import load_head, save_head
from .priors import load_priors, save_priors
from .sweeps import (
    GRIDS,
    fit,
    format_real,
    make_pair,
    make_task,
    method_fit,
    predict_classes,
    run_heatmap,
    run_sweep,
    write_csv,
    write_manifest,
)
from .synthgen import load_dataset, save_dataset


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the interface contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_common(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--config", help="path to an INI-style config file")
    group.add_argument("--preset", help="named built-in config")
    sub.add_argument("--seeds", help="comma-separated seed list override")
    sub.add_argument("--out", help="output directory override")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="protodro", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True,
                                     parser_class=_Parser)

    gen = commands.add_parser("gen", help="emit benchmark datasets")
    _add_common(gen)

    train = commands.add_parser("train", help="train one method, save the head")
    _add_common(train)
    train.add_argument("--method", required=True,
                       help="a registered method of the config's task")
    train.add_argument("--seed", type=int, help="seed override (one run)")

    sweep = commands.add_parser("sweep", help="disturbance-level benchmark grid")
    _add_common(sweep)

    heatmap = commands.add_parser("heatmap", help="prior-weight matrices per shot count")
    _add_common(heatmap)
    heatmap.add_argument("--shots", default="1,4,16",
                         help="comma-separated support counts")

    contraction = commands.add_parser(
        "contraction", help="fixed-point decay harness")
    _add_common(contraction)
    contraction.add_argument("--eta", type=float, default=0.5)
    contraction.add_argument("--steps", type=int, default=200)

    consistency = commands.add_parser(
        "consistency", help="atom-budget convergence harness")
    _add_common(consistency)
    consistency.add_argument("--replicates", type=int, default=32)

    ev = commands.add_parser("eval", help="evaluate a saved head on a dataset")
    _add_common(ev)
    ev.add_argument("--head", required=True, help="saved head file")
    ev.add_argument("--data", required=True, help="saved dataset file")
    ev.add_argument("--priors", help="saved priors for robust prediction")

    return parser


def _resolve_config(args) -> ExperimentConfig:
    if args.config:
        cfg = load_config(args.config)
    elif args.preset:
        cfg = preset(args.preset)
    else:
        cfg = ExperimentConfig()
    updates = {}
    if args.seeds:
        updates["seeds"] = parse_as(cfg.seeds, args.seeds)
    if args.out:
        updates["output_dir"] = args.out
    if updates:
        cfg = replace(cfg, **updates)
    return cfg


def _cmd_gen(args, cfg: ExperimentConfig) -> int:
    out = prepare_output_dir(cfg)
    t0 = time.time()
    n_classes = cfg.generator.n_classes
    for seed in cfg.seeds:
        pair = make_pair(cfg, cfg.shift.lambda_cov, seed)
        responses = {"source": None, "supports": None, "test": None}
        if cfg.task == "regression":
            task = make_task(cfg, pair, seed)
            responses = {
                "source": task.source_responses,
                "supports": task.support_responses,
                "test": task.test_responses,
            }
        splits = {
            "source": pair.source,
            "supports": pair.target_train_supports,
            "test": pair.target_test,
        }
        for split, data in splits.items():
            save_dataset(
                os.path.join(out, f"s{seed:03d}_{split}.csv"),
                data.features, data.labels, split, n_classes,
                responses=responses[split],
            )
    write_manifest(
        os.path.join(out, "gen_manifest.txt"), cfg,
        {"command": "gen", "seeds": ",".join(str(s) for s in cfg.seeds)}, t0,
    )
    print(f"wrote {3 * len(cfg.seeds)} dataset files to {out}")
    return 0


def _cmd_train(args, cfg: ExperimentConfig) -> int:
    method = args.method
    method_fit(cfg.task, method)
    out = prepare_output_dir(cfg)
    t0 = time.time()
    seed = args.seed if args.seed is not None else cfg.seeds[0]
    pair = make_pair(cfg, cfg.shift.lambda_cov, seed)
    inputs = GRIDS[cfg.task].inputs(cfg, pair, seed)
    head, priors = fit(cfg.task, method, inputs, cfg, seed)
    digest = config_hash(cfg)
    head_path = os.path.join(out, f"head_{method}_s{seed:03d}.txt")
    save_head(head, head_path, config_hash=digest)
    written = [head_path]
    if priors is not None:
        priors_path = os.path.join(out, f"priors_{method}_s{seed:03d}.txt")
        save_priors(priors, priors_path)
        written.append(priors_path)
    write_manifest(
        os.path.join(out, f"train_{method}_s{seed:03d}_manifest.txt"), cfg,
        {"command": "train", "method": method, "seed": seed}, t0,
    )
    print(f"trained {method} (seed {seed}); wrote {', '.join(written)}")
    return 0


def _cmd_sweep(args, cfg: ExperimentConfig) -> int:
    result = run_sweep(cfg)
    failed = result.failed_cells()
    print(f"sweep wrote {len(result.output_files)} files to {cfg.resolve_output_dir()}"
          f" ({len(result.cells)} cells, {len(failed)} failed)")
    return 2 if failed else 0


def _cmd_heatmap(args, cfg: ExperimentConfig) -> int:
    shots = parse_as((1,), args.shots)
    if not shots or any(s < 1 for s in shots):
        raise ValueError(f"invalid shot list {args.shots!r}")
    result = run_heatmap(cfg, shots_list=shots)
    print(f"heatmap wrote {len(result.output_files)} files to {cfg.resolve_output_dir()}")
    return 0


def _cmd_contraction(args, cfg: ExperimentConfig) -> int:
    result = run_contraction(cfg, eta=args.eta, steps=args.steps)
    print(
        f"jacobian_norm={format_real(result.jacobian_norm)} "
        f"rate={format_real(result.rate)} floor_slope={format_real(result.floor_slope)} "
        f"diverged={int(result.diverged)}"
    )
    return 2 if (result.diverged or not result.contractive) else 0


def _cmd_consistency(args, cfg: ExperimentConfig) -> int:
    result = run_consistency(cfg, replicates=args.replicates)
    print(
        f"v_monotone_fraction={format_real(result.v_monotone_fraction)} "
        f"lambda_monotone_fraction={format_real(result.lambda_monotone_fraction)}"
    )
    return 0


def _cmd_eval(args, cfg: ExperimentConfig) -> int:
    for path in (args.head, args.data):
        if not os.path.exists(path):
            raise FileNotFoundError(f"input file not found: {path}")
    if args.priors and not os.path.exists(args.priors):
        raise FileNotFoundError(f"input file not found: {args.priors}")
    features, labels, split, n_classes, responses = load_dataset(args.data)
    head = load_head(args.head)
    out = prepare_output_dir(cfg)
    t0 = time.time()
    if responses is not None:
        task = "regression"
        report = eval_regression(head.predict_response(features), responses)
    else:
        task = "classification"
        priors = load_priors(args.priors) if args.priors else None
        predictions = predict_classes(head, priors, features, cfg.dro)
        report = eval_classification(predictions, labels, n_classes)
    rows = [(name, getattr(report, name)) for name in GRIDS[task].metrics]
    digest = config_hash(cfg)
    eval_path = os.path.join(out, "eval.csv")
    write_csv(eval_path, ("config_hash", "split", "metric", "value"),
              [(digest, split, name, format_real(value)) for name, value in rows])
    fields = {"command": "eval", "head": args.head, "data": args.data}
    if args.priors:
        fields["priors"] = args.priors
    write_manifest(os.path.join(out, "eval_manifest.txt"), cfg, fields, t0)
    print("  ".join(f"{name}={value:.6f}" for name, value in rows))
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "train": _cmd_train,
    "sweep": _cmd_sweep,
    "heatmap": _cmd_heatmap,
    "contraction": _cmd_contraction,
    "consistency": _cmd_consistency,
    "eval": _cmd_eval,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _resolve_config(args)
    except (FileNotFoundError, ValueError, KeyError, TypeError,
            configparser.Error) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args, cfg)
    except (FileNotFoundError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
