"""Dual-solver work of one pgdro fit and predict, warm and cold rows apart.

Usage:
    python3 tools/dual_work.py --seed S [--epochs E]

Runs the pgdro method of one paper-classification cell at level 3 and data
seed S (E training epochs, the preset's 200 by default) and its robust
predict on the cell's test set, as the sweep does. Every dual call that
`protodro.models` makes is counted: warm calls (training, with per-row
starts) and cold ones (predict) apart. For each kind it prints

- rows: the dual rows solved;
- evals_per_row: rows evaluated per solved row, counted at each dual
  evaluator the checkout has, `dro._table_terms` (atom rows) and
  `dro._component_terms` (Gaussian-component rows), probes and the
  evaluation after the cap included;
- unconverged, boundary and degenerate: row counts from the result flags;
- dual_s: wall seconds inside the dual calls;

then the cell's average and worst-10 accuracy. A run whose dual raises
(rows unconverged at the cap) prints the counts up to that call and the
error, and exits 1.

Run it at two commits to compare the solver's work on the same cell. To
measure a commit that predates this script, copy the script into a
checkout of that commit: it runs the package in the `src/` beside its own
`tools/` directory. The counts assume that the solver evaluates in the
calling thread. Only the stdlib and protodro are used.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from protodro import dro, models, sweeps  # noqa: E402
from protodro.config import preset  # noqa: E402
from protodro.metrics import eval_classification  # noqa: E402

LEVEL = 3.0
EVALUATORS = ("_table_terms", "_component_terms")
KINDS = ("warm", "cold")
FLAGS = ("unconverged", "boundary", "degenerate")


class Counter:
    """Wraps models.solve_dual_batch and the dual evaluators of dro."""

    def __init__(self) -> None:
        self.kind = "cold"
        self.totals = {kind: dict.fromkeys(
            ("calls", "rows", *FLAGS, "dual_s", *EVALUATORS), 0)
            for kind in KINDS}

    def install(self) -> None:
        solve = models.solve_dual_batch

        def counted_solve(*args, **kwargs):
            kind = "cold" if kwargs.get("lam_init", args[3] if len(args) > 3
                                        else None) is None else "warm"
            self.kind = kind
            t0 = time.perf_counter()
            res = solve(*args, **kwargs)
            totals = self.totals[kind]
            totals["dual_s"] += time.perf_counter() - t0
            totals["calls"] += 1
            totals["rows"] += res.value.size
            totals["unconverged"] += int((~res.converged).sum())
            totals["boundary"] += int((res.boundary != dro.BOUNDARY_NONE).sum())
            totals["degenerate"] += int(res.degenerate.sum())
            return res

        models.solve_dual_batch = counted_solve
        for name in EVALUATORS:
            if hasattr(dro, name):
                setattr(dro, name, self._counting(name, getattr(dro, name)))

    def _counting(self, name, evaluate):
        def counted(*args):
            # each evaluator takes the rows' lambdas next to last
            self.totals[self.kind][name] += args[-2].size
            return evaluate(*args)
        return counted

    def report(self) -> list[str]:
        lines = []
        for kind in KINDS:
            t = self.totals[kind]
            evals = " ".join(
                f"{name.strip('_')} {t[name] / t['rows']:.3f}"
                if t["rows"] and hasattr(dro, name) else f"{name.strip('_')} -"
                for name in EVALUATORS)
            lines.append(
                f"{kind}: rows {t['rows']} calls {t['calls']} "
                f"evals_per_row [{evals}] unconverged {t['unconverged']} "
                f"boundary {t['boundary']} degenerate {t['degenerate']} "
                f"dual_s {t['dual_s']:.3f}")
        return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--epochs", type=int, default=None)
    args = parser.parse_args(argv)
    cfg = preset("paper-classification")
    if args.epochs is not None:
        cfg = replace(cfg, train=replace(cfg.train, epochs=args.epochs))
    pair = sweeps.make_pair(cfg, LEVEL, args.seed)
    counter = Counter()
    counter.install()
    t0 = time.perf_counter()
    try:
        predictions = sweeps._classification_predictions(
            "pgdro", pair, cfg, args.seed)
    except RuntimeError as exc:
        print("\n".join(counter.report()))
        print(f"failed after {time.perf_counter() - t0:.1f} s: "
              f"{type(exc).__name__}: {exc}")
        return 1
    seconds = time.perf_counter() - t0
    report = eval_classification(predictions, pair.target_test.labels,
                                 cfg.generator.n_classes)
    print(f"seed {args.seed} level {LEVEL:g} epochs {cfg.train.epochs} "
          f"fit_predict_s {seconds:.2f}")
    print("\n".join(counter.report()))
    print(f"accuracy avg {report.avg_accuracy:.6f} "
          f"worst10 {report.worst10_accuracy:.6f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
