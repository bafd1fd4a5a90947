"""Byte-identity fingerprint of the batch dual solver on randomized batches.

Usage:
    python3 tools/dual_identity.py [--batches N]

Solves a fixed set of seeded randomized batches with
`protodro.dro.solve_dual_batch` and prints one line per batch: the sha256
of all seven `BatchDualResult` fields (name, dtype, shape and bytes of
each), then the batch's settings. The batches mix:

- cold batches (no lam_init) and warm ones, whose per-row starts are NaN,
  0, negative, or spread over twelve decades around 1;
- Newton caps of 1, 2, 8 and 16;
- rows with -inf tilt weights, shared (A,) and per-row (n, A) scores;
- interior rows with scores scaled over eight decades, rows whose
  minimizer lies below the lambda box (BOUNDARY_MIN) or above it
  (BOUNDARY_MAX), and degenerate rows;
- one-row batches and, every 50th batch, a batch large enough to be split
  into row blocks.

Two last lines count the rows of each kind and the counted steps
(`iterations`), one line for the cold batches and one for the warm ones.
Run it at two commits and diff the two listings:

    python3 tools/dual_identity.py > after.txt
    (cd ../parent-checkout && python3 tools/dual_identity.py) > before.txt
    diff before.txt after.txt

Every batch, cold or warm, solves on the one table evaluator. A change
that leaves the solver's steps alone keeps every line byte for byte; one
that moves them by design moves the lines, so compare the two totals lines
instead, and explain any unconverged rows beyond the parent's.

To fingerprint a commit that predates this script, copy the script into a
checkout of that commit: it runs the package in the `src/` beside its own
`tools/` directory. Only the stdlib, numpy and protodro are used.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from protodro import dro  # noqa: E402

SEED = 20211
FIELDS = ("value", "lambda_star", "posterior", "iterations", "converged",
          "degenerate", "boundary")
CAPS = (1, 2, 8, 16)


def random_row(rng, n_atoms: int, rho: float, eps: float, kind: str):
    """One (log_weights, scores) row of the given kind."""
    logw = np.log(rng.dirichlet(np.ones(n_atoms)))
    scores = rng.standard_normal(n_atoms)
    if kind == "min":
        # phi'(0+) = rho + eps * log(mass at the top score) > 0
        top = np.exp(-rho / (3.0 * eps))
        logw = np.log(np.full(n_atoms, (1.0 - top) / (n_atoms - 1)))
        logw[0] = np.log(top)
        scores = rng.uniform(-1.0, 0.0, n_atoms)
        scores[0] = 1.0
    elif kind == "max":
        # one far outlier of little weight puts lambda* above the box
        scores[0] = 1e6
    elif kind == "degenerate":
        scores[:] = rng.normal()
    else:
        scores *= 10.0 ** rng.uniform(-4.0, 4.0)
    if kind != "min" and n_atoms > 3 and rng.random() < 0.4:
        dead = rng.choice(np.arange(1, n_atoms), size=n_atoms // 4, replace=False)
        logw[dead] = -np.inf
        live = logw > -np.inf
        logw[live] -= np.log(np.exp(logw[live]).sum())
    return logw, scores


def random_batch(i: int):
    rng = np.random.default_rng([SEED, i])
    n = 200 if i % 50 == 49 else int(rng.choice([1, 1, 2, 3, 5, 8, 13]))
    n_atoms = int(rng.integers(2, 41))
    rho = float(rng.choice([0.0, 0.05, 0.3, 1.0, 5.0]))
    eps = float(rng.choice([0.1, 0.5, 1.0, 2.0]))
    cap = int(rng.choice(CAPS))
    kinds = rng.choice(["interior", "min", "max", "degenerate"], size=n,
                       p=[0.4, 0.25, 0.25, 0.1])
    if rho == 0.0:
        kinds[kinds == "min"] = "interior"
    rows = [random_row(rng, n_atoms, rho, eps, k) for k in kinds]
    logw = np.vstack([r[0] for r in rows])
    if rng.random() < 0.3:
        scores = rows[0][1]
    else:
        scores = np.vstack([r[1] for r in rows])
    lam0 = None
    if rng.random() < 0.5:
        lam0 = 10.0 ** rng.uniform(-6.0, 6.0, n)
        special = rng.random(n)
        lam0[special < 0.15] = np.nan
        lam0[(special >= 0.15) & (special < 0.25)] = 0.0
        lam0[(special >= 0.25) & (special < 0.3)] = -1.0
    cfg = dro.DroConfig(rho=rho, epsilon=eps, newton_iters=cap)
    return logw, scores, cfg, lam0


def digest(res) -> str:
    h = hashlib.sha256()
    for name in FIELDS:
        a = np.ascontiguousarray(getattr(res, name))
        h.update(f"{name} {a.dtype.str} {a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--batches", type=int, default=600)
    args = parser.parse_args(argv)
    totals = {start: dict.fromkeys(("rows", "interior", "min", "max", "degenerate",
                                    "unconverged", "steps"), 0)
              for start in ("cold", "warm")}
    for i in range(args.batches):
        logw, scores, cfg, lam0 = random_batch(i)
        res = dro.solve_dual_batch(logw, scores, cfg, lam_init=lam0)
        start = "cold" if lam0 is None else "warm"
        print(f"{digest(res)} batch {i} {start} cap {cfg.newton_iters} "
              f"rows {logw.shape[0]} atoms {logw.shape[1]}")
        kind = totals[start]
        kind["rows"] += logw.shape[0]
        kind["degenerate"] += int(res.degenerate.sum())
        kind["min"] += int((res.boundary == dro.BOUNDARY_MIN).sum())
        kind["max"] += int((res.boundary == dro.BOUNDARY_MAX).sum())
        kind["interior"] += int(((res.boundary == dro.BOUNDARY_NONE)
                                 & ~res.degenerate).sum())
        kind["unconverged"] += int((~res.converged).sum())
        kind["steps"] += int(res.iterations.sum())
    for start, kind in totals.items():
        print(start, " ".join(f"{k} {v}" for k, v in kind.items()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
