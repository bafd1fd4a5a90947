"""Byte-identity fingerprint of the batch dual solver on randomized batches.

Usage:
    python3 tools/dual_identity.py [--batches N]

Solves a fixed set of seeded randomized batches with
`protodro.dro.solve_dual_batch` on both of its evaluators and prints one
line per batch: the sha256 of all eight `BatchDualResult` fields (name,
dtype, shape and bytes of each), then the batch's settings. Each batch
number N gives an atom batch (the table evaluator) and a component batch
(`quad=`, the Gaussian-component evaluator). The batches mix:

- cold batches (no lam_init) and warm ones, whose per-row starts are NaN,
  0, negative, or spread over twelve decades around 1;
- Newton caps of 1, 2, 8 and 16;
- rows with -inf tilt weights; atom batches with shared (A,) and per-row
  (n, A) scores;
- interior rows with scores scaled over eight decades, rows whose
  minimizer lies below the lambda box (BOUNDARY_MIN) or above it
  (BOUNDARY_MAX), and degenerate rows;
- component rows whose variances are all 0 (atoms), curved rows with
  variances over four decades, some components at 0, and flat-mean rows,
  degenerate unless curved;
- one-row batches and, every 50th batch, a large batch: 200 rows for the
  atoms, and 8,192 rows of 8 components, large enough to be split into
  two row blocks.

Then come training-shaped component batches: 2,048 class-major rows (8
classes x 256 samples) of 8 components, each solved cold at means moved
slightly from its own and then warm from those lambdas, as a training
batch starts from the last epoch's multipliers. The warm solve evaluates
every row twice and then a few stragglers, the path the robust
classifier's training takes. Each prints two lines, cold then warm.

The last lines count the rows of each kind and the counted steps
(`iterations`), one line for each evaluator's cold and warm batches and
for the training batches' warm solves.
Run it at two commits and diff the two listings:

    python3 tools/dual_identity.py > after.txt
    (cd ../parent-checkout && python3 tools/dual_identity.py) > before.txt
    diff before.txt after.txt

A change that leaves the solver's steps alone keeps every line byte for
byte; one that moves them by design moves the lines, so compare the
totals lines instead, and explain any unconverged rows beyond the
parent's.

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
FIELDS = ("value", "lambda_star", "gradient", "posterior", "iterations",
          "converged", "degenerate", "boundary")
CAPS = (1, 2, 8, 16)
# the seed stream of the component batches, apart from the atom batches'
COMPONENT_STREAM = 1
# the large component batch: 8,192 rows of 8 components
BIG_ROWS, BIG_COMPONENTS = 8192, 8
# the training-shaped batches: their seed stream, count and shape
TRAINING_STREAM = 2
TRAINING_BATCHES = 6
CLASSES, SAMPLES = 8, 256


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


def random_rows(rng, n: int, n_atoms: int):
    """(log_weights (n, A), scores (n, A), cfg) of n rows of mixed kinds."""
    rho = float(rng.choice([0.0, 0.05, 0.3, 1.0, 5.0]))
    eps = float(rng.choice([0.1, 0.5, 1.0, 2.0]))
    cap = int(rng.choice(CAPS))
    kinds = rng.choice(["interior", "min", "max", "degenerate"], size=n,
                       p=[0.4, 0.25, 0.25, 0.1])
    if rho == 0.0:
        kinds[kinds == "min"] = "interior"
    rows = [random_row(rng, n_atoms, rho, eps, k) for k in kinds]
    cfg = dro.DroConfig(rho=rho, epsilon=eps, newton_iters=cap)
    return np.vstack([r[0] for r in rows]), np.vstack([r[1] for r in rows]), cfg


def random_starts(rng, n: int):
    """None (a cold batch) or (n,) warm starts, some NaN, 0 or negative."""
    if rng.random() >= 0.5:
        return None
    lam0 = 10.0 ** rng.uniform(-6.0, 6.0, n)
    special = rng.random(n)
    lam0[special < 0.15] = np.nan
    lam0[(special >= 0.15) & (special < 0.25)] = 0.0
    lam0[(special >= 0.25) & (special < 0.3)] = -1.0
    return lam0


def random_batch(i: int):
    """An atom batch: (log_weights, scores, cfg, lam_init)."""
    rng = np.random.default_rng([SEED, i])
    n = 200 if i % 50 == 49 else int(rng.choice([1, 1, 2, 3, 5, 8, 13]))
    n_atoms = int(rng.integers(2, 41))
    logw, scores, cfg = random_rows(rng, n, n_atoms)
    if rng.random() < 0.3:
        scores = scores[0]
    return logw, scores, cfg, random_starts(rng, n)


def random_component_batch(i: int):
    """A component batch: (log_weights, means, variances, cfg, lam_init).

    Half the rows are curved: each component's variance is the square of
    the row's median |mean| times 10^U(-3, 1), or 0 for about one in five
    components. The other rows have every variance 0. A degenerate row's
    means are flat.
    """
    rng = np.random.default_rng([SEED, COMPONENT_STREAM, i])
    if i % 50 == 49:
        n, n_comp = BIG_ROWS, BIG_COMPONENTS
    else:
        n = int(rng.choice([1, 1, 2, 3, 5, 8, 13]))
        n_comp = int(rng.choice([2, 3, 5, 8, 16]))
    logw, means, cfg = random_rows(rng, n, n_comp)
    scale = np.median(np.abs(means), axis=1, keepdims=True)
    var = scale**2 * 10.0 ** rng.uniform(-3.0, 1.0, (n, n_comp))
    var[rng.random((n, n_comp)) < 0.2] = 0.0
    var[rng.random(n) < 0.5] = 0.0
    return logw, means, var, cfg, random_starts(rng, n)


def training_batch(i: int):
    """A training-shaped batch: (log_weights, means, moved, variances, cfg).

    Rows are class-major, row c * SAMPLES + j for sample j toward class c.
    A class's variances are the same for all its samples, and its means
    share a class offset, as a linear head's component scores do; moved
    is the means scaled by about 1e-3 and shifted by about 1e-4 of their
    scale, the scores of the head one step earlier.
    """
    rng = np.random.default_rng([SEED, TRAINING_STREAM, i])
    shape = (CLASSES, SAMPLES, BIG_COMPONENTS)
    logw = np.log(rng.dirichlet(np.full(BIG_COMPONENTS, 0.5), size=CLASSES * SAMPLES))
    scale = 10.0 ** rng.uniform(-1.0, 1.0)
    means = scale * (rng.standard_normal((CLASSES, 1, BIG_COMPONENTS))
                     + 0.5 * rng.standard_normal(shape))
    var = np.broadcast_to(
        scale**2 * 10.0 ** rng.uniform(-2.0, 0.0, (CLASSES, 1, BIG_COMPONENTS)), shape)
    moved = (means * (1.0 + 1e-3 * rng.standard_normal((CLASSES, 1, 1)))
             + 1e-4 * scale * rng.standard_normal(shape))
    cfg = dro.DroConfig(rho=float(rng.choice([0.3, 1.0, 3.0])), epsilon=1.0)
    rows = (CLASSES * SAMPLES, BIG_COMPONENTS)
    return logw, means.reshape(rows), moved.reshape(rows), var.reshape(rows), cfg


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
    totals = {(evaluator, start): dict.fromkeys(
        ("rows", "interior", "min", "max", "degenerate", "unconverged", "steps"), 0)
        for evaluator in ("atom", "component", "training") for start in ("cold", "warm")}

    def report(i, evaluator, res, cfg, lam0, size):
        start = "cold" if lam0 is None else "warm"
        print(f"{digest(res)} batch {i} {evaluator} {start} cap {cfg.newton_iters} "
              f"rows {res.value.size} {size}")
        kind = totals[evaluator, start]
        kind["rows"] += res.value.size
        kind["degenerate"] += int(res.degenerate.sum())
        kind["min"] += int((res.boundary == dro.BOUNDARY_MIN).sum())
        kind["max"] += int((res.boundary == dro.BOUNDARY_MAX).sum())
        kind["interior"] += int(((res.boundary == dro.BOUNDARY_NONE)
                                 & ~res.degenerate).sum())
        kind["unconverged"] += int((~res.converged).sum())
        kind["steps"] += int(res.iterations.sum())

    for i in range(args.batches):
        logw, scores, cfg, lam0 = random_batch(i)
        res = dro.solve_dual_batch(logw, scores, cfg, lam_init=lam0)
        report(i, "atom", res, cfg, lam0, f"atoms {logw.shape[1]}")
        logw, means, var, cfg, lam0 = random_component_batch(i)
        res = dro.solve_dual_batch(logw, means, cfg, lam_init=lam0, quad=var)
        report(i, "component", res, cfg, lam0, f"components {logw.shape[1]}")
    for i in range(TRAINING_BATCHES):
        logw, means, moved, var, cfg = training_batch(i)
        before = dro.solve_dual_batch(logw, moved, cfg, quad=var)
        report(i, "training", before, cfg, None, f"components {logw.shape[1]}")
        res = dro.solve_dual_batch(logw, means, cfg, lam_init=before.lambda_star, quad=var)
        report(i, "training", res, cfg, before.lambda_star, f"components {logw.shape[1]}")
    for (evaluator, start), kind in totals.items():
        print(evaluator, start, " ".join(f"{k} {v}" for k, v in kind.items()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
