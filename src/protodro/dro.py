"""Robust per-class scores through a one-dimensional convex dual.

Each class score is the worst-case expected model score over an entropic
neighborhood of that class's prior, tilted toward the query point. The
inner problem reduces to minimizing

    phi(lam) = lam * rho + lam * eps * log E_{y ~ q} exp(f(y) / (lam * eps))

over lam >= 0, which is convex with derivatives available in closed form
from softmax moments of the atom scores. The solver runs Newton steps
safeguarded by a sign bracket on phi' and falls back to bisection whenever
a step leaves the bracket or fails to reduce |phi'|.

Everything here is written over batches of tilted weight rows: one tilt
(gibbs_tilt_batch), one solver (solve_dual_batch) and one result type
(BatchDualResult). A single query is a batch of one row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkit import log_sum_exp, sq_distances
from .priors import MixturePrior

GRAD_TOL_SCALE = 1e-8
# the multiplier box [LAMBDA_MIN, LAMBDA_MAX] and the cold start inside it
LAMBDA_INIT = 1.0
LAMBDA_MIN = 1e-6
LAMBDA_MAX = 1e4
# live scores spread by at most FLAT_TOL times their magnitude count as
# constant: such a row's value is that constant, with lambda = 0
FLAT_TOL = 1e-12
BOUNDARY_NONE = 0
BOUNDARY_MIN = -1
BOUNDARY_MAX = 1


@dataclass
class DroConfig:
    """Ball radius, kernel temperature, and the Newton budget."""

    rho: float = 1.0
    epsilon: float = 1.0
    newton_iters: int = 8

    def __post_init__(self) -> None:
        if self.rho < 0:
            raise ValueError("rho must be nonnegative")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.newton_iters < 1:
            raise ValueError("newton_iters must be at least 1")

    @property
    def grad_tol(self) -> float:
        return GRAD_TOL_SCALE * (1.0 + self.rho)


@dataclass
class BatchDualResult:
    """Row-wise dual solutions for a batch of tilted weight rows."""

    value: np.ndarray
    lambda_star: np.ndarray
    posterior: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    degenerate: np.ndarray
    boundary: np.ndarray


def gibbs_tilt_batch(prior: MixturePrior, queries: np.ndarray, epsilon: float) -> np.ndarray:
    """Normalized tilt log-weights for many query points at once: (n, A)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    q = np.asarray(queries, dtype=float)
    if q.ndim != 2 or q.shape[1] != prior.atoms.shape[1]:
        raise ValueError("queries must be (n, d) matching the atom dimension")
    logs = prior.atom_log_weights[None, :] - sq_distances(q, prior.atoms) / epsilon
    return logs - log_sum_exp(logs, axis=1)[:, None]


def _phi_terms(logq: np.ndarray, scores: np.ndarray, lam: np.ndarray, cfg: DroConfig):
    """phi, phi', phi'' and the posterior at each row's lambda."""
    scale = lam[:, None] * cfg.epsilon
    a = logq + scores / scale
    log_z = log_sum_exp(a, axis=1)
    posterior = np.exp(a - log_z[:, None])
    f = np.broadcast_to(scores, posterior.shape)
    mean = np.einsum("na,na->n", posterior, f)
    second = np.einsum("na,na->n", posterior, f * f)
    var = np.maximum(second - mean**2, 0.0)
    phi = lam * (cfg.rho + cfg.epsilon * log_z)
    dphi = cfg.rho + cfg.epsilon * log_z - mean / lam
    d2phi = var / (lam**3 * cfg.epsilon)
    return phi, dphi, d2phi, posterior


def solve_dual_batch(tilt_log_weights: np.ndarray, scores: np.ndarray,
                     cfg: DroConfig,
                     lam_init: np.ndarray | None = None) -> BatchDualResult:
    """Minimize phi row-by-row over [LAMBDA_MIN, LAMBDA_MAX].

    Args:
        tilt_log_weights: (n, A) normalized log weights (-inf allowed).
        scores: (A,) shared scores or (n, A) per-row scores.
        cfg: DroConfig; cfg.newton_iters bounds the refinement loop.
        lam_init: optional (n,) per-row starting multipliers; defaults to
            LAMBDA_INIT everywhere. Warm starts from a previous solve
            shorten the bracket search without changing the minimizer.

    Returns:
        BatchDualResult with one solution per row. Rows whose weighted
        scores are constant to within the flat tolerance short-circuit to
        lambda = 0 with the constant as the value; rows whose minimizer
        sits outside the lambda box are clamped and flagged.
    """
    logq = np.asarray(tilt_log_weights, dtype=float)
    if logq.ndim != 2:
        raise ValueError("tilt_log_weights must be (n, A)")
    n, n_atoms = logq.shape
    f = np.asarray(scores, dtype=float)
    if f.ndim == 1:
        f = np.broadcast_to(f[None, :], (n, n_atoms))
    if f.shape != (n, n_atoms):
        raise ValueError("scores must be (A,) or (n, A)")
    if not np.all(np.isfinite(f)):
        raise ValueError("scores must be finite")

    live = logq > -np.inf
    if not live.any(axis=1).all():
        raise ValueError("every row needs at least one atom with positive weight")
    f_hi = np.where(live, f, -np.inf).max(axis=1)
    f_lo = np.where(live, f, np.inf).min(axis=1)
    mag = np.maximum(1.0, np.maximum(np.abs(f_hi), np.abs(f_lo)))
    degenerate = (f_hi - f_lo) <= FLAT_TOL * mag

    value = np.where(degenerate, f_hi, np.nan)
    lam_star = np.where(degenerate, 0.0, np.nan)
    posterior = np.where(degenerate[:, None], np.exp(logq), np.nan)
    iterations = np.zeros(n, dtype=int)
    converged = degenerate.copy()
    boundary = np.full(n, BOUNDARY_NONE, dtype=np.int8)

    solve_rows = np.flatnonzero(~degenerate)
    if solve_rows.size:
        lam0 = None if lam_init is None else np.asarray(lam_init, dtype=float)[solve_rows]
        sub = _newton_bisect(logq[solve_rows], f[solve_rows], cfg, lam0)
        sub_val, sub_lam, sub_post, sub_iter, sub_conv, sub_bound = sub
        value[solve_rows] = sub_val
        lam_star[solve_rows] = sub_lam
        posterior[solve_rows] = sub_post
        iterations[solve_rows] = sub_iter
        converged[solve_rows] = sub_conv
        boundary[solve_rows] = sub_bound

    return BatchDualResult(
        value=value,
        lambda_star=lam_star,
        posterior=posterior,
        iterations=iterations,
        converged=converged,
        degenerate=degenerate,
        boundary=boundary,
    )


def _bracket(logq: np.ndarray, f: np.ndarray, cfg: DroConfig,
             lam0: np.ndarray | None = None):
    """Find [lo, hi] with phi'(lo) < 0 <= phi'(hi), stepping by factors of 10.

    Each row steps one way from its start, down from a nonnegative phi' and
    up from a negative one, until the sign flips. A row that reaches the box
    edge unflipped is a boundary row; the far end of its bracket is NaN.
    """
    n = logq.shape[0]
    if lam0 is None:
        probe = np.full(n, LAMBDA_INIT)
    else:
        probe = np.clip(np.where(np.isfinite(lam0) & (lam0 > 0), lam0, LAMBDA_INIT),
                        LAMBDA_MIN, LAMBDA_MAX)
    lo = np.full(n, np.nan)
    hi = np.full(n, np.nan)
    bound = np.full(n, BOUNDARY_NONE, dtype=np.int8)
    rows = np.arange(n)
    while rows.size:
        p = probe[rows]
        # keep only phi', so the (rows, A) posterior is freed right away
        nonneg = _phi_terms(logq[rows], f[rows], p, cfg)[1] >= 0
        hi[rows[nonneg]] = p[nonneg]
        lo[rows[~nonneg]] = p[~nonneg]
        down = np.isnan(lo[rows])
        nxt = np.where(down, np.maximum(p / 10.0, LAMBDA_MIN),
                       np.minimum(p * 10.0, LAMBDA_MAX))
        # stop at a sign flip (both ends set) or at the box edge (no move)
        going = (down | np.isnan(hi[rows])) & (nxt != p)
        rows = rows[going]
        probe[rows] = nxt[going]
    bound[np.isnan(lo)] = BOUNDARY_MIN
    bound[np.isnan(hi)] = BOUNDARY_MAX
    return lo, hi, bound


def _newton_bisect(logq: np.ndarray, f: np.ndarray, cfg: DroConfig,
                   lam0: np.ndarray | None = None):
    """Safeguarded Newton refinement for rows with genuinely spread scores.

    One evaluation per iteration from the bracket's geometric midpoint:
    the Newton step is taken when it lands strictly inside the sign
    bracket and at most halves the previous step, otherwise the bracket
    is bisected in log space (lambda lives across decades, so the
    geometric midpoint is the natural fallback).
    """
    n = logq.shape[0]
    lo, hi, bound = _bracket(logq, f, cfg, lam0)

    interior = bound == BOUNDARY_NONE
    lam = np.where(bound == BOUNDARY_MIN, LAMBDA_MIN, LAMBDA_MAX)
    if lam0 is None:
        lam[interior] = np.sqrt(lo[interior] * hi[interior])
    else:
        # a warm start sits on one bracket edge; Newton moves inward from it
        lam[interior] = np.clip(lam0[interior], lo[interior], hi[interior])
    step_old = np.where(interior, hi - lo, 0.0)

    iterations = np.zeros(n, dtype=int)
    active = interior.copy()
    for _ in range(cfg.newton_iters):
        rows = np.flatnonzero(active)
        if not rows.size:
            break
        iterations[rows] += 1
        d, dd = _phi_terms(logq[rows], f[rows], lam[rows], cfg)[1:3]
        done = np.abs(d) <= cfg.grad_tol
        active[rows[done]] = False
        rows, d, dd = rows[~done], d[~done], dd[~done]
        if not rows.size:
            continue
        lo[rows] = np.where(d < 0, lam[rows], lo[rows])
        hi[rows] = np.where(d >= 0, lam[rows], hi[rows])
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = lam[rows] - d / dd
        inside = np.isfinite(newton) & (newton > lo[rows]) & (newton < hi[rows])
        shrinking = np.abs(2.0 * d) <= np.abs(step_old[rows] * dd)
        nxt = np.where(inside & shrinking, newton, np.sqrt(lo[rows] * hi[rows]))
        step_old[rows] = np.abs(nxt - lam[rows])
        lam[rows] = nxt

    phi, dphi, _, posterior = _phi_terms(logq, f, lam, cfg)
    converged = ~interior | (np.abs(dphi) <= cfg.grad_tol)
    return phi, lam, posterior, iterations, converged, bound

