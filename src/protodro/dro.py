"""Robust per-class scores through a one-dimensional convex dual.

Each class score is the worst-case expected model score over an entropic
neighborhood of that class's prior, tilted toward the query point. The
inner problem reduces to minimizing

    phi(lam) = lam * rho + lam * eps * log E_{y ~ q} exp(f(y) / (lam * eps))

over lam >= 0, which is convex with derivatives available in closed form
from softmax moments of the atom scores. The solver runs Newton steps
safeguarded by a sign bracket on phi' and falls back to bisection whenever
a step leaves the bracket or fails to reduce |phi'|. A warm start reuses the
bracket's terms at the end it lands on, and a converged row keeps phi and
the posterior of the evaluation that converged it.

Everything here is written over batches of tilted weight rows: one tilt
(gibbs_tilt_batch), one solver (solve_dual_batch) and one result type
(BatchDualResult). A single query is a batch of one row.

Each row's solve depends on that row alone, bit for bit, so the solver
splits a batch into contiguous row blocks and solves them on one thread
per usable core (MIN_BLOCK rows per thread at least) into disjoint rows
of one preallocated result. A cap on block size bounds the work arrays
alive at once. Every output is the same whatever the core count; a batch
that is one block, such as a single row, is solved in the calling thread
with no thread started.
"""

from __future__ import annotations

import os
import threading
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
# solve_dual_batch solves row blocks on WORKERS threads (one per usable core),
# each thread at least MIN_BLOCK rows; a block covers at most BLOCK_CELLS
# (row, atom) cells, so each (rows, A) work array of a block is at most 8 MiB
WORKERS = len(os.sched_getaffinity(0))
MIN_BLOCK = 64
BLOCK_CELLS = 1 << 20


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
    """phi, phi', phi'' and the posterior at each row's lambda.

    numkit.log_sum_exp's operations, in its order, over two (rows, A) work
    arrays. Each row's terms depend on that row alone, bit for bit.
    """
    a = np.divide(scores, lam[:, None] * cfg.epsilon)
    a += logq
    m = a.max(axis=1, keepdims=True)
    shift = np.where(np.isfinite(m), m, 0.0)
    e = np.subtract(a, shift)
    np.exp(e, out=e)
    log_z = (np.log(e.sum(axis=1, keepdims=True)) + shift)[:, 0]
    posterior = np.exp(np.subtract(a, log_z[:, None], out=e), out=e)
    mean = np.einsum("na,na->n", posterior, np.broadcast_to(scores, a.shape))
    second = np.einsum("na,na->n", posterior, np.multiply(scores, scores, out=a))
    var = np.maximum(second - mean**2, 0.0)
    phi = lam * (cfg.rho + cfg.epsilon * log_z)
    dphi = cfg.rho + cfg.epsilon * log_z - mean / lam
    d2phi = var / (lam**3 * cfg.epsilon)
    return phi, dphi, d2phi, posterior


def _take(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """x[rows] for sorted distinct rows, without a copy when rows is all of x."""
    return x if rows.size == x.shape[0] else x[rows]


def solve_dual_batch(tilt_log_weights: np.ndarray, scores: np.ndarray,
                     cfg: DroConfig,
                     lam_init: np.ndarray | None = None) -> BatchDualResult:
    """Minimize phi row-by-row over [LAMBDA_MIN, LAMBDA_MAX].

    The rows run on k = max(1, min(WORKERS, n // MIN_BLOCK)) threads (numpy
    releases the interpreter lock inside its array loops), split into at
    least k contiguous blocks of at most BLOCK_CELLS (row, atom) cells; the
    threads take turns over the blocks and each block is solved into its
    rows of the result. Rows are solved independently, so every output is
    bitwise the same for any split. With k = 1 the blocks run one after
    another in the calling thread, and a batch of at most BLOCK_CELLS
    cells, such as one row, is solved there as one block. Inputs are
    validated before any block starts; an exception raised in a block is
    raised here once every thread has stopped.

    Args:
        tilt_log_weights: (n, A) normalized log weights, each finite or -inf.
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
    if not np.all(logq < np.inf):
        raise ValueError("tilt_log_weights must be finite or -inf")
    n, n_atoms = logq.shape
    f = np.asarray(scores, dtype=float)
    if f.ndim == 1:
        f = np.broadcast_to(f[None, :], (n, n_atoms))
    if f.shape != (n, n_atoms):
        raise ValueError("scores must be (A,) or (n, A)")
    if not np.all(np.isfinite(f)):
        raise ValueError("scores must be finite")
    lam0 = None if lam_init is None else np.asarray(lam_init, dtype=float)
    if lam0 is not None and lam0.shape != (n,):
        raise ValueError("lam_init must be (n,)")
    live = logq > -np.inf
    if not live.any(axis=1).all():
        raise ValueError("every row needs at least one atom with positive weight")

    out = BatchDualResult(
        value=np.empty(n),
        lambda_star=np.empty(n),
        posterior=np.empty((n, n_atoms)),
        iterations=np.zeros(n, dtype=int),
        converged=np.empty(n, dtype=bool),
        degenerate=np.empty(n, dtype=bool),
        boundary=np.full(n, BOUNDARY_NONE, dtype=np.int8),
    )
    k = max(1, min(WORKERS, n // MIN_BLOCK))
    if k == 1 and n * n_atoms <= BLOCK_CELLS:
        _solve_block(logq, f, live, lam0, cfg, out, slice(None))
        return out
    m = max(k, -(-(n * n_atoms) // BLOCK_CELLS))
    ends = [n * i // m for i in range(m + 1)]
    blocks = [slice(a, b) for a, b in zip(ends, ends[1:])]

    def solve_blocks(t):
        for block in blocks[t::k]:
            _solve_block(logq, f, live, lam0, cfg, out, block)

    _on_threads(solve_blocks, k)
    return out


def _on_threads(fn, k: int) -> None:
    """Call fn(0) here and fn(1), ..., fn(k - 1) each on its own thread.

    Every thread is joined before this returns or raises; the first
    exception a call raised is raised again here.
    """
    errors = []

    def run(t):
        try:
            fn(t)
        except BaseException as exc:  # re-raised below, in the caller's thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(t,)) for t in range(1, k)]
    try:
        for thread in threads:
            thread.start()
        run(0)
    finally:
        for thread in threads:
            if thread.ident is not None:
                thread.join()
    if errors:
        raise errors[0]


def _solve_block(logq: np.ndarray, f: np.ndarray, live: np.ndarray,
                 lam_init: np.ndarray | None, cfg: DroConfig,
                 out: BatchDualResult, block: slice) -> None:
    """Solve rows `block` of the batch into the same rows of `out`."""
    logq, f, live = logq[block], f[block], live[block]
    f_hi = np.where(live, f, -np.inf).max(axis=1)
    f_lo = np.where(live, f, np.inf).min(axis=1)
    mag = np.maximum(1.0, np.maximum(np.abs(f_hi), np.abs(f_lo)))
    degenerate = out.degenerate[block]
    np.less_equal(f_hi - f_lo, FLAT_TOL * mag, out=degenerate)
    value, lam_star, posterior = (out.value[block], out.lambda_star[block],
                                  out.posterior[block])
    converged = out.converged[block]
    if degenerate.any():
        value[degenerate] = f_hi[degenerate]
        lam_star[degenerate] = 0.0
        converged[degenerate] = True
        posterior[degenerate] = np.exp(logq[degenerate])

    solve_rows = np.flatnonzero(~degenerate)
    lam0 = None if lam_init is None else lam_init[block][solve_rows]
    (value[solve_rows], lam_star[solve_rows], out.iterations[block][solve_rows],
     converged[solve_rows], out.boundary[block][solve_rows]) = _newton_bisect(
        _take(logq, solve_rows), _take(f, solve_rows), cfg, lam0,
        posterior, solve_rows)


def _bracket(logq: np.ndarray, f: np.ndarray, cfg: DroConfig,
             lam0: np.ndarray | None = None):
    """Find [lo, hi] with phi'(lo) < 0 <= phi'(hi), stepping by factors of 10.

    Each row steps one way from its start, down from a nonnegative phi' and
    up from a negative one, until the sign flips. A row that reaches the box
    edge unflipped is a boundary row; the far end of its bracket is NaN.
    Returns (ends, bound), where ends[:, 0] holds lambda, phi' and phi'' at
    each row's lo and ends[:, 1] those at its hi.
    """
    n = logq.shape[0]
    if lam0 is None:
        probe = np.full(n, LAMBDA_INIT)
    else:
        probe = np.clip(np.where(np.isfinite(lam0) & (lam0 > 0), lam0, LAMBDA_INIT),
                        LAMBDA_MIN, LAMBDA_MAX)
    ends = np.full((3, 2, n), np.nan)
    bound = np.full(n, BOUNDARY_NONE, dtype=np.int8)
    rows = np.arange(n)
    while rows.size:
        p = probe[rows]
        # keep phi' and phi'' only, so the (rows, A) posterior is freed right away
        d, dd = _phi_terms(_take(logq, rows), _take(f, rows), p, cfg)[1:3]
        ends[:, (d >= 0).astype(np.intp), rows] = p, d, dd
        down = np.isnan(ends[0, 0, rows])
        nxt = np.where(down, np.maximum(p / 10.0, LAMBDA_MIN),
                       np.minimum(p * 10.0, LAMBDA_MAX))
        # stop at a sign flip (both ends set) or at the box edge (no move)
        going = (down | np.isnan(ends[0, 1, rows])) & (nxt != p)
        rows = rows[going]
        probe[rows] = nxt[going]
    bound[np.isnan(ends[0, 0])] = BOUNDARY_MIN
    bound[np.isnan(ends[0, 1])] = BOUNDARY_MAX
    return ends, bound


def _newton_bisect(logq: np.ndarray, f: np.ndarray, cfg: DroConfig,
                   lam0: np.ndarray | None, posterior: np.ndarray,
                   dest: np.ndarray):
    """Safeguarded Newton refinement for rows with genuinely spread scores.

    One evaluation per iteration from the bracket's geometric midpoint:
    the Newton step is taken when it lands strictly inside the sign
    bracket and at most halves the previous step, otherwise the bracket
    is bisected in log space (lambda lives across decades, so the
    geometric midpoint is the natural fallback). A warm start lands on a
    bracket end, whose phi' and phi'' the bracket kept. A converged row
    keeps phi and the posterior of the evaluation that converged it; the
    other rows are evaluated once more after the loop. Row i's posterior
    is written to posterior[dest[i]].
    """
    n = logq.shape[0]
    ends, bound = _bracket(logq, f, cfg, lam0)
    lo, hi = ends[0]  # views: Newton narrows the brackets in place

    interior = bound == BOUNDARY_NONE
    lam = np.where(bound == BOUNDARY_MIN, LAMBDA_MIN, LAMBDA_MAX)
    if lam0 is None:
        lam[interior] = np.sqrt(lo[interior] * hi[interior])
    else:
        # a warm start sits on one bracket edge; Newton moves inward from it
        lam[interior] = np.clip(lam0[interior], lo[interior], hi[interior])
    step_old = np.where(interior, hi - lo, 0.0)
    kept = interior & ((lam == lo) | (lam == hi))

    phi = np.empty(n)
    iterations = np.zeros(n, dtype=int)
    active = interior.copy()
    again = ~interior
    for _ in range(cfg.newton_iters):
        rows = np.flatnonzero(active)
        if not rows.size:
            break
        iterations[rows] += 1
        new = rows[~kept[rows]] if kept.any() else rows
        p, d, dd, post = _phi_terms(_take(logq, new), _take(f, new), lam[new], cfg)
        done = np.abs(d) <= cfg.grad_tol
        if done.any():
            phi[new[done]] = p[done]
            posterior[dest[new[done]]] = post[done]
        if new.size < rows.size:
            # first step: rows on a bracket end take its terms
            terms = ends[1:, (lam[rows] == hi[rows]).astype(np.intp), rows]
            terms[:, ~kept[rows]] = d, dd
            d, dd = terms
            done = np.abs(d) <= cfg.grad_tol
            again[rows[done & kept[rows]]] = True
            kept[:] = False
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

    converged = np.ones(n, dtype=bool)
    rows = np.flatnonzero(again | active)
    if rows.size:
        phi[rows], d, _, posterior[dest[rows]] = _phi_terms(
            _take(logq, rows), _take(f, rows), lam[rows], cfg)
        converged[rows] = ~interior[rows] | (np.abs(d) <= cfg.grad_tol)
    return phi, lam, iterations, converged, bound
