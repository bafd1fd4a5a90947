"""Robust per-class scores through a one-dimensional convex dual.

Each class score is the worst-case expected model score over an entropic
neighborhood of that class's prior, tilted toward the query point. The
inner problem reduces to minimizing

    phi(lam) = lam * rho + lam * eps * log E_{y ~ q} exp(f(y) / (lam * eps))

over lam >= 0, which is convex with derivatives available in closed form
from softmax moments of the atom scores. The solver runs Newton steps
safeguarded by a sign bracket on phi'. A cold row first brackets the root
by factors of 10 from LAMBDA_INIT and starts at the bracket's geometric
midpoint. A warm row (a per-row starting multiplier, such as a rescaled
solution of an earlier solve) is evaluated at its start first and runs
Newton from there; it steps by factors of 10 only while a Newton step
leaves toward a side of its bracket that is still open. A step that
leaves a closed bracket, or fails to shrink, bisects it in log space.
A converged row keeps phi and the posterior of the evaluation that
converged it, so an exact warm start costs one evaluation.

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
    newton_iters: int = 16

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
        lam_init: optional (n,) per-row starting multipliers. Each row runs
            Newton from its start, clipped to the box; a start that is NaN
            or not positive means LAMBDA_INIT. Without lam_init every row
            is bracketed first (the cold path). Either way the minimizer is
            the same, to the tolerance.

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


def _bracket(logq: np.ndarray, f: np.ndarray, cfg: DroConfig):
    """Find [lo, hi] with phi'(lo) < 0 <= phi'(hi), stepping by factors of 10.

    Each row steps one way from LAMBDA_INIT, down from a nonnegative phi'
    and up from a negative one, until the sign flips. A row that reaches the
    box edge unflipped is a boundary row; the far end of its bracket is NaN.
    Returns (lo, hi, bound).
    """
    n = logq.shape[0]
    probe = np.full(n, LAMBDA_INIT)
    lo, hi = np.full(n, np.nan), np.full(n, np.nan)
    bound = np.full(n, BOUNDARY_NONE, dtype=np.int8)
    rows = np.arange(n)
    while rows.size:
        p = probe[rows]
        # keep phi' only, so the (rows, A) posterior is freed right away
        d = _phi_terms(_take(logq, rows), _take(f, rows), p, cfg)[1]
        lo[rows[d < 0]] = p[d < 0]
        hi[rows[d >= 0]] = p[d >= 0]
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
                   lam0: np.ndarray | None, posterior: np.ndarray,
                   dest: np.ndarray):
    """Safeguarded Newton refinement for rows with genuinely spread scores.

    Every evaluation narrows each row's sign bracket on phi'. The Newton
    step is taken when it lands strictly inside the bracket (the box edge
    stands in for an end not yet known) and, once both ends are known, at
    most halves the previous step. Otherwise the row steps by a factor of
    10 toward the root while that end is still open, and bisects the
    bracket in log space once it is closed (lambda lives across decades,
    so the geometric midpoint is the natural fallback).

    A cold row (lam0 None) starts at the geometric midpoint of _bracket's
    [lo, hi]. A warm row starts at its clipped lam0 (LAMBDA_INIT where lam0
    is not a positive number) with an open bracket: an exact start
    converges on its first evaluation, and a row whose walk reaches the box
    edge with phi' pointing beyond it is a boundary row. The factor-10
    steps are bracket probes, as in _bracket: they count neither in
    `iterations` nor against cfg.newton_iters, so a boundary row is found
    whatever the cap.

    A converged row keeps phi and the posterior of the evaluation that
    converged it; cold boundary rows and rows still active at the cap are
    evaluated once more after the loop. Row i's posterior is written to
    posterior[dest[i]].
    """
    n = logq.shape[0]
    if lam0 is None:
        lo, hi, bound = _bracket(logq, f, cfg)
        interior = bound == BOUNDARY_NONE
        lam = np.where(bound == BOUNDARY_MIN, LAMBDA_MIN, LAMBDA_MAX)
        lam[interior] = np.sqrt(lo[interior] * hi[interior])
        step_old = np.where(interior, hi - lo, 0.0)
    else:
        lo, hi = np.full(n, np.nan), np.full(n, np.nan)
        bound = np.full(n, BOUNDARY_NONE, dtype=np.int8)
        interior = np.ones(n, dtype=bool)
        lam = np.clip(np.where(np.isfinite(lam0) & (lam0 > 0), lam0, LAMBDA_INIT),
                      LAMBDA_MIN, LAMBDA_MAX)
        step_old = np.full(n, np.inf)

    phi = np.empty(n)
    iterations = np.zeros(n, dtype=int)
    probe = np.zeros(n, dtype=bool)  # the row's next lambda is a bracket probe
    active = interior.copy()
    while True:
        rows = np.flatnonzero(active & (probe | (iterations < cfg.newton_iters)))
        if not rows.size:
            break
        iterations[rows] += ~probe[rows]
        at = lam[rows]
        p, d, dd, post = _phi_terms(_take(logq, rows), _take(f, rows), at, cfg)
        done = np.abs(d) <= cfg.grad_tol
        if lam0 is not None:
            # a warm row on a box edge with phi' pointing beyond it is a boundary row
            edge = ~done & (at == np.where(d > 0, LAMBDA_MIN, LAMBDA_MAX))
            bound[rows[edge]] = np.where(d[edge] > 0, BOUNDARY_MIN, BOUNDARY_MAX)
            done |= edge
        if done.any():
            phi[rows[done]] = p[done]
            posterior[dest[rows[done]]] = post[done]
            active[rows[done]] = False
            keep = ~done
            rows, at, d, dd = rows[keep], at[keep], d[keep], dd[keep]
            if not rows.size:
                continue
        lo[rows] = lo_r = np.where(d < 0, at, lo[rows])
        hi[rows] = hi_r = np.where(d >= 0, at, hi[rows])
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = at - d / dd
            step_ok = np.abs(2.0 * d) <= np.abs(step_old[rows] * dd)
        open_lo, open_hi = np.isnan(lo_r), np.isnan(hi_r)
        if open_lo.any() or open_hi.any():  # only warm rows have an open end
            step_ok |= open_lo | open_hi
            lo_r, hi_r = np.fmax(lo_r, LAMBDA_MIN), np.fmin(hi_r, LAMBDA_MAX)
        step_ok &= np.isfinite(newton) & (newton > lo_r) & (newton < hi_r)
        nxt = np.where(step_ok, newton, np.sqrt(lo_r * hi_r))
        # a step that fails toward an open end probes a factor of 10 that way
        probe[rows] = opened = ~step_ok & np.where(d < 0, open_hi, open_lo)
        if opened.any():
            nxt[opened] = np.where(d[opened] < 0, np.minimum(at[opened] * 10.0, LAMBDA_MAX),
                                   np.maximum(at[opened] / 10.0, LAMBDA_MIN))
        step_old[rows] = np.abs(nxt - at)
        lam[rows] = nxt

    converged = np.ones(n, dtype=bool)
    rows = np.flatnonzero(~interior | active)
    if rows.size:
        phi[rows], d, _, posterior[dest[rows]] = _phi_terms(
            _take(logq, rows), _take(f, rows), lam[rows], cfg)
        converged[rows] = ~interior[rows] | (np.abs(d) <= cfg.grad_tol)
    return phi, lam, iterations, converged, bound
