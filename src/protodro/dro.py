"""Robust per-class scores through a one-dimensional convex dual.

Each class score is the worst-case expected model score over an entropic
neighborhood of that class's prior, tilted toward the query point. The
inner problem reduces to minimizing

    phi(lam) = lam * rho + lam * eps * log E_{y ~ q} exp(f(y) / (lam * eps))

over lam >= 0, which is convex with derivatives available in closed form
from softmax moments of the atom scores. solve_dual_batch solves every
row by safeguarded steps on phi' inside a sign bracket, on one evaluator
over a (K, A) score table with a row -> class index (row_class): models
solves its rows on its class table, warm in training and cold in
predict, and the harnesses theirs on a table of one or two classes.
Per-row (n, A) scores are a table of one class per row, and shared (A,)
scores a table of one class. Each row's scores are one of K class rows,
so _table_terms builds no per-row score copy: per run of rows of one
class it takes one exp and the three raw moments against the class's
centered scores, their squares and cubes, which gives phi''' as well.
_halley_bisect starts each row at its lam_init (LAMBDA_INIT when cold)
and takes the Halley step, then Newton from either bracket end, then
log-bisection or a probe by a factor of 10 toward an open end; a step is
trusted only where phi'' changes little over it, and a step that did not
halve |phi'| sends the row to bisection or a probe.

A row evaluated on a box edge with phi' pointing beyond it is a boundary
row, and a converged row keeps phi and the posterior of the evaluation
that converged it, so an exact warm start costs one evaluation. Rows
still unconverged at the cap are flagged; check_converged turns them into
a DualConvergenceError, which models and the harnesses raise rather than
use such a row.

Everything here is written over batches of tilted weight rows: one tilt
(ClassTilts, with gibbs_tilt_batch its one-prior case), one solver
(solve_dual_batch) and one result type (BatchDualResult). A single query
is a batch of one row.

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
from .priors import MixturePrior, shared_atoms

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
# a Halley or Newton step is trusted where the bend |phi' phi'''| / phi''^2
# at its base is at most BEND_MAX
BEND_MAX = 4.0


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


@dataclass
class ClassTilts:
    """Tilt log-weights of N query rows toward C priors over one atom array.

    Stored in factored form: the (N, A) squared distances over epsilon,
    computed once for every class, the priors' (C, A) atom log-weights and
    the (N, C) log-normalizers. class_major(idx) builds the (C, n, A)
    normalized tilts of rows idx, one prior's operations in their order for
    each class, so the (N, C, A) tensor is never stored.
    """

    scaled_sq: np.ndarray
    atom_log_weights: np.ndarray
    log_norm: np.ndarray

    @classmethod
    def build(cls, priors: list[MixturePrior], queries: np.ndarray,
              epsilon: float) -> "ClassTilts":
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        atoms = shared_atoms(priors)
        q = np.asarray(queries, dtype=float)
        if q.ndim != 2 or q.shape[1] != atoms.shape[1]:
            raise ValueError("queries must be (n, d) matching the atom dimension")
        scaled_sq = sq_distances(q, atoms) / epsilon
        alw = np.stack([p.atom_log_weights for p in priors])
        log_norm = np.stack(
            [log_sum_exp(w[None, :] - scaled_sq, axis=1) for w in alw], axis=1
        )
        return cls(scaled_sq, alw, log_norm)

    def class_major(self, idx) -> np.ndarray:
        """(C, n, A) normalized tilts of the query rows idx selects.

        Each class's rows are one contiguous run, and class_major(idx)[c]
        equals gibbs_tilt_batch(priors[c], queries[idx], epsilon) bit for bit.
        """
        tilts = self.atom_log_weights[:, None] - self.scaled_sq[idx][None]
        tilts -= self.log_norm[idx].T[:, :, None]
        return tilts


def gibbs_tilt_batch(prior: MixturePrior, queries: np.ndarray, epsilon: float) -> np.ndarray:
    """Normalized tilt log-weights for many query points at once: (n, A).

    The one-prior case of ClassTilts.
    """
    return ClassTilts.build([prior], queries, epsilon).class_major(slice(None))[0]


def _take(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """x[rows] for sorted distinct rows, without a copy when rows is all of x."""
    return x if rows.size == x.shape[0] else x[rows]


def solve_dual_batch(tilt_log_weights: np.ndarray, scores: np.ndarray,
                     cfg: DroConfig,
                     lam_init: np.ndarray | None = None, *,
                     row_class: np.ndarray | None = None) -> BatchDualResult:
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

    Every row takes safeguarded Halley steps over _table_terms (module
    docstring), and every evaluation that is not a probe counts against
    cfg.newton_iters.

    Args:
        tilt_log_weights: (n, A) normalized log weights, each finite or -inf.
        scores: (A,) shared scores or (n, A) per-row scores, solved as a
            table of one class or of one class per row; with row_class, a
            (K, A) table of class scores.
        cfg: DroConfig; cfg.newton_iters bounds the refinement loop.
        lam_init: optional (n,) per-row starting multipliers. Each row runs
            its steps from its start, clipped to the box; a start that is
            NaN or not positive means LAMBDA_INIT, and so does no lam_init.
        row_class: keyword-only (n,) integer index of each row's class in
            the score table. Rows of one class run fastest in contiguous
            runs (models lays them out class-major), and each row gets the
            same bytes in any order.

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
    if row_class is not None:
        row_class = np.asarray(row_class)
        if f.ndim != 2 or f.shape[1] != n_atoms:
            raise ValueError("with row_class, scores must be a (K, A) table")
        if (row_class.shape != (n,) or not np.issubdtype(row_class.dtype, np.integer)
                or np.any(row_class < 0) or np.any(row_class >= f.shape[0])):
            raise ValueError("row_class must be (n,) indices into the score table")
    elif f.shape not in ((n_atoms,), (n, n_atoms)):
        raise ValueError("scores must be (A,) or (n, A)")
    else:
        row_class = np.arange(n) if f.ndim == 2 else np.zeros(n, dtype=np.intp)
        f = f.reshape(-1, n_atoms)
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
    table = _ScoreTable.build(f)

    def solve(block):
        _solve_table_block(logq, table, row_class, live, lam0, cfg, out, block)

    k = max(1, min(WORKERS, n // MIN_BLOCK))
    if k == 1 and n * n_atoms <= BLOCK_CELLS:
        solve(slice(None))
        return out
    m = max(k, -(-(n * n_atoms) // BLOCK_CELLS))
    ends = [n * i // m for i in range(m + 1)]
    blocks = [slice(a, b) for a, b in zip(ends, ends[1:])]

    def solve_blocks(t):
        for block in blocks[t::k]:
            solve(block)

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


def _settle_flat_rows(logq: np.ndarray, f_hi: np.ndarray, f_lo: np.ndarray,
                      out: BatchDualResult, block: slice) -> np.ndarray:
    """Settle the rows of `block` whose live scores span [f_lo, f_hi] within
    the flat tolerance, and return the indices of the others in the block.

    A flat row is degenerate: its value is f_hi, at lambda = 0, with the
    tilt itself as posterior.
    """
    mag = np.maximum(1.0, np.maximum(np.abs(f_hi), np.abs(f_lo)))
    degenerate = out.degenerate[block]
    np.less_equal(f_hi - f_lo, FLAT_TOL * mag, out=degenerate)
    if degenerate.any():
        out.value[block][degenerate] = f_hi[degenerate]
        out.lambda_star[block][degenerate] = 0.0
        out.converged[block][degenerate] = True
        out.posterior[block][degenerate] = np.exp(logq[degenerate])
    return np.flatnonzero(~degenerate)


@dataclass
class _ScoreTable:
    """A (K, A) class score table, centered for the table evaluator.

    Each class row is shifted by the midpoint of its range: the dual is
    shift-equivariant (phi of f - c is phi of f minus c, with the same
    lambda*), and centered scores keep the raw moments' differences, the
    variance and the third central moment, free of cancellation. scores is
    the table itself, s, s2 and s3 the centered scores and their squares
    and cubes, and hi and lo each class's score range.
    """

    scores: np.ndarray
    center: np.ndarray
    s: np.ndarray
    s2: np.ndarray
    s3: np.ndarray
    hi: np.ndarray
    lo: np.ndarray

    @classmethod
    def build(cls, table: np.ndarray) -> "_ScoreTable":
        hi, lo = table.max(axis=1), table.min(axis=1)
        center = 0.5 * (hi + lo)
        s = table - center[:, None]
        s2 = s * s
        return cls(table, center, s, s2, s2 * s, hi, lo)


class DualConvergenceError(RuntimeError):
    """Dual rows that ended unconverged at the Newton cap."""


def check_converged(result: BatchDualResult, tilt_log_weights: np.ndarray,
                    table: np.ndarray, row_class: np.ndarray,
                    cfg: DroConfig) -> None:
    """Raise DualConvergenceError if any row of a table solve is unconverged.

    The message gives the count, the largest |phi'| left and its lambda,
    and the cap, so a failed cell says how far its worst row was from the
    tolerance.
    """
    bad = np.flatnonzero(~result.converged)
    if not bad.size:
        return
    lam = result.lambda_star[bad]
    _, dphi, _, _, _, _ = _table_terms(
        np.asarray(tilt_log_weights)[bad], _ScoreTable.build(np.asarray(table, dtype=float)),
        np.asarray(row_class)[bad], lam, cfg)
    worst = int(np.argmax(np.abs(dphi)))
    raise DualConvergenceError(
        f"{bad.size} of {result.converged.size} dual rows unconverged after "
        f"{cfg.newton_iters} steps: worst |phi'| {abs(dphi[worst]):.3g} at "
        f"lambda {lam[worst]:.6g} (tolerance {cfg.grad_tol:.3g})")


def _class_runs(cls: np.ndarray):
    """(start, stop, class) of each run of equal entries of cls."""
    cuts = np.flatnonzero(cls[1:] != cls[:-1]) + 1
    starts = np.concatenate(([0], cuts))
    stops = np.concatenate((cuts, [cls.size]))
    return zip(starts.tolist(), stops.tolist(), cls[starts].tolist())


def _table_terms(logq: np.ndarray, table: _ScoreTable, cls: np.ndarray,
                 lam: np.ndarray, cfg: DroConfig):
    """phi, phi', phi'', phi''' and the posterior at each row's lambda.

    Row i scores with class row cls[i] of the table. Per run of rows of one
    class: a = (1/(lam eps)) s_k + log q in one (rows, A) work array, one
    exp to e = exp(a - max a), and the three raw moments of the centered
    scores by einsum of e against s_k, s_k^2 and s_k^3, over z = sum e.
    The posterior is e / z; it is returned as e and z, and the solver
    divides only the rows it keeps. Every step is elementwise or a
    reduction along one row, so each row's terms depend on that row alone,
    bit for bit, whatever rows share the call (a BLAS product would not
    be: its bits follow the length of the run).
    """
    n = logq.shape[0]
    inv = 1.0 / (lam * cfg.epsilon)
    e = np.empty(logq.shape)
    runs = list(_class_runs(cls))
    for a, b, k in runs:
        np.multiply(inv[a:b, None], table.s[k], out=e[a:b])
    e += logq
    m = e.max(axis=1)
    e -= m[:, None]
    np.exp(e, out=e)
    z = e.sum(axis=1)
    log_z = np.log(z) + m
    mean, second, third = np.empty((3, n))
    for a, b, k in runs:
        mean[a:b] = np.einsum("na,a->n", e[a:b], table.s[k])
        second[a:b] = np.einsum("na,a->n", e[a:b], table.s2[k])
        third[a:b] = np.einsum("na,a->n", e[a:b], table.s3[k])
    mean /= z
    second /= z
    third /= z
    var = np.maximum(second - mean**2, 0.0)
    kappa3 = third - mean * (3.0 * second - 2.0 * mean**2)
    phi = lam * (cfg.rho + cfg.epsilon * log_z) + table.center[cls]
    dphi = cfg.rho + cfg.epsilon * log_z - mean / lam
    d2phi = var / (lam**3 * cfg.epsilon)
    d3phi = -(kappa3 * inv + 3.0 * var) / (lam**4 * cfg.epsilon)
    return phi, dphi, d2phi, d3phi, e, z


def _solve_table_block(logq: np.ndarray, table: _ScoreTable, row_class: np.ndarray,
                       live: np.ndarray, lam_init: np.ndarray | None,
                       cfg: DroConfig, out: BatchDualResult, block: slice) -> None:
    """Solve rows `block` of a table batch into the same rows of `out`."""
    logq, cls, live = logq[block], row_class[block], live[block]
    if live.all():
        f_hi, f_lo = table.hi[cls], table.lo[cls]
    else:
        f = table.scores[cls]
        f_hi = np.where(live, f, -np.inf).max(axis=1)
        f_lo = np.where(live, f, np.inf).min(axis=1)
    solve_rows = _settle_flat_rows(logq, f_hi, f_lo, out, block)
    lam0 = None if lam_init is None else lam_init[block][solve_rows]
    (out.value[block][solve_rows], out.lambda_star[block][solve_rows],
     out.iterations[block][solve_rows], out.converged[block][solve_rows],
     out.boundary[block][solve_rows]) = _halley_bisect(
        _take(logq, solve_rows), table, cls[solve_rows], cfg, lam0,
        out.posterior[block], solve_rows)


def _halley_bisect(logq: np.ndarray, table: _ScoreTable, cls: np.ndarray,
                   cfg: DroConfig, lam0: np.ndarray | None,
                   posterior: np.ndarray, dest: np.ndarray):
    """Safeguarded Halley on phi' for table rows with spread scores.

    Every row starts at its clipped lam0 (LAMBDA_INIT where lam0 is None or
    not a positive number) and each evaluation narrows its sign bracket on
    phi' (the box edge stands in for an end not yet known), keeping phi',
    phi'' and phi''' at both ends. The next lambda is the first of these
    that is trusted and lands strictly inside the bracket:

      1. the Halley step -2 phi' phi'' / (2 phi''^2 - phi' phi''') from the
         current lambda;
      2. the Newton step -phi' / phi'' from it;
      3. the Newton step from the other end of a closed bracket: where
         phi' bends away from the current side, steps from there overshoot
         the root, while steps from the other end approach it;
      4. log-bisection of a closed bracket, or a probe by a factor of 10
         toward an open end.

    A step is trusted where the bend |phi' phi'''| / phi''^2 at its base
    is at most BEND_MAX (Halley also needs 2 phi''^2 > phi' phi''', or it
    points the wrong way): the bend is how much phi'' changes over a
    Newton step, and beyond it the local model says nothing about the
    root. Such rows sit on a cliff of phi', where the tilt's mass jumps
    between atoms within a few percent of lambda; only bisection finds the
    cliff. A step that did not halve |phi'| from its base's value sends
    the row straight to 4: Halley creeps from an open end, and a step from
    a far end next to a cliff gains nothing.

    Probes count neither in `iterations` nor against cfg.newton_iters, so
    a row evaluated on a box edge with phi' pointing beyond it is a
    boundary row whatever the cap. A converged row keeps phi and the
    posterior of the evaluation that converged it; rows still active at
    the cap are evaluated once more after the loop. Row i's posterior is
    written to posterior[dest[i]].
    """
    n = logq.shape[0]
    lo, hi = np.full(n, np.nan), np.full(n, np.nan)
    # (phi', phi'', phi''') at each bracket end
    at_lo, at_hi = np.full((3, n), np.nan), np.full((3, n), np.nan)
    bound = np.full(n, BOUNDARY_NONE, dtype=np.int8)
    if lam0 is None:
        lam = np.full(n, LAMBDA_INIT)
    else:
        lam = np.clip(np.where(np.isfinite(lam0) & (lam0 > 0), lam0, LAMBDA_INIT),
                      LAMBDA_MIN, LAMBDA_MAX)
    # |phi'| at the base of the row's last step; inf after a bisection or probe
    d_base = np.full(n, np.inf)
    probe = np.zeros(n, dtype=bool)  # the row's next lambda is a bracket probe
    phi = np.empty(n)
    iterations = np.zeros(n, dtype=int)
    active = np.ones(n, dtype=bool)
    while True:
        rows = np.flatnonzero(active & (probe | (iterations < cfg.newton_iters)))
        if not rows.size:
            break
        iterations[rows] += ~probe[rows]
        at = lam[rows]
        p, d, dd, ddd, e, z = _table_terms(_take(logq, rows), table, cls[rows], at, cfg)
        done = np.abs(d) <= cfg.grad_tol
        # a row on a box edge with phi' pointing beyond it is a boundary
        # row, converged or not
        edge = at == np.where(d >= 0, LAMBDA_MIN, LAMBDA_MAX)
        bound[rows[edge]] = np.where(d[edge] >= 0, BOUNDARY_MIN, BOUNDARY_MAX)
        done |= edge
        if done.any():
            phi[rows[done]] = p[done]
            posterior[dest[rows[done]]] = e[done] / z[done, None]
            active[rows[done]] = False
            keep = ~done
            rows, at, d, dd, ddd = rows[keep], at[keep], d[keep], dd[keep], ddd[keep]
            if not rows.size:
                continue
        below = d < 0
        terms = np.stack([d, dd, ddd])
        lo[rows] = lo_r = np.where(below, at, lo[rows])
        hi[rows] = hi_r = np.where(below, hi[rows], at)
        at_lo[:, rows] = np.where(below, terms, at_lo[:, rows])
        at_hi[:, rows] = np.where(below, at_hi[:, rows], terms)
        far = np.where(below, hi_r, lo_r)
        d_far, dd_far, ddd_far = np.where(below, at_hi[:, rows], at_lo[:, rows])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            bend = d * ddd / (dd * dd)
            halley = np.where((np.abs(bend) <= BEND_MAX) & (bend < 2.0),
                              at - 2.0 * d * dd / (2.0 * dd * dd - d * ddd), np.nan)
            newton = np.where(np.abs(bend) <= BEND_MAX, at - d / dd, np.nan)
            other = np.where(np.abs(d_far * ddd_far) <= BEND_MAX * dd_far * dd_far,
                             far - d_far / dd_far, np.nan)
            # a row whose last step did not halve |phi'| falls back to 4
            free = np.abs(d) <= 0.5 * d_base[rows]
        open_lo, open_hi = np.isnan(lo_r), np.isnan(hi_r)
        box_lo, box_hi = np.fmax(lo_r, LAMBDA_MIN), np.fmin(hi_r, LAMBDA_MAX)

        def inside(x):
            with np.errstate(invalid="ignore"):
                return free & (x > box_lo) & (x < box_hi)

        take_h = inside(halley)
        take_n = ~take_h & inside(newton)
        take_o = ~take_h & ~take_n & ~open_lo & ~open_hi & inside(other)
        stepped = take_h | take_n | take_o
        nxt = np.select([take_h, take_n, take_o], [halley, newton, other],
                        np.sqrt(box_lo * box_hi))
        # no trusted step and the root lies toward an open end: probe that way
        probe[rows] = opened = ~stepped & np.where(below, open_hi, open_lo)
        if opened.any():
            nxt[opened] = np.where(below[opened], np.minimum(at[opened] * 10.0, LAMBDA_MAX),
                                   np.maximum(at[opened] / 10.0, LAMBDA_MIN))
        d_base[rows] = np.where(take_o, np.abs(d_far), np.where(stepped, np.abs(d), np.inf))
        lam[rows] = nxt

    converged = np.ones(n, dtype=bool)
    rows = np.flatnonzero(active)
    if rows.size:
        phi[rows], d, _, _, e, z = _table_terms(
            _take(logq, rows), table, cls[rows], lam[rows], cfg)
        posterior[dest[rows]] = e / z[:, None]
        converged[rows] = np.abs(d) <= cfg.grad_tol
    return phi, lam, iterations, converged, bound
