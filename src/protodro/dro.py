"""Robust per-class scores through a one-dimensional convex dual.

Each class score is the worst-case expected model score over an entropic
neighborhood of that class's prior, tilted toward the query point. The
inner problem reduces to minimizing

    phi(lam) = lam * rho + lam * eps * log E_{y ~ q} exp(f(y) / (lam * eps))

over lam >= 0, which is convex with derivatives available in closed form
from softmax moments of the scores. solve_dual_batch solves every row by
safeguarded steps on phi' inside a sign bracket, on one of two
evaluators:

  * atom rows: shared (A,) scores, solved as a table of one class, or
    per-row (n, A) scores, a table of one class per row; the consistency
    harness solves each class's rows in one call on that class's shared
    scores. Each row's scores are one of the table's class rows, so
    _table_terms builds no per-row score copy: per run of rows of one
    class it takes one exp and the three raw moments against the class's
    centered scores, their squares and cubes, which gives phi''' as well.
  * Gaussian-component rows (quad=): each row mixes K Gaussians of the
    score with per-row means and variances v, so E_k exp(f / (lam eps))
    is exp(mu_k / (lam eps) + v_k / (2 lam^2 eps^2)) in closed form, and
    _component_terms takes the softmax moments over K terms. models solves
    the robust classifier's rows there, warm in training and cold in
    predict, with K = B components (8 in the paper presets), and the
    contraction harness scores through that predict.

_halley_bisect, shared by both, starts each row at its lam_init
(LAMBDA_INIT when cold, LAMBDA_MAX at rho = 0) and takes the Halley step,
then Newton from either bracket end, then log-bisection or a probe by a
factor of 10 toward an open end; a step is trusted only where phi''
changes little over it, and a step that did not halve |phi'| sends the
row to bisection or a probe. Its state holds only the rows still
iterating: a row that converges or reaches the cap writes its results
and leaves, so an iteration works on whole arrays with masked in-place
writes and no gather or scatter while no row leaves, and the later
rules run only for the rows the earlier ones left. In a warm training
batch every row is evaluated twice, then a few stragglers.

A row evaluated on a box edge with phi' pointing beyond it is a boundary
row, and a converged row keeps phi, phi' and the posterior of the
evaluation that converged it, so an exact warm start costs one
evaluation. phi' at lambda* is the result's gradient: lambda* phi' is the
row's duality gap (Wang, Gao & Xie 2021, arXiv:2109.11926). Rows still
unconverged at the cap are flagged; check_converged reads their gradient
and turns them into a DualConvergenceError, which models and the
harnesses raise rather than use such a row.

Everything here is written over batches of tilted weight rows: one atom
tilt (gibbs_tilt_batch, one prior over many query rows; models builds the
component tilts), one solver (solve_dual_batch) and one result type
(BatchDualResult). A single query is a batch of one row.

Each row's solve depends on that row alone, bit for bit, so the solver
splits a batch into contiguous row blocks and solves them one after
another in the calling thread, each into its rows of one preallocated
result. A block holds at most about BLOCK_BYTES (6 MiB) of work arrays:
it covers as many cells as that budget allows at the number of arrays its
evaluator holds per cell, so a call holds about one budget whatever its
size. Every output is the same for any split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkit import log_sum_exp, sq_distances, sum_in_order
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
# solve_dual_batch solves row blocks of at most about BLOCK_BYTES (6 MiB) of
# work arrays, one after another. Read with tracemalloc, a table block
# holds at most about TABLE_ARRAYS float64 arrays
# of its (rows, A) size at once (3 to 4 in blocks of 8 to 50 rows of 8,192
# atoms: the exp work array, the posterior it writes, a gather of the tilts
# once rows leave), and a component block at most about COMPONENT_ARRAYS of its
# (rows, K) size (20 in blocks of 4,096 rows of 8 components, 23 in blocks
# of 1,024: its four transposed inputs, _component_terms' five work arrays
# and their gathers, the posterior and some 40 per-row arrays of
# _halley_bisect's state). So a block covers at most
# BLOCK_BYTES // (8 * arrays) cells: 196,608 table cells, or 32,768
# component cells (4,096 rows of 8 components)
BLOCK_BYTES = 6 << 20
TABLE_ARRAYS = 4
COMPONENT_ARRAYS = 24
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
    """Row-wise dual solutions for a batch of tilted weight rows.

    gradient is phi' at lambda_star, from the evaluation that gave value
    (0 for a degenerate row).
    """

    value: np.ndarray
    lambda_star: np.ndarray
    gradient: np.ndarray
    posterior: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    degenerate: np.ndarray
    boundary: np.ndarray


def gibbs_tilt_batch(prior: MixturePrior, queries: np.ndarray, epsilon: float) -> np.ndarray:
    """Normalized tilt log-weights for many query points at once: (n, A).

    Row i is log w_a - |x_i - y_a|^2 / epsilon over the prior's atoms y_a,
    minus its log-normalizer, where the atom at index b*A + a of a prior
    with A atoms per component has log w_a = log(weights[b]) - log(A).
    Every step after the distance product is elementwise or a reduction
    along one row. Raises ValueError for a prior without atoms.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    atoms = prior.atoms
    if atoms is None:
        raise ValueError("the prior carries no atoms")
    q = np.asarray(queries, dtype=float)
    if q.ndim != 2 or q.shape[1] != atoms.shape[1]:
        raise ValueError("queries must be (n, d) matching the atom dimension")
    per_component = atoms.shape[0] // prior.weights.size
    with np.errstate(divide="ignore"):
        log_w = np.repeat(np.log(prior.weights), per_component) - np.log(per_component)
    tilts = log_w[None, :] - sq_distances(q, atoms) / epsilon
    tilts -= log_sum_exp(tilts, axis=1)[:, None]
    return tilts


def _take(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """x[rows] for sorted distinct rows, without a copy when rows is all of x."""
    return x if rows.size == x.shape[0] else x[rows]


def solve_dual_batch(tilt_log_weights: np.ndarray, scores: np.ndarray,
                     cfg: DroConfig,
                     lam_init: np.ndarray | None = None, *,
                     quad: np.ndarray | None = None) -> BatchDualResult:
    """Minimize phi row-by-row over [LAMBDA_MIN, LAMBDA_MAX].

    The rows are split into contiguous blocks of at most
    BLOCK_BYTES // (8 * arrays) (row, atom) cells, where arrays
    (TABLE_ARRAYS or COMPONENT_ARRAYS) is how many (rows, A) float64
    arrays the evaluator's block holds at once, and the blocks are solved
    in order, each into its rows of the result; a batch within one
    block's bytes, such as one row, is one block. Rows are solved
    independently, so every output is bitwise the same for any split.

    Every row takes safeguarded Halley steps (module docstring) over
    _table_terms, or over _component_terms when quad is given, and every
    evaluation that is not a probe counts against cfg.newton_iters.

    Args:
        tilt_log_weights: (n, A) normalized log weights, each finite or -inf.
        scores: (A,) shared scores or (n, A) per-row scores, solved as a
            table of one class or of one class per row; with quad, (n, K)
            per-row means of K Gaussian components.
        cfg: DroConfig; cfg.newton_iters bounds the refinement loop.
        lam_init: optional (n,) per-row starting multipliers. Each row runs
            its steps from its start, clipped to the box; a start that is
            NaN or not positive means LAMBDA_INIT, and so does no lam_init.
            At cfg.rho = 0 every row starts at LAMBDA_MAX instead.
        quad: keyword-only (n, K) variances v >= 0 of the components whose
            means are the scores, so that E_k exp(f / (lam eps)) is
            exp(mu_k / (lam eps) + v_k / (2 lam^2 eps^2)).

    Returns:
        BatchDualResult with one solution per row. Rows whose weighted
        scores are constant to within the flat tolerance (and whose live
        components all have v = 0) short-circuit to lambda = 0 with the
        constant as the value; rows whose minimizer sits outside the
        lambda box are clamped and flagged.
    """
    logq = np.asarray(tilt_log_weights, dtype=float)
    if logq.ndim != 2:
        raise ValueError("tilt_log_weights must be (n, A)")
    if not np.all(logq < np.inf):
        raise ValueError("tilt_log_weights must be finite or -inf")
    n, n_atoms = logq.shape
    f = np.asarray(scores, dtype=float)
    if quad is not None:
        quad = np.asarray(quad, dtype=float)
        if f.shape != logq.shape or quad.shape != logq.shape:
            raise ValueError("with quad, scores and quad must be (n, K) like the tilts")
        if not np.all(quad >= 0) or not np.all(quad < np.inf):
            raise ValueError("quad must be finite and nonnegative")
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
        gradient=np.empty(n),
        posterior=np.empty((n, n_atoms)),
        iterations=np.zeros(n, dtype=int),
        converged=np.empty(n, dtype=bool),
        degenerate=np.empty(n, dtype=bool),
        boundary=np.full(n, BOUNDARY_NONE, dtype=np.int8),
    )
    if quad is None:
        table = _ScoreTable.build(f)

        def solve(block):
            _solve_table_block(logq, table, row_class, live, lam0, cfg, out, block)
    else:
        def solve(block):
            _solve_component_block(logq, f, quad, live, lam0, cfg, out, block)

    arrays = TABLE_ARRAYS if quad is None else COMPONENT_ARRAYS
    m = max(1, -(-(8 * arrays * n * n_atoms) // BLOCK_BYTES))
    ends = [n * i // m for i in range(m + 1)]
    for a, b in zip(ends, ends[1:]):
        solve(slice(a, b))
    return out


def _settle_flat_rows(logq: np.ndarray, f_hi: np.ndarray, f_lo: np.ndarray,
                      out: BatchDualResult, block: slice,
                      curved: np.ndarray | None = None) -> np.ndarray:
    """Settle the rows of `block` whose live scores span [f_lo, f_hi] within
    the flat tolerance, and return the indices of the others in the block.

    A flat row is degenerate: its value is f_hi, at lambda = 0 with phi' 0,
    and the tilt itself as posterior. A curved row (a live component with
    variance v > 0) is never flat.
    """
    mag = np.maximum(1.0, np.maximum(np.abs(f_hi), np.abs(f_lo)))
    degenerate = out.degenerate[block]
    np.less_equal(f_hi - f_lo, FLAT_TOL * mag, out=degenerate)
    if curved is not None:
        degenerate &= ~curved
    if degenerate.any():
        out.value[block][degenerate] = f_hi[degenerate]
        out.lambda_star[block][degenerate] = 0.0
        out.gradient[block][degenerate] = 0.0
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


def check_converged(result: BatchDualResult, cfg: DroConfig) -> None:
    """Raise DualConvergenceError if any row of a solve is unconverged.

    The message gives the count, the largest |phi'| left (the result's
    gradient) and its lambda, and the cap, so a failed cell says how far
    its worst row was from the tolerance.
    """
    bad = np.flatnonzero(~result.converged)
    if not bad.size:
        return
    lam, dphi = result.lambda_star[bad], result.gradient[bad]
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
    logq, cls = _take(logq, solve_rows), cls[solve_rows]

    def evaluate(rows, lam):
        return _table_terms(_take(logq, rows), table, cls[rows], lam, cfg)

    _solve_rows(evaluate, solve_rows, lam_init, cfg, out, block)


def _solve_component_block(logq: np.ndarray, f: np.ndarray, quad: np.ndarray,
                           live: np.ndarray, lam_init: np.ndarray | None,
                           cfg: DroConfig, out: BatchDualResult, block: slice) -> None:
    """Solve rows `block` of a component batch into the same rows of `out`.

    The block is worked on as (K, rows) transposes, one column per row, so
    reductions over a row's few components run across the rows (a caller
    that passes transposes of (K, n) arrays gets no copy). Each row's means
    are shifted by the midpoint of their live range, as the table's class
    rows are (_ScoreTable); the variances need no shift.
    """
    logq, f, quad, live = (np.ascontiguousarray(a[block].T) for a in (logq, f, quad, live))
    f_hi = np.where(live, f, -np.inf).max(axis=0)
    f_lo = np.where(live, f, np.inf).min(axis=0)
    curved = np.where(live, quad, 0.0).max(axis=0) > 0
    solve_rows = _settle_flat_rows(logq.T, f_hi, f_lo, out, block, curved)
    n_solve = solve_rows.size
    cols = slice(None) if n_solve == f_hi.size else solve_rows
    center = 0.5 * (f_hi + f_lo)[cols]
    logq, quad = logq[:, cols], quad[:, cols]
    s = f[:, cols] - center

    def evaluate(rows, lam):
        cols = slice(None) if rows.size == n_solve else rows
        return _component_terms(logq[:, cols], s[:, cols], quad[:, cols],
                                center[cols], lam, cfg)

    _solve_rows(evaluate, solve_rows, lam_init, cfg, out, block)


def _solve_rows(evaluate, solve_rows: np.ndarray, lam_init: np.ndarray | None,
                cfg: DroConfig, out: BatchDualResult, block: slice) -> None:
    """_halley_bisect over the rows solve_rows of `block`, into `out`."""
    lam0 = None if lam_init is None else lam_init[block][solve_rows]
    _halley_bisect(evaluate, solve_rows.size, cfg, lam0, out, block.start + solve_rows)


def _component_terms(logq: np.ndarray, s: np.ndarray, v: np.ndarray,
                     center: np.ndarray, lam: np.ndarray, cfg: DroConfig):
    """phi, phi', phi'', phi''' and the posterior at each row's lambda.

    Column i of the (K, rows) arrays is row i: K Gaussian components of
    the score, with log weights logq, means center + s and variances v.
    With t = 1/(lam eps), a_k = log q_k + s_k t + v_k t^2 / 2 and
    p = softmax(a), L = log sum exp(a) gives phi = lam rho + lam eps L
    (plus the center); with u = s + v t (a's derivative in t),
    L2 = Var_p u + E_p v and L3 = kappa3_p(u) + 3 Cov_p(u, v) (L's second
    and third derivatives),

        phi'   = rho + eps L - E_p u / lam
        phi''  = L2 / (lam^3 eps)
        phi''' = -(3 L2 + t L3) / (lam^4 eps)

    At v = 0 these are _table_terms' formulas. The moments are central,
    and every step is elementwise, a max or a sum_in_order over the
    components, so each row's terms depend on that row alone, bit for
    bit. The posterior is returned as the (rows, K) view e of exp(a - max
    a) and z = sum e. The products are taken in place in five (K, rows)
    arrays (IEEE products and sums do not depend on operand order).
    """
    t = 1.0 / (lam * cfg.epsilon)
    u = v * t
    e = 0.5 * u
    e += s
    e *= t
    e += logq
    m = e.max(axis=0)
    e -= m
    np.exp(e, out=e)
    z = sum_in_order(e)
    log_z = np.log(z) + m
    p = e / z
    u += s
    pu = p * u
    mean = sum_in_order(pu)
    u -= mean
    np.multiply(p, u, out=pu)
    u *= u
    w = 3.0 * v
    w += u
    w *= pu
    l3 = sum_in_order(w)
    np.add(u, v, out=w)
    w *= p
    l2 = sum_in_order(w)
    phi = lam * (cfg.rho + cfg.epsilon * log_z) + center
    dphi = cfg.rho + cfg.epsilon * log_z - mean / lam
    d2phi = l2 / (lam**3 * cfg.epsilon)
    d3phi = -(3.0 * l2 + t * l3) / (lam**4 * cfg.epsilon)
    return phi, dphi, d2phi, d3phi, e.T, z


def _halley_bisect(evaluate, n: int, cfg: DroConfig, lam0: np.ndarray | None,
                   out: BatchDualResult, dest: np.ndarray) -> None:
    """Safeguarded Halley on phi' for n rows with spread scores.

    evaluate(rows, lam) evaluates the rows `rows` (indices among the n) at
    their lambdas lam: _table_terms or _component_terms, each giving phi,
    phi', phi'', phi''' and the posterior as e and z. Row i's results are
    written to row dest[i] of out.

    Every row starts at its clipped lam0 (LAMBDA_INIT where lam0 is None or
    not a positive number), or at LAMBDA_MAX when cfg.rho is 0, where one
    evaluation ends it on that edge: phi' = -eps KL(p_lam || q) <= 0 on the
    whole box. Each evaluation narrows its sign bracket on phi' (the box
    edge stands in for an end not yet known), keeping phi', phi'' and
    phi''' at both ends. The next lambda is the first of these that is
    trusted and lands strictly inside the bracket:

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
    boundary row whatever the cap. A converged row keeps phi, phi' and the
    posterior of the evaluation that converged it; rows still active at
    the cap are evaluated once more after the loop.

    The loop's state holds only the rows still iterating, in their order:
    their indices among the n, their lambdas, step counts and |phi'|
    bases, and each bracket end as a (4, rows) array of lambda, phi',
    phi'' and phi'''. While no row leaves, an iteration works on these
    whole arrays, and each evaluation moves its bracket end by masked
    in-place writes. A row leaves when it converges or reaches the cap,
    its results written to out, and the state keeps the others. While
    every row is still in the loop, an evaluation that converges some
    writes them all with one slice, since the others are written again
    when they leave. Step 2 is computed only for the rows step 1 did not
    take, 3 only for the closed brackets left after 2, and 4 for the rows
    left after that.
    """
    if cfg.rho == 0:
        lam = np.full(n, LAMBDA_MAX)
    elif lam0 is None:
        lam = np.full(n, LAMBDA_INIT)
    else:
        lam = np.clip(np.where(np.isfinite(lam0) & (lam0 > 0), lam0, LAMBDA_INIT),
                      LAMBDA_MIN, LAMBDA_MAX)
    rows = np.arange(n)
    # (lambda, phi', phi'', phi''') at each bracket end; lambda is NaN while open
    end_lo, end_hi = np.full((4, n), np.nan), np.full((4, n), np.nan)
    # |phi'| at the base of the row's last step; inf after a bisection or probe
    d_base = np.full(n, np.inf)
    probe = np.zeros(n, dtype=bool)  # the row's lambda is a bracket probe
    steps = np.zeros(n, dtype=int)
    # rows that reached the cap, and the lambda each is evaluated at after the loop
    capped = np.zeros(n, dtype=bool)
    cap_lam = np.empty(n)
    # dest as one slice, when it is contiguous
    span = slice(dest[0], dest[-1] + 1) if n and dest[-1] - dest[0] == n - 1 else None

    def write(to, p, d, lam_at, count, e, z):
        out.value[to], out.gradient[to], out.lambda_star[to] = p, d, lam_at
        out.iterations[to], out.converged[to] = count, True
        out.posterior[to] = e / z[:, None]

    while rows.size:
        steps += ~probe
        p, d, dd, ddd, e, z = evaluate(rows, lam)
        done = np.abs(d) <= cfg.grad_tol
        # a row on a box edge with phi' pointing beyond it is a boundary
        # row, converged or not
        edge = lam == np.where(d >= 0, LAMBDA_MIN, LAMBDA_MAX)
        if edge.any():
            out.boundary[dest[rows[edge]]] = np.where(d[edge] >= 0, BOUNDARY_MIN,
                                                      BOUNDARY_MAX)
            done |= edge
        if done.any():
            if span is not None and rows.size == n:
                # every row costs less than picking out the converged ones;
                # the others are written again when they leave
                write(span, p, d, lam, steps, e, z)
            else:
                write(dest[rows[done]], p[done], d[done], lam[done], steps[done],
                      e[done], z[done])
            if done.all():
                break
            keep = np.flatnonzero(~done)
            rows, lam, d, dd, ddd, d_base, steps = (
                a[keep] for a in (rows, lam, d, dd, ddd, d_base, steps))
            end_lo, end_hi = end_lo[:, keep], end_hi[:, keep]
        below = d < 0
        for end, side in ((end_lo, below), (end_hi, ~below)):
            for row, value in zip(end, (lam, d, dd, ddd)):
                np.putmask(row, side, value)
        lo, hi = end_lo[0], end_hi[0]
        box_lo, box_hi = np.fmax(lo, LAMBDA_MIN), np.fmin(hi, LAMBDA_MAX)
        probe = np.zeros(rows.size, dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            d_abs = np.abs(d)
            # a row whose last step did not halve |phi'| falls back to 4
            free = d_abs <= 0.5 * d_base
            dk = d * ddd
            bend = dk / (dd * dd)
            trusted = (np.abs(bend) <= BEND_MAX) & free
            nxt = lam - 2.0 * d * dd / (2.0 * dd * dd - dk)
            take = trusted & (bend < 2.0) & (nxt > box_lo) & (nxt < box_hi)
            d_base = np.where(take, d_abs, np.inf)
            left = np.flatnonzero(~take)
            if left.size:
                newton = lam[left] - d[left] / dd[left]
                took = trusted[left] & (newton > box_lo[left]) & (newton < box_hi[left])
                stepped = left[took]
                nxt[stepped], d_base[stepped] = newton[took], d_abs[stepped]
                left = left[~took]
                # the end this evaluation left in place; NaN while that end is open
                far = np.where(below[left], end_hi[:, left], end_lo[:, left])
                closed = ~np.isnan(far[0])
                ends = left[closed]
                if ends.size:
                    far_lam, d_far, dd_far, ddd_far = far[:, closed]
                    other = far_lam - d_far / dd_far
                    took = ((np.abs(d_far * ddd_far) <= BEND_MAX * dd_far * dd_far)
                            & free[ends] & (other > box_lo[ends]) & (other < box_hi[ends]))
                    stepped = ends[took]
                    nxt[stepped], d_base[stepped] = other[took], np.abs(d_far[took])
                    halve = ends[~took]
                    nxt[halve] = np.sqrt(box_lo[halve] * box_hi[halve])
                # no trusted step and the root lies toward an open end: probe that way
                opened = left[~closed]
                if opened.size:
                    probe[opened] = True
                    # a probe down within a rounding of LAMBDA_MIN (1e-5 / 10
                    # is 1.0000000000000002e-06) takes the edge
                    at = lam[opened]
                    down = at / 10.0
                    nxt[opened] = np.where(
                        below[opened], np.minimum(at * 10.0, LAMBDA_MAX),
                        np.where(down > LAMBDA_MIN * (1 + 1e-9), down, LAMBDA_MIN))
        lam = nxt
        # a row at the cap leaves the loop unless its next evaluation is a probe
        stay = probe | (steps < cfg.newton_iters)
        if not stay.all():
            leave = rows[~stay]
            capped[leave] = True
            cap_lam[leave] = lam[~stay]
            out.iterations[dest[leave]] = steps[~stay]
            keep = np.flatnonzero(stay)
            rows, lam, d_base, steps, probe = (
                a[keep] for a in (rows, lam, d_base, steps, probe))
            end_lo, end_hi = end_lo[:, keep], end_hi[:, keep]

    rows = np.flatnonzero(capped)
    if rows.size:
        lam = cap_lam[rows]
        p, d, _, _, e, z = evaluate(rows, lam)
        to = dest[rows]
        out.value[to], out.gradient[to], out.lambda_star[to] = p, d, lam
        out.converged[to] = np.abs(d) <= cfg.grad_tol
        out.posterior[to] = e / z[:, None]
