"""Entropic optimal transport in the log domain.

Couplings are solved through dual potentials and soft-min updates, so the
Gibbs kernel exp(-C/eps) is never materialized directly and small epsilon
or large costs cannot overflow. The solver runs Newton on the semi-dual
(Cuturi & Peyre 2016; Brauer et al. 2017, arXiv:1710.06635): the
potentials of the smaller side are the variables and the other side's
potential is their soft-min. One iteration is one damped Newton step, or
one alternating (Sinkhorn) update when the step would not lower the
marginal violation. The module also provides the soft-min point-to-class
costs that feed the class-level transport problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkit import log_sum_exp, sq_distances

MARGINAL_SUM_TOL = 1e-12
# Levenberg-Marquardt damping of the semi-dual Newton step (solve_entropic_ot):
# divided by DAMPING_FACTOR after a step that is taken, down to DAMPING_MIN,
# and multiplied by it after one that is not
DAMPING_FACTOR = 4.0
DAMPING_MIN = 1e-6
# build_cost_matrix takes the support points in blocks of COST_BLOCK_COLUMNS
# (the last block up to twice that): each (m_b, columns) temporary of a block
# is then 2-4 MiB at 64 prototypes, where a whole 100,000-point population
# makes 51 MB ones. Blocks of 4,096 were the fastest of 1,024, 4,096 and
# 16,384 there. A power of two, so that blocks start on the BLAS kernels'
# tile edges, and wide enough that no block takes a small-matrix path
COST_BLOCK_COLUMNS = 4096


class ConvergenceError(RuntimeError):
    """The OT solver ran out of iterations; carries the last marginal violation."""

    def __init__(self, message: str, violation: float, iterations: int):
        super().__init__(message)
        self.violation = violation
        self.iterations = iterations


@dataclass
class OtProblem:
    """Discrete entropic OT instance: cost (B, N), marginals, temperature."""

    cost: np.ndarray
    row_marginal: np.ndarray
    col_marginal: np.ndarray
    epsilon: float

    def __post_init__(self) -> None:
        self.cost = np.asarray(self.cost, dtype=float)
        self.row_marginal = np.asarray(self.row_marginal, dtype=float)
        self.col_marginal = np.asarray(self.col_marginal, dtype=float)
        if self.cost.ndim != 2:
            raise ValueError("cost must be a matrix")
        rows, cols = self.cost.shape
        if self.row_marginal.shape != (rows,) or self.col_marginal.shape != (cols,):
            raise ValueError("marginal lengths must match the cost matrix shape")
        if not np.all(np.isfinite(self.cost)):
            raise ValueError("cost entries must be finite")
        for name, marg in (("row", self.row_marginal), ("col", self.col_marginal)):
            if np.any(marg < 0):
                raise ValueError(f"{name} marginal has negative entries")
            if abs(float(marg.sum()) - 1.0) > MARGINAL_SUM_TOL:
                raise ValueError(f"{name} marginal must sum to 1 within {MARGINAL_SUM_TOL}")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")


@dataclass
class TransportPlan:
    plan: np.ndarray
    iterations_used: int
    marginal_violation: float


def solve_entropic_ot(problem: OtProblem, tol: float = 1e-6,
                      max_iters: int = 1000) -> TransportPlan:
    """Solve the entropic coupling by damped Newton on the semi-dual.

    The Newton variables are the potentials f of the smaller side (a
    problem with more rows than columns is solved transposed). The large
    side's potential is the soft-min given f, so its marginal holds exactly
    and the violation is the small side's. One iteration is one trial
    Newton step on f, or one alternating (Sinkhorn) update where the trial
    fails: the step is taken only if it lowers the L1 violation. The
    Hessian is damped by mu * diag(a) / eps (Levenberg-Marquardt), with mu
    starting at 1, falling after a step that is taken and rising after one
    that is not. Far from the answer a small-side mass is flat in f and
    then changes steeply, so undamped steps overshoot; near it mu is small
    and the steps are Newton's. The damping also keeps the system positive
    definite when a small-side point has no mass. The first iteration is an
    alternating update from f = 0.

    Args:
        problem: validated OtProblem.
        tol: maximum L1 marginal violation of the returned plan.
        max_iters: budget of iterations, trial steps and alternating
            updates alike.

    Returns:
        TransportPlan whose plan is nonnegative with marginals matched to
        within tol in L1; rows and columns of zero mass are zero.

    Raises:
        ConvergenceError: the budget ran out; carries the last violation.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    eps = problem.epsilon
    cost, a, b = problem.cost, problem.row_marginal, problem.col_marginal
    transposed = cost.shape[0] > cost.shape[1]
    if transposed:
        cost, a, b = cost.T, b, a
    # zero-mass points of the small side get zero plan rows, outside the system
    live = a > 0
    cost, a_live = cost[live], a[live]
    log_a = np.log(a_live)
    with np.errstate(divide="ignore"):
        log_b = np.log(b)

    def evaluate(f):
        # softmax over the small side, column by column: the large side's
        # soft-min potential given f matches every column marginal
        logits = log_a[:, None] + (f[:, None] - cost) / eps
        log_soft = logits - log_sum_exp(logits, axis=0)
        soft = np.exp(log_soft)
        plan = soft * b
        return log_soft, soft, plan, float(np.sum(np.abs(plan.sum(axis=1) - a_live)))

    def alternate(f, log_soft):
        # the f that matches every row against the current large-side potential
        return f + eps * (log_a - log_sum_exp(log_soft + log_b, axis=1))

    f = alternate(np.zeros(a_live.size), evaluate(np.zeros(a_live.size))[0])
    log_soft, soft, plan, violation = evaluate(f)
    mu = 1.0
    it = 1
    while violation > tol and it < max_iters:
        it += 1
        row_mass = plan.sum(axis=1)
        # the semi-dual Hessian (diag(P1) - P diag(1/b) P^T) / eps, damped;
        # P diag(1/b) is the softmax, so a zero-mass column adds nothing.
        # a a^T pins the constant direction, along which the plan is fixed
        hessian = ((np.diag(row_mass + mu * a_live) - plan @ soft.T) / eps
                   + np.outer(a_live, a_live))
        step = f + np.linalg.solve(hessian, a_live - row_mass)
        trial = evaluate(step)
        if trial[3] < violation:
            f, (log_soft, soft, plan, violation) = step, trial
            mu = max(mu / DAMPING_FACTOR, DAMPING_MIN)
        else:
            f = alternate(f, log_soft)
            log_soft, soft, plan, violation = evaluate(f)
            mu *= DAMPING_FACTOR
    if violation > tol:
        raise ConvergenceError(
            f"entropic OT did not reach violation {tol} in {max_iters} iterations "
            f"(last violation {violation:.3e})",
            violation,
            max_iters,
        )
    full = np.zeros((a.size, b.size))
    full[live] = plan
    return TransportPlan(full.T if transposed else full, it, violation)


def build_cost_matrix(supports: np.ndarray, base_prototypes: list[np.ndarray],
                      eps_sample: float) -> np.ndarray:
    """Soft-min cost from every base class to every support point.

    The supports are taken in column blocks: block i starts at column
    i * COST_BLOCK_COLUMNS and the last block also takes the remainder, so
    a block has COST_BLOCK_COLUMNS to twice that many columns, or all N
    when N is smaller. Each block's distances and soft-min fill its slice
    of the preallocated result, so no temporary grows with N. Every
    entry's arithmetic reads its own support point alone, and each block
    starts on a tile edge of the BLAS product's kernels and is wide enough
    for the same kernels as one product over all N columns, so every
    entry is bitwise independent of the split: on one BLAS thread it has
    the bits of one product over all N. (Blocks that start off a tile
    edge, or a lone column, which BLAS takes as a matrix-vector product,
    would move the last bits of some entries. A BLAS that splits one
    product over threads can move them too, in a block as in a whole
    product, at widths that are not a multiple of 8; the blocks of a
    100,000-point population are.)

    Args:
        supports: (N, d) query points.
        base_prototypes: per-class (m_b, d) prototype arrays, one per base class.
        eps_sample: soft-min temperature.

    Returns:
        (B, N) matrix whose (b, n) entry is the soft-min squared distance
        -eps * log sum_i exp(-||supports[n] - p_i||^2 / eps) over the
        prototypes p_i of base class b: at most the hard minimum distance
        and within eps * log(m_b) of it.
    """
    if not eps_sample > 0:
        raise ValueError("eps_sample must be positive")
    pts = np.asarray(supports, dtype=float)
    if pts.ndim != 2:
        raise ValueError("supports must be an (N, d) array")
    classes = []
    for protos in base_prototypes:
        protos = np.atleast_2d(np.asarray(protos, dtype=float))
        if protos.shape[0] == 0:
            raise ValueError("a base class has no prototypes")
        if protos.shape[1] != pts.shape[1]:
            raise ValueError("prototype dimension does not match supports")
        classes.append(protos)
    if not classes:
        raise ValueError("there must be at least one base class")
    n = pts.shape[0]
    ends = [*range(0, max(1, n - COST_BLOCK_COLUMNS + 1), COST_BLOCK_COLUMNS), n]
    cost = np.empty((len(classes), n))
    for lo, hi in zip(ends, ends[1:]):
        block = pts[lo:hi]
        for b, protos in enumerate(classes):
            sq = sq_distances(protos, block)
            cost[b, lo:hi] = -eps_sample * log_sum_exp(-sq / eps_sample, axis=0)
    return cost
