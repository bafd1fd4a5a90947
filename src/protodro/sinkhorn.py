"""Entropic optimal transport in the log domain.

Couplings are solved through dual potentials and soft-min updates, so the
Gibbs kernel exp(-C/eps) is never materialized directly and small epsilon
or large costs cannot overflow. The module also provides the soft-min
point-to-class costs that feed the class-level transport problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkit import log_sum_exp, sq_distances

MARGINAL_SUM_TOL = 1e-12


class ConvergenceError(RuntimeError):
    """Sinkhorn ran out of iterations; carries the last marginal violation."""

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


def _materialize(problem: OtProblem, f: np.ndarray, g: np.ndarray,
                 log_row: np.ndarray, log_col: np.ndarray) -> np.ndarray:
    logs = (
        log_row[:, None]
        + log_col[None, :]
        + (f[:, None] + g[None, :] - problem.cost) / problem.epsilon
    )
    return np.exp(logs)


def solve_entropic_ot(problem: OtProblem, tol: float = 1e-6,
                      max_iters: int = 1000) -> TransportPlan:
    """Solve the entropic coupling by alternating log-domain potential updates.

    Args:
        problem: validated OtProblem.
        tol: maximum L1 marginal violation of the returned plan.
        max_iters: budget of full (column, row) update sweeps.

    Returns:
        TransportPlan whose plan is nonnegative with marginals matched to
        within tol in L1.

    Raises:
        ConvergenceError: the budget ran out; carries the last violation.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    eps = problem.epsilon
    with np.errstate(divide="ignore"):
        log_row = np.log(problem.row_marginal)
        log_col = np.log(problem.col_marginal)

    f = np.zeros(problem.cost.shape[0])
    violation = np.inf
    for it in range(1, max_iters + 1):
        # given f, this g matches every column marginal exactly
        g = -eps * log_sum_exp(log_row[:, None] + (f[:, None] - problem.cost) / eps, axis=0)
        # the f that would match the rows; the gap to the current f is the
        # row violation of the plan induced by (f, g)
        f_next = -eps * log_sum_exp(log_col[None, :] + (g[None, :] - problem.cost) / eps, axis=1)
        row_mass = problem.row_marginal * np.exp((f - f_next) / eps)
        violation = float(np.sum(np.abs(row_mass - problem.row_marginal)))
        if violation <= tol:
            plan = _materialize(problem, f, g, log_row, log_col)
            return TransportPlan(plan, it, violation)
        f = f_next
    raise ConvergenceError(
        f"entropic OT did not reach violation {tol} in {max_iters} iterations "
        f"(last violation {violation:.3e})",
        violation,
        max_iters,
    )


def build_cost_matrix(supports: np.ndarray, base_prototypes: list[np.ndarray],
                      eps_sample: float) -> np.ndarray:
    """Soft-min cost from every base class to every support point.

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
    rows = []
    for protos in base_prototypes:
        protos = np.atleast_2d(np.asarray(protos, dtype=float))
        if protos.shape[0] == 0:
            raise ValueError("a base class has no prototypes")
        if protos.shape[1] != pts.shape[1]:
            raise ValueError("prototype dimension does not match supports")
        sq = sq_distances(protos, pts)
        rows.append(-eps_sample * log_sum_exp(-sq / eps_sample, axis=0))
    return np.vstack(rows)
