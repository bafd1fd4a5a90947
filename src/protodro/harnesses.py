"""Empirical validation of the fixed-point and budget-convergence claims.

Two harnesses, both on a small constructed instance where the quantities
the claims talk about are actually computable:

- run_contraction iterates the damped prior-weight update against a
  large-N surrogate population, verifies the update map is locally
  contractive (finite-difference Jacobian), fits the geometric rate of
  |V(t) - V*|, and measures how the fixed-point error floor scales with
  the number of supports N. V is the production robust score:
  RobustClassifier's decision_scores on the priors' Gaussian components.
- run_consistency evaluates robust logits under growing atom budgets with
  nested draws and checks that successive-budget gaps shrink; its claim is
  about atoms, so it alone draws them.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig, prepare_output_dir
from .dro import check_converged, gibbs_tilt_batch, solve_dual_batch
from .models import LinearHead, RobustClassifier
from .numkit import GaussianParams, SeededRng, gaussian_sample, log_sum_exp
from .priors import (
    MixturePrior,
    SupportSet,
    component_moments,
    compute_class_stats,
    draw_atoms,
    prior_weights,
    update_weights_damped,
)
from .sinkhorn import build_cost_matrix
from .sweeps import format_real, write_csv, write_manifest

INSTANCE_STREAM = 31

N_BASE = 4
N_TARGET = 2
INSTANCE_DIM = 6
# base radius trades off against the class coupling temperature: larger
# radius sharpens responsibilities (stronger contraction, but weights of
# far components decay toward the simplex boundary), smaller radius blurs
# them (weaker contraction)
BASE_RADIUS = 1.4
BASE_COV_SCALE = 0.10
TARGET_COV_SCALE = 0.12
POPULATION_SIZE = 100_000
FLOOR_SIZES = (16, 64, 256, 1024)
FLOOR_REPLICATES = 8
PROTOTYPES_PER_BASE = 64
CONSISTENCY_BUDGETS = (32, 128, 512, 2048)
CONSISTENCY_PAIRS = 50
CONSISTENCY_SUPPORTS = 48
# a fixed point is reached when no weight moves by more than this in a step
FIXED_POINT_TOL = 1e-14
# the damped iteration starts each class far from its fixed point, with
# most of its weight on one base class
CONTRACTION_START = np.array([
    [0.85, 0.05, 0.05, 0.05],
    [0.05, 0.05, 0.05, 0.85],
])

# consistency solves each class's pairs at one budget in one call on that
# class's shared atom scores, each row tilted by gibbs_tilt_batch toward the
# class prior, and raises dro.DualConvergenceError on a row left
# unconverged, as models does. The calls go through this module attribute,
# which stays because the benchmark's dro.scalar_solve layer wraps it.
solve_dual = solve_dual_batch


@dataclass
class ContractionInstance:
    """Constructed two-target-class instance with computable update map."""

    prototypes: list[np.ndarray]
    base_components: list[GaussianParams]
    target_components: list[GaussianParams]
    target_mixes: np.ndarray
    eval_points: np.ndarray
    score_weights: np.ndarray


@dataclass
class ContractionResult:
    deltas: np.ndarray
    rate: float
    kappa: float
    jacobian_norm: float
    contractive: bool
    diverged: bool
    floors: dict[int, float]
    floor_slope: float
    fixed_point: np.ndarray


@dataclass
class ConsistencyResult:
    v_gaps: np.ndarray
    lambda_gaps: np.ndarray
    v_monotone_fraction: float
    lambda_monotone_fraction: float


def _build_instance(cfg: ExperimentConfig, seed: int) -> ContractionInstance:
    """Base/target geometry scaled so OT temperatures from cfg behave.

    Base classes sit near distinct coordinate directions; each target class
    is a reweighted mixture of the same component family, so the population
    fixed point is interior and close to the generating mixture weights.
    """
    rng = SeededRng(seed, INSTANCE_STREAM)
    d = INSTANCE_DIM
    eye = np.eye(d)
    r = BASE_RADIUS
    base_means = [r * eye[0], r * eye[1], r * eye[2], r * eye[3]]
    base_cov = BASE_COV_SCALE * np.eye(d)
    base_params = [GaussianParams(m, base_cov) for m in base_means]
    prototypes = [
        gaussian_sample(p, PROTOTYPES_PER_BASE, rng.child(b))
        for b, p in enumerate(base_params)
    ]
    # each target class reuses the base component family with tilted
    # mixture weights; every weight is bounded away from zero, so the
    # population fixed point sits strictly inside the simplex
    target_mixes = np.array([
        [0.40, 0.30, 0.20, 0.10],
        [0.10, 0.20, 0.30, 0.40],
    ])
    target_cov = TARGET_COV_SCALE * np.eye(d)
    target_components = [GaussianParams(m, target_cov) for m in base_means]

    mix_means = target_mixes @ np.stack(base_means)
    eval_points = np.stack([
        0.5 * (mix_means[0] + mix_means[1]),
        mix_means[0],
        mix_means[1],
    ])
    score_rng = rng.child(5)
    score_weights = score_rng.normal((N_TARGET, d), std=0.8)
    return ContractionInstance(
        prototypes, base_params, target_components, target_mixes,
        eval_points, score_weights,
    )


def _mixture_counts(n: int, weights: np.ndarray) -> np.ndarray:
    """Deterministic apportionment of n draws to mixture components."""
    raw = weights * n
    counts = np.floor(raw).astype(int)
    short = n - int(counts.sum())
    order = np.argsort(-(raw - counts))
    counts[order[:short]] += 1
    return counts


def _sample_target_class(instance: ContractionInstance, c: int, n: int,
                         rng: SeededRng) -> np.ndarray:
    counts = _mixture_counts(n, instance.target_mixes[c])
    blocks = [
        gaussian_sample(params, int(counts[b]), rng.child(b))
        for b, params in enumerate(instance.target_components)
        if counts[b] > 0
    ]
    return np.vstack(blocks)


def _draw_supports(instance: ContractionInstance, n: int,
                   rng: SeededRng) -> tuple[np.ndarray, np.ndarray]:
    """Half the supports per target class, deterministic split."""
    counts = (n // 2, n - n // 2)
    feats, labels = [], []
    for c in range(N_TARGET):
        feats.append(_sample_target_class(instance, c, counts[c], rng.child(c)))
        labels.append(np.full(counts[c], c, dtype=int))
    return np.vstack(feats), np.concatenate(labels)


class _TransportMap:
    """w -> per-class mean transport responsibility of the supports.

    Semi-relaxed entropic coupling between each class's supports (uniform
    marginal) and the w-weighted base components (free marginal): the plan
    has the closed form softmax_b(log w_b - cost_bn / eps) per support, so
    the update is the support-average responsibility, class by class.

    Each class's scaled cost columns are kept once, here, as a C-contiguous
    (B, n_c) array, so the softmax over the B base classes reduces along
    rows. The mean over a class's supports is an in-order sum: support 0
    plus support 1, and so on, then one division by n_c. A running sum
    along the rows adds them in exactly that order, so the map's bits do
    not depend on the layout; a pairwise sum would move them.
    """

    def __init__(self, cost: np.ndarray, labels: np.ndarray,
                 eps_class: float):
        self.class_scaled = [
            np.compress(labels == c, cost, axis=1) / -eps_class
            for c in range(N_TARGET)
        ]

    def __call__(self, weights: np.ndarray) -> np.ndarray:
        out = np.empty_like(weights)
        for c, scaled in enumerate(self.class_scaled):
            with np.errstate(divide="ignore"):
                logits = np.log(weights[c])[:, None] + scaled
            logits -= log_sum_exp(logits, axis=0)[None, :]
            np.exp(logits, out=logits)
            n_c = logits.shape[1]
            out[c] = np.cumsum(logits, axis=1, out=logits)[:, -1] / n_c
            out[c] /= out[c].sum()
        return out


def _fixed_point(transport: _TransportMap, start: np.ndarray,
                 max_steps: int = 5000) -> tuple[np.ndarray, float]:
    """Iterate the map until no weight moves by more than FIXED_POINT_TOL.

    Returns the last iterate and the max-norm size of the last step, which
    stays above FIXED_POINT_TOL when max_steps ran out first.
    """
    w, gap = start.copy(), float("inf")
    for _ in range(max_steps):
        nxt = transport(w)
        gap = float(np.abs(nxt - w).max())
        w = nxt
        if gap <= FIXED_POINT_TOL:
            break
    return w, gap


def _values(instance: ContractionInstance, weights: np.ndarray,
            cfg: ExperimentConfig) -> np.ndarray:
    """Robust logit per (eval point, class) for weights over the base
    classes' component_moments: the decision scores of a RobustClassifier
    with the instance's score weights and zero biases, exact on the
    Gaussian components (its dual rows raise DualConvergenceError when
    left unconverged)."""
    means, covs = component_moments(instance.base_components, cfg.prior)
    priors = [MixturePrior(w, means, covs) for w in weights]
    head = LinearHead(instance.score_weights, np.zeros(N_TARGET))
    return RobustClassifier(head, priors, cfg.dro).decision_scores(instance.eval_points)


def _value_gap(instance: ContractionInstance, weights: np.ndarray,
               ref_values: np.ndarray, cfg: ExperimentConfig) -> float:
    return float(np.abs(_values(instance, weights, cfg) - ref_values).max())


def _simplex_tangent_basis(dim: int) -> np.ndarray:
    """Orthonormal basis of the sum-zero subspace, columns (dim, dim-1)."""
    raw = np.eye(dim)[:, : dim - 1] - 1.0 / dim
    q, _ = np.linalg.qr(raw)
    return q


def _jacobian_norm(transport: _TransportMap, fixed: np.ndarray) -> float:
    """Finite-difference spectral norm of the update map on the tangent."""
    basis = _simplex_tangent_basis(N_BASE)
    n_dirs = N_TARGET * (N_BASE - 1)
    delta = min(1e-6, float(fixed.min()) / 10.0)
    if delta <= 0:
        raise RuntimeError("fixed point touches the simplex boundary")
    columns = np.empty((n_dirs, n_dirs))
    k = 0
    for c in range(N_TARGET):
        for j in range(N_BASE - 1):
            step = np.zeros_like(fixed)
            step[c] = basis[:, j]
            hi = transport(fixed + delta * step)
            lo = transport(fixed - delta * step)
            diff = (hi - lo) / (2.0 * delta)
            columns[:, k] = np.concatenate([basis.T @ diff[t]
                                            for t in range(N_TARGET)])
            k += 1
    return float(np.linalg.norm(columns, ord=2))


def run_contraction(cfg: ExperimentConfig, out_dir=None, eta: float = 0.5,
                    steps: int = 200) -> ContractionResult:
    """Damped weight iteration against a surrogate population.

    Writes contraction_trace.csv (t, delta, bound), contraction_floor.csv
    (n, floor), and a manifest with the fitted rate, the Jacobian norm at
    the fixed point, the floor slope, the last fixed-point step sizes, and
    the number of floor replicates whose fixed-point iteration stopped with
    a step above FIXED_POINT_TOL.
    Raises ValueError, before any work, unless steps >= 1 and 0 < eta <= 1.
    """
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    out_dir = prepare_output_dir(cfg, out_dir)
    t_start = time.time()
    seed = cfg.seeds[0]
    instance = _build_instance(cfg, seed)
    support_rng = SeededRng(seed, INSTANCE_STREAM).child(11)

    feats, labels = _draw_supports(instance, POPULATION_SIZE, support_rng)
    cost = build_cost_matrix(feats, instance.prototypes, cfg.prior.eps_sample)
    transport = _TransportMap(cost, labels, cfg.prior.eps_class)

    uniform = np.full((N_TARGET, N_BASE), 1.0 / N_BASE)
    fixed, fixed_gap = _fixed_point(transport, uniform)
    ref_values = _values(instance, fixed, cfg)

    jacobian_norm = _jacobian_norm(transport, fixed)
    contractive = jacobian_norm < 1.0

    w = CONTRACTION_START.copy()
    deltas = [_value_gap(instance, w, ref_values, cfg)]
    diverged = False
    for t in range(1, steps + 1):
        target = transport(w)
        w = np.stack([
            update_weights_damped(w[c], target[c], eta)
            for c in range(N_TARGET)
        ])
        deltas.append(_value_gap(instance, w, ref_values, cfg))
        if t >= 20 and deltas[t] > 10.0 * deltas[t - 20]:
            diverged = True
            break
        if deltas[t] < 1e-12:
            break
    deltas = np.array(deltas)

    fit_mask = deltas > 1e-10
    if fit_mask.sum() >= 3:
        ts = np.arange(len(deltas))[fit_mask]
        slope, _ = np.polyfit(ts, np.log(deltas[fit_mask]), 1)
        rate = float(np.exp(slope))
    else:
        rate = float("nan")
    kappa = (1.0 - rate) / eta if np.isfinite(rate) else float("nan")
    bound = deltas[0] * np.power(max(rate, 0.0) if np.isfinite(rate) else 1.0,
                                 np.arange(len(deltas)))

    floors = {}
    floor_gap_max = 0.0
    floor_unconverged = 0
    floor_rng = SeededRng(seed, INSTANCE_STREAM).child(12)
    for n in FLOOR_SIZES:
        gaps = []
        for rep in range(FLOOR_REPLICATES):
            f_feats, f_labels = _draw_supports(
                instance, n, floor_rng.child(1000 * n + rep))
            f_cost = build_cost_matrix(f_feats, instance.prototypes,
                                       cfg.prior.eps_sample)
            f_transport = _TransportMap(f_cost, f_labels, cfg.prior.eps_class)
            f_fixed, f_gap = _fixed_point(f_transport, uniform)
            floor_gap_max = max(floor_gap_max, f_gap)
            floor_unconverged += f_gap > FIXED_POINT_TOL
            gaps.append(_value_gap(instance, f_fixed, ref_values, cfg))
        floors[n] = float(np.mean(gaps))
    log_n = np.log(np.array(FLOOR_SIZES, dtype=float))
    log_floor = np.log(np.array([floors[n] for n in FLOOR_SIZES]))
    floor_slope = float(np.polyfit(log_n, log_floor, 1)[0])

    result = ContractionResult(
        deltas=deltas, rate=rate, kappa=kappa,
        jacobian_norm=jacobian_norm, contractive=contractive,
        diverged=diverged, floors=floors, floor_slope=floor_slope,
        fixed_point=fixed,
    )

    trace_path = os.path.join(out_dir, "contraction_trace.csv")
    write_csv(trace_path, ("t", "delta", "bound"), [
        (str(t), format_real(deltas[t]), format_real(bound[t]))
        for t in range(len(deltas))
    ])
    floor_path = os.path.join(out_dir, "contraction_floor.csv")
    write_csv(floor_path, ("n", "floor"), [
        (str(n), format_real(floors[n])) for n in FLOOR_SIZES
    ])
    manifest_path = os.path.join(out_dir, "contraction_manifest.txt")
    write_manifest(manifest_path, cfg, {
        "task": "contraction",
        "seed": seed,
        "eta": format_real(eta),
        "fixed_point_gap": format_real(fixed_gap),
        "jacobian_norm": format_real(jacobian_norm),
        "contractive": int(contractive),
        "rate": format_real(rate),
        "kappa": format_real(kappa),
        "floor_slope": format_real(floor_slope),
        "floor_fixed_point_gap_max": format_real(floor_gap_max),
        "floor_fixed_point_unconverged": floor_unconverged,
        "diverged": int(diverged),
        "steps_run": len(deltas) - 1,
        "final_delta": format_real(deltas[-1]),
    }, t_start)
    return result


def run_consistency(cfg: ExperimentConfig, out_dir=None,
                    replicates: int = 32) -> ConsistencyResult:
    """Atom-budget convergence of robust logits on nested draws.

    For each of CONSISTENCY_PAIRS (x, class) pairs the per-budget gap
    |V(A) - V(4A)| is averaged over atom-seed replicates (each replicate's
    draws nest across budgets), then checked for non-increase along the
    budget ladder; same for the dual minimizer. Raises ValueError, before
    any work, unless replicates >= 1.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be at least 1, got {replicates}")
    out_dir = prepare_output_dir(cfg, out_dir)
    t_start = time.time()
    seed = cfg.seeds[0]
    instance = _build_instance(cfg, seed)
    rng = SeededRng(seed, INSTANCE_STREAM).child(13)

    feats, labels = _draw_supports(instance, CONSISTENCY_SUPPORTS, rng.child(0))
    supports = SupportSet(features=feats, labels=labels)
    base_feats = np.vstack(instance.prototypes)
    base_labels = np.repeat(np.arange(N_BASE), PROTOTYPES_PER_BASE)
    stats = compute_class_stats(base_feats, base_labels)

    x_rng = rng.child(1)
    half = CONSISTENCY_PAIRS - CONSISTENCY_PAIRS // 2
    xs = np.vstack([
        _sample_target_class(instance, 0, CONSISTENCY_PAIRS // 2, x_rng.child(0)),
        _sample_target_class(instance, 1, half, x_rng.child(1)),
    ])
    classes = np.concatenate([
        np.zeros(CONSISTENCY_PAIRS // 2, dtype=int), np.ones(half, dtype=int)
    ])

    # neither the weights nor the components depend on the atoms, which
    # alone are drawn per rung
    weights = prior_weights(instance.prototypes, supports, cfg.prior)
    means, covs = component_moments(stats, cfg.prior)
    budgets = CONSISTENCY_BUDGETS
    v = np.empty((replicates, len(budgets), CONSISTENCY_PAIRS))
    lam = np.empty_like(v)
    for r in range(replicates):
        atom_rng = SeededRng(cfg.prior.atom_seed + 1000 * (r + 1))
        for bi, a in enumerate(budgets):
            atoms = draw_atoms(means, covs, a, atom_rng)
            for c, w in enumerate(weights):
                rows = classes == c
                prior = MixturePrior(w, means, covs, atoms)
                tilts = gibbs_tilt_batch(prior, xs[rows], cfg.dro.epsilon)
                res = solve_dual(tilts, atoms @ instance.score_weights[c], cfg.dro)
                check_converged(res, cfg.dro)
                v[r, bi, rows] = res.value
                lam[r, bi, rows] = res.lambda_star
    v_gaps = np.abs(np.diff(v, axis=1)).mean(axis=0)       # (len-1, pairs)
    lam_gaps = np.abs(np.diff(lam, axis=1)).mean(axis=0)

    tol = 1e-12
    v_monotone = np.all(np.diff(v_gaps, axis=0) <= tol, axis=0)
    lam_monotone = np.all(np.diff(lam_gaps, axis=0) <= tol, axis=0)
    v_fraction = float(v_monotone.mean())
    lam_fraction = float(lam_monotone.mean())

    result = ConsistencyResult(
        v_gaps=v_gaps, lambda_gaps=lam_gaps,
        v_monotone_fraction=v_fraction, lambda_monotone_fraction=lam_fraction,
    )

    trace_path = os.path.join(out_dir, "consistency_trace.csv")
    rows = []
    for p in range(CONSISTENCY_PAIRS):
        for bi in range(len(budgets) - 1):
            rows.append((
                str(p), str(int(classes[p])), str(budgets[bi]),
                format_real(v_gaps[bi, p]), format_real(lam_gaps[bi, p]),
            ))
    write_csv(trace_path,
              ("pair", "class", "budget", "v_gap_next", "lambda_gap_next"),
              rows)
    curve_path = os.path.join(out_dir, "consistency_curve.csv")
    write_csv(curve_path, ("budget", "v_gap_mean", "lambda_gap_mean"), [
        (str(budgets[bi]),
         format_real(v_gaps[bi].mean()), format_real(lam_gaps[bi].mean()))
        for bi in range(len(budgets) - 1)
    ])
    manifest_path = os.path.join(out_dir, "consistency_manifest.txt")
    write_manifest(manifest_path, cfg, {
        "task": "consistency",
        "seed": seed,
        "replicates": replicates,
        "pairs": CONSISTENCY_PAIRS,
        "v_monotone_fraction": format_real(v_fraction),
        "lambda_monotone_fraction": format_real(lam_fraction),
    }, t_start)
    return result
