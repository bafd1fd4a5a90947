"""Linear predictors and every training objective in the benchmark.

One linear head type serves classification (C rows of weights) and
regression (a single row). Training objectives:

  * robust classifier: softmax cross-entropy over per-class robust
    scores, gradients chained through the dual envelope; each score is
    the dual over the class prior's B Gaussian components in closed form
    (ComponentTilts), and each batch's (sample, class) duals are laid out
    class-major as (n * C, B) rows of one solve
  * robust regressor: Huber loss plus a tilted log-mean-exp penalty over
    the sample's class prior, on the same tilted components: each maps the
    head's output to a 1-D Gaussian, integrated at QUAD_NODES
    Gauss-Hermite nodes, so a row takes B * QUAD_NODES cells
  * baselines: `train_ce_head` and `train_huber_head` fit plain affine
    heads to whatever rows a method hands them (source samples, supports,
    or source features moved by `barycentric_transport`); SAA adds seeded
    noise copies of the supports; the fixed-reference robust baseline
    trains the robust classifier on `empirical_prior`, the supports as
    zero-covariance components. The method
    registry in sweeps chooses each method's rows.

All loops are plain minibatch Adam over numpy arrays, deterministic under
a fixed seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import dro
from .dro import DroConfig, check_converged, solve_dual_batch
from .numkit import SeededRng, log_sum_exp, sq_distances, sum_in_order
from .priors import MixturePrior, SupportSet, shared_components
from .sinkhorn import OtProblem, solve_entropic_ot

_SHUFFLE_STREAM = 101
_NOISE_STREAM = 202
SAA_NOISE_SCALE = 0.1
SAA_NOISE_DRAWS = 64
# Gauss-Hermite nodes per tilted component in the regressor's penalty
QUAD_NODES = 16
# no fit calls it; perfbench's dro.tilt span wraps it here until ROADMAP item 8
gibbs_tilt_batch = dro.gibbs_tilt_batch


@dataclass
class TrainConfig:
    """Optimizer settings shared by every training objective."""

    learning_rate: float = 1e-3
    epochs: int = 200
    batch_size: int = 256
    seed: int = 0
    huber_beta: float = 1.0
    penalty_weight: float = 1.0
    penalty_temperature: float = 0.1

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        # epochs = 0 is allowed so callers can inspect the initial head
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.huber_beta <= 0:
            raise ValueError("huber_beta must be positive")
        if self.penalty_weight < 0:
            raise ValueError("penalty_weight must be nonnegative")
        if self.penalty_temperature <= 0:
            raise ValueError("penalty_temperature must be positive")


@dataclass
class LinearHead:
    """Affine scores f_c(x) = w_c . x + b_c; one row per output."""

    weights: np.ndarray
    biases: np.ndarray

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=float)
        self.biases = np.asarray(self.biases, dtype=float)
        if self.weights.ndim != 2 or self.biases.shape != (self.weights.shape[0],):
            raise ValueError("weights must be (C, d) with matching biases (C,)")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.biases))):
            raise ValueError("head parameters must be finite")

    @property
    def n_outputs(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]

    def decision_scores(self, features: np.ndarray) -> np.ndarray:
        return np.atleast_2d(features) @ self.weights.T + self.biases

    def predict(self, features: np.ndarray) -> np.ndarray:
        return np.argmax(self.decision_scores(features), axis=1)

    def predict_response(self, features: np.ndarray) -> np.ndarray:
        if self.n_outputs != 1:
            raise ValueError("predict_response needs a single-output head")
        return self.decision_scores(features)[:, 0]


def zero_head(n_outputs: int, dim: int) -> LinearHead:
    return LinearHead(np.zeros((n_outputs, dim)), np.zeros(n_outputs))


def save_head(head: LinearHead, path, config_hash: str | None = None) -> None:
    payload = {
        "format": "protodro-head",
        "version": 1,
        "weights": head.weights.tolist(),
        "biases": head.biases.tolist(),
        "config_hash": config_hash,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_head(path) -> LinearHead:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != "protodro-head":
        raise ValueError(f"{path} is not a serialized head")
    return LinearHead(np.array(payload["weights"]), np.array(payload["biases"]))


@dataclass
class TrainResult:
    """Trained head plus the per-epoch mean-loss trace."""

    head: LinearHead
    loss_trace: np.ndarray


def huber(residuals: np.ndarray, beta: float):
    """Huber value and its derivative in the residual.

    Quadratic r^2/2 inside |r| <= beta, linear beta(|r| - beta/2) outside,
    with no masked select: the clip c of r to [-beta, beta] is the derivative
    and c(r - c/2) the value, four passes over two arrays. Its bits equal the
    piecewise formula's (inside, r(r - r/2) is (r/2)r; outside, beta(|r| -
    beta/2) up to an exact sign flip) once += 0.0 turns r = -0.0's -0.0 to 0.0.
    Residuals outside the knee are never squared, so huge ones do not
    overflow.
    """
    r = np.asarray(residuals, dtype=float)
    c = np.clip(r, -beta, beta)
    value = c * -0.5
    value += r
    value *= c
    value += 0.0
    return value, c


def _ce_batch(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over rows and the per-row gradient in logits."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = log_sum_exp(shifted, axis=1)
    rows = np.arange(logits.shape[0])
    losses = log_norm - shifted[rows, labels]
    grad = np.exp(shifted - log_norm[:, None])
    grad[rows, labels] -= 1.0
    return float(losses.mean()), grad / logits.shape[0]


class _Adam:
    def __init__(self, cfg: TrainConfig, params: list[np.ndarray]):
        self.lr = cfg.learning_rate
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        correction = np.sqrt(1.0 - b2**self.t) / (1.0 - b1**self.t)
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m += (1.0 - b1) * (g - m)
            v += (1.0 - b2) * (g * g - v)
            p -= self.lr * correction * m / (np.sqrt(v) + eps)


def _run_epochs(n_samples: int, cfg: TrainConfig, params: list[np.ndarray], batch_fn):
    """Shared minibatch loop: shuffle, step, record the epoch mean loss.

    batch_fn(idx) -> (mean batch loss, grads aligned with params) and must
    read the live params list so updates are visible across batches.
    """
    rng = SeededRng(cfg.seed, _SHUFFLE_STREAM)
    opt = _Adam(cfg, params)
    trace = np.zeros(cfg.epochs)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n_samples)
        total = 0.0
        for start in range(0, n_samples, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, grads = batch_fn(idx)
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"non-finite loss {loss} at epoch {epoch} batch {start // cfg.batch_size}"
                )
            opt.step(params, grads)
            total += loss * idx.size
        trace[epoch] = total / n_samples
    return trace


def ce_objective(weights: np.ndarray, biases: np.ndarray, features: np.ndarray,
                 labels: np.ndarray):
    """Mean cross-entropy of affine logits and its parameter gradients."""
    loss, grad = _ce_batch(features @ weights.T + biases, labels)
    return loss, [grad.T @ features, grad.sum(axis=0)]


def train_ce_head(features: np.ndarray, labels: np.ndarray, n_classes: int,
                  cfg: TrainConfig) -> TrainResult:
    """Cross-entropy on plain affine logits of the given rows."""
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels)
    head = zero_head(n_classes, x.shape[1])
    params = [head.weights, head.biases]

    def batch_fn(idx):
        return ce_objective(params[0], params[1], x[idx], y[idx])

    trace = _run_epochs(x.shape[0], cfg, params, batch_fn)
    return TrainResult(head, trace)


def barycentric_transport(source: SupportSet, supports: SupportSet,
                          epsilon: float = 0.2, tol: float = 1e-5) -> np.ndarray:
    """Map each source point onto the coupling-weighted support average.

    One entropic OT problem per class between that class's source samples
    and its target supports, uniform marginals on both sides, solved with
    the solver's iteration budget. The plan is row-normalized before
    projecting, and the projection only needs row-relative mass, so the
    default tolerance is looser than the solver's.
    """
    n_classes = int(source.labels.max()) + 1
    transported = np.empty_like(np.asarray(source.features, dtype=float))
    for c in range(n_classes):
        src = source.features[source.labels == c]
        tgt = supports.features[supports.labels == c]
        if tgt.shape[0] == 0:
            raise ValueError(f"class {c} has no target supports")
        if src.shape[0] == 0:
            continue
        problem = OtProblem(
            cost=sq_distances(src, tgt),
            row_marginal=np.full(src.shape[0], 1.0 / src.shape[0]),
            col_marginal=np.full(tgt.shape[0], 1.0 / tgt.shape[0]),
            epsilon=epsilon,
        )
        plan = solve_entropic_ot(problem, tol=tol).plan
        transported[source.labels == c] = (plan / plan.sum(axis=1, keepdims=True)) @ tgt
    return transported


def train_saa(supports: SupportSet, n_classes: int, cfg: TrainConfig) -> TrainResult:
    """Cross-entropy on supports augmented with seeded Gaussian draws:
    SAA_NOISE_DRAWS copies of every support, each shifted by noise of
    standard deviation SAA_NOISE_SCALE."""
    rng = SeededRng(cfg.seed, _NOISE_STREAM)
    x = np.asarray(supports.features, dtype=float)
    n, d = x.shape
    eta = rng.normal((SAA_NOISE_DRAWS, n, d), std=SAA_NOISE_SCALE)
    augmented = (x[None, :, :] + eta).reshape(SAA_NOISE_DRAWS * n, d)
    labels = np.tile(supports.labels, SAA_NOISE_DRAWS)
    return train_ce_head(augmented, labels, n_classes, cfg)


@dataclass
class MultiplierCache:
    """Warm starts for the training duals, in units of each class's score spread.

    The dual is homogeneous: a head (a w_c, a b_c) has lambda* = a *
    lambda* of (w_c, b_c), since the scores' means scale by a and their
    variances by a^2. So kappa[i, c] = lambda* / s_c of row i's last solve
    for class c, with s_c any class spread homogeneous of degree 1 in w_c
    (robust_scores_stacked takes the norm |w_c|), carries over as the
    head's score scale grows from epoch to epoch. kappa is NaN until the
    row has a solve with lambda* > 0 and s_c > 0; median[c] is class c's
    median kappa over the last batch that had one (NaN before any), taken
    for every class from one sort of the batch's kappa (update).
    """

    kappa: np.ndarray
    median: np.ndarray

    @classmethod
    def empty(cls, n: int, n_classes: int) -> "MultiplierCache":
        return cls(np.full((n, n_classes), np.nan), np.full(n_classes, np.nan))

    def starts(self, idx: np.ndarray, spread: np.ndarray) -> np.ndarray:
        """(n * C,) starting multipliers of rows idx at class spreads (C,).

        A row without kappa starts at its class median; NaN or 0, where the
        median or the spread is missing, makes the solver start at
        LAMBDA_INIT.
        """
        kappa = self.kappa[idx]
        return (np.where(np.isnan(kappa), self.median, kappa) * spread).reshape(-1)

    def update(self, idx: np.ndarray, lam_star: np.ndarray, spread: np.ndarray) -> None:
        """Record the (n, C) multipliers solved at class spreads (C,).

        Each class's median is np.median of its known kappa, bit for bit,
        from one sort of the batch: the known entries sort ahead of the
        NaNs, so a class with k of them has its median at (k - 1) // 2 and
        k // 2, the one entry when k is odd and the mean of the pair when
        it is even. A class with no known kappa keeps its median.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            kappa = np.where((lam_star > 0) & (spread > 0), lam_star / spread, np.nan)
        self.kappa[idx] = kappa
        known = np.count_nonzero(~np.isnan(kappa), axis=0)
        classes = np.flatnonzero(known)
        known = known[classes]
        ordered = np.sort(kappa, axis=0)
        upper = ordered[known // 2, classes]
        with np.errstate(over="ignore"):
            pair = (ordered[(known - 1) // 2, classes] + upper) / 2
        self.median[classes] = np.where(known % 2 == 1, upper, pair)


@dataclass
class ComponentTilts:
    """Gaussian-component tilts of N query rows toward C class priors.

    The priors share B components N(m_b, S_b) (shared_components). With
    the kernel exp(-|y - x|^2 / eps), component b tilted toward x is
    Gaussian with covariance S'_b = S_b (I + (2/eps) S_b)^-1 and mean
    m'_b(x) = (I + (2/eps) S_b)^-1 m_b + (2/eps) S'_b x, and its weight is
    multiplied by N(x; m_b, S_b + (eps/2) I). Stored, all computed once in
    build: the normalized tilt log-weights log_tilts (component b's log
    weight in class c plus that kernel's log at x, minus the log of the sum
    over b), the shrunk means (I + (2/eps) S_b)^-1 m_b (B, d) and S'
    (B, d, d). None of them depends on a head's parameters, so
    component_major(idx) only gathers rows idx of log_tilts, which is
    (N, B, C) so that each gathered row is one contiguous block. Every
    per-row quantity is elementwise or a sum along one row, never a BLAS
    product, so a row's bits do not depend on the rows it is built with.
    """

    log_tilts: np.ndarray
    shrunk_means: np.ndarray
    tilted_covs: np.ndarray
    epsilon: float

    @classmethod
    def build(cls, priors: list[MixturePrior], queries: np.ndarray,
              epsilon: float) -> "ComponentTilts":
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        means, covs = shared_components(priors)
        x = np.asarray(queries, dtype=float)
        dim = means.shape[1]
        if x.ndim != 2 or x.shape[1] != dim:
            raise ValueError("queries must be (n, d) matching the component dimension")
        widen = np.eye(dim) + (2.0 / epsilon) * covs
        shrunk_means = np.linalg.solve(widen, means[:, :, None])[:, :, 0]
        tilted = np.linalg.solve(widen, covs)
        tilted = 0.5 * (tilted + tilted.transpose(0, 2, 1))
        chol = np.linalg.cholesky(covs + (0.5 * epsilon) * np.eye(dim))
        whiten = np.linalg.inv(chol)
        log_det = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
        # squared norms (B, N) of the whitened differences: per component,
        # (d, N) whitened x - m_b built one coordinate at a time with the
        # rows innermost, each row's squares then summed over d in (N, d)
        sq_norms = np.empty((means.shape[0], x.shape[0]))
        for b in range(means.shape[0]):
            diff = x.T - means[b][:, None]
            white = whiten[b, :, :1] * diff[0]
            for e in range(1, dim):
                white += whiten[b, :, e:e + 1] * diff[e]
            white *= white
            sq_norms[b] = np.ascontiguousarray(white.T).sum(axis=1)
        log_kernel = -0.5 * (sq_norms + log_det[:, None] + dim * np.log(2.0 * np.pi))
        with np.errstate(divide="ignore"):
            log_weights = np.log(np.stack([p.weights for p in priors]))
        # (N, B, C), normalized over the components b of each (row, class)
        tilts = log_kernel.T[:, :, None] + log_weights.T[None]
        top = tilts.max(axis=1)[:, None]
        tilts -= top + np.log(sum_in_order(np.exp(tilts - top).transpose(1, 0, 2)))[:, None]
        return cls(tilts, shrunk_means, tilted, epsilon)

    def component_major(self, idx: np.ndarray) -> np.ndarray:
        """(B, C, n) normalized tilt log-weights of the query rows idx selects.

        When idx is every row in order the table itself is viewed, with no
        gather; any other idx, a full permutation too, gathers its rows.
        """
        rows = self.log_tilts
        if not (idx.size == rows.shape[0] and np.array_equal(idx, np.arange(idx.size))):
            rows = rows[idx]
        return rows.transpose(1, 2, 0)


def robust_scores_stacked(weights: np.ndarray, biases: np.ndarray,
                          features: np.ndarray, tilts: ComponentTilts,
                          idx: np.ndarray, dro_cfg: DroConfig,
                          lam_cache: MultiplierCache | None = None):
    """Dual solves for every (sample, class) of a batch in one call.

    features is the (N, d) array tilts was built on. With f = w_c . y + b_c
    and component b tilted toward x (ComponentTilts), the score has mean
    mu_b = w_c . m'_b(x) + b_c, affine in x, and variance v_b = w_c' S'_b
    w_c, which does not depend on x. The dual rows are laid out
    class-major: row c * n + i is sample idx[i] toward class c. The
    solver takes the rows' (n * C, B) means, with their variances as quad,
    as transposes of (B, n * C) arrays. lam_cache, when given, sets each
    row's starting multiplier (see MultiplierCache) and records the solved
    ones; without it every row is solved cold.

    Raises dro.DualConvergenceError when a row ends unconverged at the cap.

    Returns (values (n, C), lambda* (n, C), posteriors (C, n, B)).
    """
    n = idx.size
    n_classes, n_comp = weights.shape[0], tilts.log_tilts.shape[1]
    x = features[idx]
    # S'_b w_c, (B, C, d)
    spread_w = np.einsum("bde,ce->bcd", tilts.tilted_covs, weights)
    slope = (2.0 / tilts.epsilon) * spread_w
    # mu, (B, C, n): the offset w_c . shrunk mean + b_c, then the slope
    # against each coordinate of x in turn
    means = np.repeat((tilts.shrunk_means @ weights.T + biases)[:, :, None], n, axis=2)
    for j in range(x.shape[1]):
        means += slope[:, :, j, None] * x[:, j]
    quad = np.repeat(np.einsum("bcd,cd->bc", spread_w, weights), n, axis=1)
    rows = tilts.component_major(idx).reshape(n_comp, n_classes * n)
    lam0 = spread = None
    if lam_cache is not None:
        spread = np.linalg.norm(weights, axis=1)
        lam0 = lam_cache.starts(idx, spread).reshape(n, n_classes).T.reshape(-1)
    batch = solve_dual_batch(rows.T, means.reshape(n_comp, n_classes * n).T, dro_cfg,
                             lam_init=lam0, quad=quad.T)
    check_converged(batch, dro_cfg)
    lam_star = batch.lambda_star.reshape(n_classes, n).T
    if lam_cache is not None:
        lam_cache.update(idx, lam_star, spread)
    values = batch.value.reshape(n_classes, n).T
    posteriors = batch.posterior.reshape(n_classes, n, n_comp)
    return values, lam_star, posteriors


def robust_ce_objective_stacked(weights: np.ndarray, biases: np.ndarray,
                                features: np.ndarray, tilts: ComponentTilts,
                                idx: np.ndarray, labels: np.ndarray,
                                dro_cfg: DroConfig,
                                lam_cache: MultiplierCache | None = None):
    """Cross-entropy over robust scores; gradients through the envelope.

    With the dual multiplier held at its optimum, robust score c's
    gradient is sum_b p_b (m'_b(x) + t S'_b w_c) in w_c, with p the
    posterior over components and t = 1/(lambda* eps) (0 for a degenerate
    row, whose variances are 0), and 1 in b_c. The chain rule folds
    softmax-minus-onehot into the posteriors first, class by class, so
    the batch's rows meet the components in (C, B)-sized sums. Solving all
    classes of a batch in one dual call keeps the per-batch overhead flat
    in the class count.
    """
    values, lam_star, posteriors = robust_scores_stacked(
        weights, biases, features, tilts, idx, dro_cfg, lam_cache
    )
    loss, dv = _ce_batch(values, labels)
    with np.errstate(divide="ignore"):
        t = np.where(lam_star > 0, 1.0 / (lam_star * dro_cfg.epsilon), 0.0)
    folded = dv.T[:, :, None] * posteriors
    toward_x = (2.0 / tilts.epsilon) * np.einsum("cnb,nd->cbd", folded, features[idx])
    toward_w = np.einsum("cnb,nc->cb", folded, t)[:, :, None] * weights[:, None, :]
    grad_w = (folded.sum(axis=1) @ tilts.shrunk_means
              + np.einsum("cbd,bde->ce", toward_x + toward_w, tilts.tilted_covs))
    grad_b = dv.sum(axis=0)
    return loss, [grad_w, grad_b]


def train_pgdro_classifier(data: SupportSet, priors: list[MixturePrior],
                           cfg: TrainConfig, dro_cfg: DroConfig) -> TrainResult:
    """Minibatch descent on cross-entropy over per-class robust scores.

    data carries every labeled sample the robust loss sees; callers stack
    base samples with the target supports. The priors' Gaussian components
    and the tilt kernels toward every sample are parameter-free, so their
    ComponentTilts is built once up front; each batch then builds its own
    class-major tilts from it, solves the per-sample duals over the current
    head's component scores and chains softmax-minus-onehot through the
    envelope gradient. A MultiplierCache keeps each (row, class)
    multiplier over its class's weight norm, so a row's next solve starts
    at that ratio times the class's norm then and runs the dual's steps
    from there, however the score scale has grown. A dual row left
    unconverged stops training with dro.DualConvergenceError.
    """
    x = np.asarray(data.features, dtype=float)
    y = np.asarray(data.labels)
    n, _ = x.shape
    n_classes = len(priors)
    if y.max() >= n_classes:
        raise ValueError("labels exceed the number of priors")
    head = zero_head(n_classes, x.shape[1])
    params = [head.weights, head.biases]
    tilts = ComponentTilts.build(priors, x, dro_cfg.epsilon)
    lam_cache = MultiplierCache.empty(n, n_classes)

    def batch_fn(idx):
        return robust_ce_objective_stacked(
            params[0], params[1], x, tilts, idx, y[idx], dro_cfg, lam_cache
        )

    trace = _run_epochs(n, cfg, params, batch_fn)
    return TrainResult(head, trace)


def empirical_prior(features: np.ndarray) -> MixturePrior:
    """Class-agnostic reference: the observed points as uniformly weighted
    zero-covariance components."""
    x = np.asarray(features, dtype=float)
    n, d = x.shape
    return MixturePrior(np.full(n, 1.0 / n), x, np.zeros((n, d, d)))


@dataclass
class RobustClassifier:
    """Predicts with the per-class robust scores of a trained head."""

    head: LinearHead
    priors: list[MixturePrior]
    dro_cfg: DroConfig

    def decision_scores(self, features: np.ndarray) -> np.ndarray:
        """(n, C) robust scores from one cold dual call over every (row,
        class), laid out class-major as in training; each row's score
        depends on that row alone, bit for bit. A row left unconverged
        raises dro.DualConvergenceError."""
        x = np.atleast_2d(np.asarray(features, dtype=float))
        tilts = ComponentTilts.build(self.priors, x, self.dro_cfg.epsilon)
        values, _, _ = robust_scores_stacked(
            self.head.weights, self.head.biases, x, tilts, np.arange(x.shape[0]),
            self.dro_cfg)
        return values

    def predict(self, features: np.ndarray) -> np.ndarray:
        return np.argmax(self.decision_scores(features), axis=1)


def huber_objective(weights: np.ndarray, biases: np.ndarray, features: np.ndarray,
                    responses: np.ndarray, beta: float):
    """Mean Huber loss of an affine fit and its parameter gradients."""
    residual = responses - (features @ weights[0] + biases[0])
    value, deriv = huber(residual, beta)
    n = features.shape[0]
    return float(value.sum() / n), [
        -(deriv @ features)[None, :] / n,
        np.array([-deriv.sum() / n]),
    ]


def train_huber_head(features: np.ndarray, responses: np.ndarray,
                     cfg: TrainConfig) -> TrainResult:
    """Huber regression of an affine head on the given rows."""
    x = np.asarray(features, dtype=float)
    z = np.asarray(responses, dtype=float)
    head = zero_head(1, x.shape[1])
    params = [head.weights, head.biases]

    def batch_fn(idx):
        return huber_objective(params[0], params[1], x[idx], z[idx], cfg.huber_beta)

    trace = _run_epochs(x.shape[0], cfg, params, batch_fn)
    return TrainResult(head, trace)


def train_pgdro_regressor(data: SupportSet, responses: np.ndarray,
                          priors: list[MixturePrior], cfg: TrainConfig,
                          dro_cfg: DroConfig) -> TrainResult:
    """Huber fit plus a tilted worst-case penalty over each class prior.

    Per sample with latent class c the loss is

        H(z - f(x)) + penalty_weight * T * log E_{y ~ Q_x} exp(H(z - f(y)) / T)

    with Q_x the tilt of prior c toward x (ComponentTilts, built once per
    fit at dro_cfg.epsilon) and T the penalty temperature. dro_cfg.rho
    does not reach this loss: no dual is solved. The expectation is taken
    on Q_x's B Gaussian components, each integrated by QUAD_NODES
    probabilists' Gauss-Hermite nodes (robust_huber_objective has the
    estimator and its accuracy); the priors need shared components.
    """
    from numpy.polynomial.hermite_e import hermegauss

    x = np.asarray(data.features, dtype=float)
    y = np.asarray(data.labels)
    z = np.asarray(responses, dtype=float)
    if z.shape != (x.shape[0],):
        raise ValueError("responses must align with the feature rows")
    if y.max() >= len(priors):
        raise ValueError("labels exceed the number of priors")
    tilts = ComponentTilts.build(priors, x, dro_cfg.epsilon)
    # each sample's tilt log-weights toward its own class prior, (N, B)
    own = tilts.log_tilts[np.arange(x.shape[0]), :, y]
    nodes, node_weights = hermegauss(QUAD_NODES)
    quad = (nodes, np.log(node_weights / node_weights.sum()))
    head = zero_head(1, x.shape[1])
    params = [head.weights, head.biases]

    def batch_fn(idx):
        return robust_huber_objective(
            params[0], params[1], x[idx], z[idx], own[idx], tilts, quad, cfg
        )

    trace = _run_epochs(x.shape[0], cfg, params, batch_fn)
    return TrainResult(head, trace)


def robust_huber_objective(weights: np.ndarray, biases: np.ndarray,
                           features: np.ndarray, responses: np.ndarray,
                           log_tilts: np.ndarray, tilts: ComponentTilts, quad,
                           cfg: TrainConfig):
    """Mean Huber-plus-penalty loss and its parameter gradients.

    features, responses and log_tilts (n, B) are the batch's rows, each
    row's log_tilts its normalized tilt log-weights toward its own class
    prior; tilts supplies the components' shrunk means, tilted covariances
    S'_b and eps. Tilted component b maps u = w . y + b to the 1-D
    Gaussian N(mu_b, v_b), with mu_b = w . m'_b(x) + b and v_b = w' S'_b w,
    so the penalty's expectation is a sum over B components of a 1-D
    integral. quad = (t, log omega) holds K probabilists' Gauss-Hermite
    nodes and their log weights, normalized to sum to 1: u = mu_b +
    sqrt(v_b) t_k at weight p_b omega_k. A row's B * K cells take one exp,
    and the gradient is the reparametrised one, du/dw = m'_b(x) + t_k S'_b
    w / sqrt(v_b). The nodes are symmetric, so the node sum is even in
    sqrt(v_b) and its sqrt(v_b) term is exactly 0 at v_b = 0 (the zero
    head of the first batch, or zero-covariance components); it is set to
    0 there.

    Accuracy, on a 256-row batch of the paper-regression level-2, seed-0
    cell at |w| = 0.5: K = 16 gives the loss within 2.4e-7 relative of K =
    256 and a gradient entry within 7e-5; K = 8 is off by 3.5e-4 in the
    loss. 512 importance-weighted atoms per row, the estimator this
    replaced, read 1.4-2.2% low in value and 12-38% off in that gradient
    entry. At |w| = 2.7 (erm's slope) no estimator tried converges: K = 32
    is 14% low, since exp(H / T) at T = 0.1 moves the mass about 10
    sqrt(v_b) standard deviations into the tail. A non-finite penalty
    raises RuntimeError with the count of such rows and the first.
    """
    temp = cfg.penalty_temperature
    weight = cfg.penalty_weight
    n = features.shape[0]
    w = weights[0]
    residual = responses - (features @ w + biases[0])
    base_value, base_deriv = huber(residual, cfg.huber_beta)
    grad_w = -(base_deriv @ features)
    grad_b = -base_deriv.sum()
    nodes, log_omega = quad
    spread_w = tilts.tilted_covs @ w  # S'_b w, (B, d)
    scale = np.sqrt(spread_w @ w)  # sqrt(v_b), (B,)
    slope = (2.0 / tilts.epsilon) * spread_w
    means = features @ slope.T + (tilts.shrunk_means @ w + biases[0])  # mu, (n, B)
    # (n, B, K) cells: logits H / T + log p_b + log omega_k, exponentiated in place
    logits, deriv = huber((responses[:, None] - means)[:, :, None]
                          - scale[:, None] * nodes, cfg.huber_beta)
    logits /= temp
    logits += log_tilts[:, :, None]
    logits += log_omega
    cells = logits.reshape(n, -1)
    top = cells.max(axis=1)
    cells -= top[:, None]
    np.exp(cells, out=cells)
    norm = cells.sum(axis=1)
    log_norm = top + np.log(norm)
    bad = np.flatnonzero(~np.isfinite(log_norm))
    if bad.size:
        raise RuntimeError(f"non-finite robust penalty in {bad.size} of {n} rows, "
                           f"first at row {bad[0]}")
    # softmax times the Huber derivative, folded per (row, component)
    logits *= deriv
    logits /= norm[:, None, None]
    folded = logits.sum(axis=2)
    with np.errstate(divide="ignore"):
        inv_scale = np.where(scale > 0, 1.0 / scale, 0.0)
    along = (logits @ nodes).sum(axis=0) * inv_scale
    toward = (2.0 / tilts.epsilon) * (folded.T @ features) + along[:, None] * w
    total = folded.sum(axis=0)
    penalty_w = total @ tilts.shrunk_means + np.einsum("bde,be->d", tilts.tilted_covs, toward)
    grad_w += -weight * penalty_w
    grad_b += -weight * total.sum()
    loss = float((base_value.sum() + weight * temp * log_norm.sum()) / n)
    return loss, [grad_w[None, :] / n, np.array([grad_b / n])]
