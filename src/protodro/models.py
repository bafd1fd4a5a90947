"""Linear predictors and every training objective in the benchmark.

One linear head type serves classification (C rows of weights) and
regression (a single row). Training objectives:

  * robust classifier: softmax cross-entropy over per-class robust
    scores, gradients chained through the dual envelope
  * robust regressor: Huber loss plus a tilted log-mean-exp penalty over
    the sample's class prior
  * baselines: `train_ce_head` and `train_huber_head` fit plain affine
    heads to whatever rows a method hands them (source samples, supports,
    or source features moved by `barycentric_transport`); SAA adds seeded
    noise copies of the supports; the fixed-reference robust baseline
    trains the robust classifier on `empirical_prior` atoms. The method
    registry in sweeps chooses each method's rows.

All loops are plain minibatch Adam over numpy arrays, deterministic under
a fixed seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dro import LAMBDA_INIT, DroConfig, gibbs_tilt_batch, solve_dual_batch
from .numkit import SeededRng, log_sum_exp, sq_distances
from .priors import MixturePrior, SupportSet, shared_atoms
from .sinkhorn import OtProblem, solve_entropic_ot

_SHUFFLE_STREAM = 101
_NOISE_STREAM = 202
SAA_NOISE_SCALE = 0.1
SAA_NOISE_DRAWS = 64
# RobustClassifier scores this many rows per dual call, which bounds the
# (rows * classes, atoms) workspace
_PREDICT_CHUNK = 1024


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

    Quadratic r^2/2 inside |r| <= beta, linear beta(|r| - beta/2) outside.
    """
    r = np.asarray(residuals, dtype=float)
    a = np.abs(r)
    inside = a <= beta
    value = np.where(inside, 0.5 * r * r, beta * (a - 0.5 * beta))
    deriv = np.where(inside, r, beta * np.sign(r))
    return value, deriv


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
                          epsilon: float = 0.2, tol: float = 1e-5,
                          max_iters: int = 20000) -> np.ndarray:
    """Map each source point onto the coupling-weighted support average.

    One entropic OT problem per class between that class's source samples
    and its target supports, uniform marginals on both sides. The plan is
    row-normalized before projecting, so the default tolerance is looser
    than the solver's: small epsilon against wide clouds converges slowly
    and the projection only needs row-relative mass.
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
        plan = solve_entropic_ot(problem, tol=tol, max_iters=max_iters).plan
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


def _class_tilts(priors: list[MixturePrior], x: np.ndarray, epsilon: float) -> np.ndarray:
    """(n, C, A) tilt log-weights, filled class by class: no stacked copy."""
    tilts = np.empty((x.shape[0], len(priors), priors[0].atoms.shape[0]))
    for c, prior in enumerate(priors):
        tilts[:, c] = gibbs_tilt_batch(prior, x, epsilon)
    return tilts


def robust_scores_stacked(weights: np.ndarray, biases: np.ndarray,
                          atoms: np.ndarray, tilts: np.ndarray,
                          idx: np.ndarray, dro_cfg: DroConfig,
                          lam_cache: np.ndarray | None = None):
    """Dual solves for every (sample, class) of a batch in one call.

    atoms is the (A, d) array every class prior shares (shared_atoms) and
    tilts the (N, C, A) normalized tilt log-weights; idx selects the batch
    rows. lam_cache (N, C), when given, warm-starts each row's bracket and
    is updated in place with the solved multipliers.

    Returns (values (n, C), posteriors (n, C, A)).
    """
    n = idx.size
    n_classes, n_atoms = weights.shape[0], atoms.shape[0]
    scores = np.einsum("ad,cd->ca", atoms, weights) + biases[:, None]
    rows = tilts[idx].reshape(n * n_classes, n_atoms)
    flat = np.broadcast_to(scores[None], (n, n_classes, n_atoms)).reshape(-1, n_atoms)
    lam0 = None if lam_cache is None else lam_cache[idx].reshape(-1)
    batch = solve_dual_batch(rows, flat, dro_cfg, lam_init=lam0)
    if lam_cache is not None:
        lam_cache[idx] = batch.lambda_star.reshape(n, n_classes)
    values = batch.value.reshape(n, n_classes)
    posteriors = batch.posterior.reshape(n, n_classes, n_atoms)
    return values, posteriors


def robust_ce_objective_stacked(weights: np.ndarray, biases: np.ndarray,
                                atoms: np.ndarray, tilts: np.ndarray,
                                idx: np.ndarray, labels: np.ndarray,
                                dro_cfg: DroConfig,
                                lam_cache: np.ndarray | None = None):
    """Cross-entropy over robust scores; gradients through the envelope.

    With the dual multiplier held at its optimum each robust score's
    parameter gradient is the posterior-weighted atom average, so the
    chain rule folds softmax-minus-onehot into those averages. Solving all
    classes of a batch in one dual call keeps the per-batch overhead flat
    in the class count.
    """
    values, posteriors = robust_scores_stacked(
        weights, biases, atoms, tilts, idx, dro_cfg, lam_cache
    )
    loss, dv = _ce_batch(values, labels)
    folded = np.einsum("nc,nca->ca", dv, posteriors)
    grad_w = np.einsum("ca,ad->cd", folded, atoms)
    grad_b = dv.sum(axis=0)
    return loss, [grad_w, grad_b]


def train_pgdro_classifier(data: SupportSet, priors: list[MixturePrior],
                           cfg: TrainConfig, dro_cfg: DroConfig) -> TrainResult:
    """Minibatch descent on cross-entropy over per-class robust scores.

    data carries every labeled sample the robust loss sees; callers stack
    base samples with the target supports. The Gibbs tilts are
    parameter-free, so they are computed once up front; each batch then
    solves the per-sample duals with the current atom scores (multipliers
    warm-started across epochs) and chains softmax-minus-onehot through
    the envelope gradient.
    """
    x = np.asarray(data.features, dtype=float)
    y = np.asarray(data.labels)
    n, _ = x.shape
    n_classes = len(priors)
    if y.max() >= n_classes:
        raise ValueError("labels exceed the number of priors")
    head = zero_head(n_classes, x.shape[1])
    params = [head.weights, head.biases]
    atoms = shared_atoms(priors)
    tilts = _class_tilts(priors, x, dro_cfg.epsilon)
    lam_cache = np.full((n, n_classes), LAMBDA_INIT)

    def batch_fn(idx):
        return robust_ce_objective_stacked(
            params[0], params[1], atoms, tilts, idx, y[idx], dro_cfg, lam_cache
        )

    trace = _run_epochs(n, cfg, params, batch_fn)
    return TrainResult(head, trace)


def empirical_prior(features: np.ndarray) -> MixturePrior:
    """Class-agnostic reference: uniform atoms at the observed points."""
    return MixturePrior(weights=np.array([1.0]), atoms=features)


@dataclass
class RobustClassifier:
    """Predicts with the per-class robust scores of a trained head."""

    head: LinearHead
    priors: list[MixturePrior]
    dro_cfg: DroConfig

    def decision_scores(self, features: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(features, dtype=float))
        atoms = shared_atoms(self.priors)
        values = np.empty((x.shape[0], len(self.priors)))
        for start in range(0, x.shape[0], _PREDICT_CHUNK):
            block = x[start : start + _PREDICT_CHUNK]
            tilts = _class_tilts(self.priors, block, self.dro_cfg.epsilon)
            block_values, _ = robust_scores_stacked(
                self.head.weights, self.head.biases, atoms, tilts,
                np.arange(block.shape[0]), self.dro_cfg,
            )
            values[start : start + block.shape[0]] = block_values
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

    with Q_x the Gibbs tilt of prior c toward x and T the penalty
    temperature; the penalty gradient uses the tilted-softmax weights.
    """
    x = np.asarray(data.features, dtype=float)
    y = np.asarray(data.labels)
    z = np.asarray(responses, dtype=float)
    if z.shape != (x.shape[0],):
        raise ValueError("responses must align with the feature rows")
    if y.max() >= len(priors):
        raise ValueError("labels exceed the number of priors")
    atoms = shared_atoms(priors)
    head = zero_head(1, x.shape[1])
    params = [head.weights, head.biases]
    # tilt of each sample toward its own class prior, parameter-free
    tilts = np.empty((x.shape[0], atoms.shape[0]))
    for c, prior in enumerate(priors):
        rows = y == c
        if rows.any():
            tilts[rows] = gibbs_tilt_batch(prior, x[rows], dro_cfg.epsilon)

    def batch_fn(idx):
        return robust_huber_objective(
            params[0], params[1], x[idx], z[idx], y[idx], atoms, tilts[idx], cfg
        )

    trace = _run_epochs(x.shape[0], cfg, params, batch_fn)
    return TrainResult(head, trace)


def robust_huber_objective(weights: np.ndarray, biases: np.ndarray,
                           features: np.ndarray, responses: np.ndarray,
                           labels: np.ndarray, atoms: np.ndarray,
                           tilts: np.ndarray, cfg: TrainConfig):
    """Mean Huber-plus-penalty loss and its parameter gradients.

    atoms is the (A, d) array every class prior shares (shared_atoms);
    tilts must hold each row's tilt toward its own class prior over them.
    The penalty softmax reweights those tilts by exp(Huber / temperature).
    """
    temp = cfg.penalty_temperature
    weight = cfg.penalty_weight
    n = features.shape[0]
    residual = responses - (features @ weights[0] + biases[0])
    base_value, base_deriv = huber(residual, cfg.huber_beta)
    grad_w = -(base_deriv @ features)
    grad_b = -base_deriv.sum()
    atom_fit = atoms @ weights[0] + biases[0]
    penalty_total = 0.0
    for c in np.unique(labels):
        rows = np.flatnonzero(labels == c)
        atom_residual = responses[rows, None] - atom_fit[None, :]
        atom_value, atom_deriv = huber(atom_residual, cfg.huber_beta)
        logits = tilts[rows] + atom_value / temp
        log_norm = log_sum_exp(logits, axis=1)
        if not np.all(np.isfinite(log_norm)):
            raise RuntimeError("non-finite robust penalty")
        penalty_total += temp * log_norm.sum()
        soft = np.exp(logits - log_norm[:, None])
        folded = (soft * atom_deriv).sum(axis=0)
        grad_w += -weight * (folded @ atoms)
        grad_b += -weight * folded.sum()
    loss = float((base_value.sum() + weight * penalty_total) / n)
    return loss, [grad_w[None, :] / n, np.array([grad_b / n])]
