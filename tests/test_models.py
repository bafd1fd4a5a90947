"""Tests for heads, losses, training loops, and baseline equivalences."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import protodro.models as models
import protodro.sweeps as sweeps
from protodro.config import ExperimentConfig, GeneratorConfig
from protodro import dro
from protodro.dro import BOUNDARY_NONE, DroConfig
from protodro.models import (
    LinearHead,
    RobustClassifier,
    TrainConfig,
    barycentric_transport,
    ce_objective,
    empirical_prior,
    huber,
    huber_objective,
    load_head,
    robust_ce_objective_stacked,
    robust_huber_objective,
    save_head,
    train_ce_head,
    train_huber_head,
    train_pgdro_classifier,
    train_pgdro_regressor,
    train_saa,
)
from protodro.dro import DualConvergenceError, gibbs_tilt_batch
from protodro.models import ComponentTilts
from protodro.numkit import SeededRng
from protodro.priors import MixturePrior, PriorConfig, SupportSet
from protodro.synthgen import ShiftSpec

from oracles import (
    central_difference,
    component_dual_value_oracle,
    huber_piecewise_oracle,
    minimize_dual_oracle,
    robust_huber_penalty_oracle,
)


def two_blob_data(rng, n_per=40, gap=4.0, dim=2):
    """Linearly separable two-class blobs."""
    a = rng.standard_normal((n_per, dim)) * 0.5
    b = rng.standard_normal((n_per, dim)) * 0.5 + gap
    features = np.vstack([a, b])
    labels = np.repeat([0, 1], n_per)
    return SupportSet(features=features, labels=labels)


def blob_priors(data, atoms_per=24, seed=3, lean=0.85):
    """Mixture priors over the two blob Gaussians, leaning toward each class.

    Mirrors the pipeline's structure: both priors share the components and
    the atoms drawn from them, only the weights differ.
    """
    from protodro.numkit import GaussianParams, gaussian_sample

    comps = []
    for c in range(2):
        pts = data.features[data.labels == c]
        comps.append(GaussianParams(
            mean=pts.mean(axis=0), cov=np.cov(pts.T) + 1e-6 * np.eye(pts.shape[1])
        ))
    atoms = np.vstack([gaussian_sample(comp, atoms_per, SeededRng(seed, c))
                       for c, comp in enumerate(comps)])
    means = np.stack([comp.mean for comp in comps])
    covs = np.stack([comp.cov for comp in comps])
    return [
        MixturePrior(np.array([lean, 1.0 - lean]), means, covs, atoms),
        MixturePrior(np.array([1.0 - lean, lean]), means, covs, atoms),
    ]


def flat(grads):
    return np.concatenate([g.ravel() for g in grads])


def fd_objective_check(objective, weights, biases, rel=1e-4):
    """Central-difference check of (loss, [gw, gb]) objectives."""
    loss, grads = objective(weights, biases)
    analytic = flat(grads)

    def loss_at(vec):
        w = vec[: weights.size].reshape(weights.shape)
        b = vec[weights.size :]
        return objective(w, b)[0]

    vec = np.concatenate([weights.ravel(), biases])
    numeric = central_difference(loss_at, vec, h=1e-5)
    scale = np.maximum(np.abs(numeric), 1e-6)
    worst = np.max(np.abs(analytic - numeric) / scale)
    assert worst <= rel, f"gradient mismatch {worst:.2e}"


def ce_of_scores(scores, true_class):
    """Cross-entropy of one score vector through ce_objective.

    Zero weights, the scores as biases and one zero feature row make the
    logits equal the scores, so the bias gradient is softmax minus one-hot.
    """
    v = np.asarray(scores, dtype=float)
    loss, grads = ce_objective(
        np.zeros((v.size, 1)), v, np.zeros((1, 1)), np.array([true_class])
    )
    return loss, grads[1]


class TestLosses:
    def test_ce_uniform_scores(self):
        loss, grad = ce_of_scores(np.zeros(2), 0)
        assert loss == pytest.approx(np.log(2.0))
        np.testing.assert_allclose(grad, [-0.5, 0.5])

    def test_ce_confident_correct_limit(self):
        loss, _ = ce_of_scores(np.array([60.0, 0.0, 0.0]), 0)
        assert loss == pytest.approx(0.0, abs=1e-20)

    def test_ce_gradient_sums_to_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            v = rng.standard_normal(6) * 3
            _, grad = ce_of_scores(v, int(rng.integers(6)))
            assert abs(grad.sum()) <= 1e-12

    def test_ce_gradient_matches_fd(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal(5)
        _, grad = ce_of_scores(v, 2)
        numeric = central_difference(lambda u: ce_of_scores(u, 2)[0], v)
        np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-9)

    def test_huber_hand_values(self):
        value, deriv = huber(np.array([0.5, 2.0, -2.0]), beta=1.0)
        np.testing.assert_allclose(value, [0.125, 1.5, 1.5])
        np.testing.assert_allclose(deriv, [0.5, 1.0, -1.0])

    def test_huber_continuous_at_knee(self):
        inner, _ = huber(np.array([1.0 - 1e-12]), beta=1.0)
        outer, _ = huber(np.array([1.0 + 1e-12]), beta=1.0)
        assert abs(inner[0] - outer[0]) < 1e-11

    def test_huber_derivative_matches_fd(self):
        rng = np.random.default_rng(9)
        r = rng.uniform(-3, 3, size=12)
        r = r[np.abs(np.abs(r) - 1.0) > 1e-3]  # keep away from the knee
        _, deriv = huber(r, beta=1.0)
        numeric = central_difference(lambda u: huber(u, 1.0)[0].sum(), r)
        np.testing.assert_allclose(deriv, numeric, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("beta", [1e-3, 0.1, 1.0, 7.0])
    def test_huber_bits_equal_the_piecewise_formula(self, beta):
        knee = [np.nextafter(beta, 0.0), beta, np.nextafter(beta, np.inf)]
        edges = np.array(
            [0.0, 5e-324, 3 * 5e-324, 2.2e-308, 1e300, np.inf] + knee + [-k for k in knee]
        )
        rng = np.random.default_rng(41)
        r = np.concatenate([
            edges, -edges,
            rng.standard_normal(20000) * 3 * beta,
            np.exp(rng.uniform(-740, 690, 20000)) * rng.choice([-1.0, 1.0], 20000),
        ])
        for grid in (r, r.reshape(-1, 2)):
            value, deriv = huber(grid, beta)
            want_value, want_deriv = huber_piecewise_oracle(grid, beta)
            assert value.tobytes() == want_value.tobytes()
            assert deriv.tobytes() == want_deriv.tobytes()
        for x in r[: 2 * edges.size]:
            value, deriv = huber(np.array(x), beta)
            want_value, want_deriv = huber_piecewise_oracle(x, beta)
            assert np.shape(value) == np.shape(deriv) == ()
            assert np.asarray(value).tobytes() == want_value.tobytes()
            assert np.asarray(deriv).tobytes() == want_deriv.tobytes()

    def test_huber_far_outside_the_knee_does_not_overflow(self):
        with np.errstate(over="raise"):
            value, deriv = huber(np.array([1e300]), 1.0)
        assert value[0] == 1e300 - 0.5
        assert deriv[0] == 1.0


class TestObjectiveGradients:
    def test_ce_objective_fd(self):
        rng = np.random.default_rng(21)
        for _ in range(6):
            n, d, c = 12, int(rng.integers(2, 6)), int(rng.integers(2, 5))
            x = rng.standard_normal((n, d))
            y = rng.integers(0, c, size=n)
            w = rng.standard_normal((c, d)) * 0.3
            b = rng.standard_normal(c) * 0.3
            fd_objective_check(lambda W, B: ce_objective(W, B, x, y), w, b)

    def test_huber_objective_fd(self):
        rng = np.random.default_rng(23)
        for _ in range(6):
            n, d = 15, int(rng.integers(2, 7))
            x = rng.standard_normal((n, d))
            z = rng.standard_normal(n) * 2
            w = rng.standard_normal((1, d)) * 0.4
            b = rng.standard_normal(1) * 0.4
            fd_objective_check(lambda W, B: huber_objective(W, B, x, z, 1.0), w, b)

    def test_robust_ce_objective_fd(self):
        rng = np.random.default_rng(29)
        data = two_blob_data(rng, n_per=6)
        priors = blob_priors(data, atoms_per=10)
        dro_cfg = DroConfig(rho=0.5, epsilon=1.0)
        tilts = ComponentTilts.build(priors, data.features, dro_cfg.epsilon)
        idx = np.arange(data.features.shape[0])
        for trial in range(4):
            w = rng.standard_normal((2, 2)) * 0.3
            b = rng.standard_normal(2) * 0.3
            fd_objective_check(
                lambda W, B: robust_ce_objective_stacked(
                    W, B, data.features, tilts, idx, data.labels, dro_cfg, lam_cache=None
                ),
                w,
                b,
            )

    def test_robust_huber_objective_fd(self):
        # the penalty's gradient is the exact derivative of its quadrature,
        # at w = 0 (every tilted score variance 0, the sqrt(v) term set to
        # 0) as well as away from it
        rng = np.random.default_rng(31)
        data = two_blob_data(rng, n_per=6)
        priors = blob_priors(data, atoms_per=10)
        cfg = TrainConfig(penalty_weight=1.0, penalty_temperature=0.1)
        z = rng.standard_normal(data.features.shape[0])
        tilts = ComponentTilts.build(priors, data.features, 1.0)
        log_tilts = tilts.log_tilts[np.arange(z.size), :, data.labels]
        for trial in range(5):
            w = np.zeros((1, 2)) if trial == 0 else rng.standard_normal((1, 2)) * 0.3
            b = rng.standard_normal(1) * 0.3
            # the batch is the rows in reverse, each with its own tilt row
            idx = np.arange(z.size)[::-1]
            fd_objective_check(
                lambda W, B: robust_huber_objective(
                    W, B, data.features[idx], z[idx], log_tilts[idx], tilts,
                    hermite_quad(models.QUAD_NODES), cfg
                ),
                w,
                b,
            )


def hermite_quad(k):
    """k probabilists' Gauss-Hermite nodes and log weights summing to 1."""
    from numpy.polynomial.hermite_e import hermegauss

    nodes, weights = hermegauss(k)
    return nodes, np.log(weights / weights.sum())


class TestRobustHuberPenalty:
    """robust_huber_objective on QUAD_NODES Gauss-Hermite nodes per tilted
    component against the per-row trapezoid oracle, at |w| <= 0.6."""

    N_COMP = 4

    def batch(self, n, seed=0, dim=3, size=0.6):
        """A batch toward components whose tilted covariances are those of
        class covariances with eigenvalues in [0.3, 1.5] at eps = 1, and a
        head of norm size."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, dim))
        z = rng.standard_normal(n) * 3
        shrunk = rng.standard_normal((self.N_COMP, dim))
        q, _ = np.linalg.qr(rng.standard_normal((self.N_COMP, dim, dim)))
        covs = (q * rng.uniform(0.3, 1.5, (self.N_COMP, 1, dim))) @ q.transpose(0, 2, 1)
        tilted = np.linalg.solve(np.eye(dim) + 2.0 * covs, covs)
        tilted = 0.5 * (tilted + tilted.transpose(0, 2, 1))
        log_tilts = np.log(rng.dirichlet(np.full(self.N_COMP, 0.5), size=n))
        w = rng.standard_normal((1, dim))
        w *= size / np.linalg.norm(w)
        b = rng.standard_normal(1) * 0.4
        return w, b, x, z, log_tilts, ComponentTilts(None, shrunk, tilted, 1.0)

    def check(self, w, b, x, z, log_tilts, tilts, weight):
        cfg = TrainConfig(penalty_weight=weight)
        loss, grads = robust_huber_objective(w, b, x, z, log_tilts, tilts,
                                             hermite_quad(models.QUAD_NODES), cfg)
        # tilted means m'_b(x_i) = shrunk mean + (2 / eps) S'_b x_i, row by row
        means = np.array([[m + 2.0 * cov @ xi for m, cov in
                           zip(tilts.shrunk_means, tilts.tilted_covs)] for xi in x])
        want_loss, want_grads = robust_huber_penalty_oracle(
            w, b, x, z, log_tilts, means, tilts.tilted_covs, cfg.huber_beta, weight,
            cfg.penalty_temperature)
        assert loss == pytest.approx(want_loss, rel=1e-6)
        for got, want in zip(grads, want_grads):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-3,
                                       atol=1e-3 * np.abs(want).max())

    @pytest.mark.parametrize("weight", [0.0, 2.0])
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 256, 300])
    def test_matches_the_per_row_oracle(self, n, weight):
        for size in (0.0, 0.3, 0.6):
            self.check(*self.batch(n, seed=n, size=size), weight)

    @pytest.mark.parametrize("weight", [0.0, 2.0])
    def test_dead_atoms_and_huge_residuals(self, weight):
        # components with log weight -inf in a row (every row keeps one) and
        # responses of +-1e6, far outside the Huber knee
        w, b, x, z, log_tilts, tilts = self.batch(135, seed=5)
        rng = np.random.default_rng(6)
        log_tilts[rng.random(log_tilts.shape) < 0.3] = -np.inf
        log_tilts[:, 0] = np.log(0.5)
        z[::5] = 1e6
        z[1::5] = -1e6
        self.check(w, b, x, z, log_tilts, tilts, weight)

    def test_zero_covariance_components_take_no_node_spread(self):
        # v_b = 0 for every head: each row's penalty is T log sum_b p_b
        # exp(H(z - w . m_b - b) / T), exactly what the oracle's point gives
        w, b, x, z, log_tilts, tilts = self.batch(40, seed=9)
        tilts.tilted_covs[:] = 0.0
        self.check(w, b, x, z, log_tilts, tilts, 2.0)

    @pytest.mark.parametrize("first", [0, 63, 64, 134])
    def test_infinite_response_fails_loudly(self, first):
        w, b, x, z, log_tilts, tilts = self.batch(135, seed=7)
        bad = [first] + [j for j in (first + 3, first + 64) if j < z.size]
        z[bad[0]] = np.inf
        z[bad[1:]] = -np.inf
        message = f"non-finite robust penalty in {len(bad)} of {z.size} rows, first at row {first}"
        with np.errstate(invalid="ignore"), pytest.raises(RuntimeError, match=message):
            robust_huber_objective(w, b, x, z, log_tilts, tilts,
                                   hermite_quad(models.QUAD_NODES), TrainConfig())


class TestHeadAndConfig:
    def test_head_validation(self):
        with pytest.raises(ValueError):
            LinearHead(np.zeros((2, 3)), np.zeros(3))
        with pytest.raises(ValueError):
            LinearHead(np.array([[np.inf, 0.0]]), np.zeros(1))

    def test_head_round_trip(self, tmp_path):
        head = LinearHead(np.array([[1.5, -2.0], [0.0, 3.25]]), np.array([0.5, -1.0]))
        path = tmp_path / "head.json"
        save_head(head, path, config_hash="abc123")
        loaded = load_head(path)
        np.testing.assert_array_equal(loaded.weights, head.weights)
        np.testing.assert_array_equal(loaded.biases, head.biases)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(penalty_temperature=0.0)


class TestErmFamily:
    def test_zero_epochs_returns_initial_head(self):
        rng = np.random.default_rng(41)
        data = two_blob_data(rng)
        result = train_ce_head(data.features, data.labels, 2, TrainConfig(epochs=0))
        np.testing.assert_array_equal(result.head.weights, np.zeros((2, 2)))
        assert result.loss_trace.size == 0

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(43)
        data = two_blob_data(rng)
        cfg = TrainConfig(epochs=5, seed=11)
        a = train_ce_head(data.features, data.labels, 2, cfg)
        b = train_ce_head(data.features, data.labels, 2, cfg)
        np.testing.assert_array_equal(a.head.weights, b.head.weights)
        np.testing.assert_array_equal(a.loss_trace, b.loss_trace)

    def test_separable_data_reaches_high_accuracy(self):
        rng = np.random.default_rng(47)
        data = two_blob_data(rng)
        result = train_ce_head(data.features, data.labels, 2,
                               TrainConfig(epochs=60, learning_rate=0.05))
        accuracy = np.mean(result.head.predict(data.features) == data.labels)
        assert accuracy >= 0.95

    def test_loss_descends(self):
        rng = np.random.default_rng(53)
        data = two_blob_data(rng)
        result = train_ce_head(data.features, data.labels, 2, TrainConfig(epochs=30))
        assert result.loss_trace[-1] <= result.loss_trace[0]

    def test_single_class_loss_vanishes(self):
        rng = np.random.default_rng(59)
        features = rng.standard_normal((30, 3))
        data = SupportSet(features=features, labels=np.zeros(30, dtype=int))
        result = train_ce_head(data.features, data.labels, 2,
                               TrainConfig(epochs=300, learning_rate=0.05))
        assert result.loss_trace[-1] < 0.05

    def test_fewshot_is_erm_on_supports(self):
        # the registry's erm, fewshot and ot entries are the same
        # cross-entropy head, on the source samples, on the target supports
        # and on the transported source samples
        cfg = ExperimentConfig(
            generator=GeneratorConfig(
                n_classes=3, dim=4, n_train=150, n_test=60,
                eig_low=0.3, eig_high=0.9,
            ),
            train=TrainConfig(epochs=8, batch_size=64),
        )
        pair = sweeps.make_pair(cfg, 1.0, 2)
        train = replace(cfg.train, seed=2)
        moved = SupportSet(
            barycentric_transport(pair.source, pair.target_train_supports),
            pair.source.labels,
        )
        for method, data in (("erm", pair.source),
                             ("fewshot", pair.target_train_supports),
                             ("ot", moved)):
            head, priors = sweeps.fit("classification", method, (pair,), cfg, 2)
            plain = train_ce_head(data.features, data.labels, 3, train)
            assert priors is None
            np.testing.assert_array_equal(head.weights, plain.head.weights)
            np.testing.assert_array_equal(head.biases, plain.head.biases)


class TestOtAdapt:
    def test_translation_recovered(self):
        rng = np.random.default_rng(67)
        shift = np.array([3.0, -1.0])
        src = two_blob_data(rng, n_per=60)
        tgt_features = src.features + shift
        k = 32
        pick = np.concatenate([np.flatnonzero(src.labels == c)[:k] for c in range(2)])
        supports = SupportSet(features=tgt_features[pick], labels=src.labels[pick])
        moved = barycentric_transport(src, supports, epsilon=0.2)
        for c in range(2):
            target_mean = tgt_features[src.labels == c].mean(axis=0)
            moved_mean = moved[src.labels == c].mean(axis=0)
            assert np.linalg.norm(moved_mean - target_mean) < 0.35

    def test_single_support_collapses_class(self):
        rng = np.random.default_rng(71)
        src = two_blob_data(rng, n_per=10)
        supports = SupportSet(
            features=np.array([[9.0, 9.0], [-5.0, -5.0]]), labels=np.array([0, 1])
        )
        moved = barycentric_transport(src, supports, epsilon=0.5)
        np.testing.assert_allclose(moved[src.labels == 0], 9.0, atol=1e-12)
        np.testing.assert_allclose(moved[src.labels == 1], -5.0, atol=1e-12)

    def test_missing_class_supports_error(self):
        rng = np.random.default_rng(73)
        src = two_blob_data(rng, n_per=8)
        supports = SupportSet(features=np.zeros((2, 2)), labels=np.array([0, 0]))
        with pytest.raises(ValueError, match="class 1"):
            barycentric_transport(src, supports)


class TestSaa:
    def test_equals_ce_on_seeded_gaussian_copies(self):
        # 64 copies of every support, shifted by the seed's N(0, 0.1^2) draws
        rng = np.random.default_rng(79)
        data = two_blob_data(rng, n_per=6)
        cfg = TrainConfig(epochs=10, seed=5)
        saa = train_saa(data, 2, cfg)
        n, d = data.features.shape
        noise = SeededRng(5, models._NOISE_STREAM).normal((64, n, d), std=0.1)
        augmented = (data.features[None, :, :] + noise).reshape(64 * n, d)
        ce = train_ce_head(augmented, np.tile(data.labels, 64), 2, cfg)
        np.testing.assert_array_equal(saa.head.weights, ce.head.weights)
        np.testing.assert_array_equal(saa.head.biases, ce.head.biases)
        np.testing.assert_array_equal(saa.loss_trace, ce.loss_trace)


class TestRobustClassifier:
    def test_training_separates_easy_blobs(self):
        rng = np.random.default_rng(89)
        data = two_blob_data(rng, n_per=8)
        priors = blob_priors(data)
        cfg = TrainConfig(epochs=200, learning_rate=1e-3)
        dro_cfg = DroConfig(rho=1.0, epsilon=1.0)
        result = train_pgdro_classifier(data, priors, cfg, dro_cfg)
        model = RobustClassifier(result.head, priors, dro_cfg)
        accuracy = np.mean(model.predict(data.features) == data.labels)
        assert accuracy >= 0.95

    def test_scores_only_the_training_batches(self, monkeypatch):
        # every robust score solved during training belongs to a minibatch:
        # one call per batch, each row once per epoch, no pass after the
        # last epoch
        rng = np.random.default_rng(91)
        data = two_blob_data(rng, n_per=20)
        priors = blob_priors(data, atoms_per=8)
        cfg = TrainConfig(epochs=3, batch_size=16)
        sizes = []
        real = models.robust_scores_stacked

        def recording(weights, biases, features, tilts, idx, *args, **kwargs):
            sizes.append(idx.size)
            return real(weights, biases, features, tilts, idx, *args, **kwargs)

        monkeypatch.setattr(models, "robust_scores_stacked", recording)
        train_pgdro_classifier(data, priors, cfg, DroConfig())
        n = data.features.shape[0]
        assert sum(sizes) == cfg.epochs * n
        assert len(sizes) == cfg.epochs * math.ceil(n / cfg.batch_size)

    def test_cached_rows_start_at_the_rescaled_multiplier(self, monkeypatch):
        # a head scaled by 3 scales each class's score means and weight norm
        # by 3 and the score variances by 9, so every cached row starts at
        # 3 x its last lambda*, which is the new lambda* (the dual is
        # homogeneous): one evaluation per row
        rng = np.random.default_rng(103)
        data = two_blob_data(rng, n_per=20)
        priors = blob_priors(data, atoms_per=12)
        dro_cfg = DroConfig(rho=0.5, epsilon=1.0)
        x = data.features
        tilts = ComponentTilts.build(priors, x, dro_cfg.epsilon)
        idx = np.arange(x.shape[0])
        w, b = rng.standard_normal((2, 2)), rng.standard_normal(2)
        cache = models.MultiplierCache.empty(idx.size, 2)
        calls, evaluated = [], []
        solve, component_terms = models.solve_dual_batch, dro._component_terms

        def recording(rows, f, cfg, lam_init=None, **kwargs):
            calls.append((lam_init, solve(rows, f, cfg, lam_init=lam_init, **kwargs)))
            return calls[-1][1]

        def counting(*args):
            evaluated.append(args[-2].size)  # the rows' lambdas
            return component_terms(*args)

        monkeypatch.setattr(models, "solve_dual_batch", recording)
        models.robust_scores_stacked(w, b, x, tilts, idx, dro_cfg, cache)
        first = calls[0][1]
        assert np.isnan(calls[0][0]).all()  # no multiplier yet: LAMBDA_INIT
        assert first.converged.all() and (first.boundary == BOUNDARY_NONE).all()
        assert not first.degenerate.any()
        monkeypatch.setattr(dro, "_component_terms", counting)
        models.robust_scores_stacked(3.0 * w, 3.0 * b, x, tilts, idx, dro_cfg, cache)
        np.testing.assert_allclose(calls[1][0], 3.0 * first.lambda_star, rtol=1e-12)
        assert evaluated == [2 * idx.size]
        assert calls[1][1].converged.all()

    def test_rows_without_a_multiplier_start_at_their_class_median(self):
        # a degenerate row (lambda* = 0) or a class without score spread
        # leaves no multiplier; such rows start at their class's median over
        # the last batch, and NaN (no median yet) means LAMBDA_INIT
        cache = models.MultiplierCache.empty(4, 2)
        assert np.isnan(cache.starts(np.arange(4), np.array([2.0, 1.0]))).all()
        lam_star = np.array([[1.0, 0.3], [3.0, 0.5], [0.0, 0.2]])
        cache.update(np.array([0, 1, 2]), lam_star, np.array([2.0, 0.0]))
        np.testing.assert_array_equal(cache.kappa[:3, 0], [0.5, 1.5, np.nan])
        assert np.isnan(cache.kappa[:, 1]).all()
        np.testing.assert_array_equal(cache.median, [1.0, np.nan])
        starts = cache.starts(np.array([3, 0]), np.array([4.0, 1.0]))
        np.testing.assert_array_equal(starts, [4.0, np.nan, 2.0, np.nan])

    def test_medians_equal_numpy_medians_bit_for_bit(self):
        # one sort per batch gives each class np.median of its known kappa:
        # odd and even counts, ties, one row, and a class with no known
        # kappa, which keeps the median it had
        rng = np.random.default_rng(239)
        parities = set()
        for n in (1, 2, 3, 4, 7, 8, 33, 256):
            lam_star = np.exp(2.0 * rng.standard_normal((n, 5)))
            lam_star[:, 1] = np.round(lam_star[:, 1], 1)
            lam_star[:, 2] = lam_star[0, 2]
            lam_star[rng.random((n, 5)) < 0.3] = 0.0
            lam_star[:, 4] = 0.0
            spread = np.exp(rng.standard_normal(5))
            cache = models.MultiplierCache.empty(n, 5)
            cache.median[:] = before = rng.random(5)
            cache.update(np.arange(n), lam_star, spread)
            for c in range(5):
                kappa = cache.kappa[:, c]
                known = kappa[~np.isnan(kappa)]
                want = np.median(known) if known.size else before[c]
                assert cache.median[c].tobytes() == np.float64(want).tobytes()
                parities.add(known.size % 2 if known.size else None)
        assert parities == {0, 1, None}

    def test_loss_descends(self):
        rng = np.random.default_rng(97)
        data = two_blob_data(rng, n_per=8)
        priors = blob_priors(data)
        result = train_pgdro_classifier(
            data, priors, TrainConfig(epochs=40), DroConfig()
        )
        assert result.loss_trace[-1] <= result.loss_trace[0]

    def test_deterministic(self):
        rng = np.random.default_rng(101)
        data = two_blob_data(rng, n_per=5)
        priors = blob_priors(data, atoms_per=8)
        cfg = TrainConfig(epochs=6, seed=7)
        a = train_pgdro_classifier(data, priors, cfg, DroConfig())
        b = train_pgdro_classifier(data, priors, cfg, DroConfig())
        np.testing.assert_array_equal(a.head.weights, b.head.weights)

    def test_priors_with_different_atoms_rejected(self):
        # equal-sized arrays are not enough: every class must score on the
        # same components in training and in prediction, and so must
        # regression
        rng = np.random.default_rng(105)
        data = two_blob_data(rng, n_per=4)
        priors = blob_priors(data, atoms_per=6)
        p = priors[1]
        moved_means = MixturePrior(p.weights, p.means[::-1], p.covs, p.atoms)
        moved_covs = MixturePrior(p.weights, p.means, 2.0 * p.covs, p.atoms)
        cfg = TrainConfig(epochs=1)
        head = train_pgdro_classifier(data, priors, cfg, DroConfig()).head
        for other in (moved_means, moved_covs):
            mixed = [priors[0], other]
            with pytest.raises(ValueError, match="components"):
                train_pgdro_classifier(data, mixed, cfg, DroConfig())
            with pytest.raises(ValueError, match="components"):
                RobustClassifier(head, mixed, DroConfig()).predict(data.features)
        with pytest.raises(ValueError, match="components"):
            train_pgdro_regressor(data, data.features[:, 0], [priors[0], moved_means],
                                  cfg, DroConfig())

    def test_zero_epochs(self):
        rng = np.random.default_rng(103)
        data = two_blob_data(rng, n_per=4)
        priors = blob_priors(data, atoms_per=6)
        result = train_pgdro_classifier(data, priors, TrainConfig(epochs=0), DroConfig())
        np.testing.assert_array_equal(result.head.weights, np.zeros((2, 2)))

    def test_training_never_holds_every_tilt(self):
        # the training tilts stay factored: one epoch's peak of traced
        # memory (numpy's buffers included) stays below the N * C * A
        # float64 tensor that would hold every row's tilt toward every
        # class's atoms
        rng = np.random.default_rng(107)
        n, n_classes, n_components, per_component, dim = 4000, 8, 8, 32, 5
        atoms = rng.standard_normal((n_components * per_component, dim))
        means = rng.standard_normal((n_components, dim))
        covs = np.stack([np.eye(dim) * s for s in rng.uniform(0.5, 2.0, n_components)])
        priors = [MixturePrior(rng.dirichlet(np.ones(n_components)), means, covs, atoms)
                  for _ in range(n_classes)]
        data = SupportSet(rng.standard_normal((n, dim)),
                          rng.integers(0, n_classes, n))
        tracemalloc.start()
        try:
            train_pgdro_classifier(data, priors, TrainConfig(epochs=1), DroConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n_classes * atoms.shape[0] * 8

    def test_unconverged_dual_rows_fail_training_and_predict(self):
        # one step per row leaves dual rows unconverged: the fit and the
        # robust predict stop with the dual's error instead of using them
        # (the zero head of the first batch makes every row degenerate)
        rng = np.random.default_rng(113)
        data = two_blob_data(rng, n_per=10)
        priors = blob_priors(data, atoms_per=8)
        capped = DroConfig(newton_iters=1)
        with pytest.raises(DualConvergenceError, match="unconverged after 1 steps"):
            train_pgdro_classifier(data, priors, TrainConfig(epochs=2), capped)
        head = train_pgdro_classifier(data, priors, TrainConfig(epochs=1), DroConfig()).head
        with pytest.raises(DualConvergenceError, match="unconverged after 1 steps"):
            RobustClassifier(head, priors, capped).predict(data.features)

    def test_a_row_scores_the_same_alone_and_in_the_batch(self, monkeypatch):
        # each row's score is its own, whether predict solves it alone or in
        # one dual call with every other row, split into blocks of at most
        # 150 rows of 2 components
        monkeypatch.setattr(dro, "BLOCK_BYTES", 8 * dro.COMPONENT_ARRAYS * 150 * 2)
        for n_rows, dim in [(640, 3), (257, 10)]:
            rng = np.random.default_rng(109)
            data = two_blob_data(rng, n_per=(n_rows + 1) // 2, dim=dim)
            priors = blob_priors(data, atoms_per=4)
            head = LinearHead(rng.standard_normal((2, dim)), rng.standard_normal(2))
            model = RobustClassifier(head, priors, DroConfig())
            x = data.features[:n_rows]
            batch = model.decision_scores(x)
            assert batch.shape == (n_rows, 2)
            for i in rng.choice(n_rows, 12, replace=False):
                assert model.decision_scores(x[i]).tobytes() == batch[i].tobytes()


def component_priors(rng, n_classes, n_comp, dim, zero_cov=False):
    """Class priors over shared random Gaussian components, one atom at
    each component's mean; zero_cov gives zero-covariance components, whose
    mixture is exactly those atoms."""
    means = 2.0 * rng.standard_normal((n_comp, dim))
    if zero_cov:
        covs = np.zeros((n_comp, dim, dim))
    else:
        a = rng.standard_normal((n_comp, dim, dim))
        covs = a @ a.transpose(0, 2, 1) / dim + 0.1 * np.eye(dim)
    weights = rng.dirichlet(np.ones(n_comp), size=n_classes)
    weights[0, 0] = 0.0
    weights[0] /= weights[0].sum()
    return [MixturePrior(w, means, covs, atoms=means) for w in weights]


class TestComponentScores:
    """Robust scores in closed form over the priors' Gaussian components."""

    def test_zero_covariance_components_match_the_atom_table(self):
        # zero-covariance components are atoms: over 20 random cases the
        # component path's values agree with the atom table path's (each
        # class's tilts from gibbs_tilt_batch, solved on that class's shared
        # (A,) scores) within 1e-12 relative and lambda* within 1e-10
        rng = np.random.default_rng(211)
        dro_cfg = DroConfig(rho=0.6, epsilon=0.8)
        for _ in range(20):
            n, n_classes, n_comp, dim = 12, 3, 5, 3
            priors = component_priors(rng, n_classes, n_comp, dim, zero_cov=True)
            x = 1.5 * rng.standard_normal((n, dim))
            scale = 10.0 ** rng.uniform(-1.0, 1.0)
            w = scale * rng.standard_normal((n_classes, dim))
            b = scale * rng.standard_normal(n_classes)
            idx = np.arange(n)
            tilts = ComponentTilts.build(priors, x, dro_cfg.epsilon)
            values, lam_star, _ = models.robust_scores_stacked(w, b, x, tilts, idx, dro_cfg)
            table = priors[0].atoms @ w.T + b
            for c, prior in enumerate(priors):
                atom = dro.solve_dual_batch(gibbs_tilt_batch(prior, x, dro_cfg.epsilon),
                                            table[:, c], dro_cfg)
                assert atom.converged.all()
                np.testing.assert_allclose(values[:, c], atom.value,
                                           rtol=1e-12, atol=1e-12 * np.abs(values).max())
                np.testing.assert_allclose(lam_star[:, c], atom.lambda_star, rtol=1e-10)

    def test_scores_match_the_component_oracle(self):
        # full covariances: each robust score and its lambda* against the
        # oracle's grid-and-golden minimum of the closed form, written with
        # explicit inverses and determinants
        rng = np.random.default_rng(223)
        dro_cfg = DroConfig(rho=0.8, epsilon=1.3)
        priors = component_priors(rng, 2, 3, 3)
        x = 1.5 * rng.standard_normal((4, 3))
        w, b = rng.standard_normal((2, 3)), rng.standard_normal(2)
        tilts = ComponentTilts.build(priors, x, dro_cfg.epsilon)
        values, lam_star, _ = models.robust_scores_stacked(
            w, b, x, tilts, np.arange(4), dro_cfg)
        p = priors[0]
        for i in range(4):
            for c in range(2):
                lam_o, val_o = minimize_dual_oracle(
                    lambda lam: component_dual_value_oracle(
                        priors[c].weights, p.means, p.covs, x[i], w[c], b[c], lam,
                        dro_cfg.rho, dro_cfg.epsilon), grid=800)
                assert values[i, c] == pytest.approx(val_o, rel=1e-10)
                assert lam_star[i, c] == pytest.approx(lam_o, abs=1e-5)

    def test_batch_tilts_equal_tilts_built_on_the_batch_alone(self):
        # the tilts are normalized once for all N rows; a batch's rows are
        # the bytes a ComponentTilts built on those rows alone gives
        rng = np.random.default_rng(229)
        priors = component_priors(rng, 4, 6, 3)
        x = 1.5 * rng.standard_normal((300, 3))
        full = ComponentTilts.build(priors, x, 0.9)
        for idx in (rng.permutation(300)[:64], np.array([17]), np.arange(300)[::-1]):
            got = full.component_major(idx)
            want = ComponentTilts.build(priors, x[idx], 0.9).component_major(np.arange(idx.size))
            assert got.shape == (6, 4, idx.size)
            assert got.tobytes() == want.tobytes()
        assert np.isneginf(got[0, 0]).all()  # class 0 gives component 0 no weight

    def test_every_row_in_order_is_viewed_and_any_other_batch_gathered(self):
        # predict's batch, every row in order, views the tilt table with no
        # gather; a full permutation, a training batch when batch_size >= N,
        # still gathers its rows
        rng = np.random.default_rng(231)
        priors = component_priors(rng, 4, 6, 3)
        x = 1.5 * rng.standard_normal((300, 3))
        full = ComponentTilts.build(priors, x, 0.9)
        every = full.component_major(np.arange(300))
        assert np.shares_memory(every, full.log_tilts)
        assert every.tobytes() == full.log_tilts.transpose(1, 2, 0).tobytes()
        perm = rng.permutation(300)
        shuffled = full.component_major(perm)
        assert not np.shares_memory(shuffled, full.log_tilts)
        assert shuffled.tobytes() == every[:, :, perm].tobytes()

    def test_predict_scores_have_the_bytes_of_a_permuted_batch(self):
        # each row's predict score has the bytes the same row gets in a
        # batch that is a full permutation of the rows, which gathers its
        # tilts; predict's own batch (every row in order) gathers none
        rng = np.random.default_rng(233)
        dro_cfg = DroConfig(rho=0.8, epsilon=1.1)
        priors = component_priors(rng, 3, 5, 4)
        x = 1.5 * rng.standard_normal((200, 4))
        head = LinearHead(rng.standard_normal((3, 4)), rng.standard_normal(3))
        scores = RobustClassifier(head, priors, dro_cfg).decision_scores(x)
        tilts = ComponentTilts.build(priors, x, dro_cfg.epsilon)
        perm = rng.permutation(200)
        values, _, _ = models.robust_scores_stacked(
            head.weights, head.biases, x, tilts, perm, dro_cfg)
        assert values.tobytes() == scores[perm].tobytes()

    def test_atom_estimates_converge_on_the_closed_form(self):
        # in d = 2, phi(3) from A seeded draws per component (the atom
        # tilt and the table evaluator) approaches the closed form at about
        # A^-1/2: the rms error over 8 draws falls by a factor near 10 from
        # 10^3 to 10^5 atoms per component
        rng = np.random.default_rng(227)
        cfg = DroConfig(rho=1.0, epsilon=1.0)
        prior = component_priors(rng, 1, 3, 2)[0]
        x, w, b, lam = np.array([0.5, -0.3]), np.array([0.8, -0.6]), 0.2, 3.0
        exact = component_dual_value_oracle(prior.weights, prior.means, prior.covs,
                                            x, w, b, lam, cfg.rho, cfg.epsilon)
        chol = np.linalg.cholesky(prior.covs)
        rms = []
        for per_component in (1000, 10_000, 100_000):
            errors = []
            for draw in range(8):
                z = np.random.default_rng([draw, per_component]).standard_normal(
                    (3, per_component, 2))
                atoms = (prior.means[:, None, :] + z @ chol.transpose(0, 2, 1)).reshape(-1, 2)
                atom_prior = MixturePrior(prior.weights, prior.means, prior.covs, atoms)
                tilt = gibbs_tilt_batch(atom_prior, x[None, :], cfg.epsilon)
                phi = dro._table_terms(tilt, dro._ScoreTable.build((atoms @ w + b)[None]),
                                       np.array([0]), np.array([lam]), cfg)[0][0]
                errors.append(phi - exact)
            rms.append(float(np.sqrt(np.mean(np.square(errors)))))
        assert rms[2] < rms[1] < rms[0]
        assert rms[0] / rms[2] > 4.0
        assert rms[2] < 0.05 * abs(exact)


class TestWdro:
    def test_equals_adaptive_machinery_on_same_atoms(self):
        cfg = ExperimentConfig(
            generator=GeneratorConfig(
                n_classes=3, dim=4, n_train=150, n_test=60,
                eig_low=0.3, eig_high=0.9,
            ),
            shift=ShiftSpec(lambda_mean=1.0, lambda_cov=0.0),
            prior=PriorConfig(atoms_per_component=4),
            dro=DroConfig(rho=0.8),
            train=TrainConfig(epochs=12, batch_size=64),
            methods=("wdro",),
            seeds=(3,),
            levels=(1.0,),
        )
        pair = sweeps.make_pair(cfg, 1.0, 3)
        head, priors = sweeps.fit("classification", "wdro", (pair,), cfg, 3)
        supports = pair.target_train_supports
        reference = empirical_prior(supports.features)
        assert len(priors) == cfg.generator.n_classes
        for prior in priors:
            np.testing.assert_array_equal(prior.means, reference.means)
            np.testing.assert_array_equal(prior.covs, reference.covs)
            np.testing.assert_array_equal(prior.weights, reference.weights)
            assert prior.atoms is None
        adaptive = train_pgdro_classifier(
            supports, [reference] * cfg.generator.n_classes,
            replace(cfg.train, seed=3), cfg.dro,
        )
        np.testing.assert_array_equal(head.weights, adaptive.head.weights)
        np.testing.assert_array_equal(head.biases, adaptive.head.biases)

    def test_vanishing_radius_approaches_plain_logits(self):
        # with a tiny ball and a sharply concentrated tilt, the robust
        # score of a support point collapses onto its own affine score
        rng = np.random.default_rng(109)
        data = two_blob_data(rng, n_per=6)
        erm = train_ce_head(data.features, data.labels, 2, TrainConfig(epochs=30))
        reference = empirical_prior(data.features)
        tight = DroConfig(rho=1e-8, epsilon=1e-3)
        model = RobustClassifier(erm.head, [reference, reference], tight)
        robust = model.decision_scores(data.features)
        plain = erm.head.decision_scores(data.features)
        np.testing.assert_allclose(robust, plain, atol=1e-3)


class TestRobustRegressor:
    def test_zero_weight_is_plain_huber(self):
        rng = np.random.default_rng(113)
        data = two_blob_data(rng, n_per=6)
        z = rng.standard_normal(data.features.shape[0])
        priors = blob_priors(data, atoms_per=8)
        cfg = TrainConfig(epochs=10, penalty_weight=0.0)
        robust = train_pgdro_regressor(data, z, priors, cfg, DroConfig())
        plain = train_huber_head(data.features, z, cfg)
        np.testing.assert_array_equal(robust.head.weights, plain.head.weights)
        np.testing.assert_array_equal(robust.loss_trace, plain.loss_trace)

    def test_atoms_at_sample_make_penalty_equal_base(self):
        # the prior is one zero-covariance component at the sample, so its
        # tilt is the sample itself, every node sits there and the first
        # loss is (1 + weight) * Huber
        x = np.array([[1.0, -2.0]])
        z = np.array([3.0])
        data = SupportSet(features=x, labels=np.array([0]))
        prior = MixturePrior(np.array([1.0]), x, np.zeros((1, 2, 2)))
        weight = 0.7
        cfg = TrainConfig(epochs=1, penalty_weight=weight, batch_size=1)
        result = train_pgdro_regressor(data, z, [prior], cfg, DroConfig())
        base = huber(np.array([3.0]), cfg.huber_beta)[0][0]
        assert result.loss_trace[0] == pytest.approx((1.0 + weight) * base, rel=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(127)
        data = two_blob_data(rng, n_per=5)
        z = rng.standard_normal(data.features.shape[0])
        priors = blob_priors(data, atoms_per=6)
        cfg = TrainConfig(epochs=5, seed=9)
        a = train_pgdro_regressor(data, z, priors, cfg, DroConfig())
        b = train_pgdro_regressor(data, z, priors, cfg, DroConfig())
        np.testing.assert_array_equal(a.head.weights, b.head.weights)

    def test_head_does_not_depend_on_the_atom_seed(self):
        # the penalty reads the priors' components, never their atoms
        cfg = ExperimentConfig(
            task="regression",
            generator=GeneratorConfig(n_classes=3, dim=4, n_train=150, n_test=60),
            prior=PriorConfig(atoms_per_component=8),
            train=TrainConfig(epochs=3, batch_size=64),
        )
        pair = sweeps.make_pair(cfg, 1.0, 2)
        task = sweeps.make_task(cfg, pair, 2)
        _, data = sweeps._pgdro_inputs(pair, cfg)
        responses = np.concatenate([task.source_responses, task.support_responses])
        atoms, heads = [], []
        for atom_seed in (0, 1):
            priors = sweeps.build_adapted_priors(pair, replace(cfg.prior, atom_seed=atom_seed))
            atoms.append(priors[0].atoms)
            heads.append(train_pgdro_regressor(data, responses, priors, cfg.train, cfg.dro).head)
        assert not np.array_equal(*atoms)
        assert heads[0].weights.tobytes() == heads[1].weights.tobytes()
        assert heads[0].biases.tobytes() == heads[1].biases.tobytes()

    def test_noiseless_linear_fit_recovers_slope(self):
        rng = np.random.default_rng(131)
        x = rng.standard_normal((400, 3))
        beta = np.array([1.0, -2.0, 0.5])
        z = x @ beta
        result = train_huber_head(x, z, TrainConfig(epochs=400, learning_rate=0.02))
        np.testing.assert_allclose(result.head.weights[0], beta, atol=0.05)
