"""Tests for heads, losses, training loops, and baseline equivalences."""

import math
from dataclasses import replace

import numpy as np
import pytest

import protodro.models as models
import protodro.sweeps as sweeps
from protodro.config import ExperimentConfig, GeneratorConfig
from protodro.dro import DroConfig
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
    stacked_atoms,
    train_ce_head,
    train_huber_head,
    train_pgdro_classifier,
    train_pgdro_regressor,
    train_saa,
)
from protodro.dro import gibbs_tilt_batch
from protodro.numkit import SeededRng
from protodro.priors import PriorConfig, SupportSet
from protodro.synthgen import ShiftSpec

from oracles import central_difference


def two_blob_data(rng, n_per=40, gap=4.0, dim=2):
    """Linearly separable two-class blobs."""
    a = rng.standard_normal((n_per, dim)) * 0.5
    b = rng.standard_normal((n_per, dim)) * 0.5 + gap
    features = np.vstack([a, b])
    labels = np.repeat([0, 1], n_per)
    return SupportSet(features=features, labels=labels)


def blob_priors(data, atoms_per=24, seed=3, lean=0.85):
    """Mixture priors sharing one atom pool, leaning toward each class.

    Mirrors the pipeline's structure: both priors weight the same draws
    from the two blob Gaussians, only the weights differ.
    """
    from protodro.numkit import GaussianParams, gaussian_sample
    from protodro.priors import MixturePrior

    draws = []
    for c in range(2):
        pts = data.features[data.labels == c]
        comp = GaussianParams(
            mean=pts.mean(axis=0), cov=np.cov(pts.T) + 1e-6 * np.eye(pts.shape[1])
        )
        draws.append(gaussian_sample(comp, atoms_per, SeededRng(seed, c)))
    atoms = np.vstack(draws)
    return [
        MixturePrior(weights=np.array([lean, 1.0 - lean]), atoms=atoms),
        MixturePrior(weights=np.array([1.0 - lean, lean]), atoms=atoms),
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
        atoms = stacked_atoms(priors)
        tilts = np.stack(
            [gibbs_tilt_batch(p, data.features, dro_cfg.epsilon) for p in priors], axis=1
        )
        idx = np.arange(data.features.shape[0])
        for trial in range(4):
            w = rng.standard_normal((2, 2)) * 0.3
            b = rng.standard_normal(2) * 0.3
            fd_objective_check(
                lambda W, B: robust_ce_objective_stacked(
                    W, B, atoms, tilts, idx, data.labels, dro_cfg, lam_cache=None
                ),
                w,
                b,
            )

    def test_robust_huber_objective_fd(self):
        rng = np.random.default_rng(31)
        data = two_blob_data(rng, n_per=6)
        priors = blob_priors(data, atoms_per=10)
        cfg = TrainConfig(penalty_weight=1.0, penalty_temperature=0.1)
        dro_cfg = DroConfig(epsilon=1.0)
        z = rng.standard_normal(data.features.shape[0])
        tilts = np.empty((data.features.shape[0], priors[0].atoms.shape[0]))
        for c, prior in enumerate(priors):
            rows = data.labels == c
            tilts[rows] = gibbs_tilt_batch(prior, data.features[rows], dro_cfg.epsilon)
        for trial in range(4):
            w = rng.standard_normal((1, 2)) * 0.3
            b = rng.standard_normal(1) * 0.3
            fd_objective_check(
                lambda W, B: robust_huber_objective(
                    W, B, data.features, z, data.labels, priors, tilts, cfg
                ),
                w,
                b,
            )


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
            TrainConfig(optimizer="momentum")
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

        def recording(weights, biases, atoms, tilts, idx, *args, **kwargs):
            sizes.append(idx.size)
            return real(weights, biases, atoms, tilts, idx, *args, **kwargs)

        monkeypatch.setattr(models, "robust_scores_stacked", recording)
        train_pgdro_classifier(data, priors, cfg, DroConfig())
        n = data.features.shape[0]
        assert sum(sizes) == cfg.epochs * n
        assert len(sizes) == cfg.epochs * math.ceil(n / cfg.batch_size)

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

    def test_zero_epochs(self):
        rng = np.random.default_rng(103)
        data = two_blob_data(rng, n_per=4)
        priors = blob_priors(data, atoms_per=6)
        result = train_pgdro_classifier(data, priors, TrainConfig(epochs=0), DroConfig())
        np.testing.assert_array_equal(result.head.weights, np.zeros((2, 2)))


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
            np.testing.assert_array_equal(prior.atoms, reference.atoms)
            np.testing.assert_array_equal(prior.atom_log_weights, reference.atom_log_weights)
            np.testing.assert_array_equal(prior.weights, reference.weights)
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
        # every prior atom sits exactly at the sample, so the penalty
        # log-mean-exp collapses and the first loss is (1 + weight) * Huber
        x = np.array([[1.0, -2.0]])
        z = np.array([3.0])
        data = SupportSet(features=x, labels=np.array([0]))
        from protodro.priors import MixturePrior

        prior = MixturePrior(weights=np.array([1.0]), atoms=np.tile(x, (5, 1)))
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

    def test_noiseless_linear_fit_recovers_slope(self):
        rng = np.random.default_rng(131)
        x = rng.standard_normal((400, 3))
        beta = np.array([1.0, -2.0, 0.5])
        z = x @ beta
        result = train_huber_head(x, z, TrainConfig(epochs=400, learning_rate=0.02))
        np.testing.assert_allclose(result.head.weights[0], beta, atol=0.05)
