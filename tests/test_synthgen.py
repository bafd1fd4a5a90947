"""Benchmark generator: geometry, shift semantics, serialization."""

import numpy as np
import pytest

from protodro.models import TrainConfig, train_ce_head
from protodro.numkit import SeededRng, cholesky_psd
from protodro.synthgen import (
    DomainPair,
    RegressionTask,
    ShiftSpec,
    load_dataset,
    make_domain_pair,
    make_regression,
    make_source,
    make_target,
    make_target_params,
    sample_supports,
    save_dataset,
)


def small_pair(seed=0, spec=None, n_classes=4, dim=6, n_train=800, n_test=600):
    spec = spec or ShiftSpec(lambda_mean=1.0, lambda_cov=1.0)
    return make_domain_pair(n_classes, dim, n_train, n_test, spec, SeededRng(seed, 7))


class TestShiftSpec:
    def test_effective_scale_floors_at_one(self):
        assert ShiftSpec(lambda_cov=0.0).effective_cov_scale == 1.0
        assert ShiftSpec(lambda_cov=0.5).effective_cov_scale == 1.0
        assert ShiftSpec(lambda_cov=3.0).effective_cov_scale == 3.0

    def test_regression_floor(self):
        spec = ShiftSpec(lambda_cov=0.0, cov_scale_floor=1.15)
        assert spec.effective_cov_scale == 1.15

    def test_identity_detection(self):
        assert ShiftSpec(lambda_mean=0.0, lambda_cov=0.0, rotation_deg=0.0).is_identity()
        assert not ShiftSpec(lambda_mean=1.0, rotation_deg=0.0).is_identity()

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ShiftSpec(lambda_cov=-0.1)
        with pytest.raises(ValueError):
            ShiftSpec(mean_shift_magnitude=-1.0)
        with pytest.raises(ValueError):
            ShiftSpec(dirichlet_target=0.0)
        with pytest.raises(ValueError):
            ShiftSpec(cov_scale_floor=0.0)


class TestMakeSource:
    def test_shapes_and_counts(self):
        params, data, props = make_source(8, 10, 6000, SeededRng(0, 1))
        assert len(params) == 8
        assert data.features.shape == (6000, 10)
        assert data.labels.shape == (6000,)
        assert props.shape == (8,)
        assert abs(props.sum() - 1.0) < 1e-12
        counts = np.bincount(data.labels, minlength=8)
        assert counts.min() >= 2

    def test_determinism(self):
        a = make_source(5, 8, 500, SeededRng(3, 1))
        b = make_source(5, 8, 500, SeededRng(3, 1))
        assert np.array_equal(a[1].features, b[1].features)
        assert np.array_equal(a[2], b[2])
        for pa, pb in zip(a[0], b[0]):
            assert np.array_equal(pa.mean, pb.mean)
            assert np.array_equal(pa.cov, pb.cov)

    def test_mean_separation_floor(self):
        for seed in range(10):
            params, _, _ = make_source(8, 10, 100, SeededRng(seed, 1), separation=2.0)
            means = np.stack([p.mean for p in params])
            diff = means[:, None, :] - means[None, :, :]
            dist = np.sqrt((diff**2).sum(axis=2))
            dist[np.diag_indices(8)] = np.inf
            assert dist.min() >= 2.0

    def test_covariances_are_psd_without_ridge(self):
        params, _, _ = make_source(6, 10, 100, SeededRng(2, 1))
        for p in params:
            factor = cholesky_psd(p.cov, ridge=0.0)
            assert factor.delta == 0.0

    def test_covariance_eigenvalues_bounded(self):
        params, _, _ = make_source(6, 10, 100, SeededRng(4, 1), eig_range=(0.4, 1.2))
        for p in params:
            eig = np.linalg.eigvalsh(p.cov)
            assert eig.min() >= 0.4 - 1e-9
            assert eig.max() <= 1.2 + 1e-9

    def test_class_means_match_params(self):
        # sample mean of each class lands within a CLT-scale ball of the
        # true mean: 5 sigma / sqrt(n_c) per coordinate, generous union bound
        params, data, _ = make_source(4, 6, 4000, SeededRng(5, 1))
        for c, p in enumerate(params):
            members = data.features[data.labels == c]
            per_coord = 5.0 * np.sqrt(np.diag(p.cov) / members.shape[0])
            assert np.all(np.abs(members.mean(axis=0) - p.mean) <= per_coord)


class TestMakeTarget:
    def test_identity_spec_preserves_params(self):
        params, _, _ = make_source(4, 6, 200, SeededRng(1, 1))
        spec = ShiftSpec(lambda_mean=0.0, lambda_cov=0.0, rotation_deg=0.0)
        shifted = make_target_params(params, spec, SeededRng(1, 2))
        for p, s in zip(params, shifted):
            assert np.array_equal(p.mean, s.mean)
            np.testing.assert_allclose(s.cov, p.cov, rtol=0.0, atol=1e-15)

    def test_mean_shift_has_exact_magnitude(self):
        params, _, _ = make_source(4, 6, 200, SeededRng(1, 1))
        for level in (1.0, 3.0):
            spec = ShiftSpec(lambda_mean=level, lambda_cov=0.0, rotation_deg=0.0)
            shifted = make_target_params(params, spec, SeededRng(1, 2))
            for p, s in zip(params, shifted):
                assert np.linalg.norm(s.mean - p.mean) == pytest.approx(0.6 * level, rel=1e-12)

    def test_cov_scale_multiplies_trace(self):
        params, _, _ = make_source(4, 6, 200, SeededRng(1, 1))
        spec = ShiftSpec(lambda_mean=0.0, lambda_cov=2.5)
        shifted = make_target_params(params, spec, SeededRng(1, 2))
        for p, s in zip(params, shifted):
            # rotation preserves trace, so the scale shows up exactly there
            assert np.trace(s.cov) == pytest.approx(2.5 * np.trace(p.cov), rel=1e-10)

    def test_rotation_preserves_eigenvalues(self):
        params, _, _ = make_source(4, 6, 200, SeededRng(1, 1))
        spec = ShiftSpec(lambda_mean=0.0, lambda_cov=0.0, rotation_deg=15.0)
        shifted = make_target_params(params, spec, SeededRng(1, 2))
        for p, s in zip(params, shifted):
            np.testing.assert_allclose(
                np.linalg.eigvalsh(s.cov), np.linalg.eigvalsh(p.cov), rtol=1e-9
            )

    def test_target_sample_and_props(self):
        params, _, _ = make_source(6, 8, 300, SeededRng(2, 1))
        spec = ShiftSpec(lambda_mean=1.0, lambda_cov=1.0)
        tparams, test, props = make_target(params, spec, 900, SeededRng(2, 2))
        assert len(tparams) == 6
        assert test.features.shape == (900, 8)
        assert abs(props.sum() - 1.0) < 1e-12
        counts = np.bincount(test.labels, minlength=6)
        assert counts.sum() == 900

    def test_long_tail_concentration(self):
        # the low-concentration Dirichlet should put >= 0.4 of the mass on
        # one class in most draws; oracle estimate from raw numpy agrees
        hits = 0
        for seed in range(100):
            rng = SeededRng(seed, 9)
            props = rng.dirichlet(np.full(8, 0.15))
            hits += float(props.max() >= 0.4)
        assert hits / 100.0 >= 0.8
        oracle = np.random.Generator(np.random.PCG64(123))
        oracle_hits = np.mean(
            [oracle.dirichlet(np.full(8, 0.15)).max() >= 0.4 for _ in range(2000)]
        )
        assert abs(hits / 100.0 - oracle_hits) <= 0.15

    def test_long_tail_stronger_than_uniform(self):
        ratios = {0.15: [], 1.0: []}
        for alpha in ratios:
            for seed in range(50):
                props = SeededRng(seed, 11).dirichlet(np.full(8, alpha))
                ratios[alpha].append(props.max() / max(props.min(), 1e-300))
        assert np.median(ratios[0.15]) > 10.0 * np.median(ratios[1.0])


class TestSupports:
    def test_counts_in_range(self):
        params, _, _ = make_source(8, 10, 100, SeededRng(0, 1))
        supports = sample_supports(params, (3, 8), SeededRng(0, 3))
        counts = np.bincount(supports.labels, minlength=8)
        assert counts.min() >= 3
        assert counts.max() <= 8

    def test_fixed_shots(self):
        params, _, _ = make_source(4, 6, 100, SeededRng(0, 1))
        supports = sample_supports(params, 5, SeededRng(0, 3))
        assert np.array_equal(np.bincount(supports.labels), [5, 5, 5, 5])

    def test_every_class_present_despite_long_tail(self):
        pair = small_pair(seed=12)
        counts = np.bincount(pair.target_train_supports.labels, minlength=4)
        assert counts.min() >= 3

    def test_determinism(self):
        params, _, _ = make_source(4, 6, 100, SeededRng(0, 1))
        a = sample_supports(params, (3, 8), SeededRng(5, 3))
        b = sample_supports(params, (3, 8), SeededRng(5, 3))
        assert np.array_equal(a.features, b.features)


class TestDomainPair:
    def test_assembly(self):
        pair = small_pair()
        assert isinstance(pair, DomainPair)
        assert pair.n_classes == 4
        assert pair.dim == 6
        assert len(pair.source) == 800
        assert len(pair.target_test) == 600

    def test_source_concentration_is_read(self):
        # the default pair is the one drawn before dirichlet_source was read
        default = small_pair()
        assert np.bincount(default.source.labels).tolist() == [145, 345, 139, 171]
        spiky = small_pair(spec=ShiftSpec(lambda_mean=1.0, lambda_cov=1.0,
                                          dirichlet_source=0.05))
        assert np.bincount(spiky.source.labels).tolist() != [145, 345, 139, 171]
        assert np.bincount(spiky.source.labels).min() >= 2

    def test_determinism(self):
        a = small_pair(seed=9)
        b = small_pair(seed=9)
        assert np.array_equal(a.target_test.features, b.target_test.features)
        assert np.array_equal(a.target_train_supports.features, b.target_train_supports.features)

    def test_erm_accuracy_stable_under_identity_shift(self):
        # with no perturbation the target is the source distribution up to
        # proportions, so a source-trained linear model scores about the
        # same on both sides (averaged over seeds)
        spec = ShiftSpec(lambda_mean=0.0, lambda_cov=0.0, rotation_deg=0.0,
                         dirichlet_target=1.0)
        cfg = TrainConfig(epochs=60, seed=0)
        gaps = []
        for seed in range(5):
            pair = make_domain_pair(4, 6, 2000, 1500, spec, SeededRng(seed, 7))
            result = train_ce_head(pair.source.features, pair.source.labels, 4, cfg)
            src = np.mean(
                result.head.predict(pair.source.features) == pair.source.labels
            )
            tgt = np.mean(
                result.head.predict(pair.target_test.features) == pair.target_test.labels
            )
            gaps.append(src - tgt)
        assert abs(float(np.mean(gaps))) <= 0.02


class TestRegression:
    def test_shapes_and_determinism(self):
        pair = small_pair(seed=2)
        a = make_regression(pair, SeededRng(2, 8), sigma=0.5)
        b = make_regression(pair, SeededRng(2, 8), sigma=0.5)
        assert isinstance(a, RegressionTask)
        assert a.source_responses.shape == (800,)
        assert a.test_responses.shape == (600,)
        assert np.array_equal(a.beta, b.beta)
        assert np.array_equal(a.test_responses, b.test_responses)

    def test_noiseless_ols_recovers_beta(self):
        pair = small_pair(seed=3)
        task = make_regression(pair, SeededRng(3, 8), sigma=0.0)
        est, *_ = np.linalg.lstsq(pair.source.features, task.source_responses, rcond=None)
        np.testing.assert_allclose(est, task.beta, rtol=1e-8)

    def test_noise_scale_matches_sigma(self):
        pair = small_pair(seed=4, n_train=4000)
        task = make_regression(pair, SeededRng(4, 8), sigma=0.5)
        resid = task.source_responses - pair.source.features @ task.beta
        assert abs(resid.std() - 0.5) <= 0.05

    def test_rejects_negative_sigma(self):
        pair = small_pair(seed=5)
        with pytest.raises(ValueError):
            make_regression(pair, SeededRng(5, 8), sigma=-0.1)


class TestSerialization:
    def test_round_trip_classification(self, tmp_path):
        pair = small_pair(seed=6)
        path = tmp_path / "train.txt"
        save_dataset(path, pair.source.features, pair.source.labels, "source", 4)
        x, y, split, n_classes, z = load_dataset(path)
        assert np.array_equal(x, pair.source.features)
        assert np.array_equal(y, pair.source.labels)
        assert split == "source"
        assert n_classes == 4
        assert z is None

    def test_round_trip_regression(self, tmp_path):
        pair = small_pair(seed=7)
        task = make_regression(pair, SeededRng(7, 8), sigma=0.5)
        path = tmp_path / "test.txt"
        save_dataset(path, pair.target_test.features, pair.target_test.labels,
                     "target_test", 4, responses=task.test_responses)
        x, y, split, n_classes, z = load_dataset(path)
        assert np.array_equal(x, pair.target_test.features)
        assert np.array_equal(z, task.test_responses)
        assert split == "target_test"

    def test_save_is_byte_deterministic(self, tmp_path):
        pair = small_pair(seed=8)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        for p in (p1, p2):
            save_dataset(p, pair.source.features, pair.source.labels, "source", 4)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_non_dataset_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a header\n1 2 3\n")
        with pytest.raises(ValueError):
            load_dataset(path)

    def test_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# protodro-dataset d=2 C=2 split=s responses=0\n1.0 2.0 0\n1.0 0\n")
        with pytest.raises(ValueError):
            load_dataset(path)
