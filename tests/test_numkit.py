import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from protodro.numkit import (
    RIDGE_ESCALATIONS,
    GaussianParams,
    SeededRng,
    cholesky_psd,
    gaussian_sample,
    log_sum_exp,
    random_rotation,
    sq_distances,
)


class TestLogSumExp:
    def test_two_zeros(self):
        assert log_sum_exp([0.0, 0.0]) == pytest.approx(np.log(2.0), abs=1e-15)

    def test_large_inputs_match_extended_precision(self):
        # oracle: 50-digit evaluation of log(exp(1000) + exp(1000))
        with mpmath.workdps(50):
            expected = float(mpmath.log(mpmath.exp(1000) + mpmath.exp(1000)))
        got = log_sum_exp([1000.0, 1000.0])
        assert np.isfinite(got)
        assert got == pytest.approx(expected, rel=1e-15)
        assert got == pytest.approx(1000.0 + np.log(2.0), rel=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            log_sum_exp([])

    def test_axis_reduction(self):
        v = np.array([[0.0, 0.0], [1.0, 2.0]])
        rows = log_sum_exp(v, axis=1)
        assert rows.shape == (2,)
        assert rows[0] == pytest.approx(np.log(2.0))
        assert rows[1] == pytest.approx(np.log(np.exp(1.0) + np.exp(2.0)))

    def test_minus_inf_entries(self):
        assert log_sum_exp([-np.inf, 0.0]) == pytest.approx(0.0)
        assert log_sum_exp([-np.inf, -np.inf]) == -np.inf

    @given(
        st.lists(st.floats(min_value=-500, max_value=500), min_size=1, max_size=40)
    )
    def test_bounds(self, values):
        out = log_sum_exp(values)
        assert out >= max(values) - 1e-12
        assert out <= max(values) + np.log(len(values)) + 1e-12


class TestCholeskyPsd:
    # with no ridge the factor is numpy's own factor of m, bit for bit
    def test_identity_needs_no_ridge(self):
        lower = cholesky_psd(np.eye(3))
        np.testing.assert_array_equal(lower, np.linalg.cholesky(np.eye(3)))
        np.testing.assert_allclose(lower, np.eye(3))

    def test_hand_factorization(self):
        # [[4,2],[2,3]] = L L^T with L = [[2,0],[1,sqrt(2)]]
        m = np.array([[4.0, 2.0], [2.0, 3.0]])
        lower = cholesky_psd(m)
        expected = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
        np.testing.assert_array_equal(lower, np.linalg.cholesky(m))
        np.testing.assert_allclose(lower, expected, atol=1e-14)

    def test_rank_deficient_repaired(self):
        # the schedule's base is 1e-8 * trace / dim = 1e-8 here
        m = np.array([[1.0, 1.0], [1.0, 1.0]])
        lower = cholesky_psd(m)
        recon = lower @ lower.T
        delta = recon[0, 0] - m[0, 0]
        assert delta > 0
        assert any(delta == pytest.approx(1e-8 * 10.0**j, rel=1e-6)
                   for j in range(RIDGE_ESCALATIONS))
        np.testing.assert_allclose(recon, m + delta * np.eye(2), atol=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            cholesky_psd(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_hopeless_matrix_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            cholesky_psd(-np.eye(2))

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31))
    def test_reconstructs_well_conditioned_psd(self, d, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(d, d))
        m = a @ a.T + np.eye(d)
        lower = cholesky_psd(m)
        np.testing.assert_array_equal(lower, np.linalg.cholesky(m))
        np.testing.assert_allclose(lower @ lower.T, m, rtol=1e-8, atol=1e-10)


class TestSeededRng:
    def test_same_stream_replays(self):
        a = SeededRng(7, 3).normal((4, 5))
        b = SeededRng(7, 3).normal((4, 5))
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = SeededRng(7, 0).normal(16)
        b = SeededRng(7, 1).normal(16)
        assert not np.array_equal(a, b)

    def test_children_are_disjoint(self):
        root = SeededRng(11)
        ids = {root.child(k).stream_id for k in range(20)}
        ids |= {root.child(0).child(k).stream_id for k in range(20)}
        assert len(ids) == 40

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            SeededRng(-1)


class TestSqDistances:
    def test_matches_direct_differences_and_clips(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((7, 3))
        b = rng.standard_normal((4, 3))
        direct = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_allclose(sq_distances(a, b), direct, rtol=1e-12, atol=1e-12)
        # here the expansion rounds to about -4.5e-13 before the clip
        c = np.array([[-16.454743343016766, 7.9157741139055116, -36.29467063684213]])
        assert sq_distances(c, c.copy())[0, 0] >= 0.0


class TestGaussianSample:
    def test_deterministic(self):
        g = GaussianParams(np.zeros(3), np.eye(3))
        a = gaussian_sample(g, 10, SeededRng(0, 5))
        b = gaussian_sample(g, 10, SeededRng(0, 5))
        np.testing.assert_array_equal(a, b)

    def test_mean_within_clt_bound(self):
        # sample mean of n iid draws is N(mean, cov/n); a 5-sigma band per
        # coordinate bounds the deviation by 5*sqrt(cov_ii/n)
        n = 20000
        mean = np.array([1.0, -2.0])
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        g = GaussianParams(mean, cov)
        draws = gaussian_sample(g, n, SeededRng(123))
        bound = 5.0 * np.sqrt(np.diag(cov) / n)
        assert np.all(np.abs(draws.mean(axis=0) - mean) < bound)

    def test_covariance_direction(self):
        n = 50000
        cov = np.array([[1.0, 0.8], [0.8, 1.0]])
        g = GaussianParams(np.zeros(2), cov)
        draws = gaussian_sample(g, n, SeededRng(9))
        emp = np.cov(draws.T)
        np.testing.assert_allclose(emp, cov, atol=0.05)

    def test_gaussian_params_validation(self):
        with pytest.raises(ValueError):
            GaussianParams(np.zeros(2), np.eye(3))
        with pytest.raises(ValueError):
            GaussianParams(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestRandomRotation:
    @given(st.sampled_from([2, 3, 5, 17, 64]), st.integers(min_value=0, max_value=1000))
    def test_orthogonal_with_unit_determinant(self, d, seed):
        rot = random_rotation(d, 15.0, SeededRng(seed))
        np.testing.assert_allclose(rot.T @ rot, np.eye(d), atol=1e-12)
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-10)

    def test_actually_rotates(self):
        rot = random_rotation(4, 90.0, SeededRng(2))
        assert not np.allclose(rot, np.eye(4))

    def test_dim_one_rejected(self):
        with pytest.raises(ValueError):
            random_rotation(1, 15.0, SeededRng(0))
