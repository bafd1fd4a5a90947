"""Tests for the robust dual solver and the Gibbs tilt.

The solver is checked against an independent 1-D oracle (dense log-grid
plus golden-section refinement) and against finite differences of the
dual objective, never against its own internals.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from protodro import dro
from protodro.dro import (
    BOUNDARY_MAX,
    BOUNDARY_MIN,
    BOUNDARY_NONE,
    LAMBDA_MAX,
    LAMBDA_MIN,
    DroConfig,
    gibbs_tilt_batch,
    solve_dual_batch,
)
from protodro.numkit import log_sum_exp
from protodro.priors import MixturePrior

from oracles import (
    central_difference,
    dual_value_oracle,
    minimize_dual_oracle,
    primal_worst_case_oracle,
    solve_dual_oracle,
)


FIELDS = ("value", "lambda_star", "gradient", "posterior", "iterations",
          "converged", "degenerate", "boundary")


def uniform_logw(n_atoms):
    return np.full(n_atoms, -np.log(n_atoms))


def random_instance(rng, n_atoms=None, with_holes=False):
    """One (log_weights, scores) pair with spread scores."""
    if n_atoms is None:
        n_atoms = int(rng.integers(2, 41))
    w = rng.dirichlet(np.ones(n_atoms))
    logw = np.log(w)
    if with_holes and n_atoms > 3:
        dead = rng.choice(n_atoms, size=n_atoms // 4, replace=False)
        logw[dead] = -np.inf
        logw = logw - log_sum_exp(logw)
    scale = float(rng.choice([0.3, 1.0, 3.0]))
    scores = scale * rng.standard_normal(n_atoms)
    return logw, scores


def make_prior(atoms):
    """Minimal single-component prior with uniform weight on explicit atoms."""
    return MixturePrior(weights=np.array([1.0]), atoms=np.asarray(atoms, dtype=float))


def tilt_one(prior, x, epsilon):
    """Tilt log-weights (A,) of one query point: a one-row batch."""
    return gibbs_tilt_batch(prior, np.asarray(x, dtype=float)[None, :], epsilon)[0]


def solve_one(logw, scores, cfg):
    """The dual of one tilted row: a one-row batch, so fields index [0]."""
    return solve_dual_batch(np.asarray(logw, dtype=float)[None, :], scores, cfg)


def table_terms(logw, table, row_class, lam, cfg):
    """The solver's terms of rows logw at lambdas lam over a (K, A) score table."""
    return dro._table_terms(logw, dro._ScoreTable.build(np.asarray(table, dtype=float)),
                            row_class, lam, cfg)


def dual_terms(logw, scores, lam, cfg):
    """(phi, phi', phi'') of one row at one lambda, from the solver's terms."""
    phi, dphi, d2phi = table_terms(np.asarray(logw, dtype=float)[None, :],
                                   np.asarray(scores)[None, :], np.array([0]),
                                   np.array([lam]), cfg)[:3]
    return float(phi[0]), float(dphi[0]), float(d2phi[0])


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            DroConfig(rho=-0.1)
        with pytest.raises(ValueError):
            DroConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            DroConfig(newton_iters=0)

    def test_grad_tol_scales_with_rho(self):
        assert DroConfig(rho=0.0).grad_tol == pytest.approx(1e-8)
        assert DroConfig(rho=4.0).grad_tol == pytest.approx(5e-8)


class TestGibbsTilt:
    def test_equidistant_atoms_get_equal_weight(self):
        prior = make_prior([[1.0, 0.0], [-1.0, 0.0]])
        tilt = tilt_one(prior, np.zeros(2), epsilon=0.7)
        np.testing.assert_allclose(np.exp(tilt), [0.5, 0.5])

    def test_near_atom_dominates_at_small_epsilon(self):
        prior = make_prior([[0.0], [1.0]])
        tilt = tilt_one(prior, np.array([0.05]), epsilon=0.01)
        w = np.exp(tilt)
        assert w[0] > 1.0 - 1e-12

    def test_prior_weights_carry_through(self):
        # equidistant atoms, so the tilt must reproduce the prior weights
        # two one-atom components weighted 0.8 / 0.2
        prior = MixturePrior(weights=np.array([0.8, 0.2]), atoms=np.array([[1.0], [-1.0]]))
        tilt = tilt_one(prior, np.zeros(1), epsilon=1.3)
        np.testing.assert_allclose(np.exp(tilt), [0.8, 0.2])

    def test_batch_matches_single(self):
        rng = np.random.default_rng(7)
        prior = make_prior(rng.standard_normal((9, 3)))
        queries = rng.standard_normal((5, 3))
        batch = gibbs_tilt_batch(prior, queries, epsilon=0.9)
        for i in range(5):
            single = tilt_one(prior, queries[i], epsilon=0.9)
            # batched and single-row matmuls may take different BLAS paths
            np.testing.assert_allclose(batch[i], single, rtol=1e-13, atol=1e-13)

    def test_rows_normalized(self):
        rng = np.random.default_rng(11)
        prior = make_prior(rng.standard_normal((14, 4)))
        logs = gibbs_tilt_batch(prior, rng.standard_normal((6, 4)), epsilon=2.0)
        np.testing.assert_allclose(log_sum_exp(logs, axis=1), np.zeros(6), atol=1e-12)

    def test_rejects_bad_inputs(self):
        prior = make_prior([[0.0, 0.0]])
        with pytest.raises(ValueError):
            gibbs_tilt_batch(prior, np.zeros((2, 3)), epsilon=1.0)
        with pytest.raises(ValueError):
            gibbs_tilt_batch(prior, np.zeros((2, 2)), epsilon=0.0)

    @pytest.mark.parametrize("zero_weight", [False, True])
    def test_rows_keep_their_bytes_in_any_selection(self, zero_weight):
        # the consistency harness tilts each class's own rows: a row's tilt
        # must not depend on which other rows share the call
        rng = np.random.default_rng(17)
        # 4 components x 6 atoms in 3-D
        weights = np.array([0.5, 0.0, 0.5, 0.0]) if zero_weight else rng.dirichlet(np.ones(4))
        prior = MixturePrior(weights, rng.standard_normal((24, 3)))
        x = 2.0 * rng.standard_normal((40, 3))
        idx = rng.permutation(40)[:17]
        got = gibbs_tilt_batch(prior, x[idx], 0.7)
        assert got.shape == (17, 24) and got.flags.c_contiguous
        assert got.tobytes() == gibbs_tilt_batch(prior, x, 0.7)[idx].tobytes()
        if zero_weight:
            # the zero-weight components' atoms carry -inf log-weight
            assert np.isneginf(got[:, 6:12]).all() and np.isneginf(got[:, 18:]).all()
            assert np.isfinite(got[:, :6]).all() and np.isfinite(got[:, 12:18]).all()


class TestDualObjective:
    def test_constant_scores_closed_form(self):
        cfg = DroConfig(rho=1.5, epsilon=0.8)
        for lam in [0.1, 1.0, 7.0]:
            phi, dphi, d2phi = dual_terms(uniform_logw(4), np.full(4, 2.5), lam, cfg)
            assert phi == pytest.approx(lam * 1.5 + 2.5, rel=1e-12)
            assert dphi == pytest.approx(1.5, rel=1e-12)
            assert d2phi == pytest.approx(0.0, abs=1e-12)

    def test_matches_direct_oracle_value(self):
        rng = np.random.default_rng(23)
        cfg = DroConfig(rho=1.0, epsilon=1.0)
        for _ in range(20):
            logw, scores = random_instance(rng)
            lam = float(rng.uniform(0.05, 5.0))
            phi, _, _ = dual_terms(logw, scores, lam, cfg)
            ref = dual_value_oracle(logw, scores, lam, cfg.rho, cfg.epsilon)
            assert phi == pytest.approx(ref, rel=1e-10)

    def test_first_derivative_matches_fd(self):
        rng = np.random.default_rng(31)
        cfg = DroConfig(rho=0.7, epsilon=1.3)
        for _ in range(20):
            logw, scores = random_instance(rng)
            lam = float(rng.uniform(0.2, 4.0))
            _, dphi, _ = dual_terms(logw, scores, lam, cfg)
            fd = central_difference(
                lambda t: dual_terms(logw, scores, t, cfg)[0], lam, h=1e-6 * lam
            )
            assert dphi == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_second_derivative_matches_fd(self):
        rng = np.random.default_rng(37)
        cfg = DroConfig(rho=1.0, epsilon=0.9)
        for _ in range(20):
            logw, scores = random_instance(rng)
            lam = float(rng.uniform(0.2, 4.0))
            _, _, d2phi = dual_terms(logw, scores, lam, cfg)
            fd = central_difference(
                lambda t: dual_terms(logw, scores, t, cfg)[1], lam, h=1e-5 * lam
            )
            assert d2phi == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_row_subset_matches_full_batch_bitwise(self):
        rng = np.random.default_rng(41)
        logw = np.vstack([random_instance(rng, n_atoms=17, with_holes=True)[0]
                          for _ in range(9)])
        scores = 3.0 * rng.standard_normal((9, 17))
        lam = rng.uniform(0.01, 10.0, 9)
        cfg = DroConfig(rho=0.8, epsilon=1.2)
        full = table_terms(logw, scores, np.arange(9), lam, cfg)
        rows = np.array([1, 4, 7])
        part = table_terms(logw[rows], scores, rows, lam[rows], cfg)
        for got, want in zip(part, full):
            np.testing.assert_array_equal(got, want[rows])

    def test_log_normaliser_is_log_sum_exp_bitwise(self):
        # -inf weights and exponents near 1e7: phi carries the normaliser of
        # numkit.log_sum_exp over the centered scores, bit for bit, and the
        # posterior is the normalised exp of the same exponents
        rng = np.random.default_rng(43)
        logw = np.vstack([random_instance(rng, n_atoms=12, with_holes=True)[0]
                          for _ in range(6)])
        scores = 1e4 * rng.standard_normal((6, 12))
        lam = np.array([1e-3, 1e-2, 0.5, 3.0, 1e2, 1e4])
        cfg = DroConfig(rho=0.6, epsilon=0.9)
        phi, _, _, _, e, z = table_terms(logw, scores, np.arange(6), lam, cfg)
        center = 0.5 * (scores.max(axis=1) + scores.min(axis=1))
        a = logw + 1.0 / (lam[:, None] * cfg.epsilon) * (scores - center[:, None])
        log_z = log_sum_exp(a, axis=1)
        np.testing.assert_array_equal(phi, lam * (cfg.rho + cfg.epsilon * log_z) + center)
        np.testing.assert_allclose(e / z[:, None], np.exp(a - log_z[:, None]),
                                   rtol=1e-8, atol=0)


class TestSolveDual:
    def test_canonical_instance_matches_frozen_oracle(self):
        # three uniform atoms with scores 0, 1, 2 at rho = eps = 1;
        # constants frozen from the grid + golden-section oracle and
        # cross-checked against a 40-digit mpmath golden section
        res = solve_one(uniform_logw(3), np.array([0.0, 1.0, 2.0]),
                        DroConfig(rho=1.0, epsilon=1.0))
        assert res.converged[0]
        assert not res.degenerate[0]
        assert res.boundary[0] == BOUNDARY_NONE
        assert res.lambda_star[0] == pytest.approx(0.2545528355, rel=1e-3)
        assert res.value[0] == pytest.approx(1.9799540155, rel=1e-4)
        assert res.iterations[0] <= 8

    def test_matches_grid_oracle_on_random_instances(self):
        rng = np.random.default_rng(101)
        for k in range(25):
            logw, scores = random_instance(rng, with_holes=(k % 3 == 0))
            rho = float(rng.choice([0.3, 1.0, 2.0]))
            eps = float(rng.choice([0.5, 1.0, 2.0]))
            cfg = DroConfig(rho=rho, epsilon=eps)
            res = solve_one(logw, scores, cfg)
            lam_ref, val_ref = solve_dual_oracle(logw, scores, rho, eps)
            assert res.converged[0]
            assert res.value[0] == pytest.approx(val_ref, rel=1e-4)
            if res.boundary[0] == BOUNDARY_NONE:
                assert res.lambda_star[0] == pytest.approx(lam_ref, rel=1e-3)

    def test_degenerate_constant_scores(self):
        logw = np.log([0.3, 0.5, 0.2])
        res = solve_one(logw, np.full(3, 2.5), DroConfig())
        assert res.degenerate[0]
        assert res.converged[0]
        assert res.value[0] == 2.5
        assert res.lambda_star[0] == 0.0
        assert res.iterations[0] == 0
        np.testing.assert_array_equal(res.posterior[0], np.exp(logw))

    def test_near_constant_scores_short_circuit(self):
        scores = 4.0 + 1e-15 * np.arange(3)
        res = solve_one(uniform_logw(3), scores, DroConfig())
        assert res.degenerate[0]
        assert res.value[0] == pytest.approx(4.0)

    def test_boundary_min_when_top_atom_carries_enough_mass(self):
        # phi'(0+) = rho + eps * log(mass at the max score); with mass 0.9
        # and rho = 5 the slope is positive everywhere, so the minimizer
        # clamps to LAMBDA_MIN and the value sits just above the max score
        logw = np.log([0.9, 0.1])
        scores = np.array([1.0, 0.0])
        cfg = DroConfig(rho=5.0, epsilon=1.0)
        res = solve_one(logw, scores, cfg)
        assert res.boundary[0] == BOUNDARY_MIN
        assert res.converged[0]
        assert res.lambda_star[0] == LAMBDA_MIN
        assert res.value[0] >= 1.0 - 1e-12
        assert res.value[0] == pytest.approx(1.0, abs=1e-4)

    def test_boundary_max_when_rho_zero(self):
        # rho = 0 makes phi strictly decreasing toward the mean score, so
        # the box clamps at LAMBDA_MAX and the value approaches E_q[f]
        logw = np.log([0.25, 0.75])
        scores = np.array([2.0, -1.0])
        cfg = DroConfig(rho=0.0, epsilon=1.0)
        res = solve_one(logw, scores, cfg)
        assert res.boundary[0] == BOUNDARY_MAX
        assert res.converged[0]
        assert res.lambda_star[0] == LAMBDA_MAX
        mean = float(np.exp(logw) @ scores)
        assert res.value[0] == pytest.approx(mean, abs=1e-3)
        assert res.value[0] >= mean

    def test_rho_zero_rows_end_on_the_top_edge_in_one_step(self):
        # at rho = 0, phi' = -eps KL(p_lam || q) <= 0 on the whole box, so
        # every row, cold or warm, is evaluated once at LAMBDA_MAX and ends
        # there flagged, even with a cap of one step
        rng = np.random.default_rng(389)
        logw = np.stack([random_instance(rng, n_atoms=16)[0] for _ in range(40)])
        scores = rng.standard_normal(16)
        cfg = DroConfig(rho=0.0, epsilon=0.7, newton_iters=1)
        for lam_init in (None, np.geomspace(1e-5, 1e3, 40)):
            res = solve_dual_batch(logw, scores, cfg, lam_init=lam_init)
            assert res.converged.all() and (res.iterations == 1).all()
            assert (res.boundary == BOUNDARY_MAX).all()
            assert (res.lambda_star == LAMBDA_MAX).all()
            assert np.all(res.value >= np.exp(logw) @ scores - 1e-12)

    def test_value_between_mean_and_max(self):
        rng = np.random.default_rng(211)
        cfg = DroConfig(rho=0.8, epsilon=1.1)
        for _ in range(15):
            logw, scores = random_instance(rng)
            value = solve_one(logw, scores, cfg).value[0]
            mean = float(np.exp(logw) @ scores)
            assert value >= mean - 1e-10
            assert value <= scores.max() + LAMBDA_MIN * (cfg.rho + 1.0)

    def test_value_nondecreasing_in_rho(self):
        rng = np.random.default_rng(223)
        for _ in range(10):
            logw, scores = random_instance(rng)
            values = [
                solve_one(logw, scores, DroConfig(rho=rho, epsilon=1.0)).value[0]
                for rho in [0.1, 0.5, 1.0, 2.0, 5.0]
            ]
            assert all(b >= a - 1e-10 for a, b in zip(values, values[1:]))

    def test_value_slope_in_rho_is_lambda_star(self):
        rng = np.random.default_rng(227)
        checked = 0
        for _ in range(12):
            logw, scores = random_instance(rng, n_atoms=12)
            res = solve_one(logw, scores, DroConfig(rho=0.6, epsilon=1.0))
            if res.boundary[0] != BOUNDARY_NONE:
                continue

            def value_at(rho):
                return solve_one(logw, scores, DroConfig(rho=rho, epsilon=1.0)).value[0]

            fd = central_difference(value_at, 0.6, h=1e-5)
            assert fd == pytest.approx(res.lambda_star[0], rel=1e-3)
            checked += 1
        assert checked >= 5

    @given(st.integers(0, 2**32 - 1))
    def test_midpoint_convexity(self, seed):
        rng = np.random.default_rng(seed)
        logw, scores = random_instance(rng, n_atoms=int(rng.integers(2, 12)))
        cfg = DroConfig(rho=float(rng.uniform(0.1, 3.0)), epsilon=float(rng.uniform(0.3, 2.0)))
        a = float(rng.uniform(1e-3, 5.0))
        b = float(rng.uniform(1e-3, 5.0))
        phi_a = dual_terms(logw, scores, a, cfg)[0]
        phi_b = dual_terms(logw, scores, b, cfg)[0]
        phi_m = dual_terms(logw, scores, 0.5 * (a + b), cfg)[0]
        scale = max(1.0, abs(phi_a), abs(phi_b))
        assert phi_m <= 0.5 * (phi_a + phi_b) + 1e-9 * scale

    def test_posterior_rows_are_distributions(self):
        rng = np.random.default_rng(307)
        logw = np.vstack([random_instance(rng, n_atoms=10, with_holes=True)[0] for _ in range(6)])
        scores = rng.standard_normal((6, 10))
        batch = solve_dual_batch(logw, scores, DroConfig())
        assert np.all(batch.posterior >= 0)
        np.testing.assert_allclose(batch.posterior.sum(axis=1), np.ones(6), atol=1e-10)
        assert np.all(batch.posterior[logw == -np.inf] == 0)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_batch_matches_scalar_rows(self, warm):
        # a batch solves each row as a one-row batch would, bit for bit, cold
        # or from per-row starts (the harnesses batch their solves on this)
        rng = np.random.default_rng(311)
        n, n_atoms = 12, 15
        logw = np.vstack([random_instance(rng, n_atoms=n_atoms)[0] for _ in range(n)])
        scores = rng.standard_normal((n, n_atoms))
        scores[3] = 1.25  # one degenerate row inside the batch
        logw[5], scores[5] = np.log(0.1 / (n_atoms - 1)), 0.0
        logw[5, 0], scores[5, 0] = np.log(0.9), 1.0  # one boundary row
        cfg = DroConfig(rho=0.9, epsilon=0.8)
        lam0 = None
        if warm:
            lam_star = solve_dual_batch(logw, scores, cfg).lambda_star
            lam0 = lam_star * rng.choice([1e-3, 1e3], n)
            lam0[[0, 7]] = np.nan, 0.0
        batch = solve_dual_batch(logw, scores, cfg, lam_init=lam0)
        assert batch.degenerate[3] and batch.boundary[5] == BOUNDARY_MIN
        for i in range(n):
            single = solve_dual_batch(logw[i:i + 1], scores[i], cfg,
                                      lam_init=None if lam0 is None else lam0[i:i + 1])
            for name in FIELDS:
                a, b = getattr(batch, name)[i:i + 1], getattr(single, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (i, name)

    def test_shared_scores_broadcast(self):
        rng = np.random.default_rng(313)
        logw = np.vstack([random_instance(rng, n_atoms=8)[0] for _ in range(4)])
        scores = rng.standard_normal(8)
        shared = solve_dual_batch(logw, scores, DroConfig())
        tiled = solve_dual_batch(logw, np.tile(scores, (4, 1)), DroConfig())
        np.testing.assert_array_equal(shared.value, tiled.value)

    def test_iterations_respect_budget(self):
        rng = np.random.default_rng(317)
        logw = np.vstack([random_instance(rng, n_atoms=20)[0] for _ in range(30)])
        scores = 3.0 * rng.standard_normal((30, 20))
        cfg = DroConfig(newton_iters=8)
        batch = solve_dual_batch(logw, scores, cfg)
        assert np.all(batch.iterations <= 8)
        assert np.all(batch.converged)

    @pytest.mark.parametrize("newton_iters", [1, 8])
    def test_outputs_are_the_terms_at_lambda_star(self, newton_iters):
        # one batch of interior, boundary and degenerate rows, solved cold
        # and then warm, each on the table terms of one class per row;
        # newton_iters=1 leaves rows unconverged at the cap, whose gradient
        # is phi' at lambda_star as well
        rng = np.random.default_rng(331)
        logw = np.vstack([random_instance(rng, n_atoms=10, with_holes=True)[0]
                          for _ in range(24)])
        scores = 3.0 * rng.standard_normal((24, 10))
        scores[0] = 2.0                                     # degenerate
        logw[1], scores[1] = np.log(0.1), 0.0
        logw[1, 0], scores[1, 0] = np.log(0.91), 1.0        # boundary min
        logw[2], scores[2] = uniform_logw(10), 0.0
        scores[2, 0] = 1e6                                  # boundary max
        cfg = DroConfig(rho=1.0, epsilon=1.0, newton_iters=newton_iters)
        cold = solve_dual_batch(logw, scores, cfg)
        lam0 = cold.lambda_star * rng.choice([1.0, 0.3, 3.0], 24)
        warm = solve_dual_batch(logw, scores + 0.01, cfg, lam_init=lam0)
        for res, f in ((cold, scores), (warm, scores + 0.01)):
            assert res.degenerate[0] and res.degenerate.sum() == 1
            assert res.boundary[1] == BOUNDARY_MIN and res.boundary[2] == BOUNDARY_MAX
            rows = np.flatnonzero(~res.degenerate)
            phi, dphi, _, _, e, z = table_terms(logw[rows], f, rows,
                                                res.lambda_star[rows], cfg)
            np.testing.assert_array_equal(res.value[rows], phi)
            np.testing.assert_array_equal(res.gradient[rows], dphi)
            np.testing.assert_array_equal(res.posterior[rows], e / z[:, None])
            interior = res.boundary[rows] == BOUNDARY_NONE
            np.testing.assert_array_equal(res.converged[rows][interior],
                                          np.abs(dphi[interior]) <= cfg.grad_tol)
            np.testing.assert_array_equal(res.posterior[0], np.exp(logw[0]))
            assert res.gradient[0] == 0.0
        if newton_iters == 1:
            assert not cold.converged.all()

    def test_warm_start_at_the_solution_takes_one_evaluation(self, monkeypatch):
        # a warm row starts with an evaluation at its start, so a start at a
        # converged lambda* converges there and keeps that evaluation's value and posterior:
        # no bracket probe and no evaluation after the loop
        rng = np.random.default_rng(337)
        logw = np.vstack([random_instance(rng, n_atoms=12)[0] for _ in range(40)])
        scores = 2.0 * rng.standard_normal((40, 12))
        cfg = DroConfig(rho=0.7, epsilon=1.0)
        first = solve_dual_batch(logw, scores, cfg, row_class=np.arange(40))
        assert first.converged.all()
        evaluated = []
        table_terms = dro._table_terms

        def counting(logq, *args):
            evaluated.append(logq.shape[0])
            return table_terms(logq, *args)

        monkeypatch.setattr(dro, "_table_terms", counting)
        again = solve_dual_batch(logw, scores, cfg, lam_init=first.lambda_star)
        np.testing.assert_array_equal(again.value, first.value)
        np.testing.assert_array_equal(again.posterior, first.posterior)
        assert evaluated == [40]
        assert (again.iterations == 1).all() and again.converged.all()

    def test_rejects_bad_inputs(self):
        cfg = DroConfig()
        with pytest.raises(ValueError):
            solve_dual_batch(np.zeros(3), np.zeros(3), cfg)
        with pytest.raises(ValueError):
            solve_dual_batch(np.zeros((2, 3)), np.zeros(4), cfg)
        with pytest.raises(ValueError):
            solve_dual_batch(np.zeros((2, 3)), np.array([1.0, np.inf, 0.0]), cfg)
        all_dead = np.full((1, 3), -np.inf)
        with pytest.raises(ValueError):
            solve_dual_batch(all_dead, np.zeros(3), cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nan_or_plus_inf_tilt_weights(self, bad):
        logw = np.log(np.full((2, 4), 0.25))
        logw[1, 2] = bad
        with pytest.raises(ValueError, match="finite or -inf"):
            solve_dual_batch(logw, np.arange(4.0), DroConfig())

    @pytest.mark.parametrize("size", [1, 5])
    def test_rejects_lam_init_of_the_wrong_length(self, size):
        logw = np.log(np.full((2, 4), 0.25))
        with pytest.raises(ValueError, match=r"lam_init must be \(n,\)"):
            solve_dual_batch(logw, np.arange(4.0), DroConfig(), lam_init=np.ones(size))


class TestColdStart:
    @pytest.mark.parametrize("kind", ["below", "above", "min", "max"])
    def test_probes_by_tens_toward_an_open_end(self, kind, monkeypatch):
        # a cold row is evaluated first at LAMBDA_INIT; every later
        # evaluation is a probe a factor of 10 from the one before, toward
        # the root, or a step strictly inside the sign bracket known so far
        # (the box edge standing in for an open end). The probes do not
        # count as iterations. A row whose minimizer lies beyond the box
        # ends on its edge, flagged and converged; an interior row ends on
        # the side of 1 where its root lies. A probe down that lands within
        # a rounding of LAMBDA_MIN takes the edge itself.
        rng = np.random.default_rng(367)
        logw, scores = random_instance(rng, n_atoms=12)
        if kind == "below":
            scores = 1e-2 * scores
        elif kind == "above":
            scores = 1e3 * scores
        elif kind == "min":
            logw = np.log(np.full(12, 0.1 / 11))
            logw[0], scores = np.log(0.9), np.arange(12.0)[::-1]
        else:
            logw, scores = uniform_logw(12), np.zeros(12)
            scores[0] = 1e6
        cfg = DroConfig(rho=1.0, epsilon=1.0)
        calls = []
        terms_at = dro._table_terms

        def recording(logq, table, cls, lam, cfg):
            terms = terms_at(logq, table, cls, lam, cfg)
            calls.append((lam[0], terms[0][0], terms[1][0]))
            return terms

        monkeypatch.setattr(dro, "_table_terms", recording)
        res = solve_one(logw, scores, cfg)
        lams, phi, d = (np.array(c) for c in zip(*calls))
        down = d[0] >= 0
        edge = LAMBDA_MIN if down else LAMBDA_MAX
        assert lams[0] == dro.LAMBDA_INIT
        lo, hi, probes = LAMBDA_MIN, LAMBDA_MAX, 0
        for j in range(1, len(calls)):
            if d[j - 1] < 0:
                lo, probe = max(lo, lams[j - 1]), lams[j - 1] * 10.0
            else:
                hi, probe = min(hi, lams[j - 1]), lams[j - 1] / 10.0
                if probe <= LAMBDA_MIN * (1.0 + 1e-9):
                    probe = LAMBDA_MIN
            if lams[j] == np.clip(probe, LAMBDA_MIN, LAMBDA_MAX):
                probes += 1
            else:
                assert lo < lams[j] < hi
        assert probes >= 2
        assert res.iterations[0] == len(calls) - probes and res.converged[0]
        assert res.lambda_star[0] == lams[-1] and res.value[0] == phi[-1]
        if kind == "min":
            assert lams.tolist() == [1.0, 0.1, 0.01, 1e-3, 1e-4, 1e-5, 1e-6]
        if kind in ("min", "max"):
            assert lams[-1] == edge and (d[-1] >= 0) == down
            assert res.boundary[0] == (BOUNDARY_MIN if down else BOUNDARY_MAX)
            return
        assert (res.lambda_star[0] < 1.0) == (kind == "below") == down
        assert res.boundary[0] == BOUNDARY_NONE


def binding_instance(rng):
    """A row with -inf weights, its (rho, eps) and the primal oracle's answer."""
    logw, scores = random_instance(rng, n_atoms=int(rng.integers(4, 41)), with_holes=True)
    rho, eps = float(rng.choice([0.05, 0.3, 1.0])), float(rng.choice([0.5, 1.0, 2.0]))
    value, beta = primal_worst_case_oracle(logw, scores, rho, eps)
    return logw, scores, rho, eps, value, beta


class TestWarmStarts:
    @pytest.mark.parametrize("start", ["1e-3", "1e3", "nan", "0"])
    def test_warm_solves_match_the_primal_oracle(self, start):
        # starts far below or above lambda* = 1 / (beta * eps), or none at
        # all; rows whose budget never binds end at the lower box edge
        rng = np.random.default_rng(353)
        edge = 0
        for _ in range(60):
            logw, scores, rho, eps, value, beta = binding_instance(rng)
            lam_star = LAMBDA_MIN if np.isinf(beta) else 1.0 / (beta * eps)
            lam0 = {"1e-3": 1e-3 * lam_star, "1e3": 1e3 * lam_star,
                    "nan": np.nan, "0": 0.0}[start]
            cfg = DroConfig(rho=rho, epsilon=eps)
            res = solve_dual_batch(logw[None, :], scores, cfg, lam_init=np.array([lam0]))
            assert res.converged[0] and not res.degenerate[0]
            assert res.iterations[0] <= cfg.newton_iters
            if np.isinf(beta):
                edge += 1
                assert res.boundary[0] == BOUNDARY_MIN
                assert 0.0 <= res.value[0] - value <= LAMBDA_MIN * rho
            else:
                assert res.boundary[0] == BOUNDARY_NONE
                assert res.value[0] == pytest.approx(value, rel=1e-12, abs=1e-12)
                assert res.lambda_star[0] == pytest.approx(lam_star, rel=1e-6)
        assert 0 < edge < 60

    def test_scaled_and_shifted_scores_scale_lambda_star(self):
        # the dual is homogeneous: scores a * f + b (a > 0) have lambda*
        # a * lambda*(f) and value a * v + b, the property the training
        # cache of lambda* / score spread rests on
        rng = np.random.default_rng(359)
        rows = [random_instance(rng, n_atoms=16, with_holes=True) for _ in range(30)]
        logw = np.vstack([r[0] for r in rows])
        scores = np.vstack([r[1] for r in rows])
        cfg = DroConfig(rho=0.5, epsilon=1.0)
        base = solve_dual_batch(logw, scores, cfg)
        interior = base.boundary == BOUNDARY_NONE
        assert interior.sum() >= 20
        for a, b in ((0.1, -5.0), (3.0, 0.0), (250.0, 7.0)):
            moved = solve_dual_batch(logw, a * scores + b, cfg)
            np.testing.assert_array_equal(moved.boundary, base.boundary)
            np.testing.assert_allclose(moved.lambda_star[interior],
                                       a * base.lambda_star[interior], rtol=1e-6)
            np.testing.assert_allclose(moved.value[interior], a * base.value[interior] + b,
                                       rtol=1e-12, atol=1e-12 * (abs(b) + a))


def mixed_batch(n):
    """n rows of 16 atoms with -inf weights, one degenerate row and one
    row at each end of the lambda box (see test_outputs_are_the_terms_at_lambda_star)."""
    rng = np.random.default_rng(347)
    logw = np.vstack([random_instance(rng, n_atoms=16, with_holes=True)[0]
                      for _ in range(n)])
    scores = 3.0 * rng.standard_normal((n, 16))
    scores[n // 2] = 2.0
    logw[n // 3], scores[n // 3] = np.log(0.1), 0.0
    logw[n // 3, 0], scores[n // 3, 0] = np.log(0.91), 1.0
    logw[-1], scores[-1] = uniform_logw(16), 0.0
    scores[-1, 0] = 1e6
    return logw, scores


# each run of the TestRowBlocks tests: (newton_iters, warm)
BLOCK_RUNS = [(iters, warm) for iters in (1, 8) for warm in (False, True)]


def cap_table_blocks(monkeypatch, cells):
    """Make each block of a table batch cover at most `cells` cells."""
    monkeypatch.setattr(dro, "BLOCK_BYTES", 8 * dro.TABLE_ARRAYS * cells)


def record_blocks(monkeypatch, record):
    """Wrap the block solver so each call first calls record(args)."""
    solve_block = dro._solve_table_block

    def recording(*args):
        record(args)
        return solve_block(*args)

    monkeypatch.setattr(dro, "_solve_table_block", recording)


class TestRowBlocks:
    @pytest.mark.parametrize("capped", [False, True])
    def test_results_do_not_depend_on_the_worker_count(self, monkeypatch, capped):
        # 200 rows of 16 atoms split evenly into 1, 2 or 3 blocks, one per
        # worker of a split over that many workers, or (capped) into 7
        # blocks of at most 30 rows, against one block
        logw, scores = mixed_batch(200)
        rng = np.random.default_rng(349)
        lam0 = np.exp(rng.uniform(-6.0, 6.0, 200))
        lam0[::7] = np.nan
        blocks = []

        def solve_all(cells):
            cap_table_blocks(monkeypatch, cells)
            runs, counts = [], set()
            for iters, warm in BLOCK_RUNS:
                blocks.clear()
                runs.append(solve_dual_batch(logw, scores, DroConfig(newton_iters=iters),
                                             lam0 if warm else None))
                counts.add(len(blocks))
            assert len(counts) == 1
            return runs, counts.pop()

        record_blocks(monkeypatch, lambda args: blocks.append(args[-1]))
        reference, count = solve_all(200 * 16)
        assert count == 1
        assert not reference[0].converged.all()
        assert reference[0].degenerate[100] and reference[0].boundary[66] == BOUNDARY_MIN
        assert reference[0].boundary[-1] == BOUNDARY_MAX
        splits = [(16 * 30, 7)] if capped else [(-(-200 * 16 // m), m) for m in (1, 2, 3)]
        for cells, blocks_wanted in splits:
            runs, count = solve_all(cells)
            assert count == blocks_wanted
            for want, got in zip(reference, runs):
                for name in FIELDS:
                    a, b = getattr(want, name), getattr(got, name)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    def test_blocks_without_dead_atoms_match_the_masked_score_range(self, monkeypatch):
        # rows 0-99 have -inf atoms; rows 100-199 have none, among them a
        # flat row and the row at the upper box edge. As one block every
        # row takes the masked score max/min; in blocks of 10 rows the
        # blocks without a dead atom take the plain one, with the same bytes
        logw, scores = mixed_batch(200)
        rng = np.random.default_rng(353)
        logw[100:-1] = np.log(rng.dirichlet(np.ones(16), size=99))
        scores[150] = 2.0
        lam0 = np.exp(rng.uniform(-6.0, 6.0, 200))
        all_live = []

        def recording(args):
            # (logq, table, row_class, live, ..., block)
            all_live.append(bool(args[3][args[-1]].all()))

        def solve_all(cells):
            cap_table_blocks(monkeypatch, cells)
            all_live.clear()
            return [solve_dual_batch(logw, scores, DroConfig(newton_iters=iters),
                                     lam0 if warm else None)
                    for iters, warm in BLOCK_RUNS]

        record_blocks(monkeypatch, recording)
        reference = solve_all(200 * 16)
        assert all_live == [False] * len(BLOCK_RUNS)
        runs = solve_all(10 * 16)
        assert all_live == ([False] * 10 + [True] * 10) * len(BLOCK_RUNS)
        assert reference[0].degenerate[150] and reference[0].boundary[-1] == BOUNDARY_MAX
        for want, got in zip(reference, runs):
            for name in FIELDS:
                a, b = getattr(want, name), getattr(got, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    def test_a_component_batch_holds_one_block_budget(self):
        # 24,000 rows of 8 components, the size of a paper-classification
        # predict. A block covers at most BLOCK_BYTES // (8 *
        # COMPONENT_ARRAYS) cells (4,096 rows) and holds about
        # COMPONENT_ARRAYS float64 arrays of its (rows, 8) size, so
        # BLOCK_BYTES. Beside it the call holds its result (the (n, 8)
        # posterior and five per-row fields) and the (n, 8) live mask.
        # Two blocks of 12,000 rows peak at about twice this bound
        rng = np.random.default_rng(659)
        n, k = 24_000, 8
        logw, means, variances = component_batch(rng, n, k)
        # the robust classifier passes transposes of (K, n) arrays
        logw, means, variances = (np.ascontiguousarray(a.T).T
                                  for a in (logw, means, variances))
        result_bytes = n * k * 8 + n * (4 * 8 + 3)
        bound = result_bytes + n * k + dro.BLOCK_BYTES
        tracemalloc.start()
        try:
            res = solve_dual_batch(logw, means, DroConfig(), quad=variances)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.value.shape == (n,)
        assert peak < bound


class TestRouting:
    """Rows with per-row or shared scores solve as the explicit table call
    would, warm or cold."""

    @staticmethod
    def batch(shared):
        # 150 rows, split over threads where two cores are usable: (n, A)
        # scores are a table of one class per row, shared (A,) scores a table
        # of one class
        logw, scores = mixed_batch(150)
        rng = np.random.default_rng(359)
        lam0 = np.exp(rng.uniform(-8.0, 8.0, 150))
        lam0[::11], lam0[1::13], lam0[2::17] = np.nan, 0.0, -1.0
        if shared:
            return logw, scores[0], lam0, scores[:1], np.zeros(150, dtype=int)
        return logw, scores, lam0, scores, np.arange(150)

    def assert_routed_bytes(self, cap, shared, warm):
        logw, f, lam0, table, row_class = self.batch(shared)
        lam0 = lam0 if warm else None
        cfg = DroConfig(newton_iters=cap)
        routed = solve_dual_batch(logw, f, cfg, lam0)
        explicit = solve_dual_batch(logw, table, cfg, lam0, row_class=row_class)
        assert routed.converged.all() == (cap == 16)
        for name in FIELDS:
            a, b = getattr(routed, name), getattr(explicit, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("cap", [1, 16])
    @pytest.mark.parametrize("shared", [False, True], ids=["per-row", "shared"])
    def test_warm_rows_have_the_bytes_of_the_explicit_table_call(self, cap, shared):
        self.assert_routed_bytes(cap, shared, warm=True)

    @pytest.mark.parametrize("cap", [1, 16])
    @pytest.mark.parametrize("shared", [False, True], ids=["per-row", "shared"])
    def test_cold_rows_have_the_bytes_of_the_explicit_table_call(self, cap, shared):
        self.assert_routed_bytes(cap, shared, warm=False)


class TestRobustLogits:
    def test_envelope_gradient_matches_fd(self):
        # the posterior-weighted atom average is the value's gradient in
        # the score parameters (lambda held at its optimum)
        rng = np.random.default_rng(409)
        dim = 4
        cfg = DroConfig(rho=0.7, epsilon=1.0)
        for _ in range(6):
            atoms = rng.standard_normal((10, dim))
            logw = np.log(rng.dirichlet(np.ones(10)))
            theta = rng.standard_normal(dim)

            def value_at(t):
                return solve_dual_batch(logw[None, :], atoms @ t, cfg).value[0]

            grad = solve_dual_batch(logw[None, :], atoms @ theta, cfg).posterior[0] @ atoms
            for k in range(dim):
                def slice_k(t_k, k=k):
                    t = theta.copy()
                    t[k] = t_k
                    return value_at(t)

                fd = central_difference(slice_k, theta[k], h=1e-6)
                assert grad[k] == pytest.approx(fd, rel=1e-4, abs=1e-7)


def table_batch(rng, n=120, n_classes=4, n_atoms=24):
    """A (K, A) class score table and n tilted rows with a row -> class index.

    Classes have spread scores at different scales and offsets, and a class
    whose table row is constant makes its rows degenerate. Some rows have
    -inf weights; one row is degenerate through its weights alone (only
    atoms of equal score are live); one sits at each end of the lambda box.
    """
    table = (10.0 ** rng.uniform(-1.0, 1.0, (n_classes, 1))
             * rng.standard_normal((n_classes, n_atoms))
             + rng.normal(0.0, 5.0, (n_classes, 1)))
    table[n_classes - 1] = 1.5
    table[0, :3] = table[0, 0]
    row_class = rng.integers(0, n_classes - 1, n)
    row_class[::17] = n_classes - 1
    logw = np.vstack([random_instance(rng, n_atoms=n_atoms, with_holes=i % 3 == 0)[0]
                      for i in range(n)])
    # live atoms 0-2 only, which share one score in class 0
    row_class[5] = 0
    logw[5] = -np.inf
    logw[5, :3] = np.log([0.2, 0.3, 0.5])
    # most mass on the class's top atom: phi' > 0 down to LAMBDA_MIN
    row_class[7] = 1
    logw[7] = np.log(0.02 / (n_atoms - 1))
    logw[7, np.argmax(table[1])] = np.log(0.98)
    # the top atom far above the rest with little weight: lambda* > LAMBDA_MAX
    table[2, 0] = table[2].max() + 1e6
    row_class[9] = 2
    logw[9] = uniform_logw(n_atoms)
    return logw, table, row_class


class TestClassTable:
    """solve_dual_batch with a (K, A) score table and a row -> class index."""

    CFG = DroConfig(rho=0.6, epsilon=0.8)

    def test_agrees_with_the_dual_and_primal_oracles(self):
        rng = np.random.default_rng(601)
        logw, table, row_class = table_batch(rng)
        cfg = self.CFG
        lam_star = solve_dual_batch(logw, table[row_class], cfg).lambda_star
        lam0 = lam_star * np.exp(rng.uniform(-3.0, 3.0, lam_star.size))
        for start in (None, lam0):
            res = solve_dual_batch(logw, table, cfg, start, row_class=row_class)
            assert res.converged.all()
            assert res.degenerate[5] and res.degenerate[row_class == 3].all()
            assert res.degenerate.sum() == 1 + (row_class == 3).sum()
            assert res.boundary[7] == BOUNDARY_MIN and res.boundary[9] == BOUNDARY_MAX
            np.testing.assert_array_equal(res.value[res.degenerate],
                                          table[row_class[res.degenerate], 0])
            for i in np.flatnonzero(~res.degenerate):
                f = table[row_class[i]]
                if res.boundary[i] == BOUNDARY_NONE:
                    value, beta = primal_worst_case_oracle(logw[i], f, cfg.rho, cfg.epsilon)
                    scale = 1.0 + np.abs(f).max()
                    assert res.value[i] == pytest.approx(value, rel=1e-12, abs=1e-12 * scale)
                    assert res.lambda_star[i] == pytest.approx(1.0 / (beta * cfg.epsilon),
                                                               rel=1e-6)
                assert res.value[i] == pytest.approx(
                    dual_value_oracle(logw[i], f, res.lambda_star[i], cfg.rho, cfg.epsilon),
                    rel=1e-12, abs=1e-12 * (1.0 + np.abs(f).max()))
                np.testing.assert_allclose(res.posterior[i].sum(), 1.0, rtol=1e-12)
            assert (res.posterior[logw == -np.inf] == 0).all()

    def test_terms_match_finite_differences(self):
        # phi' and phi'' of the oracle's value by central differences, and
        # phi''' from phi'' of the table evaluator itself
        rng = np.random.default_rng(607)
        cfg = self.CFG
        for _ in range(8):
            logw, f = random_instance(rng, n_atoms=12, with_holes=True)
            lam = float(np.exp(rng.uniform(-1.0, 1.0)))

            def terms(at):
                return dro._table_terms(logw[None], dro._ScoreTable.build(f[None]),
                                        np.array([0]), np.array([at]), cfg)

            phi, dphi, d2phi, d3phi = (t[0] for t in terms(lam)[:4])
            assert phi == pytest.approx(dual_value_oracle(logw, f, lam, cfg.rho, cfg.epsilon),
                                        rel=1e-12)

            def value(at):
                return dual_value_oracle(logw, f, at, cfg.rho, cfg.epsilon)

            h = 1e-4 * lam
            assert dphi == pytest.approx(central_difference(value, lam, h), rel=1e-6, abs=1e-9)
            assert d3phi == pytest.approx(
                central_difference(lambda at: terms(at)[2][0], lam, h), rel=1e-5, abs=1e-9)
            assert d2phi > 0

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_each_row_has_its_own_bytes(self, monkeypatch, warm):
        # every row gives the same bytes solved alone, inside the batch in
        # class-major or shuffled order, with the classes of the table
        # permuted, and over blocks of any size
        rng = np.random.default_rng(613)
        logw, table, row_class = table_batch(rng, n=200)
        cfg = self.CFG
        lam0 = None
        if warm:
            lam0 = np.exp(rng.uniform(-8.0, 4.0, 200))
            lam0[::9] = np.nan

        def starts(rows):
            return None if lam0 is None else lam0[rows]

        major = np.argsort(row_class, kind="stable")
        reference = solve_dual_batch(logw[major], table, cfg, starts(major),
                                     row_class=row_class[major])
        perm = rng.permutation(table.shape[0])
        inverse = np.argsort(perm)
        shuffled = rng.permutation(200)
        runs = []
        for cells in (1 << 20, 24 * 30):
            cap_table_blocks(monkeypatch, cells)
            runs.append((shuffled, solve_dual_batch(
                logw[shuffled], table, cfg, starts(shuffled), row_class=row_class[shuffled])))
            runs.append((major, solve_dual_batch(
                logw[major], table[perm], cfg, starts(major),
                row_class=inverse[row_class[major]])))
        for i in (0, 5, 7, 9, 17, 100, 199):
            alone = solve_dual_batch(logw[i:i + 1], table, cfg, starts(slice(i, i + 1)),
                                     row_class=row_class[i:i + 1])
            runs.append((np.array([i]), alone))
        position = np.argsort(major)
        for rows, res in runs:
            for name in FIELDS:
                want = getattr(reference, name)[position[rows]]
                got = getattr(res, name)
                assert want.dtype == got.dtype and want.tobytes() == got.tobytes(), name

    @pytest.mark.parametrize("shape", ["open-start", "open-crawl", "next-to-probe"])
    def test_crawl_shapes_converge_within_the_cap(self, shape):
        # open-start: a first-epoch row started at LAMBDA_INIT, lambda* =
        # 1.38e-4 at a cliff of phi' (the top atom carries e^-27 of the
        # mass, the next 0.85); open-crawl: a warm row started at 1.25e-3
        # below a cliff at 2.46e-3, where Halley moves up by a few percent
        # per step while the upper end is open; next-to-probe: a cold row
        # whose lambda* sits just below the probe point 0.1
        cfg = DroConfig(rho=1.0, epsilon=1.0)
        rng = np.random.default_rng(617)
        if shape == "next-to-probe":
            logw, f = random_instance(rng, n_atoms=16)
            target, lam0 = 0.099997, None
        else:
            logw = np.full(16, np.log(0.15 / 14))
            logw[:2] = -27.0, np.log(0.85)
            f = rng.uniform(-1.0, -0.5, 16)
            f[:2] = 1.0, 0.9
            target, lam0 = {"open-start": (1.38e-4, np.array([np.nan])),
                            "open-crawl": (2.46e-3, np.array([1.25e-3]))}[shape]
        _, beta = primal_worst_case_oracle(logw, f, cfg.rho, cfg.epsilon)
        f = f * target * beta * cfg.epsilon  # lambda* is homogeneous in the scores
        value, beta = primal_worst_case_oracle(logw, f, cfg.rho, cfg.epsilon)
        res = solve_dual_batch(logw[None], f[None], cfg, lam0, row_class=np.array([0]))
        assert res.converged[0] and res.boundary[0] == BOUNDARY_NONE
        assert res.iterations[0] <= 8
        assert res.lambda_star[0] == pytest.approx(target, rel=1e-6)
        assert res.value[0] == pytest.approx(value, rel=1e-12)

    def test_rejects_a_bad_row_class(self):
        logw = np.log(np.full((3, 4), 0.25))
        table = np.arange(8.0).reshape(2, 4)
        cfg = DroConfig()
        for row_class in (np.array([0, 1]), np.array([0, 1, 2]), np.array([0, -1, 1]),
                          np.array([0.0, 1.0, 1.0])):
            with pytest.raises(ValueError):
                solve_dual_batch(logw, table, cfg, row_class=row_class)
        with pytest.raises(ValueError):
            solve_dual_batch(logw, table[0], cfg, row_class=np.array([0, 0, 0]))
        res = solve_dual_batch(logw, table, cfg, row_class=np.array([1, 0, 1]))
        assert res.converged.all()

    def test_unconverged_rows_raise_with_the_worst_row(self):
        rng = np.random.default_rng(619)
        logw, table, row_class = table_batch(rng, n=60)
        cfg = DroConfig(rho=0.6, epsilon=0.8, newton_iters=1)
        res = solve_dual_batch(logw, table, cfg, row_class=row_class)
        assert not res.converged.all()
        with pytest.raises(dro.DualConvergenceError,
                           match=rf"{(~res.converged).sum()} of 60 dual rows unconverged "
                                 r"after 1 steps: worst \|phi'\| .* at lambda"):
            dro.check_converged(res, cfg)
        full = solve_dual_batch(logw, table, self.CFG, row_class=row_class)
        dro.check_converged(full, self.CFG)


def component_terms(logw, means, variances, lam, cfg):
    """The component evaluator's terms of (n, K) rows at lambdas lam."""
    return dro._component_terms(
        np.ascontiguousarray(logw.T), np.ascontiguousarray(means.T),
        np.ascontiguousarray(variances.T), np.zeros(len(lam)), np.asarray(lam, dtype=float),
        cfg)


def component_batch(rng, n=40, n_comp=6):
    """n rows of Gaussian components: (log weights, means, variances), with
    dead components in some rows and v = 0 in others."""
    logw = np.log(rng.dirichlet(np.ones(n_comp), size=n))
    logw[::5, 0] = -np.inf
    logw -= log_sum_exp(logw, axis=1)[:, None]
    means = 10.0 ** rng.uniform(-1.0, 1.0, (n, 1)) * rng.standard_normal((n, n_comp))
    variances = 10.0 ** rng.uniform(-2.0, 1.0, (n, n_comp))
    variances[::3] = 0.0
    return logw, means, variances


class TestComponentDual:
    """The closed-form evaluator over Gaussian components (quad=)."""

    CFG = DroConfig(rho=0.7, epsilon=0.9)

    def test_derivatives_match_finite_differences(self):
        # phi', phi'' and phi''' against central differences of the term
        # below each, at lambdas across the box
        rng = np.random.default_rng(701)
        logw, means, variances = component_batch(rng)
        lam = 10.0 ** rng.uniform(-1.0, 1.0, logw.shape[0])
        h = 1e-5 * lam
        at = [component_terms(logw, means, variances, lam + k * h, self.CFG)
              for k in (-1, 0, 1)]
        for order in range(3):
            numeric = (at[2][order] - at[0][order]) / (2.0 * h)
            exact = at[1][order + 1]
            np.testing.assert_allclose(exact, numeric, rtol=1e-5,
                                       atol=1e-9 * np.abs(exact).max())

    def test_zero_variances_give_the_table_terms(self):
        # at v = 0 the component terms are _table_terms' terms of the same
        # per-row scores, up to rounding. phi'' is compared within the
        # rounding of the table's raw moments, whose variance loses digits
        # (to ~1e-16 of the squared score range) where a row's tilt sits on
        # one score; the component evaluator's central sums do not
        rng = np.random.default_rng(703)
        logw, means, _ = component_batch(rng)
        lam = 10.0 ** rng.uniform(-1.0, 1.0, logw.shape[0])
        cfg = self.CFG
        got = component_terms(logw, means, np.zeros_like(means), lam, cfg)
        want = table_terms(logw, means, np.arange(logw.shape[0]), lam, cfg)
        for a, b in zip(got[:2], want[:2]):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())
        spread = np.ptp(means, axis=1)
        rounding = 1e-14 * spread**2 / (lam**3 * cfg.epsilon)
        assert np.all(np.abs(got[2] - want[2]) <= 1e-9 * np.abs(want[2]) + rounding)
        np.testing.assert_allclose(got[4] / got[5][:, None], want[4] / want[5][:, None],
                                   rtol=1e-12, atol=1e-300)

    def test_flat_means_with_variance_are_interior(self):
        # flat live means with v > 0 are no constant: phi = lam rho + mu +
        # v / (2 lam eps), minimized at lam* = sqrt(v / (2 rho eps)) with
        # value mu + sqrt(2 rho v / eps). Flat means with every live v = 0
        # (row 1), or v > 0 only on a dead component (row 2), are degenerate
        cfg = self.CFG
        with np.errstate(divide="ignore"):
            logw = np.log(np.array([[0.3, 0.7], [0.3, 0.7], [1.0, 0.0]]))
        means = np.full((3, 2), 1.5)
        variances = np.array([[2.0, 2.0], [0.0, 0.0], [0.0, 5.0]])
        res = solve_dual_batch(logw, means, cfg, quad=variances)
        assert res.degenerate.tolist() == [False, True, True]
        assert res.converged.all() and res.boundary[0] == BOUNDARY_NONE
        assert res.iterations[0] >= 1
        lam_star = np.sqrt(2.0 / (2.0 * cfg.rho * cfg.epsilon))
        assert res.lambda_star[0] == pytest.approx(lam_star, rel=1e-8)
        assert res.value[0] == pytest.approx(1.5 + np.sqrt(2.0 * cfg.rho * 2.0 / cfg.epsilon),
                                             rel=1e-12)
        np.testing.assert_array_equal(res.value[1:], [1.5, 1.5])
        np.testing.assert_array_equal(res.lambda_star[1:], [0.0, 0.0])

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_rows_converge_to_the_oracle(self, warm):
        # every row's solve against the grid-and-golden oracle over the
        # closed form: dead components, v = 0 rows and scales over two
        # decades, cold or from scattered starts
        cfg = self.CFG
        rng = np.random.default_rng(707)
        logw, means, variances = component_batch(rng, n=12)
        lam0 = np.exp(rng.uniform(-5.0, 5.0, 12)) if warm else None
        res = solve_dual_batch(logw, means, cfg, lam0, quad=variances)
        assert res.converged.all() and not res.degenerate.any()
        for i in range(12):
            def value(lam):
                return float(component_terms(logw[i:i + 1], means[i:i + 1],
                                              variances[i:i + 1], [lam], cfg)[0][0])
            lam_o, val_o = minimize_dual_oracle(value, lam_hi=1e3, grid=800)
            assert res.value[i] == pytest.approx(val_o, rel=1e-9, abs=1e-12)
            assert res.lambda_star[i] == pytest.approx(lam_o, rel=1e-4, abs=1e-5)
            assert abs(res.gradient[i]) <= cfg.grad_tol

    def test_bad_variances_rejected(self):
        logw, means, variances = component_batch(np.random.default_rng(709), n=4)
        cfg = self.CFG
        for bad in (-variances - 1.0, np.full_like(variances, np.inf),
                    variances[:, :-1]):
            with pytest.raises(ValueError, match="quad"):
                solve_dual_batch(logw, means, cfg, quad=bad)
        with pytest.raises(ValueError, match="quad"):
            solve_dual_batch(logw, means, cfg, quad=variances, row_class=np.arange(4))
