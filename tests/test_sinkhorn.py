import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from protodro import sinkhorn
from protodro.sinkhorn import (
    ConvergenceError,
    OtProblem,
    build_cost_matrix,
    solve_entropic_ot,
)

from oracles import entropic_objective, sinkhorn_scaling_oracle


def random_instance(seed, max_side=30):
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, max_side + 1))
    cols = int(rng.integers(1, max_side + 1))
    cost = rng.uniform(0.0, 1.0, size=(rows, cols))
    a = rng.uniform(0.1, 1.0, size=rows)
    b = rng.uniform(0.1, 1.0, size=cols)
    eps = float(rng.uniform(0.05, 5.0))
    return OtProblem(cost, a / a.sum(), b / b.sum(), eps)


class TestSolveEntropicOt:
    def test_constant_cost_gives_product_coupling(self):
        a = np.array([0.2, 0.8])
        b = np.array([0.5, 0.3, 0.2])
        problem = OtProblem(np.full((2, 3), 7.0), a, b, 0.5)
        result = solve_entropic_ot(problem)
        assert np.sum(np.abs(result.plan - np.outer(a, b))) <= 1e-8

    def test_two_by_two_concentrates_on_diagonal(self):
        # oracle: direct kernel scaling on the same instance
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        a = np.array([0.5, 0.5])
        b = np.array([0.5, 0.5])
        result = solve_entropic_ot(OtProblem(cost, a, b, 0.1))
        reference = sinkhorn_scaling_oracle(cost, a, b, 0.1)
        np.testing.assert_allclose(result.plan, reference, atol=1e-10)
        assert result.plan[0, 0] >= 0.49
        assert result.plan[1, 1] >= 0.49

    def test_matches_scaling_oracle_on_random_instances(self):
        for seed in range(25):
            problem = random_instance(seed, max_side=8)
            if problem.epsilon < 0.2:
                continue  # the naive oracle kernel underflows there
            result = solve_entropic_ot(problem, tol=1e-10)
            reference = sinkhorn_scaling_oracle(
                problem.cost, problem.row_marginal, problem.col_marginal, problem.epsilon
            )
            assert np.sum(np.abs(result.plan - reference)) < 1e-8

    def test_large_epsilon_approaches_product(self):
        # the L1 gap to the product coupling scales like cost_range / eps
        problem = random_instance(3)
        product = np.outer(problem.row_marginal, problem.col_marginal)
        gaps = {}
        for eps in (1e3, 1e4):
            big = OtProblem(
                0.25 * problem.cost, problem.row_marginal, problem.col_marginal, eps
            )
            result = solve_entropic_ot(big, tol=1e-12)
            gaps[eps] = np.sum(np.abs(result.plan - product))
        assert gaps[1e3] <= 1e-4
        assert gaps[1e4] <= 0.11 * gaps[1e3]

    @given(st.integers(min_value=0, max_value=2**31))
    def test_feasibility(self, seed):
        problem = random_instance(seed)
        result = solve_entropic_ot(problem, tol=1e-7)
        assert np.all(result.plan >= 0)
        assert np.sum(np.abs(result.plan.sum(axis=1) - problem.row_marginal)) <= 1e-6
        assert np.sum(np.abs(result.plan.sum(axis=0) - problem.col_marginal)) <= 1e-6
        assert result.iterations_used >= 1
        assert result.marginal_violation <= 1e-7

    def test_cost_shift_invariance(self):
        problem = random_instance(11)
        shifted = OtProblem(
            problem.cost + 3.7, problem.row_marginal, problem.col_marginal, problem.epsilon
        )
        plan_a = solve_entropic_ot(problem, tol=1e-10).plan
        plan_b = solve_entropic_ot(shifted, tol=1e-10).plan
        assert np.sum(np.abs(plan_a - plan_b)) <= 1e-8

    def test_objective_self_consistency(self):
        # running 10x longer after convergence must not improve the
        # entropic objective by more than 1e-6
        for seed in (0, 5, 9):
            problem = random_instance(seed)
            quick = solve_entropic_ot(problem, tol=1e-6, max_iters=1000)
            long = solve_entropic_ot(problem, tol=1e-13, max_iters=10000)
            obj_quick = entropic_objective(problem.cost, quick.plan, problem.epsilon)
            obj_long = entropic_objective(problem.cost, long.plan, problem.epsilon)
            assert obj_quick - obj_long <= 1e-6

    def test_budget_exhaustion_reports_violation(self):
        rng = np.random.default_rng(0)
        cost = rng.uniform(0.0, 1.0, size=(12, 17))
        a = rng.uniform(0.1, 1.0, size=12)
        b = rng.uniform(0.1, 1.0, size=17)
        problem = OtProblem(cost, a / a.sum(), b / b.sum(), 0.05)
        with pytest.raises(ConvergenceError) as excinfo:
            solve_entropic_ot(problem, tol=1e-14, max_iters=2)
        assert excinfo.value.violation > 1e-14
        assert excinfo.value.iterations == 2

    def test_validation_errors(self):
        a = np.array([0.5, 0.5])
        with pytest.raises(ValueError):
            OtProblem(np.zeros((2, 2)), a, a, 0.0)
        with pytest.raises(ValueError):
            OtProblem(np.zeros((2, 3)), a, a, 1.0)
        with pytest.raises(ValueError):
            OtProblem(np.zeros((2, 2)), np.array([0.6, 0.5]), a, 1.0)
        with pytest.raises(ValueError):
            OtProblem(np.zeros((2, 2)), np.array([-0.1, 1.1]), a, 1.0)

    def test_zero_marginal_entries_stay_zero(self):
        a = np.array([0.0, 1.0])
        b = np.array([0.5, 0.5])
        result = solve_entropic_ot(OtProblem(np.arange(4.0).reshape(2, 2), a, b, 1.0))
        assert np.all(result.plan[0] == 0.0)
        assert np.sum(np.abs(result.plan.sum(axis=0) - b)) <= 1e-6

    def test_tall_problem_and_its_transpose(self):
        # the solver's variables are the potentials of the smaller side,
        # whichever way round the problem comes
        rng = np.random.default_rng(17)
        cost = rng.uniform(0.0, 4.0, size=(40, 6))
        a = rng.uniform(0.1, 1.0, size=40)
        b = rng.uniform(0.1, 1.0, size=6)
        tall = OtProblem(cost, a / a.sum(), b / b.sum(), 0.3)
        wide = OtProblem(cost.T, b / b.sum(), a / a.sum(), 0.3)
        plans = [solve_entropic_ot(p, tol=1e-9).plan for p in (tall, wide)]
        for plan, p in zip(plans, (tall, wide)):
            assert np.all(plan >= 0)
            assert np.sum(np.abs(plan.sum(axis=1) - p.row_marginal)) <= 1e-9
            assert np.sum(np.abs(plan.sum(axis=0) - p.col_marginal)) <= 1e-9
        np.testing.assert_allclose(plans[1], plans[0].T, rtol=0.0, atol=1e-15)

    def test_support_far_beyond_every_source(self):
        # cost / eps exceeds 700 from every source to the last support, so
        # its kernel column underflows to 0 at equal potentials
        rng = np.random.default_rng(23)
        sources = rng.normal(size=(300, 2))
        supports = np.vstack([rng.normal(size=(4, 2)), [[20.0, 0.0]]])
        cost = np.sum((sources[:, None, :] - supports[None, :, :]) ** 2, axis=2)
        eps = 0.2
        assert cost[:, -1].min() / eps > 700
        problem = OtProblem(cost, np.full(300, 1 / 300), np.full(5, 0.2), eps)
        plan = solve_entropic_ot(problem).plan
        assert np.all(plan >= 0)
        assert np.sum(np.abs(plan.sum(axis=1) - problem.row_marginal)) <= 1e-6
        assert np.sum(np.abs(plan.sum(axis=0) - problem.col_marginal)) <= 1e-6

    @pytest.mark.parametrize("transpose", [False, True])
    def test_zero_mass_points_get_zero_plan_entries(self, transpose):
        rng = np.random.default_rng(29)
        cost = rng.uniform(0.0, 3.0, size=(5, 30))
        small = rng.uniform(0.1, 1.0, size=5)
        small[[1, 3]] = 0.0
        large = rng.uniform(0.1, 1.0, size=30)
        large[[0, 7]] = 0.0
        small, large = small / small.sum(), large / large.sum()
        if transpose:
            problem = OtProblem(cost.T, large, small, 0.2)
        else:
            problem = OtProblem(cost, small, large, 0.2)
        plan = solve_entropic_ot(problem).plan
        assert np.all(plan >= 0)
        assert np.sum(np.abs(plan.sum(axis=1) - problem.row_marginal)) <= 1e-6
        assert np.sum(np.abs(plan.sum(axis=0) - problem.col_marginal)) <= 1e-6
        by_small_side = plan.T if transpose else plan
        assert np.all(by_small_side[[1, 3]] == 0.0)
        assert np.all(by_small_side[:, [0, 7]] == 0.0)


def softmin_cost(query, prototypes, eps_sample):
    """The cost of one point against one prototype set: a 1x1 cost matrix."""
    return build_cost_matrix(query[None], [prototypes], eps_sample)[0, 0]


class TestSoftminCost:
    def test_single_prototype_is_squared_distance(self):
        q = np.array([1.0, 2.0])
        p = np.array([[4.0, 6.0]])
        assert softmin_cost(q, p, 1.0) == pytest.approx(25.0)

    def test_query_on_one_prototype_among_far_ones(self):
        q = np.zeros(3)
        protos = np.vstack([np.zeros(3), 50.0 + np.arange(12.0).reshape(4, 3)])
        val = softmin_cost(q, protos, 0.7)
        assert val <= 0.0
        assert val >= -0.7 * np.log(protos.shape[0])

    @given(st.integers(min_value=0, max_value=2**31))
    def test_never_exceeds_hard_min(self, seed):
        rng = np.random.default_rng(seed)
        q = rng.normal(size=4)
        protos = rng.normal(size=(int(rng.integers(1, 12)), 4))
        eps = float(rng.uniform(0.05, 3.0))
        hard = float(np.min(np.sum((protos - q) ** 2, axis=1)))
        val = softmin_cost(q, protos, eps)
        assert val <= hard + 1e-12
        assert val >= hard - eps * np.log(protos.shape[0]) - 1e-12

    def test_empty_prototypes_rejected(self):
        with pytest.raises(ValueError):
            softmin_cost(np.zeros(2), np.zeros((0, 2)), 1.0)
        with pytest.raises(ValueError):
            softmin_cost(np.zeros(2), np.zeros((1, 2)), 0.0)


class TestBuildCostMatrix:
    def test_matches_pointwise_recomputation(self):
        rng = np.random.default_rng(42)
        supports = rng.normal(size=(9, 5))
        protos = [rng.normal(size=(int(rng.integers(1, 7)), 5)) for _ in range(4)]
        cost = build_cost_matrix(supports, protos, 0.8)
        assert cost.shape == (4, 9)
        for b in range(4):
            for n in range(9):
                sq = np.sum((protos[b] - supports[n]) ** 2, axis=1)
                direct = -0.8 * np.log(np.sum(np.exp(-sq / 0.8)))
                assert cost[b, n] == pytest.approx(direct, abs=1e-10)

    def test_shape_and_dim_errors(self):
        with pytest.raises(ValueError):
            build_cost_matrix(np.zeros((3, 2)), [np.zeros((2, 5))], 1.0)
        with pytest.raises(ValueError):
            build_cost_matrix(np.zeros((3, 2)), [np.zeros((0, 2))], 1.0)
        with pytest.raises(ValueError):
            build_cost_matrix(np.zeros((3, 2)), [], 1.0)

    def test_column_slices_give_the_bytes_of_the_whole(self):
        # a population of three column blocks and 1,001 columns more, so
        # the whole matrix's last block takes the remainder: it has the
        # bytes of its outputs on two column slices that start on block
        # edges, the first 2 blocks wide, a width that does not divide N
        block = sinkhorn.COST_BLOCK_COLUMNS
        n = 3 * block + 1001
        rng = np.random.default_rng(46)
        supports = rng.normal(size=(n, 6))
        protos = [1.5 * rng.normal(size=(64, 6)) for _ in range(4)]
        whole = build_cost_matrix(supports, protos, 0.3)
        edges = [0, 2 * block, n]
        parts = [build_cost_matrix(supports[a:b], protos, 0.3)
                 for a, b in zip(edges, edges[1:])]
        assert whole.tobytes() == np.concatenate(parts, axis=1).tobytes()

    def test_a_population_never_holds_a_whole_class_distance_matrix(self):
        # 4 base classes of 64 prototypes against 100,000 points: one
        # class's (64, N) float64 distances would be 51 MB; the column
        # blocks and the (4, N) result stay below that
        rng = np.random.default_rng(47)
        n, m = 100_000, 64
        supports = rng.normal(size=(n, 6))
        protos = [rng.normal(size=(m, 6)) for _ in range(4)]
        tracemalloc.start()
        try:
            build_cost_matrix(supports, protos, 0.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m * n * 8
