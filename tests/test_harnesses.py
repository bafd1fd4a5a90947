"""Fixed-point contraction and atom-budget convergence harnesses."""

import os
from dataclasses import replace

import numpy as np
import pytest
from oracles import transport_map_oracle

from protodro import cli, priors
from protodro.config import ExperimentConfig
from protodro.dro import DroConfig, DualConvergenceError
from protodro.harnesses import (
    CONSISTENCY_BUDGETS,
    CONSISTENCY_PAIRS,
    CONTRACTION_START,
    FIXED_POINT_TOL,
    FLOOR_SIZES,
    INSTANCE_STREAM,
    N_BASE,
    N_TARGET,
    POPULATION_SIZE,
    _build_instance,
    _draw_supports,
    _fixed_point,
    _TransportMap,
    run_consistency,
    run_contraction,
)
from protodro.numkit import SeededRng
from protodro.sinkhorn import build_cost_matrix

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# manifest lines that differ between runs or with --out
RUN_KEYS = ("config_hash", "version", "wall_seconds")


def assert_reproduces_results(out, task, monkeypatch):
    """The benchmark's harness check, run here first: each committed CSV of
    the task in results/ comes back value by value within its tolerance, so
    a change in the path of a harness dual solve fails this. The committed
    manifest comes back too: the same keys, the same verdicts, and every
    other value within that tolerance except the RUN_KEYS."""
    monkeypatch.syspath_prepend(ROOT)
    from perfbench import checks

    for name in checks.HARNESS_CSVS:
        if not name.startswith(task):
            continue
        got_head, got = checks.read_csv(os.path.join(out, name))
        want_head, want = checks.read_csv(os.path.join(ROOT, "results", name))
        assert got_head == want_head
        assert len(got) == len(want)
        for got_row, want_row in zip(got, want):
            assert all(checks._close(a, b, checks.HARNESS_REL_TOL)
                       for a, b in zip(got_row, want_row)), (name, got_row, want_row)
    name = f"{task}_manifest.txt"
    got = checks.read_manifest(os.path.join(out, name))
    want = checks.read_manifest(os.path.join(ROOT, "results", name))
    assert got.keys() == want.keys()
    for key in checks.HARNESS_VERDICTS[name]:
        assert got[key] == want[key], (name, key)
    for key in want.keys() - set(RUN_KEYS):
        assert checks._close(got[key], want[key], checks.HARNESS_REL_TOL), (
            name, key, got[key], want[key])


@pytest.fixture(scope="module")
def contraction_cfg():
    return replace(ExperimentConfig(), task="contraction")


@pytest.fixture(scope="module")
def contraction(contraction_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("contraction")
    return run_contraction(contraction_cfg, out_dir=str(out)), out


@pytest.fixture(scope="module")
def consistency(tmp_path_factory):
    cfg = replace(ExperimentConfig(), task="consistency")
    out = tmp_path_factory.mktemp("consistency")
    return run_consistency(cfg, out_dir=str(out)), out


class TestContraction:
    def test_map_is_locally_contractive(self, contraction):
        res, _ = contraction
        assert res.contractive
        assert res.jacobian_norm < 1.0

    def test_gap_decays_below_threshold(self, contraction):
        res, _ = contraction
        deltas = res.deltas
        below = np.nonzero(deltas < 1e-6)[0]
        assert below.size > 0
        assert below[0] <= 200
        assert not res.diverged

    def test_decay_is_monotone_until_crossing(self, contraction):
        res, _ = contraction
        deltas = res.deltas
        first = int(np.nonzero(deltas < 1e-6)[0][0])
        seg = deltas[: first + 1]
        assert np.all(np.diff(seg) <= 1e-12 + 1e-9 * seg[:-1])

    def test_fitted_rate_is_a_valid_contraction_factor(self, contraction):
        res, _ = contraction
        assert 0.0 < res.rate < 1.0
        assert res.kappa > 0.0

    def test_fixed_point_is_interior_stochastic_matrix(self, contraction):
        res, _ = contraction
        fp = res.fixed_point
        np.testing.assert_allclose(fp.sum(axis=1), 1.0, atol=1e-9)
        assert fp.min() > 1e-3

    def test_noise_floor_shrinks_like_root_n(self, contraction):
        res, _ = contraction
        floors = [res.floors[n] for n in FLOOR_SIZES]
        assert floors[-1] < floors[0]
        assert -0.8 <= res.floor_slope <= -0.2

    def test_full_step_converges_faster_than_damped(self, contraction_cfg,
                                                    contraction, tmp_path):
        damped, _ = contraction
        full = run_contraction(contraction_cfg, out_dir=str(tmp_path), eta=1.0)
        assert full.rate < damped.rate

    def test_output_files_and_headers(self, contraction):
        res, out = contraction
        trace = (out / "contraction_trace.csv").read_text().splitlines()
        assert trace[0] == "t,delta,bound"
        assert len(trace) - 1 == len(res.deltas)
        floor = (out / "contraction_floor.csv").read_text().splitlines()
        assert floor[0] == "n,floor"
        assert len(floor) - 1 == len(FLOOR_SIZES)
        manifest = (out / "contraction_manifest.txt").read_text()
        assert "config_hash = " in manifest
        assert "jacobian_norm = " in manifest
        assert "fixed_point_gap = " in manifest
        assert "floor_fixed_point_gap_max = " in manifest

    def test_fixed_point_reports_an_unfinished_iteration(self):
        rng = np.random.default_rng(7)
        transport = _TransportMap(rng.uniform(0.0, 3.0, (N_BASE, 20)),
                                  np.arange(20) % N_TARGET, eps_class=0.8)
        uniform = np.full((N_TARGET, N_BASE), 1.0 / N_BASE)
        one, gap = _fixed_point(transport, uniform, max_steps=1)
        np.testing.assert_array_equal(one, transport(uniform))
        assert gap > 1e-14
        fixed, gap = _fixed_point(transport, uniform)
        assert gap <= 1e-14
        np.testing.assert_allclose(transport(fixed), fixed, rtol=0, atol=1e-13)

    def test_manifest_counts_unconverged_floor_fixed_points(self, tmp_path):
        # one floor replicate at seed 55 stops its fixed-point iteration
        # after max_steps with a step near 1e-9; the manifest says so
        cfg = replace(ExperimentConfig(), task="contraction", seeds=(55,))
        run_contraction(cfg, out_dir=str(tmp_path), eta=1.0)
        manifest = dict(line.split(" = ", 1) for line in
                        (tmp_path / "contraction_manifest.txt").read_text().splitlines())
        assert manifest["floor_fixed_point_unconverged"] == "1"
        assert float(manifest["floor_fixed_point_gap_max"]) > FIXED_POINT_TOL

    def test_rerun_is_byte_identical(self, contraction_cfg, contraction,
                                     tmp_path):
        _, out = contraction
        run_contraction(contraction_cfg, out_dir=str(tmp_path))
        for name in ("contraction_trace.csv", "contraction_floor.csv"):
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes()

    def test_committed_results_reproduce(self, tmp_path, monkeypatch):
        out = tmp_path / "contraction"
        assert cli.main(["contraction", "--eta", "1", "--seeds", "0",
                         "--out", str(out)]) == 0
        assert_reproduces_results(out, "contraction", monkeypatch)


def _weight_rows(rng):
    """Weights the map meets: the damped iteration's start, uniform, a
    random draw, and rows with a zero entry."""
    zeroed = rng.dirichlet(np.ones(N_BASE), N_TARGET)
    zeroed[0, 1] = 0.0
    zeroed[1, 3] = 0.0
    zeroed /= zeroed.sum(axis=1, keepdims=True)
    return [CONTRACTION_START, np.full((N_TARGET, N_BASE), 1.0 / N_BASE),
            rng.dirichlet(np.ones(N_BASE), N_TARGET), zeroed]


class TestTransportMap:
    """The map keeps the bits of its first form: a fancy-indexed gather,
    the log-sum-exp over the base classes, then the mean over supports."""

    @pytest.mark.parametrize("n", [16, 64, 256, 1024, 3001])
    def test_bits_match_the_gathered_mean(self, n):
        # classes of 8 to 512 supports, and 1,500 and 1,501, interleaved
        rng = np.random.default_rng(n)
        cost = rng.uniform(0.0, 3.0, (N_BASE, n))
        labels = rng.permutation(np.arange(n) % N_TARGET)
        transport = _TransportMap(cost, labels, eps_class=0.8)
        for weights in _weight_rows(rng):
            assert np.array_equal(transport(weights),
                                  transport_map_oracle(cost, labels, 0.8, weights))

    def test_population_bits_match_the_gathered_mean(self, contraction_cfg):
        instance = _build_instance(contraction_cfg, 0)
        feats, labels = _draw_supports(instance, POPULATION_SIZE,
                                       SeededRng(0, INSTANCE_STREAM).child(11))
        eps_sample = contraction_cfg.prior.eps_sample
        eps_class = contraction_cfg.prior.eps_class
        cost = build_cost_matrix(feats, instance.prototypes, eps_sample)
        transport = _TransportMap(cost, labels, eps_class)
        for weights in _weight_rows(np.random.default_rng(5)):
            assert np.array_equal(transport(weights),
                                  transport_map_oracle(cost, labels, eps_class, weights))


class TestConsistency:
    def test_gap_curves_shrink_for_most_pairs(self, consistency):
        res, _ = consistency
        assert res.v_monotone_fraction >= 0.9
        assert res.lambda_monotone_fraction >= 0.9

    def test_gap_arrays_have_ladder_shape(self, consistency):
        res, _ = consistency
        rungs = len(CONSISTENCY_BUDGETS) - 1
        assert res.v_gaps.shape == (rungs, CONSISTENCY_PAIRS)
        assert res.lambda_gaps.shape == (rungs, CONSISTENCY_PAIRS)
        assert np.all(np.isfinite(res.v_gaps))
        assert np.all(res.v_gaps >= 0)

    def test_mean_gap_curve_decreases(self, consistency):
        res, _ = consistency
        means = res.v_gaps.mean(axis=1)
        assert np.all(np.diff(means) < 0)

    def test_output_files_and_headers(self, consistency):
        res, out = consistency
        trace = (out / "consistency_trace.csv").read_text().splitlines()
        assert trace[0] == "pair,class,budget,v_gap_next,lambda_gap_next"
        rungs = len(CONSISTENCY_BUDGETS) - 1
        assert len(trace) - 1 == rungs * CONSISTENCY_PAIRS
        curve = (out / "consistency_curve.csv").read_text().splitlines()
        assert curve[0] == "budget,v_gap_mean,lambda_gap_mean"
        manifest = (out / "consistency_manifest.txt").read_text()
        assert "v_monotone_fraction = " in manifest

    def test_committed_results_reproduce(self, consistency, monkeypatch):
        # the fixture runs the committed settings: seed 0, 32 replicates
        _, out = consistency
        assert_reproduces_results(out, "consistency", monkeypatch)

    def test_coupling_is_solved_once_per_run(self, tmp_path, monkeypatch):
        # the weights do not depend on the atoms, so only the atoms are
        # drawn again per (replicate, budget)
        calls = []
        solve = priors.solve_entropic_ot

        def counting(problem):
            calls.append(problem)
            return solve(problem)

        monkeypatch.setattr(priors, "solve_entropic_ot", counting)
        cfg = replace(ExperimentConfig(), task="consistency")
        run_consistency(cfg, out_dir=str(tmp_path), replicates=4)
        assert len(calls) == 1


@pytest.mark.parametrize("task", ["contraction", "consistency"])
def test_an_unconverged_dual_row_fails_the_run(task, tmp_path):
    # one step converges no harness row, and the run raises rather than
    # write values from unconverged rows
    cfg = replace(ExperimentConfig(), task=task, dro=DroConfig(newton_iters=1))
    run = run_contraction if task == "contraction" else run_consistency
    with pytest.raises(DualConvergenceError, match="dual rows unconverged after 1 steps"):
        run(cfg, out_dir=str(tmp_path))
    assert not any(tmp_path.iterdir())
