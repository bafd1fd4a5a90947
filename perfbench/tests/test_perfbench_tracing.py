"""Span bookkeeping, self-time arithmetic and counter extraction.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import types

import numpy as np
import pytest

from perfbench import layers
from perfbench.checks import DigestStore
from perfbench.tracing import Span, Tracer, self_times, summarize
from protodro.dro import DroConfig, solve_dual_batch
from protodro.sinkhorn import ConvergenceError, OtProblem, solve_entropic_ot


def _span(i, name, parent, start, end, **counts):
    return Span(i, name, parent, 0, start, end, 0, counts)


class TestSelfTime:
    def test_children_are_subtracted(self):
        spans = [_span(0, "a", None, 0.0, 10.0),
                 _span(1, "b", 0, 1.0, 3.0),
                 _span(2, "c", 0, 5.0, 9.0),
                 _span(3, "d", 2, 6.0, 7.0)]
        own = self_times(spans)
        assert own == pytest.approx({0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0})

    def test_overlap_counts_once_and_is_clipped(self):
        spans = [_span(0, "a", None, 0.0, 10.0),
                 _span(1, "b", 0, 2.0, 6.0),
                 _span(2, "c", 0, 4.0, 8.0),
                 _span(3, "d", 0, 9.0, 12.0)]
        # union of [2, 8] and [9, 10] inside the parent
        assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)

    def test_self_times_sum_to_root_duration(self):
        spans = [_span(0, "a", None, 0.0, 5.0),
                 _span(1, "b", 0, 0.5, 4.0),
                 _span(2, "c", 1, 1.0, 2.0),
                 _span(3, "c", 1, 2.5, 3.5)]
        assert sum(self_times(spans).values()) == pytest.approx(5.0)


class TestSummarize:
    def test_tail_leaves_ten_samples_beyond(self):
        out = summarize([float(i) for i in range(1, 73)])
        # p90 of 72 leaves 7 beyond it, p75 leaves 18
        assert out["tail_pct"] == 75.0
        assert out["tail"] == 54.0
        assert out["median"] == 36.5
        assert out["count"] == 72

    def test_too_few_samples_for_a_tail(self):
        out = summarize([3.0, 1.0, 2.0])
        assert out["median"] == 2.0 and out["tail_pct"] == 0.0

    def test_empty(self):
        assert summarize([])["count"] == 0


class TestTracer:
    def test_wrap_records_parents_and_restores(self):
        module = types.SimpleNamespace()
        module.inner = lambda x: x + 1
        module.outer = lambda x: module.inner(x) * 2
        original = module.outer
        tracer = Tracer()
        tracer.wrap(module, "outer", "outer")
        tracer.wrap(module, "inner", "inner",
                    lambda args, kwargs, result, exc: {"value": result})
        assert module.outer(1) == 4
        tracer.restore()
        assert module.outer is original
        outer, inner = tracer.spans
        assert (outer.name, outer.parent) == ("outer", None)
        assert (inner.name, inner.parent, inner.counts) == ("inner", 0, {"value": 2})
        assert outer.start <= inner.start <= inner.end <= outer.end

    def test_exception_is_recorded_and_reraised(self):
        def boom():
            raise ValueError("no")

        module = types.SimpleNamespace(boom=boom)
        tracer = Tracer()
        tracer.wrap(module, "boom", "boom")
        with pytest.raises(ValueError, match="no"):
            module.boom()
        assert tracer.spans[0].counts == {"failed": 1}
        assert tracer.spans[0].end >= tracer.spans[0].start


class TestCounters:
    def _batch(self):
        rng = np.random.default_rng(0)
        logq = np.log(rng.dirichlet(np.ones(16), size=6))
        scores = rng.normal(size=16)
        scores_flat = np.ones(16)
        rows = np.vstack([logq, logq[:1]])
        f = np.vstack([np.broadcast_to(scores, (6, 16)), scores_flat])
        return rows, f

    def test_dual_counts_match_the_batch_result(self):
        rows, f = self._batch()
        cfg = DroConfig(newton_iters=1)
        result = solve_dual_batch(rows, f, cfg)
        counts = layers.dual_counts((rows, f, cfg), {}, result, None)
        assert counts["rows"] == 7 and counts["warm"] == 0
        assert counts["newton"] == int(result.iterations.sum())
        assert counts["unconverged"] == int((~result.converged).sum())
        assert counts["unconverged"] > 0  # one Newton step is not enough
        assert counts["degenerate"] == 1
        assert counts["boundary"] == int((result.boundary != 0).sum())

    def test_warm_flag_from_lam_init(self):
        rows, f = self._batch()
        cfg = DroConfig()
        lam = np.ones(rows.shape[0])
        result = solve_dual_batch(rows, f, cfg, lam)
        assert layers.dual_counts((rows, f, cfg, lam), {}, result, None)["warm"] == 1
        assert layers.dual_counts((rows, f, cfg), {"lam_init": lam},
                                  result, None)["warm"] == 1

    def _problem(self):
        cost = np.array([[0.0, 4.0, 1.0], [3.0, 0.5, 2.0]])
        return OtProblem(cost, np.full(2, 0.5), np.full(3, 1 / 3), 0.5)

    def test_ot_counts_from_plan(self):
        plan = solve_entropic_ot(self._problem())
        counts = layers.ot_counts((), {}, plan, None)
        assert counts == {"sweeps": plan.iterations_used,
                          "violation": plan.marginal_violation, "failed": 0}

    def test_ot_counts_from_convergence_error(self):
        with pytest.raises(ConvergenceError) as info:
            solve_entropic_ot(self._problem(), tol=0.0, max_iters=3)
        counts = layers.ot_counts((), {}, None, info.value)
        assert counts == {"sweeps": 3, "violation": info.value.violation,
                          "failed": 1}


class TestPerOpMetrics:
    def test_epochs_and_margin_from_spans(self):
        spans = [_span(0, "models.train_classifier", None, 0.0, 20.0, rows=10)]
        t = 1.0
        for i, size in enumerate([4, 4, 2, 4, 4, 2]):
            spans.append(_span(1 + i, "models.batch", 0, t, t + 1.0, rows=size))
            t += 1.0 if i != 2 else 3.0
        spans.append(_span(7, "models.robust_scores", 0, 12.0, 14.0))
        spans.append(_span(8, "dro.dual", 7, 12.5, 13.5, warm=1, failed=0,
                           rows=20, newton=40, unconverged=5, boundary=0,
                           degenerate=2))
        m = layers.per_op_metrics(spans)
        # epoch 0 spans batches starting at 1, 2, 3; epoch 1 at 6, 7, 8
        assert m["models.first_epoch_s"] == pytest.approx(3.0)
        assert m["models.warm_epoch_s"] == pytest.approx(3.0)
        assert m["models.batch_count"] == 6
        assert m["models.margin_pass_s"] == pytest.approx(2.0)
        assert m["dro.dual_warm_rows"] == 20
        assert m["dro.dual_warm_unconverged_frac"] == pytest.approx(0.25)
        assert m["dro.dual_warm_newton_per_row"] == pytest.approx(2.0)
        assert m["dro.dual_cold_rows"] == 0
        assert m["models.paper_cell_est_s"] == pytest.approx(
            3.0 + 199 * 3.0 + 2.0)
        assert set(m) == set(layers.METRICS)


def test_digest_store_flags_a_changed_value(tmp_path):
    path = str(tmp_path / "digests.json")
    store = DigestStore(path)
    assert store.check("k", "abc") == []
    store.save()
    again = DigestStore(path)
    assert again.check("k", "abc") == []
    assert again.check("k", "abd") != []


def test_benchmark_json_lists_what_the_runner_prints():
    import json
    import os

    from perfbench import run

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} \
        == layers.METRICS
    assert [m["name"] for m in bench["end_to_end"]] and all(
        run.UNITS[m["name"]] == m["unit"] for m in bench["end_to_end"])
    assert tuple(m["name"] for m in bench["end_to_end"]) == run.END_TO_END


def test_cell_failure_keeps_its_full_message():
    from perfbench.workloads import _record_failures

    def predictions(method, pair, cfg, seed):
        raise ConvergenceError("entropic OT did not converge", 1e-5, 1000)

    module = types.SimpleNamespace(_classification_predictions=predictions)
    sink = []
    with _record_failures(module, "_classification_predictions", sink):
        with pytest.raises(ConvergenceError):
            module._classification_predictions("pgdro", None, None, 7)
    assert module._classification_predictions is predictions
    assert sink == ["pgdro seed 7: ConvergenceError: entropic OT did not converge"]


def _harness_dir(path, contractive, fraction):
    from perfbench.checks import HARNESS_CSVS

    path.mkdir()
    (path / "contraction_manifest.txt").write_text(
        f"contractive = {contractive}\ndiverged = 0\n")
    (path / "consistency_manifest.txt").write_text(
        f"v_monotone_fraction = 1\nlambda_monotone_fraction = {fraction}\n")
    for name in HARNESS_CSVS:
        (path / name).write_text("a,b\n1,2\n")
    return str(path)


def test_monotone_fractions_match_the_committed_run_only_at_its_seed(tmp_path):
    from perfbench.checks import compare_harness

    reference = _harness_dir(tmp_path / "ref", 1, "1")
    other_seed = _harness_dir(tmp_path / "other", 1, "0.97999999999999998")
    assert compare_harness(other_seed, reference, committed_seed=False) == []
    assert compare_harness(other_seed, reference, committed_seed=True) != []


def test_seed_free_verdicts_match_the_committed_run_at_every_seed(tmp_path):
    from perfbench.checks import compare_harness

    reference = _harness_dir(tmp_path / "ref", 1, "1")
    broken = _harness_dir(tmp_path / "broken", 0, "1")
    assert compare_harness(broken, reference, committed_seed=False) != []
    out_of_range = _harness_dir(tmp_path / "range", 1, "1.5")
    assert compare_harness(out_of_range, reference, committed_seed=False) != []
