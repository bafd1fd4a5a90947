"""Which program functions are traced, and the per-layer metrics read back.

Each wrapper sits at the attribute through which the program calls the
function (sweeps.make_pair, priors.solve_entropic_ot, models.solve_dual_batch,
...), so a call made anywhere else is not counted under that layer. The
metric table maps every per-layer name to its unit; per_op_metrics turns the
spans of one operation into those numbers.
"""

from __future__ import annotations

from .tracing import Span, Tracer, self_times, summarize

# paper cells train for this many epochs (both presets); the cell estimate
# extrapolates the measured warm epoch to it
PAPER_EPOCHS = 200
MB = 1e6

DUAL_FIELDS = (
    ("s", "s"), ("rows", "count"), ("rows_per_s", "1/s"),
    ("newton_per_row", "count"), ("unconverged_frac", "fraction"),
    ("boundary_frac", "fraction"), ("degenerate_frac", "fraction"),
)

# name -> (unit, better)
METRICS = {
    "synthgen.make_pair_s": ("s", "lower"),
    "priors.build_s": ("s", "lower"),
    "sinkhorn.cost_matrix_s": ("s", "lower"),
    "priors.atom_draw_s": ("s", "lower"),
    "sinkhorn.phase1_ot_s": ("s", "lower"),
    "sinkhorn.phase1_ot_calls": ("count", "lower"),
    "sinkhorn.phase1_ot_failed": ("count", "lower"),
    "sinkhorn.phase1_ot_sweeps_total": ("count", "lower"),
    "sinkhorn.phase1_ot_sweeps_median": ("count", "lower"),
    "sinkhorn.phase1_ot_sweeps_max": ("count", "lower"),
    "sinkhorn.phase1_ot_violation_max": ("fraction", "lower"),
    "models.bary_transport_s": ("s", "lower"),
    "sinkhorn.bary_ot_calls": ("count", "lower"),
    "sinkhorn.bary_ot_sweeps": ("count", "lower"),
    "dro.tilt_s": ("s", "lower"),
    "dro.tilt_mb": ("MB", "lower"),
    **{
        f"dro.dual_{kind}_{suffix}": (
            unit, "higher" if suffix == "rows_per_s" else "lower")
        for kind in ("warm", "cold") for suffix, unit in DUAL_FIELDS
    },
    "dro.scalar_solves": ("count", "lower"),
    "dro.scalar_solve_us": ("us", "lower"),
    "models.first_epoch_s": ("s", "lower"),
    "models.warm_epoch_s": ("s", "lower"),
    "models.batch_ms": ("ms", "lower"),
    "models.batch_ms_tail": ("ms", "lower"),
    "models.batch_ms_tail_pct": ("%", "higher"),
    "models.batch_count": ("count", "higher"),
    "models.margin_pass_s": ("s", "lower"),
    "models.margin_pass_rss_growth_mb": ("MB", "lower"),
    "models.predict_s": ("s", "lower"),
    "models.predict_rows_per_s": ("1/s", "higher"),
    "models.paper_cell_est_s": ("s", "lower"),
    "models.reg_epoch_s": ("s", "lower"),
    "models.huber_batch_ms": ("ms", "lower"),
    "models.huber_batch_ms_tail": ("ms", "lower"),
    "models.huber_batch_count": ("count", "higher"),
    "harnesses.contraction_s": ("s", "lower"),
    "harnesses.consistency_s": ("s", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
}


def ot_counts(args, kwargs, result, exc) -> dict:
    """Sweeps and final violation from a TransportPlan or ConvergenceError."""
    if exc is None:
        return {"sweeps": result.iterations_used,
                "violation": result.marginal_violation, "failed": 0}
    if hasattr(exc, "iterations") and hasattr(exc, "violation"):
        return {"sweeps": exc.iterations, "violation": exc.violation,
                "failed": 1}
    return {"sweeps": 0, "violation": 0.0, "failed": 1}


def dual_counts(args, kwargs, result, exc) -> dict:
    """Row counters of one solve_dual_batch call, from its BatchDualResult.

    The call is warm when lam_init (fourth argument) was passed.
    """
    lam_init = kwargs.get("lam_init", args[3] if len(args) > 3 else None)
    counts = {"warm": int(lam_init is not None), "failed": int(exc is not None)}
    if exc is None:
        counts.update(
            rows=int(result.value.size),
            newton=int(result.iterations.sum()),
            unconverged=int((~result.converged).sum()),
            boundary=int((result.boundary != 0).sum()),
            degenerate=int(result.degenerate.sum()),
        )
    return counts


def nbytes_counts(args, kwargs, result, exc) -> dict:
    return {"bytes": int(result.nbytes) if exc is None else 0}


def _rows_of(position: int, name: str):
    def counts(args, kwargs, result, exc) -> dict:
        value = kwargs[name] if name in kwargs else args[position]
        rows = value.shape[0] if hasattr(value, "shape") else len(value)
        return {"rows": int(rows), "failed": int(exc is not None)}
    return counts


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of the program."""
    from protodro import cli, harnesses, models, priors, sweeps

    tracer.wrap(sweeps, "make_pair", "synthgen.make_pair")
    tracer.wrap(sweeps, "build_adapted_priors", "priors.build")
    tracer.wrap(priors, "build_cost_matrix", "sinkhorn.cost_matrix")
    tracer.wrap(priors, "solve_entropic_ot", "sinkhorn.phase1_ot", ot_counts)
    tracer.wrap(priors, "gaussian_sample", "priors.atom_draw")
    tracer.wrap(models, "barycentric_transport", "models.bary_transport")
    tracer.wrap(models, "solve_entropic_ot", "sinkhorn.bary_ot", ot_counts)
    tracer.wrap(models, "gibbs_tilt_batch", "dro.tilt", nbytes_counts)
    tracer.wrap(models, "solve_dual_batch", "dro.dual", dual_counts)
    tracer.wrap(harnesses, "solve_dual", "dro.scalar_solve")
    tracer.wrap(sweeps, "train_pgdro_classifier", "models.train_classifier",
                _rows_of(0, "data"))
    tracer.wrap(models, "robust_ce_objective_stacked", "models.batch",
                _rows_of(4, "idx"))
    tracer.wrap(models, "robust_scores_stacked", "models.robust_scores")
    tracer.wrap(models.RobustClassifier, "predict", "models.predict",
                _rows_of(1, "features"))
    tracer.wrap(sweeps, "train_pgdro_regressor", "models.train_regressor",
                _rows_of(0, "data"))
    tracer.wrap(models, "robust_huber_objective", "models.huber_batch",
                _rows_of(2, "features"))
    tracer.wrap(cli, "run_contraction", "harnesses.contraction")
    tracer.wrap(cli, "run_consistency", "harnesses.consistency")


def _epochs(batches: list[Span], n_rows: int) -> list[float]:
    """Group consecutive batch spans into epochs of n_rows rows each."""
    durations = []
    rows = 0
    first = None
    for span in batches:
        if first is None:
            first = span
        rows += span.counts["rows"]
        if rows >= n_rows:
            durations.append(span.end - first.start)
            rows, first = 0, None
    return durations


def _median(values: list[float]) -> float:
    return summarize(values)["median"]


def _training(named, train_name: str, batch_name: str):
    """Batch spans made directly by each training call, and epoch times."""
    batches, epochs = [], []
    for train in named(train_name):
        mine = [s for s in named(batch_name) if s.parent == train.id]
        batches += mine
        epochs += _epochs(mine, train.counts["rows"])
    return batches, epochs


def per_op_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers of one operation's spans (0 where a layer is idle)."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.duration for s in named(name))

    m = dict.fromkeys(METRICS, 0.0)
    m["synthgen.make_pair_s"] = total("synthgen.make_pair")
    m["priors.build_s"] = sum(own[s.id] for s in named("priors.build"))
    m["sinkhorn.cost_matrix_s"] = total("sinkhorn.cost_matrix")
    m["priors.atom_draw_s"] = total("priors.atom_draw")

    ot = named("sinkhorn.phase1_ot")
    sweeps = [s.counts["sweeps"] for s in ot]
    m["sinkhorn.phase1_ot_s"] = total("sinkhorn.phase1_ot")
    m["sinkhorn.phase1_ot_calls"] = len(ot)
    m["sinkhorn.phase1_ot_failed"] = sum(s.counts["failed"] for s in ot)
    m["sinkhorn.phase1_ot_sweeps_total"] = sum(sweeps)
    m["sinkhorn.phase1_ot_sweeps_median"] = _median(sweeps)
    m["sinkhorn.phase1_ot_sweeps_max"] = max(sweeps, default=0)
    m["sinkhorn.phase1_ot_violation_max"] = max(
        (s.counts["violation"] for s in ot), default=0.0)

    m["models.bary_transport_s"] = total("models.bary_transport")
    bary = named("sinkhorn.bary_ot")
    m["sinkhorn.bary_ot_calls"] = len(bary)
    m["sinkhorn.bary_ot_sweeps"] = sum(s.counts["sweeps"] for s in bary)

    predict_ids = {s.id for s in named("models.predict")}
    train_tilts = [s for s in named("dro.tilt") if s.parent not in predict_ids]
    m["dro.tilt_s"] = sum(s.duration for s in train_tilts)
    m["dro.tilt_mb"] = sum(s.counts["bytes"] for s in train_tilts) / MB

    for kind, flag in (("warm", 1), ("cold", 0)):
        calls = [s for s in named("dro.dual") if s.counts["warm"] == flag
                 and not s.counts["failed"]]
        seconds = sum(s.duration for s in calls)
        rows = sum(s.counts["rows"] for s in calls)
        key = f"dro.dual_{kind}_"
        m[key + "s"] = seconds
        m[key + "rows"] = rows
        if rows:
            m[key + "rows_per_s"] = rows / seconds
            for count, suffix in (("newton", "newton_per_row"),
                                  ("unconverged", "unconverged_frac"),
                                  ("boundary", "boundary_frac"),
                                  ("degenerate", "degenerate_frac")):
                m[key + suffix] = sum(s.counts[count] for s in calls) / rows

    scalar = named("dro.scalar_solve")
    m["dro.scalar_solves"] = len(scalar)
    if scalar:
        m["dro.scalar_solve_us"] = 1e6 * total("dro.scalar_solve") / len(scalar)

    batches, epochs = _training(named, "models.train_classifier", "models.batch")
    if epochs:
        m["models.first_epoch_s"] = epochs[0]
        m["models.warm_epoch_s"] = _median(epochs[1:])
    batch = summarize([1e3 * s.duration for s in batches])
    m["models.batch_ms"] = batch["median"]
    m["models.batch_ms_tail"] = batch["tail"]
    m["models.batch_ms_tail_pct"] = batch["tail_pct"]
    m["models.batch_count"] = batch["count"]

    train_ids = {s.id for s in named("models.train_classifier")}
    margin = [s for s in named("models.robust_scores") if s.parent in train_ids]
    m["models.margin_pass_s"] = sum(s.duration for s in margin)
    m["models.margin_pass_rss_growth_mb"] = sum(
        1024 * s.rss_growth_kb for s in margin) / MB
    predicts = named("models.predict")
    m["models.predict_s"] = total("models.predict")
    if predicts:
        m["models.predict_rows_per_s"] = (
            sum(s.counts["rows"] for s in predicts) / m["models.predict_s"])
    if train_ids:
        m["models.paper_cell_est_s"] = (
            m["dro.tilt_s"] + m["models.first_epoch_s"]
            + (PAPER_EPOCHS - 1) * m["models.warm_epoch_s"]
            + m["models.margin_pass_s"] + m["models.predict_s"]
        )

    huber, reg_epochs = _training(named, "models.train_regressor",
                                  "models.huber_batch")
    m["models.reg_epoch_s"] = _median(reg_epochs)
    huber_ms = summarize([1e3 * s.duration for s in huber])
    m["models.huber_batch_ms"] = huber_ms["median"]
    m["models.huber_batch_ms_tail"] = huber_ms["tail"]
    m["models.huber_batch_count"] = huber_ms["count"]

    m["harnesses.contraction_s"] = total("harnesses.contraction")
    m["harnesses.consistency_s"] = total("harnesses.consistency")
    return m
