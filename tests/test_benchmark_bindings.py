"""The benchmark's traced layers still bind to the program.

perfbench wraps program functions at the module attributes through which
the program calls them. A rename or a call that bypasses such an attribute
would silently zero a per-layer metric; this runs small sweeps and a
harness command under the benchmark's own tracer and checks that every
layer recorded spans.
"""

import os

import pytest

from protodro import cli, sweeps

from test_sweeps import tiny_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

EXPECTED_SPANS = (
    "synthgen.make_pair",
    "priors.build",
    "sinkhorn.phase1_ot",
    "models.bary_transport",
    "sinkhorn.bary_ot",
    "dro.tilt",
    "dro.dual",
    "models.train_classifier",
    "models.batch",
    "models.predict",
    "models.train_regressor",
    "models.huber_batch",
    "harnesses.consistency",
    "dro.scalar_solve",
)


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(ROOT)
    from perfbench.layers import install
    from perfbench.tracing import Tracer

    tracer = Tracer()
    try:
        install(tracer)
        yield tracer
    finally:
        tracer.restore()


def test_traced_layers_record_spans(tracer, tmp_path):
    for task in ("classification", "regression"):
        cfg = tiny_config(task=task, methods=("pgdro", "ot"), seeds=(0,),
                          levels=(1.0,))
        result = sweeps.run_sweep(cfg, tmp_path / task)
        assert not result.failed_cells()
    assert cli.main(["consistency", "--replicates", "1",
                     "--out", str(tmp_path / "consistency")]) == 0
    names = {span.name for span in tracer.spans}
    missing = [name for name in EXPECTED_SPANS if name not in names]
    assert not missing, f"no spans recorded for {missing}"
