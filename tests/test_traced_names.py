"""The library names that the benchmark's tracer wraps.

``bench/layers.py`` wraps library functions at every module attribute bound
to them, and each wrapped function becomes a per-layer metric.  A function
renamed, or no longer looked up at a wrapped binding, drops its metric
without an error; this test catches that.  It only reads ``bench/``.
"""

from pathlib import Path

import poolqueue as pq

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_traced_runs_record_the_analytic_layers(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    import spans

    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        pq.optimize_v(5, 1.2, pq.PostingDistribution("erlang", 1.0, 2), pq.CostParams(1, 1, 1), 5)
        p = pq.SystemParams(v=2, w=6, lam=1.0, posting=pq.PostingDistribution("exponential", 1.0))
        pq.solve_instance(p, method=pq.LADDER)
    finally:
        tracer.uninstall()
    names = [span.name for span in tracer.spans]
    assert {"embedded.embedded_P", "limiting.g_vector", "limiting.limiting_pi"} <= set(names)
    # the ladder's embedded solve runs inside its limiting_pi span
    solve = tracer.spans[names.index("embedded.embedded_P")]
    assert tracer.spans[solve.parent].name == "limiting.limiting_pi"
    assert pq.limiting.embedded_P is pq.embedded.embedded_P
