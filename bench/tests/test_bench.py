"""Tests of the benchmark's own machinery.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

import dataclasses
import json
import os
import random
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import poolqueue as pq  # noqa: E402

import layers  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from metrics import E2E_METRICS, LAYER_METRICS  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402


# -- stratified inputs -----------------------------------------------------


@pytest.mark.parametrize("name", ["headline", "large-pool", "sim-compare"])
def test_inputs_are_deterministic_per_seed_and_never_repeat(name):
    first = [workloads.make_request(name, 7, i) for i in range(200)]
    again = [workloads.make_request(name, 7, i) for i in range(200)]
    other = [workloads.make_request(name, 8, i) for i in range(200)]
    assert first == again
    keys = [(r.lam, r.w, r.seed) for r in first]
    assert len(set(keys)) == len(keys)
    assert first != other


def test_every_prefix_of_two_to_the_k_requests_covers_the_band_evenly():
    lo, hi = workloads.LAM_BAND
    for k in range(6):
        n = 2**k
        lams = [workloads.make_request("headline", 3, i).lam for i in range(n)]
        slices = sorted(int((lam - lo) / (hi - lo) * n) for lam in lams)
        assert slices == list(range(n))


def test_large_pool_stratifies_capacity_in_base_two_and_load_in_base_three():
    w_lo, w_hi = workloads.W_BAND
    lam_lo, lam_hi = workloads.LAM_BAND
    reqs = [workloads.make_request("large-pool", 5, i) for i in range(27)]
    assert all(w_lo <= r.w <= w_hi for r in reqs)
    quarters = sorted(int((r.w - w_lo) / (w_hi - w_lo + 1) * 4) for r in reqs[:4])
    assert quarters == [0, 1, 2, 3]
    thirds = sorted(int((r.lam - lam_lo) / (lam_hi - lam_lo) * 3) for r in reqs[:3])
    assert thirds == [0, 1, 2]


# -- spans and self time ---------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("b", 3.5, 6.0, 0, 0),  # overlaps a: covered once, not twice
        Span("late", 9.0, 12.0, 0, 0),  # clipped to its parent
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 1.0, 2.5, 3.0])


def test_tracer_links_parents_and_restores_bindings():
    tracer = Tracer()
    original = pq.cost.embedded_P
    original_solve = pq.embedded.stationary_vector
    layers.install(tracer)
    try:
        assert pq.cost.embedded_P is not original
        pq.optimize_v(4, 1.0, pq.PostingDistribution("exponential", 1.0), pq.CostParams(1, 1, 1), 2)
    finally:
        tracer.uninstall()
    assert pq.cost.embedded_P is original
    assert pq.embedded.stationary_vector is original_solve
    names = [s.name for s in tracer.spans]
    assert names[0] == "cost.optimize_v" and names.count("cost.evaluate_cell") == 2
    for span in tracer.spans[1:]:
        parent = tracer.spans[span.parent]
        assert parent.start <= span.start <= span.end <= parent.end
    cell = tracer.spans[names.index("cost.evaluate_cell")]
    assert (cell.attrs["v"], cell.attrs["w"], cell.attrs["family"]) == (1, 4, "exponential")


def test_layer_metrics_report_every_declared_name():
    tracer = Tracer()
    layers.install(tracer)
    try:
        pq.optimize_v(5, 1.2, pq.PostingDistribution("erlang", 1.0, 2), pq.CostParams(1, 1, 1), 5)
    finally:
        tracer.uninstall()
    out = layers.layer_metrics(tracer.spans, 1, 0.0, 0.0)
    assert set(out) == {name for name, _, _ in LAYER_METRICS}
    assert out["cost.evaluate_cell.calls"] == 5
    assert out["embedded.stationary_vector.flops"] == pytest.approx(5 * 2 / 3 * 6**3)


def test_benchmark_json_declares_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert declared == list(E2E_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == ["headline", "large-pool", "sim-compare"]


# -- oracle ----------------------------------------------------------------


def test_oracle_matches_the_library_on_a_small_clip_instance():
    posting = pq.PostingDistribution("exponential", 1.0)
    params = pq.SystemParams(v=2, w=6, lam=1.0, posting=posting)
    law = pq.limiting_pi(params)
    phi = pq.objective(params, pq.CostParams(3, 1, 80), law).total
    ref = oracle.solve_cell(2, 6, 1.0, posting, oracle.CLIP, (3.0, 1.0, 80.0))
    np.testing.assert_allclose(ref.pi1, law.pi1, rtol=0, atol=1e-13)
    assert ref.phi == pytest.approx(phi, rel=1e-13)


def test_reject_and_clip_coincide_for_unit_batches():
    posting = pq.PostingDistribution("erlang", 1.3, 3)
    clip = oracle.solve_cell(1, 9, 0.8, posting, oracle.CLIP)
    reject = oracle.solve_cell(1, 9, 0.8, posting, oracle.REJECT)
    np.testing.assert_allclose(clip.pi1, reject.pi1, atol=1e-15)
    clip = oracle.solve_cell(3, 9, 0.8, posting, oracle.CLIP)
    reject = oracle.solve_cell(3, 9, 0.8, posting, oracle.REJECT)
    assert np.abs(clip.pi1 - reject.pi1).sum() > 1e-3


# -- correctness checks ----------------------------------------------------


def _small_optimum(posting):
    return pq.optimize_v(8, 2.2, posting, workloads.COST, 8)


@pytest.mark.parametrize("posting", workloads.FAMILIES, ids=lambda p: p.kind)
def test_a_correct_result_passes_its_checks(posting):
    result = _small_optimum(posting)
    assert workloads.check_optimize(8, 2.2, posting, result, random.Random(1)) == []


def test_a_corrupted_result_counts_as_failed():
    posting = workloads.FAMILIES[0]
    result = _small_optimum(posting)
    wrong_v0 = dataclasses.replace(result, v0=result.v0 % 8 + 1)
    assert workloads.check_optimize(8, 2.2, posting, wrong_v0, random.Random(1))

    v, bd = result.curve[result.v0 - 1]
    nudged = dataclasses.replace(bd, total=bd.total * (1 + 1e-6))
    curve = list(result.curve)
    curve[result.v0 - 1] = (v, nudged)
    wrong_phi = dataclasses.replace(result, curve=tuple(curve), phi_min=nudged.total)
    assert workloads.check_optimize(8, 2.2, posting, wrong_phi, random.Random(1))


def _compare_doc(clip_law, reject_law, phi):
    return {
        "result": {
            "analytic": {"pi1": clip_law.tolist(), "breakdown": {"total": phi}},
            "policies": {
                policy: {"sim": {"time_avg_dist": law.tolist(), "total_sim_time": 1000.0}}
                for policy, law in (("clip", clip_law), ("reject", reject_law))
            },
        }
    }


def _check_doc(wl, doc, code=0):
    with open(wl.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    req = workloads.make_request("sim-compare", 1, 0)
    return wl.check(req, workloads.Outcome(code, cells=1, postings=0))


def test_a_corrupted_compare_document_counts_as_failed(tmp_path):
    wl = workloads.Workload("sim-compare", str(tmp_path))
    clip, reject = wl.oracle_law(oracle.CLIP), wl.oracle_law(oracle.REJECT)
    assert _check_doc(wl, _compare_doc(clip.pi1, reject.pi1, clip.phi)) == []
    assert _check_doc(wl, _compare_doc(clip.pi1, reject.pi1, clip.phi), code=1)
    assert _check_doc(wl, _compare_doc(clip.pi1, reject.pi1, clip.phi * 1.001))
    uniform = np.full(clip.pi1.size, 1.0 / clip.pi1.size)
    assert _check_doc(wl, _compare_doc(clip.pi1, uniform, clip.phi))


def test_pooled_laws_catch_a_swapped_policy(tmp_path):
    wl = workloads.Workload("sim-compare", str(tmp_path))
    clip = wl.oracle_law(oracle.CLIP)
    for _ in range(10):
        # 0.039 from the reject law: within one request's sampling bound
        assert _check_doc(wl, _compare_doc(clip.pi1, clip.pi1, clip.phi)) == []
    failures = wl.run_checks(seed=1)
    assert len(failures) == 1 and failures[0].startswith("reject")
