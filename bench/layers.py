"""Per-layer spans: where the traced run wraps the library, and how its spans
become the per-layer metrics.

Each public function is wrapped at every name its callers look it up by: for
example ``cost.py`` imports ``embedded_P`` and ``limiting_pi`` by name, and
``cli.py`` calls ``sim_mod.run_sim``.
"""

from __future__ import annotations

from collections import defaultdict

import poolqueue
from poolqueue import cli, cost, dist, embedded, limiting, sim

from metrics import LAYER_METRICS
from spans import Span, Tracer, self_times

MODULES = (poolqueue, dist, embedded, limiting, cost, sim, cli)


def _psi_row(args, result, error):
    return {"terms": args["kmax"] + 1}


def _embedded_P(args, result, error):
    return {} if result is None else {"truncation_level": result.truncation_level}


def _stationary_vector(args, result, error):
    n = args["M"].shape[0]
    return {"flops": 2.0 / 3.0 * n**3}


def _limiting_pi(args, result, error):
    # accuracy of the returned law, computed after the span has ended
    if result is None:
        return {}
    return {
        "residual": abs(float(result.pi.sum()) - 1.0),
        "min_entry": float(result.pi.min()),
        "valid": result.valid,
    }


def _run_sim(args, result, error):
    if result is None:
        return {}
    config = args["config"]
    return {
        "postings": config.num_postings,
        "lam": args["params"].lam,
        "warmup": config.warmup_fraction,
        "sim_time": result.total_sim_time,
        "recorded_time": result.recorded_time,
    }


def install(tracer: Tracer) -> None:
    """Wrap every traced library function; ``tracer.uninstall()`` undoes it."""
    pd = dist.PostingDistribution
    targets = (
        (pd.psi_row, "dist.psi_row", (pd,), _psi_row),
        (pd.sample, "dist.sample", (pd,), None),
        (embedded.embedded_P, "embedded.embedded_P", MODULES, _embedded_P),
        (embedded.admission_tpm, "embedded.admission_tpm", MODULES, None),
        (embedded.stationary_vector, "embedded.stationary_vector", MODULES, _stationary_vector),
        (limiting.limiting_pi, "limiting.limiting_pi", MODULES, _limiting_pi),
        (limiting.g_vector, "limiting.g_vector", MODULES, None),
        (limiting.interval_occupancy, "limiting.interval_occupancy", MODULES, None),
        (cost.evaluate_cell, "cost.evaluate_cell", MODULES, None),
        (cost.solve_instance, "cost.solve_instance", MODULES, None),
        (cost.objective, "cost.objective", MODULES, None),
        (cost.optimize_v, "cost.optimize_v", MODULES, None),
        (sim.run_sim, "sim.run_sim", MODULES, _run_sim),
        (sim.compare, "sim.compare", MODULES, None),
        (cli.main, "cli.main", MODULES, None),
    )
    for fn, name, owners, annotate in targets:
        tracer.install(fn, name, owners, annotate)


def layer_metrics(spans: list[Span], requests: int, doc_bytes: float, overhead_s: float) -> dict:
    """Per-request means of self times and counts over the traced requests;
    accuracy figures are extremes over every returned law."""
    total = defaultdict(float)
    residual, min_entry = 0.0, float("inf")
    sim_time = defaultdict(float)
    events = 0.0
    for span, self_s in zip(spans, self_times(spans)):
        name, a = span.name, span.attrs
        if name == "sim.run_sim":
            name = f"sim.run_sim.{a['policy']}"
            if "postings" in a:
                sim_time[a["policy"]] += span.duration
                total[f"sim.postings.{a['policy']}"] += a["postings"]
                # arrivals estimated as lam times the simulated time, scaled
                # back from the post-warmup window to the whole run
                events += a["postings"] + a["lam"] * a["sim_time"] / (1.0 - a["warmup"])
        total[f"{name}.self_s"] += self_s
        total[f"{name}.calls"] += 1
        total["dist.psi_row.terms"] += a.get("terms", 0)
        total["embedded.embedded_P.failed"] += name == "embedded.embedded_P" and "error" in a
        total["embedded.truncation_level.sum"] += a.get("truncation_level", 0)
        total["embedded.stationary_vector.flops"] += a.get("flops", 0.0)
        if name == "limiting.limiting_pi" and "residual" in a:
            total["limiting.invalid"] += not a["valid"]
            residual = max(residual, a["residual"])
            min_entry = min(min_entry, a["min_entry"])

    out = {name: total[name] / requests for name, _, _ in LAYER_METRICS}
    for policy in ("clip", "reject"):
        t = sim_time[policy]
        out[f"sim.postings_per_s.{policy}"] = total[f"sim.postings.{policy}"] / t if t else 0.0
    run_sim_s = sum(sim_time.values())
    out["sim.events_per_s"] = events / run_sim_s if run_sim_s else 0.0
    out["limiting.residual_max"] = residual
    out["limiting.min_entry"] = min_entry if min_entry != float("inf") else 0.0
    out["cli.doc_bytes"] = doc_bytes / requests
    out["trace.overhead_s"] = overhead_s
    return out
