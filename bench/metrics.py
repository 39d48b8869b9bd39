"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the root of the repository declares the same lists.
"""

# Wall time of the reference kernel (worker.Reference) on the machine the
# bounds were set on; end-to-end times are rescaled to this speed.
REF_NOMINAL_S = 0.0065

# end-to-end metrics of an untraced run: name, unit, better
E2E_METRICS = (
    ("setup_s", "s", "lower"),
    ("request_s.p50", "s", "lower"),
    ("work_per_s", "1/s", "higher"),
)

# per-layer metrics of a traced run, reported on every workload
LAYER_METRICS = (
    ("dist.psi_row.calls", "count", "lower"),
    ("dist.psi_row.self_s", "s", "lower"),
    ("dist.psi_row.terms", "count", "lower"),
    ("dist.sample.self_s", "s", "lower"),
    ("embedded.embedded_P.calls", "count", "lower"),
    ("embedded.embedded_P.self_s", "s", "lower"),
    ("embedded.embedded_P.failed", "count", "lower"),
    ("embedded.truncation_level.sum", "count", "lower"),
    ("embedded.admission_tpm.self_s", "s", "lower"),
    ("embedded.stationary_vector.self_s", "s", "lower"),
    ("embedded.stationary_vector.flops", "flop", "lower"),
    ("limiting.limiting_pi.self_s", "s", "lower"),
    ("limiting.g_vector.calls", "count", "lower"),
    ("limiting.g_vector.self_s", "s", "lower"),
    ("limiting.interval_occupancy.self_s", "s", "lower"),
    ("limiting.invalid", "count", "lower"),
    ("limiting.residual_max", "prob", "lower"),
    ("limiting.min_entry", "prob", "higher"),
    ("cost.evaluate_cell.calls", "count", "lower"),
    ("cost.solve_instance.self_s", "s", "lower"),
    ("cost.objective.self_s", "s", "lower"),
    ("cost.optimize_v.self_s", "s", "lower"),
    ("sim.run_sim.clip.self_s", "s", "lower"),
    ("sim.run_sim.reject.self_s", "s", "lower"),
    ("sim.postings_per_s.clip", "1/s", "higher"),
    ("sim.postings_per_s.reject", "1/s", "higher"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.compare.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.doc_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
