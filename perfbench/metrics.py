"""Names of the workloads and of every metric, with units; BENCHMARK.json lists the same.

The orchestrator imports only this module, so it runs without ncsums.
"""

WORKLOAD_NAMES = ("theory-l3", "window-law", "tail-mc", "trajectory-dump")

# End-to-end, tracing off.  Every workload runs two commands, cmd1 and cmd2
# (README.md maps them per workload).
E2E_METRICS = {
    "setup_s": "s",
    "job_s": "s",
    "peak_rss_mb": "MB",
    "cmd1_s": "s",
    "cmd2_s": "s",
}

# Per layer, from the traced run, in report order.  Times are totals per job
# (median over traced jobs); "_s" times marked in DERIVED are a span's time
# minus its children's rather than a timed call.
LAYER_METRICS = {
    "model.observable_s": "s",
    "lattice.smooth_gen_s": "s",
    "lattice.smooth_count": "count",
    "rates.pressure_init_s": "s",
    "rates.chain_structure_s": "s",
    "rates.fiber_elim_s": "s",
    "rates.fiber_elim_calls": "count",
    "rates.fiber_terms": "count",
    "rates.truncation_L": "count",
    "rates.series_sum_s": "s",
    "rates.pressure_evals_per_point": "count",
    "rates.lambda_cache_hit_ratio": "ratio",
    "rates.conjugate_self_s": "s",
    "rates.cramer_s": "s",
    "rates.budget_errors": "count",
    "simulate.draw_s": "s",
    "simulate.draws": "count",
    "simulate.draws_per_s": "1/s",
    "simulate.trajectory_s": "s",
    "simulate.prefix_s": "s",
    "simulate.ldp_s": "s",
    "simulate.ldp_draws_per_s": "1/s",
    "erlaw.window_max_s": "s",
    "erlaw.window_max_calls": "count",
    "erlaw.self_s": "s",
    "cli.render_s": "s",
    "cli.rows": "count",
    "cli.out_bytes": "count",
    "trace.job_s": "s",
    "trace.overhead_s": "s",
}

DERIVED = {
    "rates.pressure_init_s",
    "rates.fiber_elim_s",
    "rates.series_sum_s",
    "rates.conjugate_self_s",
    "simulate.prefix_s",
    "erlaw.self_s",
    "cli.render_s",
    "trace.overhead_s",
}
