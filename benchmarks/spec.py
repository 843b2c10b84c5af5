"""Names and units of every metric the benchmark reports; BENCHMARK.json lists the same."""

WORKLOADS = ("cli_calls", "sweep_grid", "point_eval", "oracle_verify")

# Reported on every workload with --trace 0.  op_p50_s and ops_per_s are the
# workload's main timing and throughput; Workload.primary and .throughput in
# workloads.py name the metric behind each.
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "op_p50_s": "s", "ops_per_s": "1/s"}
CLI_KINDS = ("rates_mu", "rates_optimize", "crossover_ecs_plob", "crossover_bell_plob",
             "sweep", "verify")
PER_LAYER_UNITS = {
    "import.ecs_diqkd_s": "s",
    "import.fock_s": "s",
    "import.scipy_stats_s": "s",
    **{f"cli.main_s.{kind}": "s" for kind in CLI_KINDS},
    "cli.process_overhead_s": "s",
    "optimize.optimize_mu.calls": "count",
    "optimize.optimize_mu.self_s": "s",
    "optimize.evals_per_search": "count",
    "optimize.crossover_optimize_calls": "count",
    "optimize.useful_row_frac": "fraction",
    "rates.ecs_misaligned_stats.calls": "count",
    "rates.ecs_misaligned_stats.self_s": "s",
    "rates.key_rate.calls": "count",
    "rates.key_rate.self_s": "s",
    "rates.bell_state_stats.calls": "count",
    "rates.plob_bound.calls": "count",
    "rates.channel_efficiency.calls": "count",
    "params.DetectorStats.constructions": "count",
    "oracle.oracle_stats.calls": "count",
    "oracle.oracle_stats.self_s": "s",
    "oracle.cutoff_errors": "count",
    "fock.beamsplitter_apply.calls": "count",
    "fock.beamsplitter_apply.self_s": "s",
    "fock.threshold_detect.calls": "count",
    "fock.mode_product.calls": "count",
    "fock.coherent_fock.calls": "count",
    "trace.overhead_s": "s",
}
