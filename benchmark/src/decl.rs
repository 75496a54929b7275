//! What the ledger declares: the workloads with the reason each exists, and
//! every metric name with its unit. `BENCHMARK.json` at the repo root repeats
//! these names and adds direction and regression bound; the crate's tests
//! hold the two lists equal.

/// `(name, why it is here)`.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "sssp-random",
        "One Cssp on one large random instance: the cutter protocol and engine stepping do nearly all the work; cover, scheduler and oracle do none.",
    ),
    (
        "apsp-random",
        "The same sssp layer as many small instances streamed into the scheduler: per-subproblem fixed costs and scheduling weigh most here.",
    ),
    (
        "oracle-build",
        "Write side of the oracle: sparse-cover hierarchy, induced subgraphs, one Cssp per cluster on subgraphs of many sizes, level assembly.",
    ),
    (
        "oracle-query",
        "Read side of the oracle: the batch query kernel alone; its setup_s carries the build, so work moved from query into build shows.",
    ),
    (
        "lowenergy-grid",
        "Section 3 low-energy BFS, nine runs: layered-cover construction does most of the work, engine and recursion none; reports the paper's energy.",
    ),
    (
        "engine-flood",
        "The simulator saturated: every node awake, 2m messages per round; delivery arena, capacity counters and outbox.",
    ),
    (
        "engine-wave",
        "The same engine in the paper's regime: 64 runs on 16k nodes, almost all of them asleep; wake queue, active set and per-run state initialisation.",
    ),
];

/// `(name, unit)` of every end-to-end metric; every workload reports each.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("batch_ms", "ms"),
    ("peak_heap_mb", "MB"),
    ("sim_rounds", "rounds"),
    ("sim_messages", "msgs"),
    ("max_congestion", "msgs/edge"),
    ("max_energy", "rounds"),
    ("mean_stretch", "ratio"),
    ("ops_total", "count"),
];

/// `(name, unit)` of every per-layer metric. A workload that does not run a
/// layer reports 0 for that layer's timings.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.n", "count"),
    ("graph.m", "count"),
    ("graph.generate_ms", "ms"),
    ("graph.truth_ms", "ms"),
    ("graph.induced_subgraph_us", "us"),
    ("sim.engine_new_us", "us"),
    ("sim.metrics_remap_us", "us"),
    ("sim.idle_step_ns_per_node_round", "ns"),
    ("sim.flood_ns_per_message", "ns"),
    ("sim.allocs_per_round", "count"),
    ("sim.flood_t2_ratio", "ratio"),
    ("sim.wave_ns_per_awake_round", "ns"),
    ("sim.wave_run_setup_us", "us"),
    ("sim.schedule_ms", "ms"),
    ("sim.schedule_ns_per_trace_entry", "ns"),
    ("cover.layered_construct_ms", "ms"),
    ("cover.sparse_construct_ms", "ms"),
    ("cover.validate_ms", "ms"),
    ("cover.levels", "count"),
    ("cover.clusters", "count"),
    ("cover.max_membership", "count"),
    ("cover.max_tree_depth", "count"),
    ("oracle.query_ns", "ns"),
    ("oracle.assemble_ms", "ms"),
    ("oracle.query_t2_ratio", "ratio"),
    ("oracle.bytes", "bytes"),
    ("oracle.space_ratio", "ratio"),
    ("oracle.stretch_bound", "ratio"),
    ("oracle.max_stretch", "ratio"),
    ("oracle.levels", "count"),
    ("sssp.cutter_top_ms", "ms"),
    ("sssp.forest_top_ms", "ms"),
    ("sssp.thresholded_ms", "ms"),
    ("sssp.facade_overhead_pct", "%"),
    ("sssp.subproblems", "count"),
    ("sssp.total_subproblem_size", "count"),
    ("sssp.levels", "count"),
    ("sssp.max_participation", "count"),
    ("sssp.us_per_sim_round", "us"),
    ("sssp.ns_per_sim_message", "ns"),
    ("sssp.us_per_subproblem_node", "us"),
    ("sssp.cutter_share_est", "ratio"),
    ("sssp.instance_ms", "ms"),
    ("sssp.apsp_compose_ms", "ms"),
    ("sssp.cluster_cssp_ms", "ms"),
    ("sssp.energy_accounting_ms", "ms"),
    ("sssp.allocs_per_batch", "count"),
    ("sssp.alloc_mb_per_batch", "MB"),
    ("sssp.allocs_per_subproblem", "count"),
    ("sssp.unattributed_ms", "ms"),
    ("harness.rounds", "count"),
    ("harness.kernel_median_ms", "ms"),
    ("harness.batch_min_ms", "ms"),
    ("harness.batch_median_ms", "ms"),
    ("harness.batch_p90_ms", "ms"),
    ("harness.batch_iqr_pct", "%"),
    ("harness.verify_ms", "ms"),
    ("harness.trace_overhead_pct", "%"),
    ("harness.host_cores", "count"),
];
