//! The graph families the always-awake protocols (`weighted_bfs`, at rounded
//! and at unit weight, and `baseline::bellman_ford`) are compared on against
//! their always-stepped references: every one must produce the same
//! [`crate::AlgoRun`] whether its nodes idle through `on_round` or wait in
//! `NodeCtx::listen_until`.

use congest_graph::{generators, Graph};
use congest_sim::FaultPlan;

use crate::AlgoConfig;

/// Positive-weight graphs: random, structured, disconnected, and the killer
/// families of `docs/SEQ_BASELINES.md`.
pub(crate) fn weighted_workloads() -> Vec<Graph> {
    vec![
        generators::with_random_weights(&generators::random_connected(40, 70, 1), 11, 1),
        generators::with_random_weights(&generators::random_connected(64, 200, 2), 40, 2),
        generators::with_random_weights(&generators::grid(6, 6, 1), 9, 4),
        generators::path(25, 3),
        generators::disjoint_copies(&generators::path(6, 2), 3),
        generators::wrong_dijkstra_killer(24),
        generators::spfa_killer(12),
        generators::grid_swirl(6),
        generators::almost_line(30, 5),
        generators::max_dense(16, 6),
    ]
}

/// The configurations every comparison runs under: plain, and under a fault
/// plan that drops messages, among them mail that would end a wait.
pub(crate) fn configs() -> Vec<AlgoConfig> {
    let plan = FaultPlan::none().with_seed(7).with_drop_ppm(150_000);
    vec![AlgoConfig::default(), AlgoConfig::default().with_faults(plan)]
}
