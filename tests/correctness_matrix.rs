//! Cross-crate integration tests: every distributed algorithm — reached
//! uniformly through the `Solver` facade and the algorithm registry — is
//! checked against the sequential ground truth over a matrix of topologies,
//! weight ranges, and seeds.

use congest_sssp_suite::graph::{generators, sequential, Graph, NodeId};
use congest_sssp_suite::sssp::cssp::cssp;
use congest_sssp_suite::sssp::{registry, AlgoConfig, Algorithm, Solver};

/// The workload matrix shared by the integration tests.
fn workloads() -> Vec<(String, Graph)> {
    let mut w = vec![
        ("path".into(), generators::path(48, 3)),
        ("cycle".into(), generators::cycle(36, 5)),
        ("star".into(), generators::star(30, 7)),
        ("grid".into(), generators::with_random_weights(&generators::grid(6, 6, 1), 9, 1)),
        ("binary-tree".into(), generators::binary_tree(31, 2)),
        ("barbell".into(), generators::with_random_weights(&generators::barbell(8, 6, 1), 5, 2)),
        ("broom".into(), generators::broom(20, 10, 4)),
    ];
    for seed in 0..3u64 {
        w.push((
            format!("random-{seed}"),
            generators::with_random_weights(&generators::random_connected(40, 80, seed), 12, seed),
        ));
    }
    w.push((
        "disconnected".into(),
        generators::disjoint_copies(&generators::random_connected(16, 24, 5), 3),
    ));
    w
}

#[test]
fn every_exact_weighted_solver_matches_dijkstra_on_the_whole_matrix() {
    // All-pairs solvers are covered separately (and at smaller sizes) by the
    // registry proptest in `tests/solver_registry.rs` — running n SSSP
    // instances per workload here would dominate the suite's runtime.
    for (name, g) in workloads() {
        let sources = [NodeId(0)];
        let truth = sequential::dijkstra(&g, &sources);
        for info in registry().iter().filter(|i| i.weighted && i.exact() && !i.all_pairs) {
            let run = Solver::on(&g).algorithm(info.algorithm).sources(&sources).run().unwrap();
            assert_eq!(
                run.output.distances, truth.distances,
                "workload {name}, algorithm {}",
                info.name
            );
        }
    }
}

#[test]
fn every_exact_weighted_solver_matches_dijkstra_with_multiple_sources() {
    for (name, g) in workloads() {
        let n = g.node_count();
        let sources = [NodeId(0), NodeId(n / 2), NodeId(n - 1)];
        let truth = sequential::dijkstra(&g, &sources);
        for info in registry().iter().filter(|i| i.weighted && i.exact() && i.multi_source) {
            let run = Solver::on(&g).algorithm(info.algorithm).sources(&sources).run().unwrap();
            assert_eq!(
                run.output.distances, truth.distances,
                "workload {name}, algorithm {}",
                info.name
            );
        }
    }
}

#[test]
fn every_bfs_solver_matches_sequential_bfs() {
    for (name, g) in workloads().into_iter().take(8) {
        let sources = [NodeId(0)];
        let truth = sequential::bfs(&g, &sources);
        for info in registry().iter().filter(|i| !i.weighted) {
            let run = Solver::on(&g).algorithm(info.algorithm).sources(&sources).run().unwrap();
            assert_eq!(
                run.output.distances, truth.distances,
                "workload {name}, algorithm {}",
                info.name
            );
        }
    }
}

#[test]
fn free_function_wrappers_agree_with_the_facade() {
    // `cssp::cssp` stays public beside the facade (the perf ledger times it
    // on its own); both paths must produce identical outputs and metrics.
    let cfg = AlgoConfig::default();
    for (name, g) in workloads().into_iter().take(4) {
        let sources = [NodeId(1)];
        let direct = cssp(&g, &sources, &cfg).unwrap();
        let facade = Solver::on(&g)
            .algorithm(Algorithm::Cssp)
            .sources(&sources)
            .config(cfg.clone())
            .run()
            .unwrap();
        assert_eq!(direct.output, facade.output, "workload {name}");
        assert_eq!(direct.metrics.rounds, facade.report.rounds, "workload {name}");
        assert_eq!(direct.metrics.messages, facade.report.messages, "workload {name}");
        assert_eq!(
            direct.metrics.max_congestion(),
            facade.report.max_congestion,
            "workload {name}"
        );
    }
}

#[test]
fn zero_weight_graphs_are_handled_end_to_end() {
    for seed in 0..3u64 {
        let g = generators::with_random_weights_zero(
            &generators::random_connected(30, 60, seed),
            5,
            seed,
        );
        let sources = [NodeId(0), NodeId(15)];
        let truth = sequential::dijkstra(&g, &sources);
        for info in registry().iter().filter(|i| i.weighted && i.exact() && !i.all_pairs) {
            let run = Solver::on(&g).algorithm(info.algorithm).sources(&sources).run().unwrap();
            assert_eq!(run.output.distances, truth.distances, "seed {seed}, {}", info.name);
        }
    }
}
