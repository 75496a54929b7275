//! Registry-driven differential tests: the capability flags of
//! `congest_sssp::registry()` are load-bearing — every algorithm that
//! *claims* exact weighted distances must agree with the Dijkstra reference
//! on random connected graphs, whatever its execution model (always-awake,
//! sleeping, or the all-pairs composition). A solver added to the registry
//! is picked up here automatically.

use std::panic::{catch_unwind, AssertUnwindSafe};

use congest_sssp_suite::graph::{generators, sequential, Graph, NodeId};
use congest_sssp_suite::sim::FaultPlan;
use congest_sssp_suite::sssp::apsp::ApspConfig;
use congest_sssp_suite::sssp::{registry, AlgoConfig, OracleConfig, Solver};
use proptest::prelude::*;

/// Small graphs: the all-pairs entry runs one SSSP instance per node. The
/// mix alternates random connected graphs with the adversarial killer
/// families of `generators` (see `docs/SEQ_BASELINES.md`), so every registry
/// entrant is exercised on the workloads built to break heap disciplines and
/// relaxation orders, not just on benign random topologies.
fn small_weighted_graph() -> impl Strategy<Value = (Graph, NodeId)> {
    (3u32..16, 0u64..20, 0u64..10_000, 1u64..24, 0usize..6).prop_map(
        |(n, extra, seed, max_w, family)| {
            let g = match family {
                0 => generators::wrong_dijkstra_killer(n.max(4)),
                1 => generators::spfa_killer(n.max(2)),
                2 => generators::grid_swirl(2 + n % 4),
                3 => generators::almost_line(16 + n, seed),
                4 => generators::max_dense(n.max(3), seed),
                _ => {
                    let g = generators::random_connected(n, extra, seed);
                    generators::with_random_weights(&g, max_w, seed ^ 0xd1ff)
                }
            };
            let n = g.node_count();
            (g, NodeId((seed % n as u64) as u32))
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every algorithm whose registry entry claims exact weighted distances
    /// agrees with the Dijkstra baseline.
    #[test]
    fn exact_weighted_algorithms_agree_with_dijkstra((g, src) in small_weighted_graph()) {
        let truth = sequential::dijkstra(&g, &[src]);
        for info in registry().iter().filter(|i| i.weighted && i.exact()) {
            let run = Solver::on(&g).algorithm(info.algorithm).source(src).run().unwrap();
            prop_assert_eq!(
                &run.output.distances, &truth.distances,
                "algorithm {} diverged from Dijkstra", info.name
            );
            // The unified report is consistent with the output.
            prop_assert_eq!(
                run.report.reached,
                run.output.reached_count() as u64,
                "algorithm {}", info.name
            );
            // All-pairs entries also expose the full matrix; its row for the
            // requested source must be the reported output.
            if info.all_pairs {
                let matrix = run.all_pairs.as_ref().expect("all-pairs matrix");
                prop_assert_eq!(&matrix[src.index()], &run.output.distances);
                let full_truth = sequential::all_pairs(&g);
                prop_assert_eq!(matrix, &full_truth, "algorithm {}", info.name);
            } else {
                prop_assert!(run.all_pairs.is_none());
            }
        }
    }

    /// Approximate algorithms stay within their self-reported error bound
    /// and never drop a node that exact algorithms reach within the
    /// untruncated threshold.
    #[test]
    fn approximate_algorithms_respect_their_error_bound((g, src) in small_weighted_graph()) {
        let truth = sequential::dijkstra(&g, &[src]);
        for info in registry().iter().filter(|i| i.weighted && i.approximate) {
            let run = Solver::on(&g).algorithm(info.algorithm).source(src).run().unwrap();
            let bound = run.report.error_bound.expect("approximate solvers report a bound");
            for v in g.nodes() {
                let est = run.distance(v);
                let t = truth.distance(v);
                if let (Some(est), Some(t)) = (est.finite(), t.finite()) {
                    prop_assert!(
                        t <= est && est <= t + bound,
                        "algorithm {}: node {} estimate {} vs truth {} (+{})",
                        info.name, v, est, t, bound
                    );
                }
            }
        }
    }
}

/// The configurations a request can carry, one field of which a case sets.
type Knobs = (AlgoConfig, ApspConfig, OracleConfig);

/// Sets one field of the configurations to a `u64`, which a narrower field
/// saturates to its maximum.
type Setter = fn(&mut Knobs, u64);

/// Every integer field of the configurations, by name: the fault plan's
/// included. One case sets two fields: a huge `epsilon_inverse` with the
/// oracle's fallback off, so the oracle sums the rounds of clusters that
/// each report `u64::MAX`.
fn config_fields() -> Vec<(&'static str, Setter)> {
    fn u32_of(x: u64) -> u32 {
        u32::try_from(x).unwrap_or(u32::MAX)
    }
    fn usize_of(x: u64) -> usize {
        usize::try_from(x).unwrap_or(usize::MAX)
    }
    vec![
        ("epsilon_inverse", |k, x| k.0.epsilon_inverse = x),
        ("epsilon_inverse, oracle.fallback_threshold = 0", |k, x| {
            k.0.epsilon_inverse = x;
            k.2.fallback_threshold = 0;
        }),
        ("sim.max_rounds", |k, x| k.0.sim.max_rounds = x),
        // A seed draws fates only beside a message fault: one drop in ten.
        ("sim.faults.seed", |k, x| {
            k.0.sim.faults = FaultPlan::none().with_seed(x).with_drop_ppm(100_000)
        }),
        ("sim.faults.drop_ppm", |k, x| k.0.sim.faults.drop_ppm = u32_of(x)),
        ("apsp.threads", |k, x| k.1.threads = usize_of(x)),
        ("oracle.fallback_threshold", |k, x| k.2.fallback_threshold = u32_of(x)),
    ]
}

/// Every registry algorithm, with one configuration field at a time at 0, 1,
/// `2⁵⁴` or its maximum — or, where it takes one, a threshold at those
/// values — comes back with a run or a typed error, never a panic or an
/// abort. `2⁵⁴` is huge but, unlike the maximum, passes every up-front
/// check: an `epsilon_inverse` of `2⁵⁴` runs APSP instances of `≈ 2⁵⁴`
/// rounds, whose schedule cannot be allocated. The fault plan's fields are
/// among them.
#[test]
fn every_algorithm_at_every_config_extreme_returns_ok_or_a_typed_error() {
    let weighted = generators::with_random_weights(&generators::random_connected(12, 8, 5), 9, 5);
    let extremes = [0, 1, 1 << 54, u64::MAX];
    for g in [generators::path(4, 1), weighted] {
        for info in registry() {
            let request = Solver::on(&g).algorithm(info.algorithm).source(NodeId(0));
            let mut cases = Vec::new();
            for (field, set) in config_fields() {
                for x in extremes {
                    let mut knobs = Knobs::default();
                    set(&mut knobs, x);
                    let (config, apsp, oracle) = knobs;
                    let case = request.clone().config(config).apsp_config(apsp);
                    cases.push((format!("{field} = {x}"), case.oracle_config(oracle)));
                }
            }
            if info.thresholded {
                for x in extremes {
                    cases.push((format!("threshold {x}"), request.clone().threshold(x)));
                }
            }
            for (case, request) in cases {
                let outcome = catch_unwind(AssertUnwindSafe(|| request.run()));
                assert!(
                    outcome.is_ok(),
                    "{} panicked at {case} on n = {}",
                    info.name,
                    g.node_count()
                );
            }
        }
    }
}
