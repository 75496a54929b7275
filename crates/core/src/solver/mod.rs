//! The unified solver facade: one request/run API over every SSSP/BFS/APSP
//! algorithm in this crate.
//!
//! The paper's pipeline is one family of interchangeable distance solvers —
//! the exact recursion, its thresholded/approximate layers, the sleeping-model
//! variants, the baselines, and the APSP composition. This module exposes them
//! uniformly:
//!
//! * [`Algorithm`] enumerates the solvers; [`registry()`] describes each one's
//!   capabilities (weighted? multi-source? sleeping-model? approximate?
//!   all-pairs? thresholded?), so callers can iterate solvers generically.
//! * [`Solver::on`] starts a [`SolverRequest`] builder;
//!   [`SolverRequest::run`] executes it and returns one [`SolverRun`] with
//!   the distances, a unified [`RunReport`] (including energy/awake-round and
//!   recursion/scheduling sections where applicable).
//!
//! The facade is the one way to run an algorithm. Beside it, only the four
//! layers the perf ledger times on their own stay public:
//! [`crate::cssp::cssp`], [`crate::thresholded::thresholded_cssp`],
//! [`crate::approx::approximate_cssp`] and
//! [`crate::spanning_forest::spanning_forest`].
//!
//! ```
//! use congest_graph::{generators, NodeId};
//! use congest_sssp::{registry, Algorithm, Solver};
//!
//! # fn main() -> Result<(), congest_sssp::AlgoError> {
//! let g = generators::with_random_weights(&generators::grid(4, 4, 1), 8, 7);
//! // One specific solver…
//! let run = Solver::on(&g).algorithm(Algorithm::Cssp).source(NodeId(0)).run()?;
//! assert!(run.report.max_congestion > 0);
//! // …or every exact weighted solver, generically.
//! for info in registry().iter().filter(|i| i.weighted && i.exact() && !i.all_pairs) {
//!     let r = Solver::on(&g).algorithm(info.algorithm).source(NodeId(0)).run()?;
//!     assert_eq!(r.output.distances, run.output.distances, "{}", info.name);
//! }
//! # Ok(())
//! # }
//! ```

mod registry;

pub use registry::{registry, Algorithm, AlgorithmInfo};

use congest_graph::{Distance, Graph, NodeId};
use congest_sim::Metrics;

use crate::approx::approximate_cssp;
use crate::apsp::{apsp, ApspConfig};
use crate::baseline::{distributed_bellman_ford, distributed_dijkstra};
use crate::cssp::cssp;
use crate::energy::{low_energy_bfs, low_energy_cssp};
use crate::error::check_sources;
use crate::oracle::{build_oracle, OracleConfig};
use crate::result::{
    AlgoRun, DistanceOutput, RecursionReport, RunReport, ScheduleReport, SourceOffset,
};
use crate::thresholded::thresholded_cssp;
use crate::weighted_bfs::thresholded_bfs;
use crate::{AlgoConfig, AlgoError};

/// Entry point of the facade: [`Solver::on`] starts a request on a graph.
#[derive(Debug, Clone, Copy)]
pub struct Solver;

impl Solver {
    /// Starts a [`SolverRequest`] on `g` (algorithm [`Algorithm::Cssp`], no
    /// sources, default [`AlgoConfig`]).
    pub fn on(g: &Graph) -> SolverRequest<'_> {
        SolverRequest {
            graph: g,
            algorithm: Algorithm::Cssp,
            sources: Vec::new(),
            threshold: None,
            config: AlgoConfig::default(),
            apsp_config: ApspConfig::default(),
            oracle_config: OracleConfig::default(),
        }
    }
}

/// A buildable request against one graph: pick an [`Algorithm`], sources, an
/// optional threshold, and configuration, then [`SolverRequest::run`] it.
#[derive(Debug, Clone)]
pub struct SolverRequest<'g> {
    graph: &'g Graph,
    algorithm: Algorithm,
    sources: Vec<SourceOffset>,
    threshold: Option<u64>,
    config: AlgoConfig,
    apsp_config: ApspConfig,
    oracle_config: OracleConfig,
}

impl SolverRequest<'_> {
    /// Selects the algorithm to run.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Adds one plain source node.
    pub fn source(mut self, source: NodeId) -> Self {
        self.sources.push(SourceOffset::plain(source));
        self
    }

    /// Replaces the source set with `sources` (all plain, offset 0).
    pub fn sources(mut self, sources: &[NodeId]) -> Self {
        self.sources = sources.iter().map(|&s| SourceOffset::plain(s)).collect();
        self
    }

    /// Replaces the source set with offset sources (the recursion's
    /// "imaginary node" device; only [`Algorithm::Cssp`] and
    /// [`Algorithm::ApproximateCssp`] accept non-zero offsets).
    pub fn source_offsets(mut self, sources: &[SourceOffset]) -> Self {
        self.sources = sources.to_vec();
        self
    }

    /// Sets the distance threshold (weighted solvers) or hop limit (BFS
    /// solvers). Only algorithms with [`AlgorithmInfo::thresholded`] accept
    /// one; the default is a bound that never truncates (hop limit `n`,
    /// distance limit [`Graph::distance_upper_bound`]).
    pub fn threshold(mut self, threshold: u64) -> Self {
        self.threshold = Some(threshold);
        self
    }

    /// Sets the algorithm configuration.
    pub fn config(mut self, config: AlgoConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the APSP scheduling configuration ([`Algorithm::Apsp`] and the
    /// exact fallback of [`Algorithm::DistanceOracle`]; ignored by every
    /// other algorithm).
    pub fn apsp_config(mut self, apsp_config: ApspConfig) -> Self {
        self.apsp_config = apsp_config;
        self
    }

    /// Sets the oracle construction policy ([`Algorithm::DistanceOracle`]
    /// only; ignored by every other algorithm).
    pub fn oracle_config(mut self, oracle_config: OracleConfig) -> Self {
        self.oracle_config = oracle_config;
        self
    }

    /// Validates the request — its sources first, then the algorithm's
    /// capability flags — and runs it.
    ///
    /// # Errors
    ///
    /// [`AlgoError::EmptySourceSet`] for no sources (an all-pairs algorithm
    /// reports node 0's row instead) and [`AlgoError::SourceOutOfRange`] for
    /// the first source outside the graph, for every algorithm;
    /// [`AlgoError::UnsupportedRequest`] if an option the algorithm does not
    /// support was set (see [`registry()`]); otherwise whatever the underlying
    /// algorithm reports (zero weights where unsupported, simulation
    /// failures).
    pub fn run(self) -> Result<SolverRun, AlgoError> {
        let info = self.algorithm.info();
        let g = self.graph;
        let nodes: Vec<NodeId> = self.sources.iter().map(|s| s.node).collect();
        // An all-pairs run reports node 0's row unless asked for another.
        let checked = if info.all_pairs && nodes.is_empty() { &[NodeId(0)][..] } else { &nodes };
        check_sources(g, checked.iter().copied())?;
        let row = checked[0];
        if self.sources.len() > 1 && !info.multi_source {
            return Err(AlgoError::UnsupportedRequest {
                algorithm: info.name,
                reason: "more than one source",
            });
        }
        if self.threshold.is_some() && !info.thresholded {
            return Err(AlgoError::UnsupportedRequest {
                algorithm: info.name,
                reason: "a distance threshold",
            });
        }
        let has_offsets = self.sources.iter().any(|s| s.offset > 0);
        if has_offsets && !matches!(self.algorithm, Algorithm::Cssp | Algorithm::ApproximateCssp) {
            return Err(AlgoError::UnsupportedRequest {
                algorithm: info.name,
                reason: "offset sources",
            });
        }

        let full_distance = g.distance_upper_bound().max(1);
        let hop_limit = self.threshold.unwrap_or(g.node_count() as u64);
        let new_report = |metrics: &Metrics, output: &DistanceOutput| {
            RunReport::new(self.algorithm, g, metrics, output)
        };
        let simulated = |run: AlgoRun| SolverRun {
            report: new_report(&run.metrics, &run.output),
            output: run.output,
            all_pairs: None,
        };
        match self.algorithm {
            Algorithm::Cssp => {
                let run = if self.threshold.is_none() && !has_offsets {
                    cssp(g, &nodes, &self.config)?
                } else {
                    let d = self.threshold.unwrap_or(full_distance);
                    thresholded_cssp(g, &self.sources, d, &self.config)?
                };
                let mut report = new_report(&run.metrics, &run.output);
                report.recursion = Some(RecursionReport::from(&run.stats));
                Ok(SolverRun { output: run.output, all_pairs: None, report })
            }
            Algorithm::ApproximateCssp => {
                let w = self.threshold.unwrap_or(full_distance);
                let out = approximate_cssp(g, &self.sources, w, &self.config)?;
                let output = DistanceOutput { distances: out.estimates };
                let mut report = new_report(&out.metrics, &output);
                report.error_bound = Some(out.error_bound);
                Ok(SolverRun { output, all_pairs: None, report })
            }
            Algorithm::Bfs => Ok(simulated(thresholded_bfs(g, &nodes, hop_limit, &self.config)?)),
            Algorithm::LowEnergyBfs => {
                let (run, sleeping) = low_energy_bfs(g, &nodes, hop_limit)?;
                let mut report = new_report(&run.metrics, &run.output);
                report.sleeping = Some(sleeping);
                Ok(SolverRun { output: run.output, all_pairs: None, report })
            }
            Algorithm::LowEnergyCssp => {
                let (run, sleeping) = low_energy_cssp(g, &nodes, &self.config)?;
                let mut report = new_report(&run.metrics, &run.output);
                report.sleeping = Some(sleeping);
                report.recursion = Some(RecursionReport::from(&run.stats));
                Ok(SolverRun { output: run.output, all_pairs: None, report })
            }
            Algorithm::Dijkstra => Ok(simulated(distributed_dijkstra(g, &nodes))),
            Algorithm::BellmanFord => {
                Ok(simulated(distributed_bellman_ford(g, &nodes, &self.config)?))
            }
            Algorithm::Apsp => {
                let run = apsp(g, &self.config, &self.apsp_config)?;
                let output = DistanceOutput { distances: run.distances[row.index()].clone() };
                let schedule = &run.schedule;
                let mut report = RunReport::composed(
                    self.algorithm,
                    g,
                    &output,
                    schedule.model_rounds,
                    run.total_messages,
                    schedule.congestion,
                );
                report.schedule = Some(ScheduleReport {
                    makespan: schedule.makespan,
                    model_rounds: schedule.model_rounds,
                    // The schedule's realized per-round capacity; a schedule
                    // with no messages still ran under a budget >= 1.
                    edge_budget: (schedule.model_rounds / schedule.makespan.max(1)).max(1),
                    sequential_rounds: run.sequential_rounds,
                    max_instance_congestion: run.max_instance_congestion,
                });
                Ok(SolverRun { output, all_pairs: Some(run.distances), report })
            }
            Algorithm::DistanceOracle => {
                let build = build_oracle(g, &self.config, &self.oracle_config, &self.apsp_config)?;
                // The reported row: one query per node from `row`. The
                // oracle itself stays queryable for every other pair.
                let distances: Vec<Distance> =
                    g.nodes().map(|v| build.oracle.query(row, v)).collect();
                let output = DistanceOutput { distances };
                // Multiplicative stretch `est <= s·t` restated additively for
                // the unified report: `t >= est/s`, so the additive error of
                // any estimate is at most `est·(s-1)/s`, maximized over the
                // reported row.
                let s = build.report.stretch_bound.max(1) as u128;
                let error_bound = output
                    .distances
                    .iter()
                    .filter_map(|d| d.finite())
                    .map(|est| ((est as u128 * (s - 1)).div_ceil(s)) as u64)
                    .max()
                    .unwrap_or(0);
                let mut report = RunReport::composed(
                    self.algorithm,
                    g,
                    &output,
                    build.rounds,
                    build.messages,
                    build.max_congestion,
                );
                report.error_bound = Some(error_bound);
                report.oracle = Some(build.report);
                Ok(SolverRun { output, all_pairs: None, report })
            }
        }
    }
}

/// One completed solver run, uniform over every [`Algorithm`].
#[derive(Debug, Clone, PartialEq)]
pub struct SolverRun {
    /// Distances from the requested source set (for [`Algorithm::Apsp`], the
    /// row of the first requested source, default node 0).
    pub output: DistanceOutput,
    /// The full distance matrix (all-pairs algorithms only).
    pub all_pairs: Option<Vec<Vec<Distance>>>,
    /// The unified complexity report.
    pub report: RunReport,
}

impl SolverRun {
    /// The distance of node `v`.
    pub fn distance(&self, v: NodeId) -> Distance {
        self.output.distance(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultPlan;
    use congest_graph::{generators, sequential};

    fn weighted(n: u32, seed: u64) -> Graph {
        generators::with_random_weights(
            &generators::random_connected(n, 2 * n as u64, seed),
            9,
            seed,
        )
    }

    /// What the facade must report for `algorithm` from `source`: the
    /// crate-private call it dispatches to, with every report field derived
    /// from that call's metrics, and its own sections where it has them. The
    /// composed rows (APSP, the oracle) take their sections from `facade`,
    /// whose totals they are checked against.
    fn direct(g: &Graph, algorithm: Algorithm, source: NodeId, facade: &SolverRun) -> SolverRun {
        let cfg = AlgoConfig::default();
        let (s, n) = ([source], g.node_count() as u64);
        let simulated = |run: AlgoRun| SolverRun {
            report: RunReport::new(algorithm, g, &run.metrics, &run.output),
            output: run.output,
            all_pairs: None,
        };
        match algorithm {
            Algorithm::Cssp => {
                let run = cssp(g, &s, &cfg).unwrap();
                let mut report = RunReport::new(algorithm, g, &run.metrics, &run.output);
                report.recursion = Some(RecursionReport::from(&run.stats));
                SolverRun { output: run.output, all_pairs: None, report }
            }
            Algorithm::ApproximateCssp => {
                let w = g.distance_upper_bound().max(1);
                let out = approximate_cssp(g, &[SourceOffset::plain(source)], w, &cfg).unwrap();
                let output = DistanceOutput { distances: out.estimates };
                let mut report = RunReport::new(algorithm, g, &out.metrics, &output);
                report.error_bound = Some(out.error_bound);
                SolverRun { output, all_pairs: None, report }
            }
            Algorithm::Bfs => simulated(thresholded_bfs(g, &s, n, &cfg).unwrap()),
            Algorithm::LowEnergyBfs => {
                let (run, sleeping) = low_energy_bfs(g, &s, n).unwrap();
                let mut report = RunReport::new(algorithm, g, &run.metrics, &run.output);
                report.sleeping = Some(sleeping);
                SolverRun { output: run.output, all_pairs: None, report }
            }
            Algorithm::LowEnergyCssp => {
                let (run, sleeping) = low_energy_cssp(g, &s, &cfg).unwrap();
                let mut report = RunReport::new(algorithm, g, &run.metrics, &run.output);
                report.sleeping = Some(sleeping);
                report.recursion = Some(RecursionReport::from(&run.stats));
                SolverRun { output: run.output, all_pairs: None, report }
            }
            Algorithm::Dijkstra => simulated(distributed_dijkstra(g, &s)),
            Algorithm::BellmanFord => simulated(distributed_bellman_ford(g, &s, &cfg).unwrap()),
            Algorithm::Apsp => {
                let run = apsp(g, &cfg, &ApspConfig::default()).unwrap();
                let output = DistanceOutput { distances: run.distances[source.index()].clone() };
                let (rounds, congestion) = (run.schedule.model_rounds, run.schedule.congestion);
                let report = RunReport {
                    schedule: facade.report.schedule,
                    ..RunReport::composed(
                        algorithm,
                        g,
                        &output,
                        rounds,
                        run.total_messages,
                        congestion,
                    )
                };
                SolverRun { output, all_pairs: Some(run.distances), report }
            }
            Algorithm::DistanceOracle => {
                let (oracle_config, apsp_config) = (OracleConfig::default(), ApspConfig::default());
                let build = build_oracle(g, &cfg, &oracle_config, &apsp_config).unwrap();
                let distances = g.nodes().map(|v| build.oracle.query(source, v)).collect();
                let output = DistanceOutput { distances };
                let (rounds, messages) = (build.rounds, build.messages);
                let report = RunReport {
                    error_bound: facade.report.error_bound,
                    oracle: Some(build.report),
                    ..RunReport::composed(
                        algorithm,
                        g,
                        &output,
                        rounds,
                        messages,
                        build.max_congestion,
                    )
                };
                SolverRun { output, all_pairs: None, report }
            }
        }
    }

    #[test]
    fn facade_matches_the_crate_private_calls() {
        let g = weighted(24, 3);
        for info in registry() {
            let facade = Solver::on(&g).algorithm(info.algorithm).source(NodeId(2)).run().unwrap();
            assert_eq!(facade, direct(&g, info.algorithm, NodeId(2), &facade), "{}", info.name);
        }
    }

    #[test]
    fn every_algorithm_rejects_bad_sources_with_the_one_check() {
        let g = weighted(8, 4);
        for info in registry() {
            let request = Solver::on(&g).algorithm(info.algorithm);
            let empty = request.clone().run();
            if info.all_pairs {
                assert!(empty.is_ok(), "{}: the default row", info.name);
            } else {
                assert_eq!(empty.unwrap_err(), AlgoError::EmptySourceSet, "{}", info.name);
            }
            let far = NodeId(g.node_count() + 1);
            let out_of_range = request.clone().source(far).run();
            assert_eq!(
                out_of_range,
                Err(AlgoError::SourceOutOfRange { node: far }),
                "{}",
                info.name
            );
            if info.multi_source {
                let second = request.sources(&[NodeId(0), far]).run();
                assert_eq!(second, Err(AlgoError::SourceOutOfRange { node: far }), "{}", info.name);
            }
        }
        // The empty graph has no default row either.
        let empty_graph = Graph::empty(0);
        let apsp = Solver::on(&empty_graph).algorithm(Algorithm::Apsp).run();
        assert_eq!(apsp.unwrap_err(), AlgoError::SourceOutOfRange { node: NodeId(0) });
    }

    #[test]
    fn every_exact_weighted_solver_agrees_with_dijkstra() {
        let g = weighted(18, 11);
        let truth = sequential::dijkstra(&g, &[NodeId(2)]);
        for info in registry().iter().filter(|i| i.weighted && i.exact()) {
            let run = Solver::on(&g).algorithm(info.algorithm).source(NodeId(2)).run().unwrap();
            assert_eq!(run.output.distances, truth.distances, "{}", info.name);
            assert_eq!(run.report.algorithm, info.algorithm);
            assert_eq!(run.report.n, g.node_count());
            assert_eq!(run.report.reached, g.node_count() as u64);
        }
    }

    #[test]
    fn bfs_solvers_compute_hop_distances() {
        let g = weighted(20, 5);
        let truth = sequential::bfs(&g, &[NodeId(1)]);
        for info in registry().iter().filter(|i| !i.weighted) {
            let run = Solver::on(&g).algorithm(info.algorithm).source(NodeId(1)).run().unwrap();
            assert_eq!(run.output.distances, truth.distances, "{}", info.name);
            assert_eq!(run.report.sleeping.is_some(), info.sleeping_model, "{}", info.name);
        }
    }

    #[test]
    fn threshold_dispatches_to_the_thresholded_recursion() {
        let g = generators::path(16, 4); // distances 0, 4, 8, ..., 60
        let run = Solver::on(&g)
            .algorithm(Algorithm::Cssp)
            .source(NodeId(0))
            .threshold(20)
            .run()
            .unwrap();
        // Threshold rounds up to a power of two internally (32 here), exactly
        // like calling thresholded_cssp directly.
        let direct =
            thresholded_cssp(&g, &[SourceOffset::plain(NodeId(0))], 20, &AlgoConfig::default())
                .unwrap();
        assert_eq!(run.output, direct.output);
        assert!(run.report.reached < g.node_count() as u64, "threshold truncates");
    }

    #[test]
    fn offset_sources_reach_the_recursion() {
        let g = generators::path(10, 2);
        let sources = [SourceOffset { node: NodeId(0), offset: 3 }];
        let run = Solver::on(&g).algorithm(Algorithm::Cssp).source_offsets(&sources).run().unwrap();
        let direct =
            thresholded_cssp(&g, &sources, g.distance_upper_bound().max(1), &AlgoConfig::default())
                .unwrap();
        assert_eq!(run.output, direct.output);
        assert_eq!(run.distance(NodeId(0)).finite(), Some(3));
    }

    #[test]
    fn exactly_the_two_recursions_accept_offset_sources() {
        let g = weighted(12, 5);
        let sources = [SourceOffset { node: NodeId(0), offset: 3 }];
        let reason = "offset sources";
        let mut accepted = Vec::new();
        for info in registry() {
            match Solver::on(&g).algorithm(info.algorithm).source_offsets(&sources).run() {
                Ok(_) => accepted.push(info.algorithm),
                Err(e) => {
                    assert_eq!(e, AlgoError::UnsupportedRequest { algorithm: info.name, reason })
                }
            }
        }
        assert_eq!(accepted, [Algorithm::Cssp, Algorithm::ApproximateCssp]);
    }

    #[test]
    fn approximate_solver_reports_its_error_bound() {
        let g = weighted(20, 7);
        let w = g.distance_upper_bound() / 4 + 1;
        let run = Solver::on(&g)
            .algorithm(Algorithm::ApproximateCssp)
            .source(NodeId(0))
            .threshold(w)
            .run()
            .unwrap();
        let bound = run.report.error_bound.expect("error bound present");
        let truth = sequential::dijkstra(&g, &[NodeId(0)]);
        for v in g.nodes() {
            if let (Some(est), Some(t)) = (run.distance(v).finite(), truth.distance(v).finite()) {
                assert!(t <= est && est <= t + bound, "node {v}: {est} vs {t} (+{bound})");
            }
        }
    }

    #[test]
    fn apsp_returns_the_full_matrix_and_schedule_section() {
        let g = weighted(12, 9);
        let run = Solver::on(&g)
            .algorithm(Algorithm::Apsp)
            .source(NodeId(3))
            .apsp_config(ApspConfig { seed: 4, ..ApspConfig::default() })
            .run()
            .unwrap();
        let truth = sequential::all_pairs(&g);
        let matrix = run.all_pairs.as_ref().expect("all-pairs matrix present");
        assert_eq!(matrix, &truth);
        assert_eq!(run.output.distances, truth[3]);
        let sched = run.report.schedule.expect("schedule section present");
        assert!(sched.makespan > 0 && sched.edge_budget > 0);
        assert!(sched.speedup() > 1.0);
        assert_eq!(run.report.rounds, sched.model_rounds);
    }

    #[test]
    fn distance_oracle_reports_construction_and_respects_stretch() {
        let g = weighted(20, 13);
        let truth = sequential::dijkstra(&g, &[NodeId(2)]);
        // n = 20 is at or below the default fallback threshold: the oracle is
        // an exact matrix with stretch 1 and additive error 0.
        let run =
            Solver::on(&g).algorithm(Algorithm::DistanceOracle).source(NodeId(2)).run().unwrap();
        let section = run.report.oracle.as_ref().expect("oracle section present");
        assert!(section.fallback);
        assert_eq!(section.stretch_bound, 1);
        assert_eq!(run.report.error_bound, Some(0));
        assert_eq!(run.output.distances, truth.distances);
        assert!(run.all_pairs.is_none(), "queryable without materializing the matrix");

        // Forcing the cover path keeps every estimate within the reported
        // additive bound derived from the proven stretch.
        let run = Solver::on(&g)
            .algorithm(Algorithm::DistanceOracle)
            .source(NodeId(2))
            .oracle_config(OracleConfig::default().with_fallback_threshold(0))
            .run()
            .unwrap();
        let section = run.report.oracle.as_ref().expect("oracle section present");
        assert!(!section.fallback && section.levels > 0);
        assert!(section.bytes > 0 && section.exact_matrix_bytes > 0);
        let bound = run.report.error_bound.expect("error bound present");
        for v in g.nodes() {
            let est = run.distance(v).expect_finite();
            let t = truth.distance(v).expect_finite();
            assert!(t <= est && est <= t + bound, "node {v}: {est} vs {t} (+{bound})");
        }
    }

    #[test]
    fn unsupported_requests_are_rejected_with_the_algorithm_name() {
        let g = generators::path(6, 1);
        let cases = [
            Solver::on(&g).algorithm(Algorithm::BellmanFord).source(NodeId(0)).threshold(4).run(),
            Solver::on(&g).algorithm(Algorithm::Apsp).sources(&[NodeId(0), NodeId(1)]).run(),
            Solver::on(&g)
                .algorithm(Algorithm::Dijkstra)
                .source_offsets(&[SourceOffset { node: NodeId(0), offset: 2 }])
                .run(),
            Solver::on(&g)
                .algorithm(Algorithm::ApproximateCssp)
                .source(NodeId(0))
                .threshold(0)
                .run(),
        ];
        for case in cases {
            assert!(matches!(case, Err(AlgoError::UnsupportedRequest { .. })), "{case:?}");
        }
    }

    #[test]
    fn a_hop_limit_of_u64_max_is_the_unthresholded_bfs() {
        // `limit + 10` used to overflow in the BFS (a panic in debug builds, a
        // wrapped round limit of 9, then `RoundLimitExceeded`, in release),
        // `2 * target` in the low-energy BFS's layered cover (a panic in
        // debug builds, wrapped — too few — rounds in release), and rounding
        // the threshold up to a power of two in `Cssp` (a panic in debug
        // builds, a threshold of 0 in release).
        let g = weighted(30, 3);
        for algorithm in [Algorithm::Bfs, Algorithm::LowEnergyBfs, Algorithm::Cssp] {
            let request = Solver::on(&g).algorithm(algorithm).source(NodeId(0));
            let unthresholded = request.clone().run().unwrap();
            assert_eq!(request.threshold(u64::MAX).run().unwrap(), unthresholded, "{algorithm:?}");
        }
    }

    #[test]
    fn every_algorithm_is_reachable_via_the_facade() {
        let g = weighted(10, 1);
        for info in registry() {
            let run = Solver::on(&g).algorithm(info.algorithm).source(NodeId(0)).run().unwrap();
            assert_eq!(run.report.algorithm, info.algorithm, "{}", info.name);
            assert!(run.report.rounds > 0, "{}", info.name);
            assert_eq!(run.all_pairs.is_some(), info.all_pairs, "{}", info.name);
        }
    }

    /// The metrics of a single-source `algorithm` from `source`, through the
    /// crate-private call the facade dispatches to (a `RunReport` keeps no
    /// per-edge load).
    fn metrics_of(
        g: &Graph,
        algorithm: Algorithm,
        source: NodeId,
        cfg: &AlgoConfig,
    ) -> Result<Metrics, AlgoError> {
        let (s, n) = ([source], g.node_count() as u64);
        Ok(match algorithm {
            Algorithm::Cssp => cssp(g, &s, cfg)?.metrics,
            Algorithm::ApproximateCssp => {
                let w = g.distance_upper_bound().max(1);
                approximate_cssp(g, &[SourceOffset::plain(source)], w, cfg)?.metrics
            }
            Algorithm::Bfs => thresholded_bfs(g, &s, n, cfg)?.metrics,
            Algorithm::LowEnergyBfs => low_energy_bfs(g, &s, n)?.0.metrics,
            Algorithm::LowEnergyCssp => low_energy_cssp(g, &s, cfg)?.0.metrics,
            Algorithm::Dijkstra => distributed_dijkstra(g, &s).metrics,
            Algorithm::BellmanFord => distributed_bellman_ford(g, &s, cfg)?.metrics,
            Algorithm::Apsp | Algorithm::DistanceOracle => unreachable!("all-pairs rows compose"),
        })
    }

    #[test]
    fn every_measured_or_charged_run_counts_a_message_on_its_edge() {
        let graphs = [
            weighted(16, 5),
            generators::with_random_weights_zero(&generators::random_connected(16, 24, 6), 5, 6),
            generators::disjoint_copies(&generators::path(5, 2), 3),
        ];
        let plan = FaultPlan::none().with_seed(5).with_drop_ppm(100_000);
        let configs = [AlgoConfig::default(), AlgoConfig::default().with_faults(plan)];
        let holds = |metrics: &Metrics, what: &str| {
            let summed: u64 = metrics.edge_congestion.iter().sum();
            assert_eq!(metrics.messages, summed, "messages == Σ edge_congestion: {what}");
            assert!(metrics.max_energy() <= metrics.rounds, "max_energy <= rounds: {what}");
        };
        let single_source: Vec<Algorithm> = registry()
            .iter()
            .map(|info| info.algorithm)
            .filter(|a| !matches!(a, Algorithm::Apsp | Algorithm::DistanceOracle))
            .collect();
        let mut checked = 0;
        for (i, g) in graphs.iter().enumerate() {
            for low_energy in [false, true] {
                let (_, metrics) = crate::spanning_forest::spanning_forest(g, low_energy);
                holds(&metrics, &format!("spanning forest (low energy: {low_energy}), graph {i}"));
            }
            for (c, cfg) in configs.iter().enumerate() {
                for &algorithm in &single_source {
                    if let Ok(metrics) = metrics_of(g, algorithm, NodeId(1), cfg) {
                        holds(&metrics, &format!("{algorithm}, graph {i}, config {c}"));
                        checked += 1;
                    }
                }
            }
        }
        // Errors are skipped, but most runs must have been checked.
        let runs = graphs.len() * configs.len() * single_source.len();
        assert!(4 * checked >= 3 * runs, "only {checked} of {runs} runs returned");
    }
}
