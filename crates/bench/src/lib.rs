//! Experiment harness reproducing the complexity claims of the paper.
//!
//! The paper is a theory paper with no empirical section, so the "tables" to
//! reproduce are its stated bounds (see `EXPERIMENTS.md` at the repository
//! root). Each `eN_*` function here runs the corresponding experiment and
//! returns serializable rows; the `experiments` binary prints them as
//! markdown tables.
//!
//! Every column is a simulated, deterministic statistic (rounds, messages,
//! congestion, energy, structure), so two runs print the same bytes. Nothing
//! here reads a clock — simlint's `wall-clock` rule covers this crate like
//! every other; host speed is the perf ledger's business (`benchmark/`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod table;

use congest_cover::sparse_cover::SparseCover;
use congest_graph::{generators, properties, Graph, NodeId};
use congest_sssp::apsp::ApspConfig;
use congest_sssp::spanning_forest::spanning_forest;
use congest_sssp::{
    registry, AlgoConfig, AlgoError, Algorithm, AlgorithmInfo, FaultPlan, RecursionReport,
    RunReport, ScheduleReport, SleepingReport, Solver, SolverRun,
};
use serde::{Deserialize, Serialize};

/// Scale of an experiment run: `Quick` keeps every sweep small enough for CI
/// and unit tests; `Full` uses the sizes recorded in `EXPERIMENTS.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// Small sizes (seconds).
    Quick,
    /// The sizes recorded in `EXPERIMENTS.md` (minutes).
    Full,
}

impl Scale {
    fn pick<'a, T>(&self, quick: &'a [T], full: &'a [T]) -> &'a [T] {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// The adversarial workload for Bellman–Ford congestion (E2/E3): a unit-weight
/// path `0 - 1 - … - (k-1)` plus "shortcut" edges `(0, i)` of weight `2i`.
/// Every path node's estimate improves `Θ(i)` times, so Bellman–Ford pushes
/// `Θ(n)` messages over the path edges while the exact distances are simply
/// `dist(0, i) = i`. Below `k = 2` there is no edge to add: the result is the
/// empty graph or a single node.
pub fn bellman_ford_adversarial(k: u32) -> Graph {
    let mut b = Graph::builder(k);
    for i in 1..k {
        b.add_edge(i - 1, i, 1).expect("path edges are valid");
    }
    for i in 2..k {
        b.add_edge(0, i, 2 * i as u64).expect("shortcut edges are valid");
    }
    b.build()
}

/// A weighted random connected workload shared by E1–E3.
pub fn weighted_workload(n: u32, seed: u64) -> Graph {
    let base = generators::random_connected(n, 2 * n as u64, seed);
    generators::with_random_weights(&base, (n as u64).max(4), seed ^ 0x5eed)
}

// ---------------------------------------------------------------------------
// E1–E3: SSSP time / congestion / messages vs the baselines
// ---------------------------------------------------------------------------

/// One measurement row of the SSSP comparison experiments (E1–E3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SsspRow {
    /// Workload label.
    pub workload: String,
    /// Algorithm label (the registry's [`congest_sssp::AlgorithmInfo::label`]).
    pub algorithm: String,
    /// The unified complexity report of the run.
    pub report: RunReport,
}

/// Runs every always-awake exact weighted single-source-set solver in the
/// [`registry`] on the same workloads (E1: rounds, E2: congestion, E3:
/// messages).
pub fn e1_e3_sssp_comparison(scale: Scale) -> Vec<SsspRow> {
    let quick = [32u32, 64];
    let full = [32u32, 64, 128, 256, 512];
    let sizes = scale.pick(&quick, &full);
    let cfg = AlgoConfig::default();
    let mut rows = Vec::new();
    for &n in sizes {
        for (workload, g) in [
            ("random-weighted".to_string(), weighted_workload(n, 7)),
            ("bf-adversarial".to_string(), bellman_ford_adversarial(n)),
        ] {
            for info in registry()
                .iter()
                .filter(|i| i.weighted && i.exact() && !i.sleeping_model && !i.all_pairs)
            {
                let run = Solver::on(&g)
                    .algorithm(info.algorithm)
                    .source(NodeId(0))
                    .config(cfg.clone())
                    .run()
                    .expect("solver run");
                rows.push(SsspRow {
                    workload: workload.clone(),
                    algorithm: info.label.to_string(),
                    report: run.report,
                });
            }
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// E4: the approximate cutter (Lemma 2.1)
// ---------------------------------------------------------------------------

/// One measurement row of the cutter experiment (E4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CutterRow {
    /// The threshold `W`.
    pub w: u64,
    /// `1/ε`.
    pub eps_inverse: u64,
    /// The largest observed additive error against exact distances.
    pub max_observed_error: u64,
    /// Nodes within `2W` that were (incorrectly) dropped — must be 0.
    pub dropped_within_2w: u64,
    /// The unified complexity report of the run (with
    /// [`RunReport::error_bound`] set).
    pub report: RunReport,
}

impl CutterRow {
    /// The guaranteed additive error bound of the run.
    pub fn error_bound(&self) -> u64 {
        self.report.error_bound.expect("cutter rows always carry an error bound")
    }
}

/// Measures the cutter's error, rounds, and congestion (Lemma 2.1 / E4).
pub fn e4_cutter(scale: Scale) -> Vec<CutterRow> {
    let quick = [2u64, 4];
    let full = [2u64, 4, 8];
    let epsilons = scale.pick(&quick, &full);
    let sizes: &[u32] = match scale {
        Scale::Quick => &[48],
        Scale::Full => &[64, 128, 256],
    };
    let mut rows = Vec::new();
    for &n in sizes {
        let g = weighted_workload(n, 11);
        let w = g.distance_upper_bound() / 4 + 1;
        let truth = congest_graph::sequential::dijkstra(&g, &[NodeId(0)]);
        for &inv in epsilons {
            let cfg = AlgoConfig::default().with_epsilon_inverse(inv);
            let run = Solver::on(&g)
                .algorithm(Algorithm::ApproximateCssp)
                .source(NodeId(0))
                .threshold(w)
                .config(cfg)
                .run()
                .expect("cutter run");
            let mut max_err = 0u64;
            let mut dropped = 0u64;
            for v in g.nodes() {
                match (run.output.distance(v).finite(), truth.distance(v).finite()) {
                    (Some(est), Some(t)) => max_err = max_err.max(est.saturating_sub(t)),
                    (None, Some(t)) if t <= 2 * w => dropped += 1,
                    _ => {}
                }
            }
            rows.push(CutterRow {
                w,
                eps_inverse: inv,
                max_observed_error: max_err,
                dropped_within_2w: dropped,
                report: run.report,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// E5: low-energy BFS vs always-awake BFS
// ---------------------------------------------------------------------------

/// One measurement row of the energy experiments (E5/E6).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyRow {
    /// Workload label.
    pub workload: String,
    /// Algorithm label (the registry's [`congest_sssp::AlgorithmInfo::label`]).
    pub algorithm: String,
    /// Hop diameter of the workload.
    pub diameter: u64,
    /// The unified complexity report of the run (with
    /// [`RunReport::sleeping`] set for the sleeping-model algorithms).
    pub report: RunReport,
}

impl EnergyRow {
    /// The sleeping-model instrumentation, all-zero for always-awake
    /// baselines (which have no cover, slowdown, or megaround).
    pub fn sleeping(&self) -> SleepingReport {
        self.report.sleeping.unwrap_or(SleepingReport {
            slowdown: 0,
            megaround: 0,
            cover_levels: 0,
        })
    }
}

/// Compares every BFS-family (unweighted) solver in the [`registry`] — the
/// low-energy BFS of Theorem 3.13/3.14 against the always-awake baseline —
/// on growing-diameter workloads (E5).
pub fn e5_energy_bfs(scale: Scale) -> Vec<EnergyRow> {
    let quick = [64u32, 128];
    let full = [64u32, 128, 256, 512];
    let sizes = scale.pick(&quick, &full);
    let cfg = AlgoConfig::default();
    let mut rows = Vec::new();
    for &n in sizes {
        for (workload, g) in [
            ("path".to_string(), generators::path(n, 1)),
            ("grid".to_string(), {
                let side = (n as f64).sqrt().ceil() as u32;
                generators::grid(side, side, 1)
            }),
        ] {
            let diameter = properties::hop_diameter(&g);
            for info in registry().iter().filter(|i| !i.weighted) {
                let mut req =
                    Solver::on(&g).algorithm(info.algorithm).source(NodeId(0)).config(cfg.clone());
                // The sleeping-model BFS builds its wake schedules for the
                // wavefront horizon, so it is thresholded at the diameter;
                // the always-awake baseline keeps the untruncated default.
                if info.sleeping_model {
                    req = req.threshold(diameter);
                }
                let run = req.run().expect("bfs run");
                rows.push(EnergyRow {
                    workload: workload.clone(),
                    algorithm: info.label.to_string(),
                    diameter,
                    report: run.report,
                });
            }
        }
    }
    rows
}

/// Compares the low-energy weighted CSSP (Theorem 3.15) against the
/// always-awake Bellman–Ford energy baseline (E6).
pub fn e6_energy_cssp(scale: Scale) -> Vec<EnergyRow> {
    let quick = [32u32, 48];
    let full = [32u32, 64, 96, 128];
    let sizes = scale.pick(&quick, &full);
    let cfg = AlgoConfig::default();
    let mut rows = Vec::new();
    for &n in sizes {
        let g = weighted_workload(n, 23);
        let diameter = properties::hop_diameter(&g);
        for algorithm in [Algorithm::LowEnergyCssp, Algorithm::BellmanFord] {
            let run = Solver::on(&g)
                .algorithm(algorithm)
                .source(NodeId(0))
                .config(cfg.clone())
                .run()
                .expect("cssp run");
            rows.push(EnergyRow {
                workload: "random-weighted".into(),
                algorithm: algorithm.label().to_string(),
                diameter,
                report: run.report,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// E7: APSP via random-delay scheduling
// ---------------------------------------------------------------------------

/// One measurement row of the APSP experiment (E7).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApspRow {
    /// The unified complexity report of the run (with
    /// [`RunReport::schedule`] set).
    pub report: RunReport,
}

impl ApspRow {
    /// The scheduling instrumentation of the run.
    pub fn schedule(&self) -> ScheduleReport {
        self.report.schedule.expect("APSP rows always carry a schedule")
    }
}

/// Runs the APSP experiment (E7).
pub fn e7_apsp(scale: Scale) -> Vec<ApspRow> {
    let quick = [16u32, 24];
    let full = [16u32, 32, 48, 64];
    let sizes = scale.pick(&quick, &full);
    let cfg = AlgoConfig::default();
    let mut rows = Vec::new();
    for &n in sizes {
        let g = weighted_workload(n, 3);
        let run = Solver::on(&g)
            .algorithm(Algorithm::Apsp)
            .config(cfg.clone())
            .apsp_config(ApspConfig { seed: 1, ..ApspConfig::default() })
            .run()
            .expect("apsp");
        rows.push(ApspRow { report: run.report });
    }
    rows
}

// ---------------------------------------------------------------------------
// E8: sparse-cover quality
// ---------------------------------------------------------------------------

/// One measurement row of the cover-quality experiment (E8).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoverRow {
    /// Number of nodes.
    pub n: u32,
    /// Cover radius `d`.
    pub d: u64,
    /// Number of clusters.
    pub clusters: u64,
    /// Number of colors (`O(log n)` claimed).
    pub colors: u32,
    /// Maximum clusters per node (`O(log n)` claimed).
    pub max_membership: u64,
    /// Mean clusters per node.
    pub mean_membership: f64,
    /// Maximum cluster-tree depth.
    pub max_tree_depth: u64,
    /// Realized stretch `max_tree_depth / d`.
    pub stretch: f64,
    /// Maximum cluster trees sharing one edge.
    pub max_edge_tree_load: u64,
}

/// Measures sparse-cover quality (Theorems 3.10/3.11 / E8).
pub fn e8_cover_quality(scale: Scale) -> Vec<CoverRow> {
    let quick = [48u32];
    let full = [64u32, 128, 256];
    let sizes = scale.pick(&quick, &full);
    let mut rows = Vec::new();
    for &n in sizes {
        // Sparse workload: with ~2n extra edges the hop diameter collapses
        // below the largest cover radius d = 4 and every cluster tree is
        // shallower than d, which makes "stretch" meaningless. n/4 extra
        // edges keeps the diameter comfortably above 2d at every size.
        let g = generators::random_connected(n, n as u64 / 4, 5);
        for d in [1u64, 2, 4] {
            let cover = SparseCover::construct(&g, d);
            let stats = cover.validate(&g).expect("constructed covers are valid");
            rows.push(CoverRow {
                n,
                d,
                clusters: stats.cluster_count as u64,
                colors: stats.colors,
                max_membership: stats.max_membership as u64,
                mean_membership: stats.mean_membership,
                max_tree_depth: stats.max_tree_depth,
                stretch: stats.max_tree_depth as f64 / d.max(1) as f64,
                max_edge_tree_load: stats.max_edge_tree_load as u64,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// E9: spanning forest
// ---------------------------------------------------------------------------

/// One measurement row of the spanning-forest experiment (E9).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ForestRow {
    /// Number of nodes.
    pub n: u32,
    /// Number of edges.
    pub m: u32,
    /// Number of connected components.
    pub components: u64,
    /// Boruvka merge phases (`O(log n)` claimed).
    pub phases: u64,
    /// Rounds charged (`Õ(n)` claimed).
    pub rounds: u64,
    /// Maximum per-edge congestion (`poly(log n)` claimed).
    pub max_congestion: u64,
    /// Maximum per-node energy of the low-energy variant (Theorem 3.1).
    pub low_energy_max: u64,
    /// Maximum per-node energy of the always-awake variant.
    pub always_awake_max: u64,
}

/// Measures the maximal-spanning-forest algorithm (Theorems 2.2/3.1 / E9).
pub fn e9_spanning_forest(scale: Scale) -> Vec<ForestRow> {
    let quick = [64u32, 128];
    let full = [64u32, 128, 256, 512];
    let sizes = scale.pick(&quick, &full);
    let mut rows = Vec::new();
    for &n in sizes {
        let g = generators::disjoint_copies(&generators::random_connected(n / 2, n as u64, 9), 2);
        let (forest, metrics) = spanning_forest(&g, false);
        let (_, low) = spanning_forest(&g, true);
        rows.push(ForestRow {
            n: g.node_count(),
            m: g.edge_count(),
            components: forest.component_count as u64,
            phases: forest.phases,
            rounds: metrics.rounds,
            max_congestion: metrics.max_congestion(),
            low_energy_max: low.max_energy(),
            always_awake_max: metrics.max_energy(),
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// E10: recursion structure (Lemma 2.4 / Corollary 2.5)
// ---------------------------------------------------------------------------

/// One measurement row of the recursion-structure experiment (E10).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecursionRow {
    /// `total_subproblem_size / (n · levels)` — should stay `O(1)`.
    pub normalized_total: f64,
    /// The unified complexity report of the run (with
    /// [`RunReport::recursion`] set).
    pub report: RunReport,
}

impl RecursionRow {
    /// The recursion-tree instrumentation of the run.
    pub fn recursion(&self) -> RecursionReport {
        self.report.recursion.expect("recursion rows always carry recursion stats")
    }
}

/// Measures the recursion structure of the thresholded CSSP (E10).
pub fn e10_recursion(scale: Scale) -> Vec<RecursionRow> {
    let quick = [32u32, 64];
    let full = [64u32, 128, 256, 512];
    let sizes = scale.pick(&quick, &full);
    let cfg = AlgoConfig::default();
    let mut rows = Vec::new();
    for &n in sizes {
        let g = weighted_workload(n, 13);
        let run = Solver::on(&g)
            .algorithm(Algorithm::Cssp)
            .source(NodeId(0))
            .config(cfg.clone())
            .run()
            .expect("cssp");
        let rec = run.report.recursion.expect("recursion stats present");
        rows.push(RecursionRow {
            normalized_total: rec.total_subproblem_size as f64
                / (n as f64 * rec.levels.max(1) as f64),
            report: run.report,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// E14: chaos degradation matrix (fault injection)
// ---------------------------------------------------------------------------

/// One measurement row of the chaos degradation matrix (E14): one algorithm
/// at one message-loss rate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosRow {
    /// Algorithm label (the registry's [`AlgorithmInfo::label`]).
    pub algorithm: String,
    /// Fault-plan drop probability in parts per million.
    pub loss_ppm: u32,
    /// `"ok"` (terminated within budget), `"wedged"` (burned the round
    /// budget, i.e. hit [`congest_sim::SimError::RoundLimitExceeded`]), or
    /// `"failed"` (any other error or a panic).
    pub outcome: String,
    /// `outcome == "ok"`: the algorithm degraded gracefully — it terminated
    /// on its own under this loss rate, whatever its output quality.
    pub graceful: bool,
    /// Whether the faulty run replayed bit-identically. Verified by a second
    /// run at the sweep's highest loss rate; lower rates inherit the
    /// simulator's determinism guarantee and report `true`.
    pub deterministic: bool,
    /// Whether this run's output and report are bit-identical to the
    /// fault-free baseline (expected exactly at `loss_ppm == 0`).
    pub matches_baseline: bool,
    /// Rounds of this run (the budget for wedged runs, 0 for failed ones).
    pub rounds: u64,
    /// Rounds of the fault-free baseline run.
    pub baseline_rounds: u64,
    /// The round budget ([`congest_sim::SimConfig::max_rounds`]) of the
    /// faulty runs: `8 * baseline_rounds + 256`.
    pub round_budget: u64,
    /// Nodes with a finite output distance (0 for wedged/failed runs).
    pub reached: u64,
    /// Nodes the run left unreached although the graph is connected.
    pub unreached: u64,
    /// Largest absolute difference between a finite output distance and the
    /// true distance (drops typically inflate estimates).
    pub max_abs_error: u64,
    /// Messages destroyed by the fault plan during the run.
    pub fault_drops: u64,
    /// Messages lost to the sleeping model (sleeping/halted recipients).
    pub sleep_lost: u64,
}

/// Runs one registry algorithm on `g` under `cfg`, converting panics into
/// `Err(None)` so a fault-oblivious algorithm that trips an internal
/// invariant still lands in the matrix (as `"failed"`) instead of aborting
/// the sweep.
fn chaos_solve(
    g: &Graph,
    info: &AlgorithmInfo,
    cfg: &AlgoConfig,
    diameter: u64,
) -> Result<SolverRun, Option<AlgoError>> {
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut req = Solver::on(g).algorithm(info.algorithm).source(NodeId(0)).config(cfg.clone());
        // Same request shape as E5: the sleeping-model BFS builds its wake
        // schedules for the wavefront horizon, so it is thresholded at the
        // diameter; everything else keeps its default.
        if info.sleeping_model && !info.weighted {
            req = req.threshold(diameter);
        }
        req.run()
    }));
    match attempt {
        Ok(Ok(run)) => Ok(run),
        Ok(Err(e)) => Err(Some(e)),
        Err(_) => Err(None),
    }
}

/// Classifies an E14 failure: hitting the round budget is `"wedged"` (the
/// algorithm never terminated on its own); anything else — a protocol error
/// or a panic — is `"failed"`.
fn chaos_outcome(err: &Option<AlgoError>) -> &'static str {
    match err {
        Some(AlgoError::Simulation(congest_sim::SimError::RoundLimitExceeded { .. })) => "wedged",
        _ => "failed",
    }
}

/// Runs the chaos degradation matrix (E14): every non-all-pairs registry
/// algorithm on one unit-weight random connected workload, swept over
/// increasing fault-plan message-loss rates with a fixed fault seed.
///
/// The fault-free baseline of each algorithm must succeed (it fixes the round
/// budget `8 * baseline + 256` for the faulty runs); each faulty run is then
/// classified as *graceful* (terminated within budget) or *wedged* (round
/// budget exceeded). At the highest loss rate the run is executed twice to
/// verify the fault schedule replays bit-identically. See
/// `docs/FAULT_MODEL.md` for the resulting matrix and its interpretation.
pub fn e14_chaos_matrix(scale: Scale) -> Vec<ChaosRow> {
    const FAULT_SEED: u64 = 0xC4A0_5EED;
    let quick_losses = [0u32, 20_000, 100_000, 200_000, 400_000];
    let full_losses = [0u32, 5_000, 20_000, 50_000, 100_000, 200_000, 400_000];
    let losses = scale.pick(&quick_losses, &full_losses);
    let n: u32 = match scale {
        Scale::Quick => 40,
        Scale::Full => 96,
    };
    // Unit weights so plain BFS is the ground truth for every algorithm,
    // weighted and unweighted alike.
    let g = generators::random_connected(n, 2 * n as u64, 23);
    let truth = congest_graph::sequential::bfs(&g, &[NodeId(0)]);
    let diameter = properties::hop_diameter(&g);
    let highest = *losses.last().expect("loss sweep is non-empty");
    let mut rows = Vec::new();
    for info in registry().iter().filter(|i| !i.all_pairs) {
        let baseline = chaos_solve(&g, info, &AlgoConfig::default(), diameter)
            .unwrap_or_else(|e| panic!("fault-free baseline failed for {}: {e:?}", info.name));
        let baseline_rounds = baseline.report.rounds;
        let round_budget = 8 * baseline_rounds + 256;
        for &loss_ppm in losses {
            let plan = FaultPlan::none().with_seed(FAULT_SEED).with_drop_ppm(loss_ppm);
            let mut cfg = AlgoConfig::default().with_faults(plan);
            cfg.sim.max_rounds = round_budget;
            let run = chaos_solve(&g, info, &cfg, diameter);
            let deterministic = if loss_ppm == highest {
                match (&run, &chaos_solve(&g, info, &cfg, diameter)) {
                    (Ok(a), Ok(b)) => a == b,
                    (Err(a), Err(b)) => a == b,
                    _ => false,
                }
            } else {
                true
            };
            rows.push(match &run {
                Ok(r) => {
                    let mut max_abs_error = 0u64;
                    let mut unreached = 0u64;
                    for v in g.nodes() {
                        match (r.output.distance(v).finite(), truth.distance(v).finite()) {
                            (Some(est), Some(t)) => {
                                max_abs_error = max_abs_error.max(est.abs_diff(t))
                            }
                            (None, Some(_)) => unreached += 1,
                            _ => {}
                        }
                    }
                    ChaosRow {
                        algorithm: info.label.to_string(),
                        loss_ppm,
                        outcome: "ok".into(),
                        graceful: true,
                        deterministic,
                        matches_baseline: r.output == baseline.output
                            && r.report == baseline.report,
                        rounds: r.report.rounds,
                        baseline_rounds,
                        round_budget,
                        reached: r.report.reached,
                        unreached,
                        max_abs_error,
                        fault_drops: r.report.fault_drops,
                        sleep_lost: r.report.messages_lost,
                    }
                }
                Err(e) => {
                    let outcome = chaos_outcome(e);
                    ChaosRow {
                        algorithm: info.label.to_string(),
                        loss_ppm,
                        outcome: outcome.into(),
                        graceful: false,
                        deterministic,
                        matches_baseline: false,
                        rounds: if outcome == "wedged" { round_budget } else { 0 },
                        baseline_rounds,
                        round_budget,
                        reached: 0,
                        unreached: g.node_count() as u64,
                        max_abs_error: 0,
                        fault_drops: 0,
                        sleep_lost: 0,
                    }
                }
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adversarial_workload_has_expected_shape() {
        let g = bellman_ford_adversarial(16);
        assert_eq!(g.node_count(), 16);
        assert_eq!(g.edge_count(), 15 + 14);
        let truth = congest_graph::sequential::dijkstra(&g, &[NodeId(0)]);
        assert_eq!(truth.distance(NodeId(10)).finite(), Some(10));
    }

    #[test]
    fn adversarial_workload_is_defined_below_two_nodes() {
        // No `k - 1` on the `u32`: k = 0 is the empty graph, not an overflow.
        for (k, edges) in [(0u32, 0u32), (1, 0), (2, 1)] {
            let g = bellman_ford_adversarial(k);
            assert_eq!((g.node_count(), g.edge_count()), (k, edges), "k = {k}");
        }
    }

    #[test]
    fn e1_rows_cover_all_algorithms() {
        let rows = e1_e3_sssp_comparison(Scale::Quick);
        assert_eq!(rows.len(), 2 * 2 * 3);
        assert!(rows.iter().any(|r| r.algorithm.contains("paper")));
        assert!(rows.iter().all(|r| r.report.rounds > 0 && r.report.messages > 0));
    }

    #[test]
    fn e2_congestion_growth_paper_vs_bellman_ford_on_adversarial() {
        // On the adversarial workload Bellman–Ford's per-edge congestion is
        // Θ(n), so it roughly doubles when n doubles; the recursion's
        // congestion is O(log n · log D) and grows far slower. (The absolute
        // crossover happens at larger n — see EXPERIMENTS.md E2.)
        let rows = e1_e3_sssp_comparison(Scale::Quick);
        let pick = |algo: &str, n: u32| {
            rows.iter()
                .find(|r| {
                    r.workload == "bf-adversarial" && r.algorithm.contains(algo) && r.report.n == n
                })
                .map(|r| r.report.max_congestion as f64)
                .expect("row present")
        };
        let paper_growth = pick("paper", 64) / pick("paper", 32);
        let bf_growth = pick("bellman-ford", 64) / pick("bellman-ford", 32);
        assert!(bf_growth > 1.6, "Bellman–Ford congestion tracks n (grew {bf_growth}x)");
        assert!(
            paper_growth < bf_growth,
            "the recursion's congestion growth {paper_growth} must stay below Bellman–Ford's {bf_growth}"
        );
    }

    #[test]
    fn e4_cutter_never_drops_nodes_within_2w() {
        for row in e4_cutter(Scale::Quick) {
            assert_eq!(row.dropped_within_2w, 0);
            assert!(row.max_observed_error <= row.error_bound());
            assert!(row.report.max_congestion <= 2);
        }
    }

    #[test]
    fn e5_rows_pair_paper_with_baseline() {
        let rows = e5_energy_bfs(Scale::Quick);
        assert!(rows.len() >= 4);
        assert!(rows.iter().any(|r| r.algorithm.contains("paper")));
        assert!(rows.iter().any(|r| r.algorithm.contains("always-awake")));
    }

    #[test]
    fn e7_concurrent_beats_sequential() {
        for row in e7_apsp(Scale::Quick) {
            let sched = row.schedule();
            assert!(sched.speedup() > 1.0, "n = {}: speedup {}", row.report.n, sched.speedup());
            assert!(sched.edge_budget >= 1);
        }
    }

    #[test]
    fn e8_cover_membership_is_bounded_by_colors() {
        for row in e8_cover_quality(Scale::Quick) {
            assert!(row.max_membership <= row.colors as u64);
            assert!(row.stretch >= 1.0);
        }
    }

    #[test]
    fn e9_forest_phases_are_logarithmic() {
        for row in e9_spanning_forest(Scale::Quick) {
            assert!(row.phases <= (row.n as f64).log2().ceil() as u64 + 2);
            assert!(row.low_energy_max <= row.always_awake_max);
        }
    }

    #[test]
    fn e10_participation_is_logarithmic() {
        for row in e10_recursion(Scale::Quick) {
            let rec = row.recursion();
            assert!(rec.max_participation <= 4 * (rec.levels as u64 + 2));
        }
    }

    #[test]
    fn e14_zero_loss_matches_baselines_and_all_rows_are_classified() {
        // The Quick matrix, with its replay at the highest loss rate: every
        // bar the chaos table carries is held here.
        let rows = e14_chaos_matrix(Scale::Quick);
        let algorithms = registry().iter().filter(|i| !i.all_pairs).count();
        assert_eq!(rows.len(), algorithms * 5, "every algorithm at every loss rate");
        for row in &rows {
            assert!(
                matches!(row.outcome.as_str(), "ok" | "wedged" | "failed"),
                "unknown outcome {:?}",
                row.outcome
            );
            assert_eq!(row.graceful, row.outcome == "ok");
            assert!(row.round_budget == 8 * row.baseline_rounds + 256);
            assert!(row.rounds <= row.round_budget, "{} escaped its budget", row.algorithm);
            assert!(row.deterministic, "{} did not replay bit-identically", row.algorithm);
            if row.loss_ppm == 0 {
                // A fault plan with a seed but nothing to inject is inert:
                // the run must be bit-identical to the fault-free baseline.
                assert!(row.matches_baseline, "{} diverged at zero loss", row.algorithm);
                assert_eq!(row.rounds, row.baseline_rounds);
                assert_eq!(row.fault_drops, 0);
            }
        }
    }
}
