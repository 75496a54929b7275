//! Result types shared by all algorithms in this crate, including the
//! unified [`RunReport`] every [`crate::solver::Solver`] run produces.

use congest_cover::CoverStats;
use congest_graph::{Distance, Graph, NodeId};
use congest_sim::{Metrics, RunOutcome};
use serde::{Deserialize, Serialize};

use crate::solver::Algorithm;
use crate::thresholded::RecursionStats;

/// The distance output of a CSSP/SSSP/BFS computation: one distance per node
/// (indexed by [`NodeId`]), `Infinite` for nodes that are unreachable or
/// beyond the requested threshold.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistanceOutput {
    /// `distances[v]` is the computed distance of node `v` from the source set.
    pub distances: Vec<Distance>,
}

impl DistanceOutput {
    /// An all-infinite output for `n` nodes.
    pub fn infinite(n: usize) -> Self {
        DistanceOutput { distances: vec![Distance::Infinite; n] }
    }

    /// The distance of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn distance(&self, v: NodeId) -> Distance {
        self.distances[v.index()]
    }

    /// Number of nodes with a finite distance.
    pub fn reached_count(&self) -> usize {
        self.distances.iter().filter(|d| d.is_finite()).count()
    }
}

/// A completed run of one of the simulated protocols (the BFSs and the
/// baselines): the distance output plus the complexity measurements.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AlgoRun {
    pub output: DistanceOutput,
    pub metrics: Metrics,
}

/// The [`AlgoRun`] of an engine run: the distances `dist` reads off its final
/// states, with its metrics.
pub(crate) fn distances_of<P>(run: RunOutcome<P>, dist: impl Fn(&P) -> Distance) -> AlgoRun {
    let distances = run.states.iter().map(dist).collect();
    AlgoRun { output: DistanceOutput { distances }, metrics: run.metrics }
}

/// The unified complexity report of a [`crate::solver::Solver`] run: the
/// aggregate measurements every algorithm produces, plus optional sections
/// for the instrumentation only some algorithm families have (sleeping-model
/// accounting, recursion structure, APSP scheduling). Consumers that iterate
/// the [`crate::solver::registry`] can format any run from this one type
/// instead of knowing each algorithm's specialized run struct.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Which algorithm produced this run.
    pub algorithm: Algorithm,
    /// Number of nodes of the input graph.
    pub n: u32,
    /// Number of edges of the input graph.
    pub m: u32,
    /// Rounds (time complexity; for APSP, the model rounds of the schedule).
    pub rounds: u64,
    /// Total messages.
    pub messages: u64,
    /// Messages dropped on sleeping/halted recipients (sleeping-model
    /// accounting; fault-injected losses are in [`RunReport::fault_drops`]).
    pub messages_lost: u64,
    /// Messages the fault plan dropped in transit (0 for fault-free runs).
    pub fault_drops: u64,
    /// Maximum per-edge congestion.
    pub max_congestion: u64,
    /// Maximum per-node energy (awake rounds). All-pairs compositions do
    /// not track per-node energy across the superimposed instances and
    /// report 0 here (unmeasured).
    pub max_energy: u64,
    /// Mean per-node energy (0 for all-pairs compositions, see
    /// [`RunReport::max_energy`]).
    pub mean_energy: f64,
    /// Number of nodes with a finite output distance.
    pub reached: u64,
    /// Additive error bound of the estimates (approximate algorithms only).
    pub error_bound: Option<u64>,
    /// Sleeping-model instrumentation (low-energy algorithms only).
    pub sleeping: Option<SleepingReport>,
    /// Recursion-tree instrumentation (the recursive CSSP family only).
    pub recursion: Option<RecursionReport>,
    /// Random-delay scheduling instrumentation (APSP only).
    pub schedule: Option<ScheduleReport>,
    /// Distance-oracle construction instrumentation
    /// ([`Algorithm::DistanceOracle`] only).
    pub oracle: Option<OracleReport>,
}

impl RunReport {
    /// Builds the aggregate part of a report from an algorithm's measured
    /// [`Metrics`] and distance output; the optional sections start empty.
    pub fn new(
        algorithm: Algorithm,
        g: &Graph,
        metrics: &Metrics,
        output: &DistanceOutput,
    ) -> RunReport {
        RunReport {
            algorithm,
            n: g.node_count(),
            m: g.edge_count(),
            rounds: metrics.rounds,
            messages: metrics.messages,
            messages_lost: metrics.messages_lost,
            fault_drops: metrics.fault_drops,
            max_congestion: metrics.max_congestion(),
            max_energy: metrics.max_energy(),
            mean_energy: metrics.mean_energy(),
            reached: output.reached_count() as u64,
            error_bound: None,
            sleeping: None,
            recursion: None,
            schedule: None,
            oracle: None,
        }
    }

    /// The report of a composition of many runs (APSP, the oracle build),
    /// from its totals. Per-node energy and sleeping-model loss are not
    /// tracked across the composed runs, so those fields are 0 (unmeasured,
    /// not "measured zero").
    pub(crate) fn composed(
        algorithm: Algorithm,
        g: &Graph,
        output: &DistanceOutput,
        rounds: u64,
        messages: u64,
        max_congestion: u64,
    ) -> RunReport {
        let totals = Metrics { rounds, messages, ..Metrics::default() };
        RunReport { max_congestion, ..RunReport::new(algorithm, g, &totals, output) }
    }
}

/// Construction instrumentation of a distance-oracle run: the space/stretch
/// accounting of the built oracle plus the validated quality statistics of
/// every sparse-cover level it was assembled from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OracleReport {
    /// Whether construction fell back to the exact all-pairs matrix
    /// (graphs at or below the configured fallback threshold).
    pub fallback: bool,
    /// Number of cover levels (0 on the exact fallback).
    pub levels: u32,
    /// Total clusters across all levels.
    pub clusters: u64,
    /// Bytes of the oracle's distance storage (`12 · n · row_width` on the
    /// cover path: every slot of the table, free ones included).
    pub bytes: u64,
    /// Slots per row of the oracle's table — what a query scans of each of
    /// its two nodes (0 on the exact fallback).
    pub row_width: u32,
    /// Bytes an exact `n × n` distance matrix would occupy, for comparison.
    pub exact_matrix_bytes: u64,
    /// Proven multiplicative stretch bound of every query answer (1 on the
    /// exact fallback).
    pub stretch_bound: u64,
    /// Maximum number of (level, cluster) memberships of any single node.
    pub max_membership: u32,
    /// Deepest cluster tree across all levels (0 on the exact fallback).
    pub max_tree_depth: u64,
    /// Validated per-level cover statistics, in level order (empty on the
    /// exact fallback).
    pub level_stats: Vec<CoverStats>,
    /// Slots per row each level contributes to `row_width`, in level order:
    /// at most that level's colour count (empty on the exact fallback).
    pub level_widths: Vec<u32>,
}

/// Sleeping-model instrumentation of a low-energy run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SleepingReport {
    /// Rounds per wavefront hop (0 where the algorithm has no wavefront).
    pub slowdown: u64,
    /// Megaround width (maximum cluster trees sharing one edge).
    pub megaround: u64,
    /// Levels of the layered sparse cover.
    pub cover_levels: u64,
}

/// Recursion-tree instrumentation of the recursive CSSP family
/// (Lemma 2.4 / Corollary 2.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecursionReport {
    /// Recursion levels (`log₂ D`).
    pub levels: u32,
    /// Subproblems solved (recursion-tree nodes).
    pub subproblems: u64,
    /// Maximum subproblems any single node participated in.
    pub max_participation: u64,
    /// Sum of subproblem sizes over the whole tree.
    pub total_subproblem_size: u64,
}

impl From<&RecursionStats> for RecursionReport {
    fn from(stats: &RecursionStats) -> RecursionReport {
        RecursionReport {
            levels: stats.levels,
            subproblems: stats.subproblems,
            max_participation: stats.max_participation(),
            total_subproblem_size: stats.total_subproblem_size,
        }
    }
}

/// Random-delay scheduling instrumentation of an APSP run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleReport {
    /// Makespan of the concurrent schedule, in scheduler rounds.
    pub makespan: u64,
    /// Makespan in model rounds (`makespan × edge budget`).
    pub model_rounds: u64,
    /// Per-round per-edge message budget of the schedule.
    pub edge_budget: u64,
    /// Cost of running the instances one after another, in simulated rounds.
    pub sequential_rounds: u64,
    /// Maximum per-edge congestion of any single SSSP instance.
    pub max_instance_congestion: u64,
}

impl ScheduleReport {
    /// Rounds saved by concurrent scheduling: `sequential / makespan`.
    pub fn speedup(&self) -> f64 {
        self.sequential_rounds as f64 / self.makespan.max(1) as f64
    }
}

/// A source node together with an initial distance offset. Plain sources have
/// offset 0; the recursion of Section 2.3 uses positive offsets to stand in
/// for the "imaginary" cut nodes on boundary edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SourceOffset {
    /// The source node.
    pub node: NodeId,
    /// The initial distance of the source (0 for ordinary sources).
    pub offset: u64,
}

impl SourceOffset {
    /// An ordinary source with offset 0.
    pub fn plain(node: NodeId) -> Self {
        SourceOffset { node, offset: 0 }
    }
}

impl From<NodeId> for SourceOffset {
    fn from(node: NodeId) -> Self {
        SourceOffset::plain(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infinite_output() {
        let o = DistanceOutput::infinite(3);
        assert_eq!(o.reached_count(), 0);
        assert!(o.distance(NodeId(2)).is_infinite());
    }

    #[test]
    fn source_offsets() {
        let s = SourceOffset::plain(NodeId(4));
        assert_eq!(s.offset, 0);
        let s: SourceOffset = NodeId(2).into();
        assert_eq!(s.node, NodeId(2));
    }
}
