//! Low-congestion exact CSSP and SSSP (Theorems 2.6 and 2.7 of the paper).
//!
//! [`cssp`] computes `dist(S, v)` for every node `v` in `Õ(n)` rounds with
//! `poly(log n)` congestion per edge; SSSP is the one-source case. Zero-weight
//! edges are handled by contracting their connected components before running
//! the recursion (the standard device behind Theorem 2.7).

use congest_graph::{Distance, EdgeId, Graph, NodeId};
use congest_sim::Metrics;

use crate::error::check_sources;
use crate::result::{DistanceOutput, SourceOffset};
use crate::spanning_forest::spanning_forest;
use crate::thresholded::{thresholded_cssp_validated, RecursionStats};
use crate::{AlgoConfig, AlgoError};

/// The result of a run of the recursion family — [`cssp`] and
/// [`crate::thresholded::thresholded_cssp`]: distances, metrics, and the
/// recursion instrumentation.
#[derive(Debug, Clone, PartialEq)]
pub struct CsspRun {
    /// Distances from the source set (infinite for unreachable nodes and, in
    /// a thresholded run, for nodes beyond the threshold).
    pub output: DistanceOutput,
    /// Complexity measurements, attributed to the input graph's nodes and
    /// edges.
    pub metrics: Metrics,
    /// Recursion-tree instrumentation (Lemma 2.4 / Corollary 2.5).
    pub stats: RecursionStats,
}

impl CsspRun {
    /// The distance of node `v`.
    pub fn distance(&self, v: NodeId) -> Distance {
        self.output.distance(v)
    }
}

/// Computes exact closest-source shortest paths `dist(S, v)` for every node
/// (Theorem 2.6; with zero weights allowed, Theorem 2.7).
///
/// # Errors
///
/// Returns an error if `sources` is empty, a source is out of range, or the
/// underlying simulation fails.
pub fn cssp(g: &Graph, sources: &[NodeId], config: &AlgoConfig) -> Result<CsspRun, AlgoError> {
    let recursion = |h: &Graph, offsets: &[SourceOffset]| {
        let threshold = h.distance_upper_bound().max(1);
        Ok((thresholded_cssp_validated(h, offsets, threshold, config)?, ()))
    };
    Ok(solve_contracted(g, sources, false, recursion)?.0)
}

/// Runs `solve` on `g` with each connected component of its zero-weight
/// subgraph contracted into one supernode (the device behind Theorem 2.7),
/// and reads the run back onto `g`: every node inherits its supernode's
/// distance, participation and energy — a member is awake whenever its
/// supernode is — and a contracted edge's congestion lands on the edge it
/// came from. The contraction is charged as what finds the components, one
/// spanning forest of the zero-weight subgraph (`low_energy` picks its
/// variant, Theorem 2.2 or 3.1), run before the recursion. A graph whose
/// weights are all positive is solved as it is.
///
/// The sources are checked here, once, so `solve` is handed a graph of
/// positive weights and a non-empty set of plain sources inside it. Whatever
/// else it returns (`X`) is passed through.
pub(crate) fn solve_contracted<X>(
    g: &Graph,
    sources: &[NodeId],
    low_energy: bool,
    solve: impl FnOnce(&Graph, &[SourceOffset]) -> Result<(CsspRun, X), AlgoError>,
) -> Result<(CsspRun, X), AlgoError> {
    check_sources(g, sources.iter().copied())?;
    if g.edges().iter().all(|e| e.w > 0) {
        let offsets: Vec<SourceOffset> = sources.iter().map(|&s| SourceOffset::plain(s)).collect();
        return solve(g, &offsets);
    }

    let Contraction { graph, super_of, edge_origin, mut metrics } =
        contract_zero_weight(g, low_energy);
    let super_sources: Vec<SourceOffset> = {
        let mut seen = std::collections::BTreeSet::new();
        sources
            .iter()
            .filter_map(|&s| {
                let sup = super_of[s.index()];
                seen.insert(sup).then(|| SourceOffset::plain(sup))
            })
            .collect()
    };
    let (run, extra) = solve(&graph, &super_sources)?;

    let super_of = |v: NodeId| super_of[v.index()].index();
    let distances: Vec<Distance> = g.nodes().map(|v| run.output.distances[super_of(v)]).collect();
    let recursion = Metrics {
        node_energy: g.nodes().map(|v| run.metrics.node_energy[super_of(v)]).collect(),
        ..run.metrics
    };
    let members: Vec<NodeId> = g.nodes().collect();
    metrics.merge_sequential_mapped(&recursion, &members, &edge_origin);
    let stats = RecursionStats {
        participation: g.nodes().map(|v| run.stats.participation[super_of(v)]).collect(),
        ..run.stats
    };
    Ok((CsspRun { output: DistanceOutput { distances }, metrics, stats }, extra))
}

/// The result of contracting zero-weight components.
struct Contraction {
    /// The contracted graph (all weights positive).
    graph: Graph,
    /// `super_of[v]` is the supernode of original node `v`.
    super_of: Vec<NodeId>,
    /// `edge_origin[e]` is the original edge that produced contracted edge `e`.
    edge_origin: Vec<EdgeId>,
    /// What finding the components cost, on the original graph.
    metrics: Metrics,
}

/// Contracts the connected components of the zero-weight subgraph, as the
/// spanning forest of that subgraph labels them: supernodes are numbered in
/// the order of their smallest members.
fn contract_zero_weight(g: &Graph, low_energy: bool) -> Contraction {
    let (n, m) = (g.node_count(), g.edge_count() as usize);
    let mut zero = Graph::builder(n);
    let mut zero_edges = Vec::new();
    for e in g.edge_ids() {
        let edge = g.edge(e);
        if edge.w == 0 {
            zero.add_edge(edge.u.0, edge.v.0, 0).expect("an edge of g is valid");
            zero_edges.push(e);
        }
    }
    let (forest, forest_metrics) = spanning_forest(&zero.build(), low_energy);
    let nodes: Vec<NodeId> = g.nodes().collect();
    let metrics = forest_metrics.remap(&nodes, &zero_edges, n as usize, m);

    let super_of: Vec<NodeId> = forest.component_of.iter().map(|&c| NodeId(c as u32)).collect();
    let mut builder = Graph::builder(forest.component_count as u32);
    let mut edge_origin = Vec::new();
    for e in g.edge_ids() {
        let edge = g.edge(e);
        let (su, sv) = (super_of[edge.u.index()], super_of[edge.v.index()]);
        if su != sv {
            builder.add_edge(su.0, sv.0, edge.w).expect("contracted edges are valid");
            edge_origin.push(e);
        }
    }
    Contraction { graph: builder.build(), super_of, edge_origin, metrics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::{generators, sequential};

    fn check_cssp(g: &Graph, sources: &[NodeId]) -> CsspRun {
        let run = cssp(g, sources, &AlgoConfig::default()).unwrap();
        let truth = sequential::dijkstra(g, sources);
        for v in g.nodes() {
            assert_eq!(run.distance(v), truth.distance(v), "node {v}");
        }
        run
    }

    #[test]
    fn sssp_matches_dijkstra_on_weighted_random_graphs() {
        for seed in 0..5 {
            let g = generators::with_random_weights(
                &generators::random_connected(35, 60, seed),
                12,
                seed,
            );
            check_cssp(&g, &[NodeId(0)]);
        }
    }

    #[test]
    fn cssp_with_many_sources() {
        let g = generators::with_random_weights(&generators::grid(6, 6, 1), 7, 4);
        check_cssp(&g, &[NodeId(0), NodeId(35), NodeId(17), NodeId(5)]);
    }

    #[test]
    fn sssp_on_unit_weights() {
        let g = generators::random_connected(50, 100, 8);
        check_cssp(&g, &[NodeId(3)]);
    }

    #[test]
    fn sssp_on_paths_and_cycles() {
        check_cssp(&generators::path(40, 5), &[NodeId(0)]);
        check_cssp(&generators::cycle(30, 3), &[NodeId(7)]);
        check_cssp(&generators::star(25, 9), &[NodeId(12)]);
    }

    #[test]
    fn disconnected_graphs_yield_infinite_distances() {
        let g = generators::disjoint_copies(&generators::path(6, 2), 3);
        let run = check_cssp(&g, &[NodeId(0)]);
        assert_eq!(run.output.reached_count(), 6);
    }

    #[test]
    fn zero_weight_edges_are_contracted_correctly() {
        // 0 -0- 1 -5- 2 -0- 3 -2- 4: dist(0, .) = [0, 0, 5, 5, 7].
        let g = Graph::from_edges(5, [(0, 1, 0), (1, 2, 5), (2, 3, 0), (3, 4, 2)]).unwrap();
        let run = check_cssp(&g, &[NodeId(0)]);
        assert_eq!(run.distance(NodeId(1)), Distance::ZERO);
        assert_eq!(run.distance(NodeId(4)).finite(), Some(7));
    }

    #[test]
    fn zero_weight_random_graphs_match_dijkstra() {
        for seed in 0..3 {
            let g = generators::with_random_weights_zero(
                &generators::random_connected(30, 50, seed),
                6,
                seed,
            );
            check_cssp(&g, &[NodeId(0), NodeId(10)]);
        }
    }

    #[test]
    fn all_zero_graph() {
        let g = generators::with_random_weights_zero(&generators::path(6, 1), 0, 1);
        let run = check_cssp(&g, &[NodeId(2)]);
        assert_eq!(run.output.reached_count(), 6);
        assert!(run.output.distances.iter().all(|&d| d == Distance::ZERO));
    }

    #[test]
    fn a_zero_weight_component_is_charged_on_every_member_and_edge() {
        // 0 -0- 1 -0- 2 -1- 3 from node 3: {0, 1, 2} is one supernode.
        let g = Graph::from_edges(4, [(0, 1, 0), (1, 2, 0), (2, 3, 1)]).unwrap();
        let run = check_cssp(&g, &[NodeId(3)]);
        let (energy, congestion) = (&run.metrics.node_energy, &run.metrics.edge_congestion);
        assert!(energy[0] > 0 && energy[0] == energy[1] && energy[1] == energy[2], "{energy:?}");
        assert!(congestion[0] > 0 && congestion[1] > 0, "{congestion:?}");
        // The contraction is the always-awake forest of the zero-weight
        // subgraph, merged before the recursion.
        let zero = Graph::from_edges(4, [(0, 1, 0), (1, 2, 0)]).unwrap();
        let (_, forest) = spanning_forest(&zero, false);
        let recursion =
            cssp(&Graph::from_edges(2, [(0, 1, 1)]).unwrap(), &[NodeId(1)], &AlgoConfig::default())
                .unwrap();
        assert_eq!(run.metrics.rounds, forest.rounds + recursion.metrics.rounds);
        assert_eq!(run.metrics.messages, forest.messages + recursion.metrics.messages);
        assert_eq!(energy[0], forest.node_energy[0] + recursion.metrics.node_energy[0]);
        assert_eq!(energy[3], forest.node_energy[3] + recursion.metrics.node_energy[1]);
        assert_eq!(congestion[2], recursion.metrics.edge_congestion[0]);
    }

    #[test]
    fn metrics_have_original_graph_dimensions() {
        let g = Graph::from_edges(4, [(0, 1, 0), (1, 2, 3), (2, 3, 1)]).unwrap();
        let run = check_cssp(&g, &[NodeId(0)]);
        assert_eq!(run.metrics.node_energy.len(), 4);
        assert_eq!(run.metrics.edge_congestion.len(), 3);
    }

    #[test]
    fn congestion_is_polylogarithmic_on_long_paths() {
        // Per recursion level an edge carries O(log n) forest messages plus
        // O(1) cutter messages, and there are O(log D) levels, so the per-edge
        // congestion is O(log n · log D) — it must grow far slower than n.
        let g = generators::path(128, 2);
        let run = check_cssp(&g, &[NodeId(0)]);
        let levels = (64 - g.distance_upper_bound().next_power_of_two().leading_zeros()) as u64;
        let log_n = (g.node_count() as f64).log2().ceil() as u64;
        let bound = levels * (5 * log_n + 10);
        assert!(
            run.metrics.max_congestion() <= bound,
            "congestion {} exceeds the O(log n · log D) bound {}",
            run.metrics.max_congestion(),
            bound
        );
    }

    #[test]
    fn round_sums_saturate_at_a_huge_epsilon_inverse() {
        // Each cutter run takes ≈ 3 · 2 · epsilon_inverse rounds here, so from
        // 2^55 on the recursion's sum of them passes `u64::MAX`: it panicked
        // in debug builds and wrapped in release.
        use crate::{Algorithm, Solver};
        let g = Graph::from_edges(3, [(0, 1, 1), (1, 2, Graph::MAX_WEIGHT)]).unwrap();
        let exact = [Distance::ZERO, Distance::Finite(1), Distance::Finite(Graph::MAX_WEIGHT + 1)];
        let mut previous = 0;
        for inv in [1 << 54, 1 << 55, 1 << 59] {
            let run = Solver::on(&g)
                .algorithm(Algorithm::Cssp)
                .source(NodeId(0))
                .config(AlgoConfig::default().with_epsilon_inverse(inv))
                .run()
                .unwrap();
            assert_eq!(run.output.distances, exact, "inv = {inv}");
            assert!(run.report.rounds >= previous, "inv = {inv}");
            previous = run.report.rounds;
        }
        assert_eq!(previous, u64::MAX);
    }
}
