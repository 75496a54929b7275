//! Low-congestion exact CSSP and SSSP (Theorems 2.6 and 2.7 of the paper).
//!
//! [`cssp`] computes `dist(S, v)` for every node `v` in `Õ(n)` rounds with
//! `poly(log n)` congestion per edge; SSSP is the one-source case. Zero-weight
//! edges are handled by contracting their connected components before running
//! the recursion (the standard device behind Theorem 2.7).

use std::collections::BTreeMap;

use congest_graph::{Distance, EdgeId, Graph, NodeId};
use congest_sim::Metrics;

use crate::error::check_sources;
use crate::result::{DistanceOutput, SourceOffset};
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
    Ok(solve_contracted(g, sources, recursion)?.0)
}

/// Runs `solve` on `g` with each connected component of its zero-weight
/// subgraph contracted into one supernode (the device behind Theorem 2.7),
/// and reads the run back onto `g`: every node inherits its supernode's
/// distance and participation, a supernode's costs land on its
/// representative and a contracted edge's on the edge it came from. A graph
/// whose weights are all positive is solved as it is.
///
/// The sources are checked here, once, so `solve` is handed a graph of
/// positive weights and a non-empty set of plain sources inside it. Whatever
/// else it returns (`X`) is passed through.
pub(crate) fn solve_contracted<X>(
    g: &Graph,
    sources: &[NodeId],
    solve: impl FnOnce(&Graph, &[SourceOffset]) -> Result<(CsspRun, X), AlgoError>,
) -> Result<(CsspRun, X), AlgoError> {
    check_sources(g, sources.iter().copied())?;
    if g.edges().iter().all(|e| e.w > 0) {
        let offsets: Vec<SourceOffset> = sources.iter().map(|&s| SourceOffset::plain(s)).collect();
        return solve(g, &offsets);
    }

    let contraction = contract_zero_weight(g);
    let super_sources: Vec<SourceOffset> = {
        let mut seen = std::collections::BTreeSet::new();
        sources
            .iter()
            .filter_map(|&s| {
                let sup = contraction.super_of[s.index()];
                seen.insert(sup).then(|| SourceOffset::plain(sup))
            })
            .collect()
    };
    let (run, extra) = solve(&contraction.graph, &super_sources)?;

    let super_of = |v: NodeId| contraction.super_of[v.index()];
    let distances: Vec<Distance> = g.nodes().map(|v| run.output.distance(super_of(v))).collect();
    let metrics = run.metrics.remap(
        &contraction.representative,
        &contraction.edge_origin,
        g.node_count() as usize,
        g.edge_count() as usize,
    );
    let stats = RecursionStats {
        participation: g.nodes().map(|v| run.stats.participation[super_of(v).index()]).collect(),
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
    /// `representative[s]` is an original node represented by supernode `s`.
    representative: Vec<NodeId>,
    /// `edge_origin[e]` is the original edge that produced contracted edge `e`.
    edge_origin: Vec<EdgeId>,
}

/// Contracts the connected components of the zero-weight subgraph.
fn contract_zero_weight(g: &Graph) -> Contraction {
    let n = g.node_count() as usize;
    // Union-find over zero-weight edges.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    for e in g.edges() {
        if e.w == 0 {
            let (a, b) = (find(&mut parent, e.u.index()), find(&mut parent, e.v.index()));
            if a != b {
                parent[a] = b;
            }
        }
    }
    // Dense supernode ids.
    let mut super_index: BTreeMap<usize, u32> = BTreeMap::new();
    let mut representative: Vec<NodeId> = Vec::new();
    let mut super_of = vec![NodeId(0); n];
    for (v, sup) in super_of.iter_mut().enumerate() {
        let root = find(&mut parent, v);
        let next_id = super_index.len() as u32;
        let id = *super_index.entry(root).or_insert_with(|| {
            representative.push(NodeId(root as u32));
            next_id
        });
        *sup = NodeId(id);
    }
    let mut builder = Graph::builder(super_index.len() as u32);
    let mut edge_origin = Vec::new();
    for e in g.edge_ids() {
        let edge = g.edge(e);
        if edge.w == 0 {
            continue;
        }
        let (su, sv) = (super_of[edge.u.index()], super_of[edge.v.index()]);
        if su != sv {
            builder.add_edge(su.0, sv.0, edge.w).expect("contracted edges are valid");
            edge_origin.push(e);
        }
    }
    Contraction { graph: builder.build(), super_of, representative, edge_origin }
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
