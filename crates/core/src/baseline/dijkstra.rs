//! The direct distributed Dijkstra baseline the paper's introduction rules
//! out: repeatedly find the minimum-estimate unvisited node *in the whole
//! network* (a global convergecast over a BFS tree of depth `D`), visit it,
//! and relax its edges. This costs `O(n · D)` rounds and `O(n² + m)` messages
//! — far from the paper's bounds — and is implemented here as the comparison
//! point for experiments E1–E3.
//!
//! The iteration structure is exactly what a distributed execution would
//! compute: every node reachable from the sources is visited once, in
//! distance order, and its incident edges are relaxed. Each visit is charged
//! the same, following the textbook accounting — one convergecast + one
//! broadcast over the coordination tree to find the global minimum, plus one
//! message per incident edge of the visited node — so the costs are a closed
//! form over the reached set and need no simulated priority queue.

use congest_graph::sequential::ShortestPaths;
use congest_graph::{EdgeId, Graph, NodeId};
use congest_sim::Metrics;

use crate::result::{AlgoRun, DistanceOutput};

/// The edges of the BFS forest `bfs`: for each reached node with a parent,
/// the first port in its parent's row that leads to it.
fn forest_edges<'a>(g: &'a Graph, bfs: &'a ShortestPaths) -> impl Iterator<Item = EdgeId> + 'a {
    g.nodes().filter_map(move |v| {
        let parent = bfs.parents[v.index()]?;
        let port = g.neighbors(parent).iter().find(|adj| adj.neighbor == v);
        Some(port.expect("a BFS parent is a neighbour").edge)
    })
}

/// Runs the distributed-Dijkstra baseline from `sources` (checked by the
/// facade). Infallible: the iteration is computed, not simulated.
pub(crate) fn distributed_dijkstra(g: &Graph, sources: &[NodeId]) -> AlgoRun {
    let n = g.node_count() as usize;
    let m = g.edge_count() as usize;

    // Coordination tree: a BFS forest from the sources (what the "find the
    // global minimum" convergecast runs over). Its construction costs one BFS:
    // one message per edge, every node awake for its `depth + 1` rounds.
    let bfs = congest_graph::sequential::bfs(g, sources);
    let tree_depth = bfs.distances.iter().filter_map(|d| d.finite()).max().unwrap_or(0).max(1);
    let distances = congest_graph::sequential::dijkstra(g, sources).distances;

    // One iteration per reached node. Its global minimum search is one
    // convergecast + one broadcast over the coordination tree (`2 · depth + 2`
    // rounds, 2 messages per tree edge, every node awake for the duration);
    // its visit is one round with one message per incident edge.
    let visits = distances.iter().filter(|d| d.is_finite()).count() as u64;
    let coordination_rounds = 2 * tree_depth + 2;
    let mut metrics = Metrics::zero(n, m);
    metrics.charge_rounds(tree_depth + 1 + visits * (coordination_rounds + 1));
    metrics.charge_awake(g.nodes(), tree_depth + 1 + visits * coordination_rounds);
    metrics.charge_messages(g.edge_ids(), 1);
    metrics.charge_messages(forest_edges(g, &bfs), 2 * visits);
    for v in g.nodes().filter(|v| distances[v.index()].is_finite()) {
        metrics.charge_messages(g.neighbors(v).iter().map(|adj| adj.edge), 1);
    }

    AlgoRun { output: DistanceOutput { distances }, metrics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::{generators, sequential, Distance};

    /// The reference implementation: the iteration itself, the next node found
    /// by an O(n) scan and every visit charged as it happens. Kept as the
    /// differential oracle pinning that the closed form changed *nothing* about
    /// the simulated execution — output and full metrics must stay bit-identical.
    fn distributed_dijkstra_scan_reference(g: &Graph, sources: &[NodeId]) -> AlgoRun {
        let n = g.node_count() as usize;
        let m = g.edge_count() as usize;
        let mut metrics = Metrics::zero(n, m);

        let bfs = congest_graph::sequential::bfs(g, sources);
        // The forest's edges: for each node with a BFS parent, the first
        // port of the parent's row that leads to it.
        let mut forest = Vec::new();
        for v in 0..n {
            if let Some(p) = bfs.parents[v] {
                let row = g.neighbors(p);
                let first = (0..row.len()).find(|&i| row[i].neighbor.index() == v);
                forest.push(row[first.expect("a BFS parent is a neighbour")].edge);
            }
        }
        let tree_depth = bfs.distances.iter().filter_map(|d| d.finite()).max().unwrap_or(0).max(1);
        metrics.rounds += tree_depth + 1;
        for e in 0..m {
            metrics.edge_congestion[e] += 1;
            metrics.messages += 1;
        }
        for v in 0..n {
            metrics.node_energy[v] += tree_depth + 1;
        }

        let mut dist = vec![Distance::Infinite; n];
        let mut visited = vec![false; n];
        for &s in sources {
            dist[s.index()] = Distance::ZERO;
        }
        loop {
            let next = (0..n)
                .filter(|&v| !visited[v] && dist[v].is_finite())
                .min_by_key(|&v| (dist[v], v));
            let Some(v) = next else { break };
            let coordination_rounds = 2 * tree_depth + 2;
            metrics.rounds += coordination_rounds;
            for e in &forest {
                metrics.edge_congestion[e.index()] += 2;
                metrics.messages += 2;
            }
            for u in 0..n {
                metrics.node_energy[u] += coordination_rounds;
            }
            visited[v] = true;
            metrics.rounds += 1;
            let dv = dist[v];
            for adj in g.neighbors(NodeId(v as u32)) {
                metrics.edge_congestion[adj.edge.index()] += 1;
                metrics.messages += 1;
                let cand = dv.saturating_add(adj.weight);
                if cand < dist[adj.neighbor.index()] {
                    dist[adj.neighbor.index()] = cand;
                }
            }
        }

        AlgoRun { output: DistanceOutput { distances: dist }, metrics }
    }

    #[test]
    fn distances_match_sequential_dijkstra() {
        for seed in 0..3 {
            let g = generators::with_random_weights(
                &generators::random_connected(40, 70, seed),
                11,
                seed,
            );
            let run = distributed_dijkstra(&g, &[NodeId(0)]);
            let truth = sequential::dijkstra(&g, &[NodeId(0)]);
            assert_eq!(run.output.distances, truth.distances, "seed {seed}");
        }
    }

    #[test]
    fn time_scales_with_n_times_diameter() {
        let g = generators::path(50, 2);
        let run = distributed_dijkstra(&g, &[NodeId(0)]);
        // 50 iterations, each costing ~2 * 49 rounds of coordination.
        assert!(run.metrics.rounds >= 50 * 49);
    }

    #[test]
    fn message_complexity_includes_n_squared_term() {
        let g = generators::random_connected(60, 60, 2);
        let run = distributed_dijkstra(&g, &[NodeId(0)]);
        // n iterations × Θ(n) tree messages dominates m.
        assert!(run.metrics.messages as usize > 10 * g.edge_count() as usize);
    }

    #[test]
    fn multi_source_works() {
        let g = generators::with_random_weights(&generators::grid(5, 5, 1), 6, 1);
        let sources = [NodeId(0), NodeId(24)];
        let run = distributed_dijkstra(&g, &sources);
        assert_eq!(run.output.distances, sequential::dijkstra(&g, &sources).distances);
    }

    #[test]
    fn coordination_messages_go_over_the_sources_bfs_forest() {
        // From both ends of a path, the BFS forest leaves the middle edge
        // (2, 3) out: it carries only the construction message and the two
        // visits of its endpoints, while each forest edge also carries
        // 2 · 5 coordination messages.
        let g = generators::path(5, 1);
        let run = distributed_dijkstra(&g, &[NodeId(0), NodeId(4)]);
        assert_eq!(run.metrics.edge_congestion, [13, 13, 3, 13]);
        assert_eq!((run.metrics.messages, run.metrics.rounds), (42, 38));
    }

    #[test]
    fn the_closed_form_is_bit_identical_to_the_scan() {
        let workloads = [
            generators::with_random_weights(&generators::random_connected(40, 70, 1), 11, 1),
            generators::with_random_weights_zero(&generators::random_connected(30, 50, 2), 5, 2),
            generators::path(25, 3),
            generators::with_random_weights(&generators::grid(6, 6, 1), 9, 4),
            generators::disjoint_copies(&generators::path(6, 2), 3),
            generators::wrong_dijkstra_killer(24),
            generators::spfa_killer(12),
        ];
        for (i, g) in workloads.iter().enumerate() {
            let sources: &[NodeId] =
                if i % 2 == 0 { &[NodeId(0)] } else { &[NodeId(0), NodeId(5)] };
            let fast = distributed_dijkstra(g, sources);
            let slow = distributed_dijkstra_scan_reference(g, sources);
            // Full AlgoRun equality: distances AND every metrics field
            // (rounds, messages, per-edge congestion, per-node energy).
            assert_eq!(fast, slow, "workload {i}: the closed form changed the execution");
        }
    }
}
