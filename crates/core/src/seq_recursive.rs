//! A *sequential* BMSSP-style recursive bounded-multi-source shortest-path
//! solver — the centralized rival baseline ([`crate::solver::Algorithm::SeqRecursive`],
//! registry name `seq-bmssp`).
//!
//! The paper's distributed recursion (Section 2.3) divides on *distance*:
//! solve the near band exactly, then restart from the band boundary. The
//! fastest known sequential SSSP algorithms beyond Dijkstra (the
//! bounded-multi-source recursion of Duan et al.'s BMSSP line) share that
//! skeleton, so this module implements it as an exact sequential registry
//! entrant every experiment table can compare against:
//!
//! * `rec(F, lo, hi)` is handed a frontier `F` of `(tentative, node)` seeds —
//!   exactly the relaxations that crossed into `[lo, hi)` from nodes settled
//!   below `lo` — and must settle every node whose true distance lies in
//!   `[lo, hi)`, returning the relaxations that cross `hi` as *pending* seeds
//!   for later bands.
//! * Wide bands split at `mid`: recurse on `[lo, mid)`, merge the returned
//!   crossings with the frontier entries already in `[mid, hi)` (dropping
//!   stale and settled entries, deduplicating each node to its minimum — the
//!   pivot-reduction step), then recurse on `[mid, hi)`.
//! * Narrow bands run a bounded Dijkstra on the workspace's monotone
//!   [`RadixHeap`]: settle while the key is below `hi`, record crossings.
//!
//! Exactness is the band-completeness invariant: every shortest path enters a
//! band either through a frontier seed carrying its exact value (the crossing
//! relaxation from its settled predecessor) or through an in-band relaxation,
//! and the base case's Dijkstra completes all in-band chains. The registry
//! differential proptests (`tests/solver_registry.rs`) and this module's
//! killer-family test pin this against the sequential Dijkstra oracle on
//! every generator family.
//!
//! Being centralized, the solver charges *sequential-work* metrics rather
//! than CONGEST rounds: `rounds` counts heap pops, `messages` and per-edge
//! congestion count edge relaxations, and per-node energy counts settlements
//! — so its rows remain comparable in every table without pretending it paid
//! distributed coordination costs.

use congest_graph::{Distance, Graph, NodeId, RadixHeap};
use congest_sim::Metrics;

use crate::result::DistanceOutput;
use crate::thresholded::RecursionStats;
use crate::{AlgoConfig, AlgoError};

/// The recursion splits the initial distance range into at most this many
/// base-width bands (a 6-level tree), so merge overhead stays bounded while
/// the recursion structure remains observable in the E10-style stats. The
/// base case is *width*-based, never frontier-size-based: the whole point of
/// the banded recursion is that even a one-node frontier must not run an
/// unbounded Dijkstra.
const TARGET_LEAVES: u64 = 64;

/// The result of a [`seq_recursive`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct SeqRecursiveRun {
    /// Exact distances for every node with `dist(S, v) <= bound`; `Infinite`
    /// for nodes beyond the bound or unreachable.
    pub output: DistanceOutput,
    /// Sequential-work accounting (see the module docs).
    pub metrics: Metrics,
    /// Recursion-tree shape, comparable with the distributed recursion's
    /// [`crate::result::RecursionReport`].
    pub stats: RecursionStats,
}

struct Rec<'g> {
    g: &'g Graph,
    dist: Vec<Distance>,
    settled: Vec<bool>,
    heap: RadixHeap,
    metrics: Metrics,
    stats: RecursionStats,
    base_width: u64,
}

impl Rec<'_> {
    /// Settles every node whose true distance from the source set lies in
    /// `[lo, hi)`, given `frontier` = all crossing relaxations into the band,
    /// and returns the relaxations that cross `hi`.
    fn rec(&mut self, frontier: Vec<(u64, u32)>, lo: u64, hi: u64, depth: u32) -> Vec<(u64, u32)> {
        if frontier.is_empty() {
            return frontier;
        }
        self.stats.subproblems += 1;
        self.stats.total_subproblem_size += frontier.len() as u64;
        self.stats.levels = self.stats.levels.max(depth + 1);
        for &(_, v) in &frontier {
            self.stats.participation[v as usize] += 1;
        }
        if hi - lo <= self.base_width {
            return self.base_case(frontier, hi);
        }
        let mid = lo + (hi - lo) / 2;
        let mut low = Vec::with_capacity(frontier.len());
        let mut high = Vec::new();
        for e in frontier {
            if e.0 < mid {
                low.push(e);
            } else {
                high.push(e);
            }
        }
        let pending_low = self.rec(low, lo, mid, depth + 1);
        // Pivot reduction: merge the lower band's crossings with the original
        // upper-band seeds, drop stale/settled entries, and deduplicate each
        // node to its minimum tentative value.
        high.extend(pending_low);
        let mut upper = Vec::with_capacity(high.len());
        let mut beyond = Vec::new();
        for (d, v) in high {
            if self.settled[v as usize] || Distance::Finite(d) > self.dist[v as usize] {
                continue;
            }
            if d < hi {
                upper.push((v, d));
            } else {
                beyond.push((d, v));
            }
        }
        upper.sort_unstable();
        upper.dedup_by_key(|e| e.0);
        let upper: Vec<(u64, u32)> = upper.into_iter().map(|(v, d)| (d, v)).collect();
        beyond.extend(self.rec(upper, mid, hi, depth + 1));
        beyond
    }

    /// Bounded Dijkstra: settles keys `< hi`, records crossings `>= hi`.
    fn base_case(&mut self, frontier: Vec<(u64, u32)>, hi: u64) -> Vec<(u64, u32)> {
        self.heap.clear();
        for &(d, v) in &frontier {
            if !self.settled[v as usize] && Distance::Finite(d) == self.dist[v as usize] {
                self.heap.push(d, v);
            }
        }
        let mut pending = Vec::new();
        while let Some((d, v)) = self.heap.pop() {
            self.metrics.rounds += 1;
            let vi = v as usize;
            if self.settled[vi] || Distance::Finite(d) > self.dist[vi] {
                continue;
            }
            debug_assert!(d < hi, "settle keys stay inside the band");
            self.settled[vi] = true;
            self.metrics.node_energy[vi] += 1;
            for adj in self.g.neighbors(NodeId(v)) {
                self.metrics.messages += 1;
                self.metrics.edge_congestion[adj.edge.index()] += 1;
                let ni = adj.neighbor.index();
                let nd = d.saturating_add(adj.weight);
                if !self.settled[ni] && Distance::Finite(nd) < self.dist[ni] {
                    self.dist[ni] = Distance::Finite(nd);
                    if nd < hi {
                        self.heap.push(nd, adj.neighbor.0);
                    } else {
                        pending.push((nd, adj.neighbor.0));
                    }
                }
            }
        }
        pending
    }
}

/// Runs the sequential BMSSP-style recursion from `sources`, settling exactly
/// the nodes with `dist(sources, v) <= bound` (pass
/// [`Graph::distance_upper_bound`] for an untruncated run).
///
/// # Errors
///
/// Returns an error if the source set is empty or a source is out of range.
pub fn seq_recursive(
    g: &Graph,
    sources: &[NodeId],
    bound: u64,
    _config: &AlgoConfig,
) -> Result<SeqRecursiveRun, AlgoError> {
    if sources.is_empty() {
        return Err(AlgoError::EmptySourceSet);
    }
    for &s in sources {
        if !g.contains_node(s) {
            return Err(AlgoError::SourceOutOfRange { node: s });
        }
    }
    let n = g.node_count() as usize;
    let m = g.edge_count() as usize;
    // Exclusive upper bound: settle keys <= bound.
    let hi = bound.saturating_add(1);
    let mut rec = Rec {
        g,
        dist: vec![Distance::Infinite; n],
        settled: vec![false; n],
        heap: RadixHeap::new(),
        metrics: Metrics::zero(n, m),
        stats: RecursionStats {
            subproblems: 0,
            participation: vec![0; n],
            total_subproblem_size: 0,
            levels: 0,
        },
        base_width: (hi / TARGET_LEAVES).max(1),
    };
    let mut frontier = Vec::with_capacity(sources.len());
    for &s in sources {
        if rec.dist[s.index()].is_infinite() {
            rec.dist[s.index()] = Distance::ZERO;
            frontier.push((0, s.0));
        }
    }
    let _beyond_bound = rec.rec(frontier, 0, hi, 0);
    let distances = rec
        .dist
        .iter()
        .zip(&rec.settled)
        .map(|(&d, &s)| if s { d } else { Distance::Infinite })
        .collect();
    Ok(SeqRecursiveRun {
        output: DistanceOutput { distances },
        metrics: rec.metrics,
        stats: rec.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::{generators, sequential};

    fn untruncated(g: &Graph, sources: &[NodeId]) -> SeqRecursiveRun {
        seq_recursive(g, sources, g.distance_upper_bound().max(1), &AlgoConfig::default()).unwrap()
    }

    #[test]
    fn matches_dijkstra_on_random_graphs() {
        for seed in 0..6 {
            let g = generators::with_random_weights(
                &generators::random_connected(40, 80, seed),
                50,
                seed,
            );
            let run = untruncated(&g, &[NodeId(0)]);
            let truth = sequential::dijkstra(&g, &[NodeId(0)]);
            assert_eq!(run.output.distances, truth.distances, "seed {seed}");
            assert!(run.metrics.rounds > 0 && run.metrics.messages > 0);
            assert!(run.stats.subproblems > 0);
        }
    }

    #[test]
    fn matches_dijkstra_on_killer_families() {
        let cases = [
            generators::wrong_dijkstra_killer(48),
            generators::spfa_killer(24),
            generators::grid_swirl(7),
            generators::almost_line(64, 3),
            generators::max_dense(24, 5),
            generators::max_dense_zero(20, 5),
        ];
        for (i, g) in cases.iter().enumerate() {
            let run = untruncated(g, &[NodeId(0)]);
            let truth = sequential::dijkstra(g, &[NodeId(0)]);
            assert_eq!(run.output.distances, truth.distances, "killer case {i}");
        }
    }

    #[test]
    fn multi_source_and_zero_weights() {
        let g =
            generators::with_random_weights_zero(&generators::random_connected(30, 60, 9), 7, 9);
        let sources = [NodeId(0), NodeId(17), NodeId(17)];
        let run = untruncated(&g, &sources);
        let truth = sequential::dijkstra(&g, &sources);
        assert_eq!(run.output.distances, truth.distances);
    }

    #[test]
    fn disconnected_nodes_stay_infinite() {
        let g = generators::disjoint_copies(&generators::path(5, 2), 2);
        let run = untruncated(&g, &[NodeId(1)]);
        assert_eq!(run.output.reached_count(), 5);
        assert!(run.output.distances[7].is_infinite());
    }

    #[test]
    fn bound_truncates_exactly() {
        let g = generators::path(10, 3); // distances 0, 3, 6, ..., 27
        let run = seq_recursive(&g, &[NodeId(0)], 9, &AlgoConfig::default()).unwrap();
        for v in 0..10 {
            let expect = 3 * v as u64;
            if expect <= 9 {
                assert_eq!(run.output.distances[v].finite(), Some(expect));
            } else {
                assert!(run.output.distances[v].is_infinite(), "node {v} beyond bound");
            }
        }
        // Zero bound settles exactly the source (no zero-weight edges here).
        let run = seq_recursive(&g, &[NodeId(4)], 0, &AlgoConfig::default()).unwrap();
        assert_eq!(run.output.reached_count(), 1);
    }

    #[test]
    fn recursion_actually_recurses_on_wide_ranges() {
        let g = generators::with_random_weights(&generators::random_connected(60, 160, 4), 1000, 4);
        let run = untruncated(&g, &[NodeId(0)]);
        assert!(run.stats.levels > 1, "wide range must split: {:?}", run.stats.levels);
        assert!(run.stats.subproblems > 1);
        assert!(run.stats.max_participation() >= 1);
        assert_eq!(run.output.distances, sequential::dijkstra(&g, &[NodeId(0)]).distances);
    }

    #[test]
    fn rejects_bad_input() {
        let g = generators::path(3, 1);
        let cfg = AlgoConfig::default();
        assert!(matches!(seq_recursive(&g, &[], 10, &cfg), Err(AlgoError::EmptySourceSet)));
        assert!(matches!(
            seq_recursive(&g, &[NodeId(9)], 10, &cfg),
            Err(AlgoError::SourceOutOfRange { .. })
        ));
    }
}
