//! The `D`-thresholded CSSP recursion of Section 2.3 — the paper's
//! "distributified Dijkstra".
//!
//! Given a threshold `D`, the recursion:
//!
//! 1. builds a spanning forest of the active node set for per-component
//!    coordination ([`crate::spanning_forest`], Theorem 2.2),
//! 2. runs the approximate cutter (Lemma 2.1, [`crate::approx`]) with `W = D`
//!    and keeps `V₁ = {v : dist'(S, v) ≤ D + err}` — a superset of every node
//!    within distance `D`,
//! 3. recurses on `V₁` with threshold `D/2` from the original sources,
//! 4. charges the per-component convergecast that coordinates the start of
//!    the second half (`Θ(|V'|)` rounds, Section 2.3 step 4),
//! 5. forms the "cut": every node of `V₁ \ V₂` adjacent to the exactly-solved
//!    set `V₂ = {v : dist(S, v) ≤ D/2}` becomes a source of the second
//!    recursion with offset `dist(S, v) + w(v, u) − D/2` (this is the
//!    imaginary-node device of the paper, expressed as source offsets), and
//!    original sources whose own offset exceeds `D/2` are carried over with
//!    offset reduced by `D/2`,
//! 6. recurses on `V₁ \ V₂` with threshold `D/2` from the cut sources and
//!    combines: `dist(S, y) = D/2 + dist(X, y)`.
//!
//! Every distance-carrying step (the cutter's waiting BFS) executes as a real
//! CONGEST protocol on the induced subgraph; the recursion bookkeeping and
//! coordination costs are charged by the orchestrator following the paper's
//! own accounting (see `docs/APSP.md`, "The recursion workspace").
//!
//! ## Host cost
//!
//! One `Recursion` workspace serves the whole recursion tree, so a
//! subproblem costs its own size and volume, not the graph's: node sets
//! travel as id-sorted slices, results as id-sorted `(node, distance)` runs
//! that are merged, membership and the node renumbering are one
//! epoch-stamped column ([`SubsetMarks`]) re-marked at each point of use,
//! the induced subgraph is built from the members' adjacency straight into
//! CSR ([`Graph::induced_on`]), phases are scatter-added into the accumulated
//! metrics ([`Metrics::merge_sequential_mapped`]), and the spanning forest
//! and the cutter's simulated run work in buffers that outlive a subproblem
//! (the workspace's `ForestScratch`, and the engine's, which belong to the
//! calling thread). The per-subproblem allocations that remain are outputs:
//! the subgraph, its edge map, the filtered source list, `V₁`, the second
//! half's node set and the result runs — plus the cutter's rounded weights
//! and what its run returns. The B-tree recursion this replaced lives on in
//! `thresholded/reference.rs` (test-only) as the differential oracle.
//!
//! simlint: hot-path

use congest_graph::{Distance, EdgeId, Graph, NodeId, SubsetMarks, Weight};
use congest_sim::Metrics;
use serde::{Deserialize, Serialize};

use crate::approx::approximate_cssp_validated;
use crate::cssp::CsspRun;
use crate::error::check_sources;
use crate::result::{DistanceOutput, SourceOffset};
use crate::spanning_forest::ForestScratch;
use crate::{AlgoConfig, AlgoError};

/// Instrumentation of the recursion tree (used by experiment E10 to check
/// Lemma 2.4 / Corollary 2.5: every node appears in `O(log D)` subproblems).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecursionStats {
    /// Total number of subproblems solved (recursion-tree nodes).
    pub subproblems: u64,
    /// `participation[v]` is the number of subproblems whose active node set
    /// contained node `v`.
    pub participation: Vec<u64>,
    /// Sum of active-node-set sizes over all subproblems
    /// (`O(n log D)` by Corollary 2.5).
    pub total_subproblem_size: u64,
    /// The number of recursion levels (`log₂ D`).
    pub levels: u32,
}

impl RecursionStats {
    /// The maximum number of subproblems any single node participated in.
    pub fn max_participation(&self) -> u64 {
        self.participation.iter().copied().max().unwrap_or(0)
    }
}

/// Runs the `threshold`-thresholded CSSP from `sources` (with offsets): every
/// node at (offset) distance at most `threshold` learns its exact distance,
/// every other node outputs [`Distance::Infinite`].
///
/// All edge weights must be positive (zero weights are contracted away by
/// [`crate::cssp::cssp`] before reaching this function).
///
/// # Errors
///
/// Returns an error for an empty source set, an out-of-range source, a zero
/// edge weight, or a simulation failure.
pub fn thresholded_cssp(
    g: &Graph,
    sources: &[SourceOffset],
    threshold: u64,
    config: &AlgoConfig,
) -> Result<CsspRun, AlgoError> {
    check_sources(g, sources.iter().map(|s| s.node))?;
    if let Some(e) = g.edges().iter().position(|e| e.w == 0) {
        return Err(AlgoError::ZeroWeightNotSupported { edge: EdgeId(e as u32) });
    }
    thresholded_cssp_validated(g, sources, threshold, config)
}

/// [`thresholded_cssp`] for a caller that has established its preconditions
/// already — a non-empty source set inside the graph, positive weights — as
/// [`crate::cssp::cssp`] has by the time it gets here.
pub(crate) fn thresholded_cssp_validated(
    g: &Graph,
    sources: &[SourceOffset],
    threshold: u64,
    config: &AlgoConfig,
) -> Result<CsspRun, AlgoError> {
    // Round the threshold up to a power of two so that halving stays exact
    // down to the base case D = 1 (the paper picks D = 2^L similarly). Past
    // 2^63 there is no such power; but no finite distance exceeds the largest
    // offset plus `n · max w_e`, so rounding that bound gives the same
    // distances.
    let threshold = match threshold.max(1).checked_next_power_of_two() {
        Some(rounded) => rounded,
        None => sources
            .iter()
            .map(|s| s.offset)
            .max()
            .unwrap_or(0)
            .saturating_add(g.distance_upper_bound())
            .max(1)
            .checked_next_power_of_two()
            .ok_or(AlgoError::UnsupportedRequest {
                algorithm: "recursive-cssp",
                reason: "a threshold and source offsets past 2^63",
            })?,
    };
    let mut recursion = Recursion::new(g, config);
    // simlint::allow(hot-path-alloc: per-run, the root subproblem's node set)
    let all_nodes: Vec<NodeId> = g.nodes().collect();
    let solved = recursion.solve(&all_nodes, sources, threshold)?;

    // simlint::allow(hot-path-alloc: per-run, the output)
    let mut distances = vec![Distance::Infinite; all_nodes.len()];
    for (v, d) in solved {
        distances[v.index()] = Distance::Finite(d);
    }
    let stats = RecursionStats {
        subproblems: recursion.subproblems,
        participation: recursion.participation,
        total_subproblem_size: recursion.total_size,
        levels: threshold.trailing_zeros() + 1,
    };
    Ok(CsspRun { output: DistanceOutput { distances }, metrics: recursion.metrics, stats })
}

/// The threshold at or below which a subproblem is solved by the one-round
/// base case instead of recursing (the paper's `D = 1`).
pub(crate) const BASE_CASE_THRESHOLD: u64 = 1;

/// The distances a subproblem settled: `(node, distance)` sorted by node id,
/// one entry per node.
type Solved = Vec<(NodeId, Weight)>;

/// "No cut offset yet" in [`Recursion::cut_offsets`]; real offsets are
/// bounded by the threshold plus an edge weight.
const NO_OFFSET: Weight = Weight::MAX;

/// The workspace of one recursion: the accumulated metrics and
/// instrumentation, and every node-indexed buffer the subproblems share.
struct Recursion<'a> {
    g: &'a Graph,
    config: &'a AlgoConfig,
    /// The phases run so far, attributed to the original graph.
    metrics: Metrics,
    participation: Vec<u64>,
    subproblems: u64,
    total_size: u64,
    /// Membership and local index of whichever node set is in use: the
    /// subproblem's nodes from its entry through the induced build and the
    /// source renumbering (or through the base case), then — after the first
    /// recursive call has clobbered them — `V₁ \ V₂` while the cut is formed.
    /// Each use re-marks; nothing is assumed to survive a recursive call.
    marks: SubsetMarks,
    forest: ForestScratch,
    /// The best offset found so far for each node of `V₁ \ V₂` (by local
    /// index) while the second half's sources are collected.
    cut_offsets: Vec<Weight>,
    /// Adjacency entries read by base cases (host cost without a clock).
    #[cfg(test)]
    base_case_scanned: u64,
}

impl<'a> Recursion<'a> {
    fn new(g: &'a Graph, config: &'a AlgoConfig) -> Self {
        let n = g.node_count() as usize;
        Recursion {
            g,
            config,
            metrics: Metrics::zero(n, g.edge_count() as usize),
            // simlint::allow(hot-path-alloc: the workspace itself — one per run, shared by every subproblem)
            participation: vec![0; n],
            subproblems: 0,
            total_size: 0,
            marks: SubsetMarks::new(n),
            forest: ForestScratch::default(),
            cut_offsets: Vec::new(), // simlint::allow(hot-path-alloc: workspace column, as above)
            #[cfg(test)]
            base_case_scanned: 0,
        }
    }

    /// Solves one subproblem: distances (at most `d`) from `sources` within
    /// the induced subgraph on `nodes` (sorted by id).
    fn solve(
        &mut self,
        nodes: &[NodeId],
        sources: &[SourceOffset],
        d: u64,
    ) -> Result<Solved, AlgoError> {
        // Keep only sources that are part of this subproblem.
        self.marks.mark(nodes);
        let marks = &self.marks;
        let inside = sources.iter().copied().filter(|s| marks.contains(s.node));
        // simlint::allow(hot-path-alloc: per-subproblem input, outlives both recursive calls)
        let sources: Vec<SourceOffset> = inside.collect();
        if sources.is_empty() {
            return Ok(Vec::new()); // simlint::allow(hot-path-alloc: an empty run does not allocate)
        }
        self.subproblems += 1;
        self.total_size += nodes.len() as u64;
        for &v in nodes {
            self.participation[v.index()] += 1;
        }

        if d <= BASE_CASE_THRESHOLD {
            return Ok(self.base_case(nodes, &sources, d));
        }

        let v1 = self.cut(nodes, &sources, d)?;
        let d1 = d / 2;

        // Step 4: first half of the recursion — distances up to d1 from S.
        let first = self.solve(&v1, &sources, d1)?;

        // Step 5: per-component convergecast to agree on the start of the second
        // half (charged as Θ(|V'|) rounds with the subproblem's nodes awake).
        // Time and energy saturate, as in the merged phases: a cutter run can
        // take close to `u64::MAX / 4` rounds.
        let coordination = 2 * nodes.len() as u64 + 2;
        self.metrics.rounds = self.metrics.rounds.saturating_add(coordination);
        for &v in nodes {
            let energy = &mut self.metrics.node_energy[v.index()];
            *energy = energy.saturating_add(coordination);
        }

        // Step 6: second half — the cut sources, on V1 minus the settled V2.
        let mut settled = first.iter().map(|&(v, _)| v).peekable();
        let unsettled = v1.iter().copied().filter(|&v| {
            while settled.next_if(|&s| s < v).is_some() {}
            settled.peek() != Some(&v)
        });
        // simlint::allow(hot-path-alloc: per-subproblem output, the second half's node set)
        let rest: Vec<NodeId> = unsettled.collect();
        drop(v1);
        let second_sources = self.cut_sources(&rest, &first, &sources, d1);
        let second = if second_sources.is_empty() {
            Vec::new() // simlint::allow(hot-path-alloc: an empty run does not allocate)
        } else {
            self.solve(&rest, &second_sources, d1)?
        };

        // Combine: dist(S, y) = d1 + dist(X, y) for the second half.
        Ok(merge_halves(first, second, d1, d))
    }

    /// Steps 1–3 on the induced subgraph of `nodes`: the spanning forest for
    /// per-component coordination (Theorem 2.2), the approximate cutter with
    /// `W = d` (Lemma 2.1), and `V₁` — the nodes whose estimate is within
    /// `d + err`. The subgraph does not outlive the call.
    fn cut(
        &mut self,
        nodes: &[NodeId],
        sources: &[SourceOffset],
        d: u64,
    ) -> Result<Vec<NodeId>, AlgoError> {
        let (sub, edge_map) = self.g.induced_on(nodes, &mut self.marks);
        let marks = &self.marks;
        let renumbered = sources.iter().map(|s| {
            let local = marks.local(s.node).expect("the sources were filtered to the subproblem");
            SourceOffset { node: NodeId(local), offset: s.offset }
        });
        // simlint::allow(hot-path-alloc: per-subproblem input of the cutter run, which rescales it in place)
        let sub_sources: Vec<SourceOffset> = renumbered.collect();

        let forest_metrics = self.forest.run(&sub, false);
        self.metrics.merge_sequential_mapped(forest_metrics, nodes, &edge_map);

        let cut = approximate_cssp_validated(&sub, sub_sources, d, self.config)?;
        self.metrics.merge_sequential_mapped(&cut.metrics, nodes, &edge_map);

        let include = cut.inclusion_threshold(d);
        let v1 = nodes.iter().zip(&cut.estimates).filter(|(_, &e)| e <= include).map(|(&v, _)| v);
        Ok(v1.collect()) // simlint::allow(hot-path-alloc: per-subproblem output, the first half's node set)
    }

    /// Forms the cut: every node of `rest = V₁ \ V₂` adjacent to the settled
    /// set becomes a source of the second half with offset
    /// `dist(S, v) + w(v, u) − d1`, and original sources whose offset exceeds
    /// `d1` are carried over, shifted by `d1` (the "virtual edge" view of the
    /// offsets). Sorted by node, one entry per node, the smallest offset.
    fn cut_sources(
        &mut self,
        rest: &[NodeId],
        first: &[(NodeId, Weight)],
        sources: &[SourceOffset],
        d1: u64,
    ) -> Vec<SourceOffset> {
        self.marks.mark(rest);
        self.cut_offsets.clear();
        self.cut_offsets.resize(rest.len(), NO_OFFSET);
        for &(v, dist_v) in first {
            for adj in self.g.neighbors(v) {
                if let Some(u) = self.marks.local(adj.neighbor) {
                    let through = dist_v + adj.weight;
                    // Fault-free, `u` would have distance <= d1 and belong to
                    // V2. Under a fault plan the first half can miss a node
                    // it should have settled; it then enters the second half
                    // at the boundary (an overestimate, as faults allow).
                    debug_assert!(through > d1 || !self.config.sim.faults.is_none());
                    let offset = &mut self.cut_offsets[u as usize];
                    *offset = (*offset).min(through.saturating_sub(d1));
                }
            }
        }
        for s in sources.iter().filter(|s| s.offset > d1) {
            if let Some(u) = self.marks.local(s.node) {
                let offset = &mut self.cut_offsets[u as usize];
                *offset = (*offset).min(s.offset - d1);
            }
        }
        let found = rest.iter().zip(&self.cut_offsets).filter(|(_, &offset)| offset != NO_OFFSET);
        // simlint::allow(hot-path-alloc: per-subproblem output, the second half's sources)
        found.map(|(&node, &offset)| SourceOffset { node, offset }).collect()
    }

    /// Base case `D ≤ 1`: only sources with offset `≤ D` and nodes adjacent to
    /// an offset-0 source via an edge of weight `≤ D` are within distance `D`;
    /// one round of local exchange settles it (Section 2.3, step 1). Expects
    /// `nodes` marked.
    fn base_case(&mut self, nodes: &[NodeId], sources: &[SourceOffset], d: u64) -> Solved {
        let g = self.g;
        let mut out: Solved = Vec::new(); // simlint::allow(hot-path-alloc: per-subproblem output)
        out.extend(sources.iter().filter(|s| s.offset <= d).map(|s| (s.node, s.offset)));
        for s in sources {
            for adj in g.neighbors(s.node).iter().filter(|adj| self.marks.contains(adj.neighbor)) {
                let through = s.offset + adj.weight;
                if through <= d {
                    out.push((adj.neighbor, through));
                }
            }
        }
        // Per node, the smallest candidate comes first and is the one kept.
        out.sort_unstable();
        out.dedup_by_key(|&mut (v, _)| v);

        // Charge one round of local exchange: every node in the subproblem is
        // awake for it and each internal edge — seen from its lower endpoint —
        // carries one message per direction.
        self.metrics.rounds = self.metrics.rounds.saturating_add(1);
        for &v in nodes {
            let energy = &mut self.metrics.node_energy[v.index()];
            *energy = energy.saturating_add(1);
            for adj in g.neighbors(v) {
                if adj.neighbor > v && self.marks.contains(adj.neighbor) {
                    self.metrics.edge_congestion[adj.edge.index()] += 2;
                    self.metrics.messages += 2;
                }
            }
        }
        #[cfg(test)]
        {
            let volume = |v: NodeId| g.degree(v) as u64;
            self.base_case_scanned += sources.iter().map(|s| volume(s.node)).sum::<u64>();
            self.base_case_scanned += nodes.iter().map(|&v| volume(v)).sum::<u64>();
        }
        out
    }
}

/// `first` (exact up to `d1`) and `second` (distances from the cut, to be
/// shifted by `d1`) merged into one sorted run. The halves settle disjoint
/// node sets; should one node ever appear in both, the smaller value wins.
fn merge_halves(first: Solved, second: Solved, d1: u64, d: u64) -> Solved {
    if second.is_empty() {
        return first;
    }
    let mut out = Solved::with_capacity(first.len() + second.len());
    let mut first = first.into_iter().peekable();
    for (v, r) in second {
        let total = d1 + r;
        debug_assert!(total <= d);
        while let Some(settled) = first.next_if(|&(u, _)| u < v) {
            out.push(settled);
        }
        match first.next_if(|&(u, _)| u == v) {
            Some((_, settled)) => out.push((v, settled.min(total))),
            None => out.push((v, total)),
        }
    }
    out.extend(first);
    out
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::reference::{induced_with_maps, thresholded_cssp_reference};
    use super::*;
    use crate::test_graphs;
    use congest_graph::{generators, sequential};
    use std::collections::BTreeSet;

    /// The differential families: the weighted workloads, a multigraph with
    /// parallel edges (as zero-weight contraction produces), and disjoint
    /// copies of a random graph.
    fn differential_graphs() -> Vec<Graph> {
        let mut graphs = test_graphs::weighted_workloads();
        let mut multi = Graph::builder(9);
        for (u, v, w) in [
            (0, 1, 4),
            (1, 0, 2),
            (1, 2, 7),
            (2, 3, 1),
            (3, 1, 3),
            (1, 3, 3),
            (3, 4, 9),
            (4, 5, 2),
            (5, 3, 2),
            (5, 6, 6),
            (6, 7, 1),
            (7, 5, 8),
            (5, 7, 1),
            (0, 8, 20),
            (8, 0, 5),
        ] {
            multi.add_edge(u, v, w).unwrap();
        }
        graphs.push(multi.build());
        let piece = generators::with_random_weights(&generators::random_connected(14, 20, 5), 7, 5);
        graphs.push(generators::disjoint_copies(&piece, 3));
        graphs
    }

    #[test]
    fn the_workspace_recursion_is_bit_identical_to_the_btree_recursion() {
        let plain = [SourceOffset::plain(NodeId(0))];
        let offset = [
            SourceOffset { node: NodeId(0), offset: 4 },
            SourceOffset { node: NodeId(5), offset: 0 },
        ];
        // Duplicates, the last node, an offset beyond the small thresholds.
        let tangled = |g: &Graph| {
            vec![
                SourceOffset { node: NodeId(g.node_count() - 1), offset: 9 },
                SourceOffset { node: NodeId(2), offset: 1 },
                SourceOffset { node: NodeId(2), offset: 0 },
            ]
        };
        for (i, g) in differential_graphs().iter().enumerate() {
            let full = g.distance_upper_bound();
            for cfg in test_graphs::configs() {
                for sources in [&plain[..], &offset, &tangled(g)] {
                    for threshold in [full, (full / 8).max(1), 1] {
                        // Whole-run equality: distances, every metrics field
                        // (per-node energy and per-edge congestion included),
                        // subproblem counts and per-node participation.
                        assert_eq!(
                            thresholded_cssp(g, sources, threshold, &cfg),
                            thresholded_cssp_reference(g, sources, threshold, &cfg),
                            "graph {i}, sources {sources:?}, threshold {threshold}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn induced_on_builds_what_the_edge_scan_built() {
        for (i, g) in differential_graphs().iter().enumerate() {
            let mut marks = SubsetMarks::new(g.node_count() as usize);
            let n = g.node_count();
            let subsets: Vec<BTreeSet<NodeId>> = vec![
                BTreeSet::new(),
                BTreeSet::from([NodeId(n / 2)]),
                g.nodes().collect(),
                g.nodes().filter(|v| v.0 % 2 == 1).collect(),
                g.nodes().filter(|v| v.0 % 3 != 0).collect(),
                g.nodes().filter(|v| v.0 >= n / 3 && v.0 < n - n / 4).collect(),
            ];
            for keep in &subsets {
                let members: Vec<NodeId> = keep.iter().copied().collect();
                let (sub, edge_map) = g.induced_on(&members, &mut marks);
                let (old_sub, old_node_map, old_edge_map) = induced_with_maps(g, keep);
                assert_eq!(
                    (&sub, &members, &edge_map),
                    (&old_sub, &old_node_map, &old_edge_map),
                    "graph {i}, subset {keep:?}"
                );
                assert_eq!(g.induced_subgraph(keep), (old_sub, old_node_map), "graph {i}");
            }
        }
    }

    #[test]
    fn a_subproblem_costs_its_volume_not_the_graph() {
        // Host cost without a clock: adjacency entries read by the induced
        // builds and the base cases. The B-tree recursion scanned all m edges
        // in every one of them (subproblems × m); the workspace reads each
        // subproblem's own rows — once for an induced build, and in a leaf
        // once for the charge plus the sources' rows for the exchange.
        let g = generators::with_random_weights(&generators::random_connected(512, 1024, 9), 20, 9);
        let cfg = AlgoConfig::default();
        let mut recursion = Recursion::new(&g, &cfg);
        let all_nodes: Vec<NodeId> = g.nodes().collect();
        let threshold = g.distance_upper_bound().next_power_of_two();
        recursion.solve(&all_nodes, &[SourceOffset::plain(NodeId(0))], threshold).unwrap();
        let touched = recursion.marks.adjacency_scanned() + recursion.base_case_scanned;
        let volume: u64 =
            g.nodes().map(|v| recursion.participation[v.index()] * g.degree(v) as u64).sum();
        assert!(recursion.subproblems > 50 && volume > 0);
        assert!(
            touched <= 4 * volume,
            "{touched} adjacency entries touched for a total subproblem volume of {volume}"
        );
    }

    fn check_thresholded(g: &Graph, sources: &[NodeId], threshold: u64) -> CsspRun {
        let cfg = AlgoConfig::default();
        let offsets: Vec<SourceOffset> = sources.iter().map(|&s| SourceOffset::plain(s)).collect();
        let run = thresholded_cssp(g, &offsets, threshold, &cfg).unwrap();
        let truth = sequential::dijkstra(g, sources);
        let effective = threshold.max(1).next_power_of_two();
        for v in g.nodes() {
            let t = truth.distance(v);
            if t <= Distance::Finite(effective) {
                assert_eq!(
                    run.output.distance(v),
                    t,
                    "node {v}: expected exact distance within the threshold"
                );
            } else {
                assert!(
                    run.output.distance(v).is_infinite(),
                    "node {v}: beyond the threshold must be infinite (dist {t}, got {})",
                    run.output.distance(v)
                );
            }
        }
        run
    }

    #[test]
    fn full_threshold_matches_dijkstra_on_random_graphs() {
        for seed in 0..4 {
            let g = generators::with_random_weights(
                &generators::random_connected(30, 45, seed),
                8,
                seed,
            );
            check_thresholded(&g, &[NodeId(0)], g.distance_upper_bound());
        }
    }

    #[test]
    fn multi_source_thresholded() {
        let g = generators::with_random_weights(&generators::grid(5, 6, 1), 6, 2);
        check_thresholded(&g, &[NodeId(0), NodeId(29)], g.distance_upper_bound());
    }

    #[test]
    fn small_threshold_truncates() {
        let g = generators::path(32, 3);
        // Threshold 16 (a power of two): nodes 0..=5 are within distance 15/16.
        let run = check_thresholded(&g, &[NodeId(0)], 16);
        assert!(run.output.reached_count() >= 5);
        assert!(run.output.reached_count() < 32);
    }

    #[test]
    fn unit_weight_graphs_match_bfs() {
        let g = generators::random_connected(40, 80, 6);
        check_thresholded(&g, &[NodeId(0)], g.node_count() as u64);
    }

    #[test]
    fn disconnected_graphs_leave_other_components_infinite() {
        let g = generators::disjoint_copies(&generators::path(8, 2), 2);
        let run = check_thresholded(&g, &[NodeId(0)], 100);
        assert_eq!(run.output.reached_count(), 8);
    }

    #[test]
    fn source_offsets_shift_distances() {
        let g = generators::path(10, 2);
        let cfg = AlgoConfig::default();
        let sources = vec![SourceOffset { node: NodeId(0), offset: 3 }];
        let run = thresholded_cssp(&g, &sources, 64, &cfg).unwrap();
        for v in g.nodes() {
            assert_eq!(run.output.distance(v).finite(), Some(3 + 2 * v.0 as u64));
        }
    }

    #[test]
    fn a_threshold_past_2_pow_63_is_the_largest_finite_distance() {
        // `next_power_of_two` used to overflow here: a panic in debug builds,
        // a threshold of 0 in release (the source at 0, everyone else
        // `Infinite`).
        let g = generators::with_random_weights(&generators::grid(4, 4, 1), 9, 4);
        let cfg = AlgoConfig::default();
        let sources = [
            SourceOffset { node: NodeId(5), offset: 0 },
            SourceOffset { node: NodeId(0), offset: 70 },
        ];
        let bound = 70 + g.distance_upper_bound();
        for threshold in [(1 << 63) + 1, u64::MAX] {
            let run = thresholded_cssp(&g, &sources, threshold, &cfg).unwrap();
            assert_eq!(run, thresholded_cssp(&g, &sources, bound, &cfg).unwrap(), "{threshold}");
            assert_eq!(run.output.reached_count(), 16);
        }
        // An offset past 2^63 leaves no power of two to round to.
        let far = [SourceOffset { node: NodeId(0), offset: 1 << 63 }];
        let err = thresholded_cssp(&g, &far, u64::MAX, &cfg).unwrap_err();
        assert!(matches!(err, AlgoError::UnsupportedRequest { .. }), "{err:?}");
    }

    #[test]
    fn participation_is_logarithmic_in_threshold() {
        let g = generators::with_random_weights(&generators::random_connected(60, 120, 3), 16, 3);
        let run = check_thresholded(&g, &[NodeId(0)], g.distance_upper_bound());
        let d = g.distance_upper_bound().next_power_of_two();
        let levels = 64 - d.leading_zeros() as u64;
        // Lemma 2.4: every node appears in O(log D) subproblems; our
        // construction gives at most ~3 per level.
        assert!(
            run.stats.max_participation() <= 4 * (levels + 2),
            "max participation {} vs levels {}",
            run.stats.max_participation(),
            levels
        );
        assert!(run.stats.subproblems > 1);
        assert!(run.stats.total_subproblem_size >= g.node_count() as u64);
    }

    #[test]
    fn congestion_stays_polylogarithmic() {
        let g = generators::with_random_weights(&generators::random_connected(80, 160, 1), 10, 1);
        let run = check_thresholded(&g, &[NodeId(0)], g.distance_upper_bound());
        let d = g.distance_upper_bound().next_power_of_two();
        let levels = (64 - d.leading_zeros()) as u64;
        // Per level: forest (<= 5 log n per edge) + cutter (<= 2) + base cases.
        let n = g.node_count() as f64;
        let bound = levels * (5.0 * n.log2() + 8.0) as u64;
        assert!(
            run.metrics.max_congestion() <= bound,
            "congestion {} exceeds polylog bound {}",
            run.metrics.max_congestion(),
            bound
        );
    }

    #[test]
    fn zero_weights_are_rejected_here() {
        let g = Graph::from_edges(3, [(0, 1, 0), (1, 2, 1)]).unwrap();
        let cfg = AlgoConfig::default();
        let r = thresholded_cssp(&g, &[SourceOffset::plain(NodeId(0))], 10, &cfg);
        assert!(matches!(r, Err(AlgoError::ZeroWeightNotSupported { .. })));
    }
}
