//! The recursion as it was before the workspace: node sets as
//! `BTreeSet<NodeId>`, results as `BTreeMap<NodeId, Weight>`, one induced
//! subgraph per subproblem built by scanning every edge of the graph through
//! a fresh `n`-sized renumbering, the base case a scan of all `m` edges.
//! Kept, test-only, as the reference [`super::thresholded_cssp`] must stay
//! bit-identical to — distances, every metrics field, the recursion
//! statistics. It adds every phase up with its own arithmetic, not with
//! [`Metrics`]' merge, so the differential checks that composition too.
//! (One line differs from the original, marked below.)

use std::collections::{BTreeMap, BTreeSet};

use congest_graph::{Distance, EdgeId, Graph, NodeId, Weight};
use congest_sim::Metrics;

use super::{RecursionStats, BASE_CASE_THRESHOLD};
use crate::approx::approximate_cssp;
use crate::cssp::CsspRun;
use crate::error::check_sources;
use crate::result::{DistanceOutput, SourceOffset};
use crate::spanning_forest::spanning_forest;
use crate::{AlgoConfig, AlgoError};

/// Accumulates metrics and instrumentation across the recursion.
struct Accumulator {
    metrics: Metrics,
    participation: Vec<u64>,
    subproblems: u64,
    total_size: u64,
}

impl Accumulator {
    fn new(n: usize, m: usize) -> Self {
        Accumulator {
            metrics: Metrics::zero(n, m),
            participation: vec![0; n],
            subproblems: 0,
            total_size: 0,
        }
    }

    fn register_subproblem(&mut self, nodes: &BTreeSet<NodeId>) {
        self.subproblems += 1;
        self.total_size += nodes.len() as u64;
        for &v in nodes {
            self.participation[v.index()] += 1;
        }
    }

    /// Adds a phase measured on the subgraph whose node `i` / edge `j` is
    /// `node_map[i]` / `edge_map[j]` here, field by field.
    fn add_phase(&mut self, phase: &Metrics, node_map: &[NodeId], edge_map: &[EdgeId]) {
        let total = &mut self.metrics;
        total.rounds += phase.rounds;
        total.messages += phase.messages;
        total.messages_lost += phase.messages_lost;
        total.fault_drops += phase.fault_drops;
        for (i, &orig) in node_map.iter().enumerate() {
            total.node_energy[orig.index()] += phase.node_energy[i];
        }
        for (j, &orig) in edge_map.iter().enumerate() {
            total.edge_congestion[orig.index()] += phase.edge_congestion[j];
        }
    }

    /// Charges a coordination phase of `rounds` rounds in which every node of
    /// `nodes` is awake (spanning-tree convergecast / start-time agreement).
    fn charge_coordination(&mut self, nodes: &BTreeSet<NodeId>, rounds: u64) {
        self.metrics.rounds += rounds;
        for &v in nodes {
            self.metrics.node_energy[v.index()] += rounds;
        }
    }
}

/// Builds the induced subgraph of `keep` together with node and edge maps back
/// to the original graph.
pub(crate) fn induced_with_maps(
    g: &Graph,
    keep: &BTreeSet<NodeId>,
) -> (Graph, Vec<NodeId>, Vec<EdgeId>) {
    let mut old_to_new = vec![u32::MAX; g.node_count() as usize];
    let mut node_map = Vec::with_capacity(keep.len());
    for (idx, &v) in keep.iter().enumerate() {
        old_to_new[v.index()] = idx as u32;
        node_map.push(v);
    }
    let mut builder = Graph::builder(keep.len() as u32);
    let mut edge_map = Vec::new();
    for e in g.edge_ids() {
        let edge = g.edge(e);
        let (nu, nv) = (old_to_new[edge.u.index()], old_to_new[edge.v.index()]);
        if nu != u32::MAX && nv != u32::MAX {
            builder.add_edge(nu, nv, edge.w).expect("existing edges are valid");
            edge_map.push(e);
        }
    }
    (builder.build(), node_map, edge_map)
}

/// [`super::thresholded_cssp`] as it was: same validation, same result, every
/// set a B-tree.
pub(crate) fn thresholded_cssp_reference(
    g: &Graph,
    sources: &[SourceOffset],
    threshold: u64,
    config: &AlgoConfig,
) -> Result<CsspRun, AlgoError> {
    check_sources(g, sources.iter().map(|s| s.node))?;
    if let Some(e) = g.edges().iter().position(|e| e.w == 0) {
        return Err(AlgoError::ZeroWeightNotSupported { edge: EdgeId(e as u32) });
    }
    let n = g.node_count() as usize;
    let m = g.edge_count() as usize;
    // Round the threshold up to a power of two so that halving stays exact
    // down to the base case D = 1 (the paper picks D = 2^L similarly).
    let threshold = threshold.max(1).next_power_of_two();
    let mut acc = Accumulator::new(n, m);
    let all_nodes: BTreeSet<NodeId> = g.nodes().collect();
    let solved = solve(g, &all_nodes, sources, threshold, config, &mut acc)?;

    let mut distances = vec![Distance::Infinite; n];
    for (v, d) in solved {
        distances[v.index()] = Distance::Finite(d);
    }
    let stats = RecursionStats {
        subproblems: acc.subproblems,
        participation: acc.participation,
        total_subproblem_size: acc.total_size,
        levels: threshold.trailing_zeros() + 1,
    };
    Ok(CsspRun { output: DistanceOutput { distances }, metrics: acc.metrics, stats })
}

/// Solves one subproblem: distances (at most `d`) from `sources` within the
/// induced subgraph on `nodes`. Distances are keyed by original node id.
fn solve(
    g: &Graph,
    nodes: &BTreeSet<NodeId>,
    sources: &[SourceOffset],
    d: u64,
    config: &AlgoConfig,
    acc: &mut Accumulator,
) -> Result<BTreeMap<NodeId, Weight>, AlgoError> {
    // Keep only sources that are part of this subproblem.
    let sources: Vec<SourceOffset> =
        sources.iter().copied().filter(|s| nodes.contains(&s.node)).collect();
    if sources.is_empty() || nodes.is_empty() {
        return Ok(BTreeMap::new());
    }
    acc.register_subproblem(nodes);

    if d <= BASE_CASE_THRESHOLD {
        return Ok(base_case(g, nodes, &sources, d, acc));
    }

    let (sub, node_map, edge_map) = induced_with_maps(g, nodes);
    let to_sub: BTreeMap<NodeId, NodeId> =
        node_map.iter().enumerate().map(|(i, &orig)| (orig, NodeId(i as u32))).collect();

    // Step 1: spanning forest for per-component coordination (Theorem 2.2).
    let (_forest, forest_metrics) = spanning_forest(&sub, false);
    acc.add_phase(&forest_metrics, &node_map, &edge_map);

    // Step 2: approximate cutter with W = d (Lemma 2.1).
    let sub_sources: Vec<SourceOffset> =
        sources.iter().map(|s| SourceOffset { node: to_sub[&s.node], offset: s.offset }).collect();
    let cut = approximate_cssp(&sub, &sub_sources, d, config)?;
    acc.add_phase(&cut.metrics, &node_map, &edge_map);

    // Step 3: V1 = nodes whose estimate is within d + err.
    let include = cut.inclusion_threshold(d);
    let v1: BTreeSet<NodeId> = node_map
        .iter()
        .enumerate()
        .filter(|&(i, _)| cut.estimates[i] <= include)
        .map(|(_, &orig)| orig)
        .collect();

    let d1 = d / 2;

    // Step 4: first half of the recursion — distances up to d1 from S.
    let first = solve(g, &v1, &sources, d1, config, acc)?;

    // Step 5: per-component convergecast to agree on the start of the second
    // half (charged as Θ(|V'|) rounds with the subproblem's nodes awake).
    acc.charge_coordination(nodes, 2 * nodes.len() as u64 + 2);

    // Step 6: second half — the cut sources.
    let v2: BTreeSet<NodeId> = first.keys().copied().collect();
    let rest: BTreeSet<NodeId> = v1.difference(&v2).copied().collect();
    let mut cut_offsets: BTreeMap<NodeId, Weight> = BTreeMap::new();
    for (&v, &dist_v) in &first {
        for adj in g.neighbors(v) {
            let u = adj.neighbor;
            if rest.contains(&u) {
                let through = dist_v + adj.weight;
                // The one line that is not as it was: `through - d1` (guarded
                // by a debug assertion) underflowed when a fault plan made the
                // first half miss a node. Both recursions saturate now.
                let offset = through.saturating_sub(d1);
                cut_offsets.entry(u).and_modify(|o| *o = (*o).min(offset)).or_insert(offset);
            }
        }
    }
    // Original sources whose offset exceeds d1 still act as sources of the
    // second half, shifted by d1 (the "virtual edge" view of the offsets).
    for s in &sources {
        if s.offset > d1 && rest.contains(&s.node) {
            let offset = s.offset - d1;
            cut_offsets.entry(s.node).and_modify(|o| *o = (*o).min(offset)).or_insert(offset);
        }
    }
    let second_sources: Vec<SourceOffset> =
        cut_offsets.iter().map(|(&node, &offset)| SourceOffset { node, offset }).collect();
    let second = if second_sources.is_empty() {
        BTreeMap::new()
    } else {
        solve(g, &rest, &second_sources, d1, config, acc)?
    };

    // Combine: dist(S, y) = d1 + dist(X, y) for the second half.
    let mut out = first;
    for (v, r) in second {
        let total = d1 + r;
        debug_assert!(total <= d);
        out.entry(v).and_modify(|cur| *cur = (*cur).min(total)).or_insert(total);
    }
    Ok(out)
}

/// Base case `D ≤ 1`: only sources with offset `≤ D` and nodes adjacent to an
/// offset-0 source via an edge of weight `≤ D` are within distance `D`; one
/// round of local exchange settles it (Section 2.3, step 1).
fn base_case(
    g: &Graph,
    nodes: &BTreeSet<NodeId>,
    sources: &[SourceOffset],
    d: u64,
    acc: &mut Accumulator,
) -> BTreeMap<NodeId, Weight> {
    let mut out: BTreeMap<NodeId, Weight> = BTreeMap::new();
    for s in sources {
        if s.offset <= d {
            out.entry(s.node).and_modify(|cur| *cur = (*cur).min(s.offset)).or_insert(s.offset);
        }
    }
    for s in sources {
        for adj in g.neighbors(s.node) {
            if !nodes.contains(&adj.neighbor) {
                continue;
            }
            let through = s.offset + adj.weight;
            if through <= d {
                out.entry(adj.neighbor)
                    .and_modify(|cur| *cur = (*cur).min(through))
                    .or_insert(through);
            }
        }
    }
    // Charge one round of local exchange: every node in the subproblem is
    // awake for it and each internal edge carries one message per direction.
    acc.metrics.rounds += 1;
    for &v in nodes {
        acc.metrics.node_energy[v.index()] += 1;
    }
    for e in g.edge_ids() {
        let edge = g.edge(e);
        if nodes.contains(&edge.u) && nodes.contains(&edge.v) {
            acc.metrics.edge_congestion[e.index()] += 2;
            acc.metrics.messages += 2;
        }
    }
    out
}
