//! The low-energy BFS accounting as it was before it became linear in the
//! cover: a sort of every tree edge per level for the megaround width, one
//! scan of the parent's members per child cluster, two passes over a
//! cluster's members, plain (overflowing) arithmetic, and its own slowdown
//! and cover-construction formulas over the shipped constants. Compiled for
//! tests only — the differential tests compare whole runs, sleeping-model
//! report included, against it.

use congest_cover::{ClusterSchedule, LayeredCover};
use congest_graph::{Distance, Graph, NodeId};
use congest_sim::Metrics;

use super::{
    COVER_BUILD_ENERGY_FACTOR, COVER_BUILD_ROUND_FACTOR, MIN_BFS_SLOWDOWN, SLOWDOWN_SAFETY_FACTOR,
};
use crate::result::{AlgoRun, DistanceOutput, SleepingReport};
use crate::AlgoError;

pub(crate) fn covered_bfs_reference(
    g: &Graph,
    sources: &[NodeId],
    limit: u64,
    cover: &LayeredCover,
) -> Result<(AlgoRun, SleepingReport), AlgoError> {
    let n = g.node_count() as usize;
    let m = g.edge_count() as usize;
    let limit = limit.min(n as u64);
    let mut metrics = Metrics::zero(n, m);

    // What the BFS computes (exactly the classic wavefront).
    let truth = congest_graph::sequential::bfs(g, sources);
    let distances: Vec<Distance> = truth
        .distances
        .iter()
        .map(|&d| if d <= Distance::Finite(limit) { d } else { Distance::Infinite })
        .collect();

    let levels = cover.level_count();
    // Megaround width: maximum number of cluster trees sharing one edge,
    // summed over levels (Section 3.1.3: all tree subroutines share edges).
    let megaround: u64 =
        cover.levels.iter().map(|lvl| lvl.max_edge_tree_load() as u64).sum::<u64>().max(1);

    // Slowdown: the wavefront must advance slowly enough that an activation
    // signal (latency of the parent cluster's schedule) always beats the
    // wavefront across the B^{j+1}/2 buffer zone (Lemma 3.7).
    let mut slowdown = MIN_BFS_SLOWDOWN;
    for j in 1..levels {
        let period = cover.radius(j);
        let depth = cover.levels[j].max_tree_depth();
        let latency = ClusterSchedule::new(period, depth).propagation_latency();
        let buffer = (cover.radius(j) / 2).max(1);
        slowdown = slowdown.max(latency.div_ceil(buffer));
    }
    slowdown *= SLOWDOWN_SAFETY_FACTOR;

    // Initialization: one convergecast/broadcast cycle over every cluster
    // (Section 3.3 "Initialization"): O(max tree depth + top period) rounds,
    // every node awake a constant number of rounds per cluster it belongs to.
    let init_rounds = cover
        .levels
        .iter()
        .enumerate()
        .map(|(j, lvl)| 2 * lvl.max_tree_depth() + 2 * cover.radius(j) + 2)
        .max()
        .unwrap_or(2);
    let init_end = init_rounds;
    let t_end = init_end + limit.saturating_mul(slowdown) + slowdown;

    // Per-cluster relevance, activation, and reached times.
    // reached(C) (in rounds) = init_end + slowdown * min member hop distance.
    let mut cluster_relevant: Vec<Vec<bool>> = Vec::with_capacity(levels);
    let mut cluster_active_from: Vec<Vec<u64>> = Vec::with_capacity(levels);
    let mut cluster_reached: Vec<Vec<Option<u64>>> = Vec::with_capacity(levels);
    let is_source = {
        let mut v = vec![false; n];
        for &s in sources {
            v[s.index()] = true;
        }
        v
    };
    // Top level first (relevance flows downward).
    for j in (0..levels).rev() {
        let lvl = &cover.levels[j];
        let mut relevant = vec![false; lvl.clusters.len()];
        let mut reached = vec![None; lvl.clusters.len()];
        let mut active_from = vec![init_end; lvl.clusters.len()];
        for (ci, c) in lvl.clusters.iter().enumerate() {
            // Reached time: first member hit by the (thresholded) wavefront.
            let first_hit = c.members.iter().filter_map(|&v| distances[v.index()].finite()).min();
            reached[ci] = first_hit.map(|h| init_end + h * slowdown);
            if j + 1 == levels {
                relevant[ci] = c.members.iter().any(|&v| is_source[v.index()]);
                active_from[ci] = init_end;
            } else {
                let parent = cover.parent_of(j, c.id).expect("non-top clusters have parents");
                let p_idx = parent.index();
                relevant[ci] = cluster_relevant[levels - 1 - (j + 1)][p_idx];
                let parent_lvl = &cover.levels[j + 1];
                let parent_sched = ClusterSchedule::new(
                    cover.radius(j + 1),
                    parent_lvl.cluster(parent).tree.max_depth(),
                );
                // Activated once the parent detects the wavefront and tells us
                // (or at initialization if the parent holds a source).
                let parent_holds_source =
                    parent_lvl.cluster(parent).members.iter().any(|&v| is_source[v.index()]);
                active_from[ci] = if parent_holds_source {
                    init_end
                } else {
                    match cluster_reached[levels - 1 - (j + 1)][p_idx] {
                        Some(r) => r + parent_sched.propagation_latency(),
                        None => t_end, // parent never reached: stays dormant
                    }
                };
            }
        }
        cluster_relevant.push(relevant);
        cluster_reached.push(reached);
        cluster_active_from.push(active_from);
    }
    // The vectors above are stored top level first; re-index helper.
    let rel = |j: usize, c: usize| cluster_relevant[levels - 1 - j][c];
    let act = |j: usize, c: usize| cluster_active_from[levels - 1 - j][c];
    let rch = |j: usize, c: usize| cluster_reached[levels - 1 - j][c];

    // Lemma 3.7 check: every relevant cluster is fully awake before the
    // wavefront reaches any of its members.
    for j in 0..levels {
        for (ci, _c) in cover.levels[j].clusters.iter().enumerate() {
            if !rel(j, ci) {
                continue;
            }
            if let Some(reached) = rch(j, ci) {
                let awake_at = act(j, ci);
                if awake_at > reached {
                    return Err(AlgoError::WakeScheduleViolation {
                        level: j,
                        reached_at: reached,
                        awake_at,
                    });
                }
            }
        }
    }

    // Energy and message accounting.
    // Init: 1 awake round for the very first round plus a constant number of
    // awake rounds per cluster membership for the initialization cycle.
    for v in 0..n {
        metrics.node_energy[v] += 1;
        let memberships: usize =
            (0..levels).map(|j| cover.levels[j].clusters_of(NodeId(v as u32)).len()).sum();
        metrics.node_energy[v] += 4 * memberships as u64;
    }
    // Cluster-tree traffic and awake windows.
    for j in 0..levels {
        let lvl = &cover.levels[j];
        let period = cover.radius(j);
        for (ci, c) in lvl.clusters.iter().enumerate() {
            if !rel(j, ci) {
                continue;
            }
            let sched = ClusterSchedule::new(period, c.tree.max_depth());
            let from = act(j, ci);
            // The cluster deactivates once all of its reached members have
            // been passed by the wavefront and the fact has propagated, or at
            // the global end of the BFS, whichever is earlier.
            let last_hit = c
                .members
                .iter()
                .filter_map(|&v| distances[v.index()].finite())
                .max()
                .map(|h| init_end + h * slowdown)
                .unwrap_or(from);
            let to = (last_hit + sched.propagation_latency()).min(t_end);
            if to <= from {
                continue;
            }
            let awake = sched.awake_rounds_bound(from, to);
            // Every tree node (member or Steiner) follows the schedule.
            for node in c.tree.nodes() {
                metrics.node_energy[node.index()] += awake;
            }
            // Convergecast/broadcast messages: 2 per tree edge per period.
            let periods = (to - from) / period + 1;
            for (child, parent) in c.tree.edges() {
                if let Some(eid) = edge_between(g, child, parent) {
                    metrics.edge_congestion[eid.index()] += 4 * periods;
                    metrics.messages += 4 * periods;
                }
            }
        }
    }
    // Wavefront traffic: each reached node announces its distance once over
    // each incident edge, and is awake O(1) rounds to do so.
    for v in g.nodes() {
        if distances[v.index()].is_finite() {
            metrics.node_energy[v.index()] += 2;
            for adj in g.neighbors(v) {
                metrics.edge_congestion[adj.edge.index()] += 1;
                metrics.messages += 1;
            }
        }
    }

    // Megarounds: every simulated round stands for `megaround` model rounds
    // and awake nodes stay awake for the full megaround (Section 3.1.3).
    metrics.rounds = t_end * megaround;
    for e in metrics.node_energy.iter_mut() {
        *e *= megaround;
    }

    // Cover construction cost (Theorems 3.12/3.13), charged analytically from
    // the measured level radii: each level costs `factor · B^j · log² n`
    // rounds and `factor · log² n` awake rounds per node.
    let mut cover_build_rounds = 0;
    let log2n = ((n.max(2)) as f64).log2().ceil() as u64;
    for j in 0..levels {
        let level_rounds = COVER_BUILD_ROUND_FACTOR * cover.radius(j) * log2n * log2n;
        cover_build_rounds += level_rounds;
        for v in 0..n {
            metrics.node_energy[v] += COVER_BUILD_ENERGY_FACTOR * log2n * log2n;
        }
    }
    metrics.rounds += cover_build_rounds;

    // The awake-round accounting uses closed-form upper bounds with additive
    // slack; physically a node can never be awake for more rounds than the
    // execution has, so clamp (this only matters on tiny instances).
    for e in metrics.node_energy.iter_mut() {
        *e = (*e).min(metrics.rounds);
    }

    let sleeping = SleepingReport { slowdown, megaround, cover_levels: levels as u64 };
    Ok((AlgoRun { output: DistanceOutput { distances }, metrics }, sleeping))
}

/// Finds an edge of `g` between two adjacent nodes (cluster-tree edges are
/// always graph edges because the trees are BFS trees).
fn edge_between(g: &Graph, a: NodeId, b: NodeId) -> Option<congest_graph::EdgeId> {
    g.neighbors(a).iter().find(|adj| adj.neighbor == b).map(|adj| adj.edge)
}
