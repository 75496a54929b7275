//! Low-energy `D`-thresholded BFS (Theorems 3.8, 3.13, 3.14).
//!
//! Nodes coordinate their sleep/wake schedules through a layered sparse cover
//! (Definition 3.4): clusters of the level-`j` cover run the periodic
//! convergecast/broadcast schedule of Section 3.1.1 with period `B^j`, and a
//! cluster is *activated* only once the BFS wavefront has reached its parent
//! cluster. Because the parent contains the `B^{j+1}/2`-neighborhood of the
//! cluster and the wavefront advances only one hop every `slowdown` rounds,
//! the activation signal always arrives before the wavefront does — this is
//! the invariant of Lemma 3.7, and this implementation *checks it
//! computationally on every run* (returning
//! [`AlgoError::WakeScheduleViolation`] if the slowdown ever falls short of
//! it).
//!
//! ## Simulation methodology
//!
//! The wavefront itself and the cover structures are computed exactly; the
//! per-node awake-round accounting is derived from the measured cover
//! (periods, tree depths, activation windows) using the closed-form awake
//! bound of [`ClusterSchedule`], and the megaround factor (Section 3.1.3) is
//! the *measured* maximum number of cluster trees sharing an edge. See
//! `docs/COVERS.md` ("Energy accounting") for why this substitution preserves
//! the claimed behaviour.

use congest_cover::{ClusterSchedule, LayeredCover};
use congest_graph::{Distance, Graph, NodeId};
use congest_sim::Metrics;

use super::{cover_build_charge, slowdown};
use crate::result::{AlgoRun, DistanceOutput, SleepingReport};
use crate::AlgoError;

/// Runs low-energy `limit`-thresholded BFS from scratch: constructs the
/// layered cover (charging its cost per Theorem 3.12/3.13) and then runs the
/// covered BFS (Theorem 3.8) from `sources` (checked by the facade). A limit
/// above `n` behaves like `n` (no hop distance exceeds `n - 1`). Returns the
/// hop distances (infinite beyond `limit`) with the sleeping-model metrics,
/// beside the slowdown, megaround width and cover levels used.
///
/// # Errors
///
/// Returns an error if the wake schedule invariant (Lemma 3.7) is violated.
pub(crate) fn low_energy_bfs(
    g: &Graph,
    sources: &[NodeId],
    limit: u64,
) -> Result<(AlgoRun, SleepingReport), AlgoError> {
    let limit = limit.min(g.node_count() as u64);
    let cover = LayeredCover::construct_default(g, limit.max(1));
    covered_bfs(g, sources, limit, &cover)
}

/// What the accounting knows of one cluster once the wavefront is computed.
#[derive(Debug, Clone, Copy, Default)]
struct ClusterState {
    /// The cluster takes part in the run: its top-level ancestor holds a
    /// source. Nothing else is filled in (or read) for a cluster that does not.
    relevant: bool,
    /// Some member is a source.
    holds_source: bool,
    /// Hop distances of the first and the last member the thresholded
    /// wavefront hits, if it hits any.
    hits: Option<(u64, u64)>,
    /// The round from which the cluster follows its schedule.
    active_from: u64,
}

/// The covered BFS of Theorem 3.8 on checked sources, over a layered cover
/// of `g`, charged with the cover's construction (Theorem 3.13). Every sum
/// and product saturates: a huge cover yields `u64::MAX` rounds, never a
/// wrapped underestimate.
fn covered_bfs(
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
    let slowdown = slowdown(cover);

    // Initialization: one convergecast/broadcast cycle over every cluster
    // (Section 3.3 "Initialization"): O(max tree depth + top period) rounds,
    // every node awake a constant number of rounds per cluster it belongs to.
    let init_end = cover
        .levels
        .iter()
        .enumerate()
        .map(|(j, lvl)| {
            ClusterSchedule::new(cover.radius(j), lvl.max_tree_depth()).propagation_latency()
        })
        .max()
        .unwrap_or(2);
    // The round the wavefront reaches hop distance `hops`.
    let time_of = |hops: u64| init_end.saturating_add(hops.saturating_mul(slowdown));
    let t_end = time_of(limit).saturating_add(slowdown);

    // Per-cluster relevance, activation, and reached times, top level first
    // (relevance and activation flow downward): one pass over the members of
    // every relevant cluster.
    let is_source = {
        let mut v = vec![false; n];
        for &s in sources {
            v[s.index()] = true;
        }
        v
    };
    let mut states: Vec<Vec<ClusterState>> = vec![Vec::new(); levels];
    for j in (0..levels).rev() {
        let lvl = &cover.levels[j];
        let mut of_level = Vec::with_capacity(lvl.clusters.len());
        for c in &lvl.clusters {
            let mut state = ClusterState { active_from: init_end, ..ClusterState::default() };
            if j + 1 < levels {
                let parent = cover.parent_of(j, c.id).expect("non-top clusters have parents");
                let above = states[j + 1][parent.index()];
                if !above.relevant {
                    of_level.push(state);
                    continue;
                }
                state.relevant = true;
                // Activated once the parent detects the wavefront and tells us
                // (or at initialization if the parent holds a source).
                if !above.holds_source {
                    let depth = cover.levels[j + 1].cluster(parent).tree.max_depth();
                    let parent_sched = ClusterSchedule::new(cover.radius(j + 1), depth);
                    state.active_from = match above.hits {
                        Some((first, _)) => {
                            time_of(first).saturating_add(parent_sched.propagation_latency())
                        }
                        None => t_end, // parent never reached: stays dormant
                    };
                }
            }
            cover_entries_read(c.members.len());
            for &v in &c.members {
                state.holds_source |= is_source[v.index()];
                if let Some(h) = distances[v.index()].finite() {
                    let (first, last) = state.hits.unwrap_or((h, h));
                    state.hits = Some((first.min(h), last.max(h)));
                }
            }
            if j + 1 == levels {
                state.relevant = state.holds_source;
            }
            of_level.push(state);
        }
        states[j] = of_level;
    }

    // Lemma 3.7 check: every relevant cluster is fully awake before the
    // wavefront reaches any of its members.
    for (j, of_level) in states.iter().enumerate() {
        for state in of_level.iter().filter(|state| state.relevant) {
            if let Some((first, _)) = state.hits {
                let reached = time_of(first);
                if state.active_from > reached {
                    return Err(AlgoError::WakeScheduleViolation {
                        level: j,
                        reached_at: reached,
                        awake_at: state.active_from,
                    });
                }
            }
        }
    }

    // Energy and message accounting.
    // Init: 1 awake round for the very first round plus a constant number of
    // awake rounds per cluster membership for the initialization cycle.
    for v in g.nodes() {
        let memberships: usize = (0..levels).map(|j| cover.levels[j].clusters_of(v).len()).sum();
        metrics.charge_awake([v], 1 + 4 * memberships as u64);
    }
    // Cluster-tree traffic and awake windows, and the megaround width
    // (Section 3.1.3: all tree subroutines share edges): the maximum number
    // of cluster trees sharing one edge, summed over levels. Each tree edge is
    // resolved to its graph edge once, for the width and the traffic alike;
    // adjacency runs are in edge-id order at both ends, so a node pair
    // resolves to one edge whichever end is the child and however many
    // parallel edges join the pair.
    let mut tree_load = vec![0u32; m];
    let mut megaround: u64 = 0;
    for (j, (lvl, of_level)) in cover.levels.iter().zip(&states).enumerate() {
        let period = cover.radius(j);
        tree_load.fill(0);
        let mut width = 0;
        for (c, state) in lvl.clusters.iter().zip(of_level) {
            // The awake rounds of every tree node and the messages over every
            // tree edge, if the cluster is ever awake.
            let mut charge = None;
            if state.relevant {
                let sched = ClusterSchedule::new(period, c.tree.max_depth());
                let from = state.active_from;
                // The cluster deactivates once all of its reached members have
                // been passed by the wavefront and the fact has propagated, or
                // at the global end of the BFS, whichever is earlier.
                let last_hit = state.hits.map_or(from, |(_, last)| time_of(last));
                let to = last_hit.saturating_add(sched.propagation_latency()).min(t_end);
                if to > from {
                    // Convergecast/broadcast messages: 2 per tree edge per period.
                    let periods = ((to - from) / period).saturating_add(1);
                    charge = Some((sched.awake_rounds_bound(from, to), periods.saturating_mul(4)));
                }
            }
            if let Some((awake, _)) = charge {
                // Every tree node (member or Steiner) follows the schedule.
                cover_entries_read(c.tree.node_count());
                metrics.charge_awake(c.tree.nodes().iter().copied(), awake);
            }
            cover_entries_read(c.tree.node_count());
            for (child, parent) in c.tree.edges() {
                let eid = edge_between(g, child, parent);
                tree_load[eid.index()] += 1;
                width = width.max(tree_load[eid.index()]);
                if let Some((_, messages)) = charge {
                    metrics.charge_messages([eid], messages);
                }
            }
        }
        megaround = megaround.saturating_add(u64::from(width));
    }
    let megaround = megaround.max(1);
    // Wavefront traffic: each reached node announces its distance once over
    // each incident edge, and is awake O(1) rounds to do so.
    for v in g.nodes() {
        if distances[v.index()].is_finite() {
            metrics.charge_awake([v], 2);
            metrics.charge_messages(g.neighbors(v).iter().map(|adj| adj.edge), 1);
        }
    }

    // Megarounds: every simulated round stands for `megaround` model rounds
    // and awake nodes stay awake for the full megaround (Section 3.1.3).
    metrics.charge_rounds(t_end);
    metrics.charge_megaround(megaround);

    // Cover construction cost (Theorems 3.12/3.13).
    let (cover_build_rounds, cover_build_energy) = cover_build_charge(cover, n);
    metrics.charge_awake(g.nodes(), cover_build_energy);
    metrics.charge_rounds(cover_build_rounds);

    // The closed-form awake bounds carry additive slack, which the cap
    // removes (this only matters on tiny instances).
    metrics.cap_energy_at_rounds();

    let sleeping = SleepingReport { slowdown, megaround, cover_levels: levels as u64 };
    Ok((AlgoRun { output: DistanceOutput { distances }, metrics }, sleeping))
}

/// The lowest-numbered edge of `g` between the two ends of a cluster-tree
/// edge.
///
/// # Panics
///
/// Panics if they are not adjacent, which the cover rules out: it is built
/// from `g`, and its cluster trees are BFS trees of `g`.
fn edge_between(g: &Graph, a: NodeId, b: NodeId) -> congest_graph::EdgeId {
    let adj = g.neighbors(a).iter().find(|adj| adj.neighbor == b);
    adj.expect("a cluster-tree edge of a cover of g is an edge of g").edge
}

#[cfg(test)]
thread_local! {
    /// Member-list and tree entries of the cover read by the accounting runs
    /// of this thread: host cost without a clock.
    static COVER_ENTRIES_READ: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Tallies `entries` cover entries about to be read (in tests; nothing otherwise).
#[inline]
fn cover_entries_read(entries: usize) {
    #[cfg(test)]
    COVER_ENTRIES_READ.with(|read| read.set(read.get() + entries));
    #[cfg(not(test))]
    let _ = entries;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::reference::covered_bfs_reference;
    use crate::weighted_bfs::thresholded_bfs;
    use crate::AlgoConfig;
    use congest_graph::{generators, sequential};

    fn check(g: &Graph, sources: &[NodeId], limit: u64) -> AlgoRun {
        let (run, _) = low_energy_bfs(g, sources, limit).unwrap();
        let truth = sequential::bfs(g, sources);
        for v in g.nodes() {
            let t = truth.distance(v);
            if t <= Distance::Finite(limit) {
                assert_eq!(run.output.distance(v), t, "node {v}");
            } else {
                assert!(run.output.distance(v).is_infinite(), "node {v}");
            }
        }
        run
    }

    #[test]
    fn distances_match_bfs_on_various_graphs() {
        check(&generators::path(40, 1), &[NodeId(0)], 40);
        check(&generators::grid(6, 6, 1), &[NodeId(0)], 12);
        check(&generators::random_connected(50, 80, 3), &[NodeId(5)], 50);
        check(&generators::cycle(24, 1), &[NodeId(0), NodeId(12)], 24);
    }

    #[test]
    fn threshold_truncates_far_nodes() {
        let g = generators::path(30, 1);
        let run = check(&g, &[NodeId(0)], 10);
        assert_eq!(run.output.reached_count(), 11);
    }

    #[test]
    fn energy_scales_sublinearly_with_the_diameter() {
        // On a path the always-awake BFS costs Θ(D) energy per node, so
        // quadrupling the path length quadruples its energy. The low-energy
        // BFS's energy is polylogarithmic (times measured cover constants),
        // so its growth factor must be much smaller. (At simulatable sizes the
        // polylog constants still exceed D in absolute terms — see
        // EXPERIMENTS.md E5 — which is why the comparison is about growth.)
        let cfg = AlgoConfig::default();
        let small = generators::path(128, 1);
        let large = generators::path(1024, 1);
        let (low_small, _) = low_energy_bfs(&small, &[NodeId(0)], 128).unwrap();
        let (low_large, _) = low_energy_bfs(&large, &[NodeId(0)], 1024).unwrap();
        let naive_small = thresholded_bfs(&small, &[NodeId(0)], 128, &cfg).unwrap();
        let naive_large = thresholded_bfs(&large, &[NodeId(0)], 1024, &cfg).unwrap();
        let low_ratio =
            low_large.metrics.max_energy() as f64 / low_small.metrics.max_energy() as f64;
        let naive_ratio =
            naive_large.metrics.max_energy() as f64 / naive_small.metrics.max_energy() as f64;
        assert!(
            naive_ratio >= 6.0,
            "the always-awake baseline scales with D (ratio {naive_ratio})"
        );
        assert!(
            low_ratio < naive_ratio,
            "low-energy growth {low_ratio} must be below the baseline's {naive_ratio}"
        );
        // Time is allowed to be (polylog-)larger but still finite and bounded.
        assert!(low_large.metrics.rounds >= naive_large.metrics.rounds);
    }

    #[test]
    fn wake_schedule_invariant_holds_with_default_constants() {
        for seed in 0..3 {
            let g = generators::random_connected(60, 100, seed);
            assert!(low_energy_bfs(&g, &[NodeId(0)], 60).is_ok());
        }
    }

    #[test]
    fn disconnected_components_stay_asleep() {
        let g = generators::disjoint_copies(&generators::path(20, 1), 2);
        let (run, _) = low_energy_bfs(&g, &[NodeId(0)], 40).unwrap();
        assert_eq!(run.output.reached_count(), 20);
        // Nodes of the sourceless component belong only to irrelevant
        // clusters: their energy is the initialization cost only, strictly
        // below the reached component's nodes.
        let reached_max = (0..20).map(|v| run.metrics.node_energy[v]).max().unwrap();
        let dormant_max = (20..40).map(|v| run.metrics.node_energy[v]).max().unwrap();
        assert!(dormant_max <= reached_max);
    }

    /// The graph families the cover crate compares its constructions on,
    /// plus a multigraph whose parallel edges are inserted from both ends.
    fn families() -> Vec<(&'static str, Graph)> {
        let doubled = (0..11).flat_map(|v| [(v, v + 1, 1), (v + 1, v, 1)]);
        let rungs = (0..9).map(|v| (v, v + 2, 1));
        vec![
            ("path", generators::path(40, 1)),
            ("grid", generators::grid(9, 13, 1)),
            ("cycle", generators::cycle(31, 1)),
            ("star", generators::star(20, 1)),
            ("disconnected", generators::disjoint_copies(&generators::cycle(7, 1), 3)),
            ("disjoint-grids", generators::disjoint_copies(&generators::grid(5, 6, 1), 2)),
            ("isolated", Graph::empty(5)),
            ("random-sparse", generators::random_connected(60, 30, 1)),
            ("random-dense", generators::random_connected(64, 200, 2)),
            ("random-tree", generators::random_tree(50, 3)),
            ("wrong-dijkstra-killer", generators::wrong_dijkstra_killer(24)),
            ("spfa-killer", generators::spfa_killer(12)),
            ("grid-swirl", generators::grid_swirl(6)),
            ("almost-line", generators::almost_line(30, 5)),
            ("max-dense", generators::max_dense(16, 6)),
            ("parallel-edges", Graph::from_edges(12, doubled.chain(rungs)).unwrap()),
        ]
    }

    #[test]
    fn whole_runs_equal_the_reference_accounting() {
        let mut violations = 0;
        for (name, g) in families() {
            let n = g.node_count();
            let source_sets = [vec![NodeId(0)], vec![NodeId(n - 1), NodeId(n / 2), NodeId(1)]];
            for limit in [3, u64::from(n)] {
                let covers = [
                    LayeredCover::construct_default(&g, limit),
                    LayeredCover::construct(&g, limit, 4),
                ];
                for (cover, sources) in
                    covers.iter().flat_map(|c| source_sets.iter().map(move |s| (c, s)))
                {
                    let run = covered_bfs(&g, sources, limit, cover);
                    violations += usize::from(run.is_err());
                    assert_eq!(
                        run,
                        covered_bfs_reference(&g, sources, limit, cover),
                        "{name}, limit {limit}, base {}, {sources:?}",
                        cover.base
                    );
                }
            }
        }
        // Base 4 is below the realized stretch: Lemma 3.7's check fires, and
        // names the same cluster level and rounds.
        assert!(violations > 0);
    }

    #[test]
    fn accounting_reads_the_cover_a_constant_number_of_times() {
        // Host cost without a clock: before, every one of the 331 level-0
        // clusters rescanned the 4 096 members of its parent (1.35 M reads).
        let g = generators::grid(64, 64, 1);
        let (n, m) = (g.node_count() as usize, g.edge_count() as usize);
        let cover = LayeredCover::construct_default(&g, n as u64);
        let clusters = || cover.levels.iter().flat_map(|l| &l.clusters);
        let cover_size = clusters().map(|c| c.len() + c.tree.node_count()).sum::<usize>();
        let before = COVER_ENTRIES_READ.with(|read| read.get());
        covered_bfs(&g, &[NodeId(0)], n as u64, &cover).unwrap();
        let read = COVER_ENTRIES_READ.with(|read| read.get()) - before;
        assert!(read >= clusters().map(|c| c.len()).sum::<usize>());
        assert!(read <= 4 * cover_size + n + m, "read {read} entries of {cover_size}");
    }

    #[test]
    fn grid_16x16_accounting_is_pinned() {
        // Recorded before cover construction moved to the bounded-BFS
        // workspace and the flat cluster trees: the accounting reads the
        // cover through `tree.nodes()`, `tree.edges()` and
        // `max_edge_tree_load()`, and must charge exactly what it did.
        let g = generators::grid(16, 16, 1);
        let (run, sleeping) = low_energy_bfs(&g, &[NodeId(0)], 256).unwrap();
        let m = &run.metrics;
        assert_eq!((m.rounds, m.messages), (29_152, 561_640));
        assert_eq!((m.max_energy(), m.node_energy.iter().sum::<u64>()), (7_444, 770_656));
        assert_eq!((m.max_congestion(), m.edge_congestion.iter().sum::<u64>()), (4_674, 561_640));
        assert_eq!((sleeping.slowdown, sleeping.megaround, sleeping.cover_levels), (14, 4, 2));
        let cover = LayeredCover::construct_default(&g, 256);
        assert_eq!(cover_build_charge(&cover, 256).0, 14_080);
    }
}
