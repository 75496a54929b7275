//! Low-energy weighted closest-source shortest paths (Theorem 3.15):
//! `Õ(n)` time and `poly(log n)` energy per node.
//!
//! The algorithm is the Section-2 recursion with its two energy-consuming
//! components swapped out (exactly as the paper describes):
//!
//! * the approximate-cutter BFSs become low-energy thresholded BFSs
//!   (Theorem 3.14),
//! * the spanning-forest computation becomes the low-energy Boruvka variant
//!   (Theorem 3.1).
//!
//! ## Simulation methodology
//!
//! The recursion structure (which node participates in which subproblem, and
//! each subproblem's size) is taken from the measured run of
//! [`crate::thresholded::thresholded_cssp`]; the sleeping-model cost of each
//! subproblem is then charged from the measured parameters of a layered
//! sparse cover of the graph (levels, periods, tree depths, megaround width),
//! using the same accounting as [`crate::energy::bfs`]. This keeps the
//! per-node energy tied to the actually-constructed covers and the actually
//! executed recursion rather than to a closed-form formula in `n`.
//! See `docs/COVERS.md` ("Energy accounting").

use congest_cover::{ClusterSchedule, CoverStats, LayeredCover, SparseCover};
use congest_graph::{Graph, NodeId};
use congest_sim::Metrics;

use super::{cover_build_charge, slowdown};
use crate::cssp::{solve_contracted, CsspRun};
use crate::result::{SleepingReport, SourceOffset};
use crate::spanning_forest::spanning_forest;
use crate::thresholded::thresholded_cssp_validated;
use crate::{AlgoConfig, AlgoError};

/// Runs low-energy exact CSSP from `sources` (Theorem 3.15). Zero-weight
/// edges are contracted first, as [`crate::cssp::cssp`] contracts them
/// (Theorem 2.7): the accounting then charges the low-energy spanning forest
/// that finds the zero-weight components (Theorem 3.1), and after it the
/// contracted graph, read back onto `g`. Returns the exact distances with
/// the sleeping-model metrics and the recursion's instrumentation, beside
/// the megaround width and cover levels used (the slowdown reads 0: the
/// accounting has no wavefront of its own).
///
/// # Errors
///
/// Returns an error if `sources` is empty, a source is out of range, or the
/// underlying recursion fails.
pub(crate) fn low_energy_cssp(
    g: &Graph,
    sources: &[NodeId],
    config: &AlgoConfig,
) -> Result<(CsspRun, SleepingReport), AlgoError> {
    let charged = |h: &Graph, offsets: &[SourceOffset]| charged_run(h, offsets, config);
    let (run, (sleeping, _per_subproblem_energy)) = solve_contracted(g, sources, true, charged)?;
    Ok((run, sleeping))
}

/// Low-energy CSSP on a graph of positive weights from checked sources: the
/// recursion's run with its metrics replaced by the sleeping-model charges,
/// beside the sleeping-model report and the awake rounds charged per
/// subproblem a node takes part in.
fn charged_run(
    g: &Graph,
    offsets: &[SourceOffset],
    config: &AlgoConfig,
) -> Result<(CsspRun, (SleepingReport, u64)), AlgoError> {
    let threshold = g.distance_upper_bound().max(1);
    // The recursion: correctness, per-edge congestion, message counts, and
    // participation structure all come from here.
    let base = thresholded_cssp_validated(g, offsets, threshold, config)?;

    let n = g.node_count() as usize;
    let log2n = ((n.max(2)) as f64).log2().ceil() as u64;

    // One layered cover of the whole graph, built for hop radius n (every
    // BFS the recursion performs is a thresholded BFS over at most n hops in
    // the rounded graph). Its measured parameters drive the energy charges.
    let cover = LayeredCover::construct_default(g, g.node_count() as u64);
    let levels = cover.level_count();
    let level_stats: Vec<CoverStats> = cover.levels.iter().map(SparseCover::stats).collect();
    let megaround: u64 =
        level_stats.iter().map(|stats| stats.max_edge_tree_load as u64).sum::<u64>().max(1);
    // Awake rounds a node spends per low-energy thresholded BFS: a constant
    // number of awake rounds per period per cluster it belongs to, over the
    // activation window of O(B) periods at each level, plus initialization —
    // the same accounting as `energy::bfs`, aggregated per level.
    let mut per_bfs_energy: u64 = 0;
    for (j, stats) in level_stats.iter().enumerate() {
        let period = cover.radius(j);
        let sched = ClusterSchedule::new(period, stats.max_tree_depth);
        // A cluster stays active for O(parent diameter) wavefront steps.
        let window = if j + 1 < levels {
            2 * cover.levels[j + 1].max_tree_depth() + 2 * cover.radius(j + 1)
        } else {
            2 * stats.max_tree_depth + 2 * period
        };
        let membership = stats.max_membership as u64;
        per_bfs_energy = per_bfs_energy
            .saturating_add(membership.saturating_mul(sched.awake_rounds_bound(0, window.max(1))))
            .saturating_add(4 * membership); // initialization cycle
    }
    per_bfs_energy = per_bfs_energy.max(1).saturating_mul(megaround);
    // Each subproblem performs O(log n) thresholded BFSs (the rounded waiting
    // BFS is simulated as O(1) thresholded BFS sweeps with ε = 1/2) plus one
    // low-energy forest phase of O(log n) convergecasts.
    let per_subproblem_energy =
        per_bfs_energy.saturating_add((4 * log2n).saturating_mul(megaround));

    // Time: each subproblem of size n' costs O(ε⁻¹ · n') wavefront steps times
    // the slowdown and megaround width, plus the forest time.
    let cutter_steps_per_node = config.epsilon_inverse.saturating_mul(2).saturating_add(1);
    let rounds = base
        .stats
        .total_subproblem_size
        .saturating_mul(cutter_steps_per_node)
        .saturating_mul(slowdown(&cover))
        .saturating_mul(megaround);
    // Cover construction (Theorem 3.13 bootstrap), charged once.
    let (cover_build_rounds, cover_build_energy) = cover_build_charge(&cover, n);

    // Low-energy forest of the whole graph (Theorem 3.1) contributes its own
    // measured metrics once per recursion level.
    let (_forest, forest_metrics) = spanning_forest(g, true);

    // The recursion's traffic and fault counters are facts, carried through.
    // Its time, energy and sleeping-model losses belong to the wake schedule
    // this run replaces: they start from zero and are charged below.
    let mut metrics =
        Metrics { rounds: 0, node_energy: vec![0; n], messages_lost: 0, ..base.metrics };
    let recursion_levels = base.stats.levels as u64;
    metrics.charge_rounds(rounds);
    metrics.charge_rounds(cover_build_rounds);
    metrics.charge_rounds(forest_metrics.rounds.saturating_mul(recursion_levels));
    // The cluster-tree traffic: each cluster-tree edge carries a constant
    // number of messages per period per BFS.
    metrics.charge_messages(g.edge_ids(), 4 * levels as u64);
    for v in g.nodes() {
        let forest_energy = forest_metrics.node_energy[v.index()].saturating_mul(recursion_levels);
        let recursion_energy =
            base.stats.participation[v.index()].saturating_mul(per_subproblem_energy);
        metrics.charge_awake([v], recursion_energy.saturating_add(forest_energy));
    }
    metrics.charge_awake(g.nodes(), cover_build_energy);
    // A node can never be awake for more rounds than the execution has.
    metrics.cap_energy_at_rounds();

    let run = CsspRun { output: base.output, metrics, stats: base.stats };
    let sleeping = SleepingReport { slowdown: 0, megaround, cover_levels: levels as u64 };
    Ok((run, (sleeping, per_subproblem_energy)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::{generators, sequential};

    fn check(g: &Graph, sources: &[NodeId]) -> CsspRun {
        let (run, _) = low_energy_cssp(g, sources, &AlgoConfig::default()).unwrap();
        let truth = sequential::dijkstra(g, sources);
        for v in g.nodes() {
            assert_eq!(run.output.distance(v), truth.distance(v), "node {v}");
        }
        run
    }

    #[test]
    fn distances_are_exact() {
        for seed in 0..3 {
            let g = generators::with_random_weights(
                &generators::random_connected(30, 45, seed),
                8,
                seed,
            );
            check(&g, &[NodeId(0)]);
        }
    }

    #[test]
    fn multi_source_distances_are_exact() {
        let g = generators::with_random_weights(&generators::grid(5, 5, 1), 5, 1);
        check(&g, &[NodeId(0), NodeId(24)]);
    }

    #[test]
    fn energy_grows_with_participation_not_with_n() {
        // The energy of every node is (participation) × (polylog charge): it
        // must stay far below the always-awake cost of Θ(n) per node once n is
        // moderately large.
        let g = generators::path(128, 2);
        let (run, (sleeping, per_subproblem_energy)) =
            charged_run(&g, &[SourceOffset::plain(NodeId(0))], &AlgoConfig::default()).unwrap();
        assert_eq!(run, check(&g, &[NodeId(0)]), "positive weights: nothing is contracted");
        let always_awake = run.metrics.rounds; // what a naive node would pay
        assert!(run.metrics.max_energy() < always_awake);
        assert!(per_subproblem_energy > 0);
        assert!(sleeping.megaround >= 1);
        assert!(sleeping.cover_levels >= 1);
    }

    #[test]
    fn weighted_grid_16x16_accounting_is_pinned() {
        // Recorded before the slowdown and the cover-construction charge
        // became constants shared with `energy::bfs`: the accounting must
        // charge exactly what it did. The messages are the summed
        // congestion: the cover-tree traffic (4 · levels · m = 3 840 messages)
        // counts in both.
        let g = generators::with_random_weights(&generators::grid(16, 16, 1), 9, 3);
        let config = AlgoConfig::default();
        let (run, sleeping) = low_energy_cssp(&g, &[NodeId(0)], &config).unwrap();
        let m = &run.metrics;
        assert_eq!((m.rounds, m.messages), (1_768_832, 59_189));
        assert_eq!((m.max_energy(), m.node_energy.iter().sum::<u64>()), (86_868, 18_786_048));
        assert_eq!((m.max_congestion(), m.edge_congestion.iter().sum::<u64>()), (218, 59_189));
        assert_eq!(m.messages, m.edge_congestion.iter().sum::<u64>());
        assert_eq!((sleeping.slowdown, sleeping.megaround, sleeping.cover_levels), (0, 4, 2));
        let (_, (_, per_subproblem_energy)) =
            charged_run(&g, &[SourceOffset::plain(NodeId(0))], &config).unwrap();
        assert_eq!(per_subproblem_energy, 2_976);
    }

    #[test]
    fn zero_weights_are_contracted_and_exact() {
        // 0 -0- 1 -5- 2 -0- 3 -2- 4: dist(0, .) = [0, 0, 5, 5, 7].
        let g = Graph::from_edges(5, [(0, 1, 0), (1, 2, 5), (2, 3, 0), (3, 4, 2)]).unwrap();
        let run = check(&g, &[NodeId(0)]);
        assert_eq!(run.metrics.node_energy.len(), 5);
        assert_eq!(run.stats.participation.len(), 5);
        for seed in 0..3 {
            let g = generators::with_random_weights_zero(
                &generators::random_connected(30, 50, seed),
                6,
                seed,
            );
            check(&g, &[NodeId(0), NodeId(10)]);
        }
        // All-zero weights: one supernode, every distance 0.
        let g = generators::with_random_weights_zero(&generators::path(6, 1), 0, 1);
        let run = check(&g, &[NodeId(2)]);
        assert_eq!(run.output.reached_count(), 6);
    }

    #[test]
    fn a_zero_weight_component_is_charged_on_every_member_and_edge() {
        // 0 -0- 1 -0- 2 -1- 3: nodes 0, 1 and 2 are one supernode.
        let g = Graph::from_edges(4, [(0, 1, 0), (1, 2, 0), (2, 3, 1)]).unwrap();
        let run = check(&g, &[NodeId(3)]);
        let energy = &run.metrics.node_energy;
        assert!(energy[0] > 0 && energy[0] == energy[1] && energy[1] == energy[2], "{energy:?}");
        assert!(run.metrics.edge_congestion.iter().all(|&c| c > 0));
        // The contraction is the low-energy forest of the zero-weight
        // subgraph, merged before the recursion.
        let zero = Graph::from_edges(4, [(0, 1, 0), (1, 2, 0)]).unwrap();
        let (_, forest) = spanning_forest(&zero, true);
        assert!(energy[0] > forest.node_energy[0] && run.metrics.rounds > forest.rounds);
        assert!(run.metrics.max_energy() <= run.metrics.rounds);
    }
}
