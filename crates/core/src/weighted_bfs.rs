//! "Waiting BFS": a weighted BFS protocol in which the wavefront takes `w`
//! rounds to cross an edge of (integer, positive) weight `w`.
//!
//! This is the distributed engine behind the rounding-based approximate
//! cutter of Lemma 2.1 — after rounding, the weighted distance range becomes
//! `O(n/ε)`, so waiting BFS finishes in `O(n/ε)` rounds — and each node
//! announces its final distance exactly once, so the congestion is `O(1)`
//! per edge. At unit weight it is also the always-awake multi-source BFS
//! behind `Algorithm::Bfs` ([`thresholded_bfs`]), the energy baseline every
//! node of which is awake for the whole run.
//!
//! Every node is awake for all `limit` rounds but acts only `O(deg)` times:
//! when an announcement arrives, in the round equal to its pending distance,
//! and at the limit. Between those it waits in [`NodeCtx::listen_until`] —
//! charged and receptive every round, as the model demands, while the
//! simulation pays per event instead of per node-round.

use congest_graph::{Distance, Graph, NodeId, Weight};
use congest_sim::{Engine, Message, NodeCtx, Protocol, RunOutcome};

use crate::result::{distances_of, AlgoRun, SourceOffset};
use crate::{AlgoConfig, AlgoError};

/// Per-node state of the waiting-BFS protocol, over the weight map `'w` of
/// its run.
#[derive(Debug, Clone)]
pub struct WaitingBfsNode<'w> {
    /// The best distance heard so far; the node's output once `finalized`.
    best: Distance,
    finalized: bool,
    limit: u64,
    /// A finalized distance is announced only if it is below this.
    announce_below: u64,
    /// Rounded weight per edge id (shared, read-only).
    weights: &'w [Weight],
}

impl WaitingBfsNode<'_> {
    /// The weighted distance from the source set (under the protocol's
    /// weight map), or infinity if beyond the round limit.
    fn dist(&self) -> Distance {
        if self.finalized {
            self.best
        } else {
            Distance::Infinite
        }
    }

    fn maybe_finalize(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.finalized {
            return;
        }
        if let Some(b) = self.best.finite() {
            // Mail arrives the round after it is sent and every weight is at
            // least 1, so a candidate is never below the round it arrives in,
            // and a node is called back by the round its pending distance
            // comes due. A fault plan only removes mail.
            debug_assert!(b >= ctx.round(), "distance {b} came due before round {}", ctx.round());
            if b == ctx.round() {
                self.finalized = true;
                if b < self.announce_below {
                    ctx.broadcast(&[b]);
                }
            }
        }
    }

    /// Waits for the next round in which this node acts without being told
    /// to: the round its pending distance comes due, else the limit. Mail
    /// ends the wait early.
    fn wait(&self, ctx: &mut NodeCtx<'_>) {
        let due = self.best.finite().filter(|&b| !self.finalized && b > ctx.round());
        ctx.listen_until(due.map_or(self.limit, |b| b.min(self.limit)));
    }
}

impl Protocol for WaitingBfsNode<'_> {
    fn init(&mut self, ctx: &mut NodeCtx<'_>) {
        // `best` was pre-set to the source offset by the factory (or left
        // infinite for non-sources). A source with offset 0 finalizes now.
        self.maybe_finalize(ctx);
        self.wait(ctx);
    }

    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Message]) {
        for msg in inbox {
            let w = self.weights[msg.edge.index()];
            let cand = Distance::Finite(msg.word(0) + w);
            if cand < self.best {
                self.best = cand;
            }
        }
        self.maybe_finalize(ctx);
        if ctx.round() >= self.limit {
            ctx.halt();
        } else {
            self.wait(ctx);
        }
    }
}

/// Runs waiting BFS from `sources` (with initial offsets, all inside `g`)
/// using the given per-edge weights, for `limit` rounds. Nodes whose
/// weighted distance under `weights` exceeds `limit` output
/// [`Distance::Infinite`].
///
/// The `weights` slice overrides the graph's own weights (the cutter passes
/// rounded weights): one entry per edge of `g`, every entry at least 1.
///
/// # Errors
///
/// Returns an error if the weight map has a zero, or if the simulation
/// exceeds its round limit.
pub(crate) fn waiting_bfs(
    g: &Graph,
    sources: &[SourceOffset],
    weights: &[Weight],
    limit: u64,
    config: &AlgoConfig,
) -> Result<AlgoRun, AlgoError> {
    let run = run_waiting_bfs(g, sources, weights, limit, limit, config, |node| node)?;
    Ok(distances_of(run, WaitingBfsNode::dist))
}

/// Runs multi-source BFS from `sources` (checked by the facade) up to hop
/// distance `limit` (a *`limit`-thresholded BFS* in the paper's
/// terminology): nodes at hop distance greater than `limit` output
/// [`Distance::Infinite`]. A limit above `n` is the same as `n` — no
/// wavefront travels further — and runs as that.
///
/// This is the waiting BFS at unit weight. It runs one round past `limit`
/// and announces only distances below it, as BFS always has.
///
/// # Errors
///
/// Returns an error if the simulation exceeds its round limit.
pub(crate) fn thresholded_bfs(
    g: &Graph,
    sources: &[NodeId],
    limit: u64,
    config: &AlgoConfig,
) -> Result<AlgoRun, AlgoError> {
    let limit = limit.min(g.node_count() as u64);
    let sources: Vec<SourceOffset> = sources.iter().map(|&s| SourceOffset::plain(s)).collect();
    let weights = vec![1; g.edge_count() as usize];
    let run = run_waiting_bfs(g, &sources, &weights, limit + 1, limit, config, |node| node)?;
    Ok(distances_of(run, WaitingBfsNode::dist))
}

/// The engine run behind [`waiting_bfs`] and [`thresholded_bfs`], over any
/// protocol built from a [`WaitingBfsNode`], so that the tests can put the
/// always-stepped reference through the same set-up and read the whole
/// outcome.
fn run_waiting_bfs<'w, P: Protocol>(
    g: &Graph,
    sources: &[SourceOffset],
    weights: &'w [Weight],
    limit: u64,
    announce_below: u64,
    config: &AlgoConfig,
    protocol: impl Fn(WaitingBfsNode<'w>) -> P,
) -> Result<RunOutcome<P>, AlgoError> {
    debug_assert_eq!(weights.len(), g.edge_count() as usize, "one weight per edge");
    if let Some(idx) = weights.iter().position(|&w| w == 0) {
        return Err(AlgoError::ZeroWeightNotSupported { edge: congest_graph::EdgeId(idx as u32) });
    }
    let mut offsets = vec![Distance::Infinite; g.node_count() as usize];
    for s in sources {
        let d = Distance::Finite(s.offset);
        if d < offsets[s.node.index()] {
            offsets[s.node.index()] = d;
        }
    }
    let mut sim = config.sim.clone();
    sim.max_rounds = sim.max_rounds.max(limit.saturating_add(10));
    let node = |id: NodeId| {
        protocol(WaitingBfsNode {
            best: offsets[id.index()],
            finalized: false,
            limit,
            announce_below,
            weights,
        })
    };
    Ok(Engine::new(g, sim).run(node)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_graphs;
    use congest_graph::{generators, sequential};
    use std::collections::BTreeSet;

    fn graph_weights(g: &Graph) -> Vec<Weight> {
        g.edges().iter().map(|e| e.w).collect()
    }

    /// The protocol as it was before [`NodeCtx::listen_until`]: stepped in
    /// every round, idling through the ones in which nothing arrives and
    /// nothing comes due. Kept as the reference the listening protocol must
    /// be indistinguishable from.
    #[derive(Debug, Clone)]
    struct AlwaysStepped<'w>(WaitingBfsNode<'w>);

    impl Protocol for AlwaysStepped<'_> {
        fn init(&mut self, ctx: &mut NodeCtx<'_>) {
            self.0.maybe_finalize(ctx);
        }

        fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Message]) {
            let node = &mut self.0;
            for msg in inbox {
                let w = node.weights[msg.edge.index()];
                let cand = Distance::Finite(msg.word(0) + w);
                if cand < node.best {
                    node.best = cand;
                }
            }
            node.maybe_finalize(ctx);
            if ctx.round() >= node.limit {
                ctx.halt();
            }
        }
    }

    /// The cutter's instance of Lemma 2.1 (see `approx.rs`): weights and
    /// offsets rounded to `⌈x · ε⁻¹ · n / W⌉`, run for `(2ε⁻¹ + 1) · n + 2`
    /// rounds — the shape of every waiting BFS the recursion issues.
    fn rounded(
        g: &Graph,
        sources: &[SourceOffset],
        w_max: u64,
        inv: u64,
    ) -> (Vec<SourceOffset>, Vec<Weight>, u64) {
        let n = g.node_count() as u64;
        let scale = |x: u64| (x * inv * n).div_ceil(w_max);
        let sources = sources
            .iter()
            .map(|s| SourceOffset { node: s.node, offset: scale(s.offset) })
            .collect();
        (sources, g.edges().iter().map(|e| scale(e.w)).collect(), (2 * inv + 1) * n + 2)
    }

    /// A waiting-BFS node that also notes the rounds it was called back in.
    #[derive(Debug, Clone)]
    struct Recorded<'w>(WaitingBfsNode<'w>, Vec<u64>);

    impl Protocol for Recorded<'_> {
        fn init(&mut self, ctx: &mut NodeCtx<'_>) {
            self.1.push(ctx.round());
            self.0.init(ctx);
        }

        fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Message]) {
            self.1.push(ctx.round());
            self.0.on_round(ctx, inbox);
        }
    }

    #[test]
    fn the_engine_visits_only_rounds_in_which_a_node_is_called_back() {
        // Host cost without a clock: on the cutter's instances every node
        // listens, so a round has something in it — mail, or a deadline come
        // due — exactly when somebody's callback runs in it. The engine must
        // look at those rounds and at no other: not at the round after one
        // in which a node acted without sending (more than a quarter of all
        // visits before the fast-forward stopped waiting for an empty round),
        // and not at a deadline its listener was woken ahead of.
        let plain = [SourceOffset::plain(NodeId(0))];
        let cfg = AlgoConfig::default();
        for (i, g) in test_graphs::weighted_workloads().iter().enumerate() {
            let full = g.distance_upper_bound();
            for w_max in [full, (full / 8).max(1)] {
                let (sources, weights, limit) = rounded(g, &plain, w_max, 2);
                let wrap = |node| Recorded(node, Vec::new());
                let run = run_waiting_bfs(g, &sources, &weights, limit, limit, &cfg, wrap).unwrap();
                let calls: BTreeSet<u64> =
                    run.states.iter().flat_map(|s| s.1.iter().copied()).collect();
                let eventful = calls.len() as u64;
                assert!(eventful > 2 && eventful < limit, "workload {i}: {eventful} of {limit}");
                let visited = run.rounds_visited;
                assert_eq!(visited, eventful, "workload {i}, W = {w_max}, {limit} rounds");
            }
        }
    }

    #[test]
    fn listening_changes_nothing_the_simulation_can_observe() {
        let plain = [SourceOffset::plain(NodeId(0))];
        let offset = [
            SourceOffset { node: NodeId(0), offset: 4 },
            SourceOffset { node: NodeId(5), offset: 0 },
        ];
        let two = [SourceOffset::plain(NodeId(0)), SourceOffset::plain(NodeId(5))];
        for (i, g) in test_graphs::weighted_workloads().iter().enumerate() {
            let (n, full) = (g.node_count() as u64, g.distance_upper_bound());
            // (sources, weights, round limit, announce below). Everything in
            // reach, a truncating threshold, and two degenerate limits on the
            // unrounded weights.
            let mut instances = vec![];
            for sources in [&plain[..], &offset] {
                for inv in [1, 2, 10] {
                    for w_max in [full, (full / 8).max(1)] {
                        let (sources, weights, limit) = rounded(g, sources, w_max, inv);
                        instances.push((sources, weights, limit, limit));
                    }
                }
                for limit in [2, 0] {
                    instances.push((sources.to_vec(), graph_weights(g), limit, limit));
                }
            }
            // Unit-weight BFS as `thresholded_bfs` runs it: unthresholded,
            // truncating, degenerate.
            for sources in [&plain[..], &two] {
                for hops in [n, 3, 1, 0] {
                    let unit = vec![1; g.edge_count() as usize];
                    instances.push((sources.to_vec(), unit, hops + 1, hops));
                }
            }
            for cfg in test_graphs::configs() {
                for (sources, weights, limit, below) in &instances {
                    let fast =
                        run_waiting_bfs(g, sources, weights, *limit, *below, &cfg, |node| node);
                    let fast = distances_of(fast.unwrap(), WaitingBfsNode::dist);
                    let slow =
                        run_waiting_bfs(g, sources, weights, *limit, *below, &cfg, AlwaysStepped);
                    let slow = distances_of(slow.unwrap(), |s: &AlwaysStepped| s.0.dist());
                    // Full AlgoRun equality: distances and every metrics
                    // field (per-node energy included).
                    assert_eq!(fast, slow, "workload {i}, limit {limit}, announce below {below}");
                }
            }
        }
    }

    #[test]
    fn waiting_bfs_computes_weighted_distances() {
        let cfg = AlgoConfig::default();
        for seed in 0..3 {
            let g = generators::with_random_weights(
                &generators::random_connected(25, 35, seed),
                6,
                seed,
            );
            let limit = g.distance_upper_bound() + 1;
            let run =
                waiting_bfs(&g, &[SourceOffset::plain(NodeId(0))], &graph_weights(&g), limit, &cfg)
                    .unwrap();
            let expected = sequential::dijkstra(&g, &[NodeId(0)]);
            for v in g.nodes() {
                assert_eq!(run.output.distance(v), expected.distance(v), "seed {seed} node {v}");
            }
        }
    }

    #[test]
    fn offsets_shift_source_distances() {
        let cfg = AlgoConfig::default();
        let g = generators::path(6, 2);
        let sources = [
            SourceOffset { node: NodeId(0), offset: 5 },
            SourceOffset { node: NodeId(5), offset: 0 },
        ];
        let run = waiting_bfs(&g, &sources, &graph_weights(&g), 100, &cfg).unwrap();
        // Node 0: min(5, 0 + 5 edges * 2) = 5. Node 2: min(5 + 4, 0 + 6) = 6.
        assert_eq!(run.output.distance(NodeId(0)).finite(), Some(5));
        assert_eq!(run.output.distance(NodeId(2)).finite(), Some(6));
    }

    #[test]
    fn limit_truncates_far_nodes() {
        let cfg = AlgoConfig::default();
        let g = generators::path(10, 3);
        let run = waiting_bfs(&g, &[SourceOffset::plain(NodeId(0))], &graph_weights(&g), 9, &cfg)
            .unwrap();
        assert_eq!(run.output.distance(NodeId(3)).finite(), Some(9));
        assert!(run.output.distance(NodeId(4)).is_infinite());
        assert!(run.metrics.rounds <= 12);
    }

    #[test]
    fn congestion_is_constant_per_edge() {
        let cfg = AlgoConfig::default();
        let g = generators::with_random_weights(&generators::random_connected(40, 100, 7), 4, 7);
        let run = waiting_bfs(
            &g,
            &[SourceOffset::plain(NodeId(0))],
            &graph_weights(&g),
            g.distance_upper_bound(),
            &cfg,
        )
        .unwrap();
        assert!(run.metrics.max_congestion() <= 2, "each endpoint announces at most once");
    }

    #[test]
    fn custom_weight_map_overrides_graph_weights() {
        let cfg = AlgoConfig::default();
        let g = generators::path(4, 100);
        // Override all weights to 1: distances become hop counts.
        let run = waiting_bfs(&g, &[SourceOffset::plain(NodeId(0))], &[1, 1, 1], 10, &cfg).unwrap();
        assert_eq!(run.output.distance(NodeId(3)).finite(), Some(3));
    }

    #[test]
    fn zero_weights_are_rejected() {
        let cfg = AlgoConfig::default();
        let g = generators::path(4, 1);
        let source = [SourceOffset::plain(NodeId(0))];
        assert!(matches!(
            waiting_bfs(&g, &source, &[1, 0, 1], 10, &cfg),
            Err(AlgoError::ZeroWeightNotSupported { .. })
        ));
    }

    /// Limit `n`, which always suffices.
    fn unthresholded(g: &Graph, sources: &[NodeId], cfg: &AlgoConfig) -> AlgoRun {
        thresholded_bfs(g, sources, g.node_count() as u64, cfg).unwrap()
    }

    #[test]
    fn a_bfs_limit_beyond_n_is_the_unthresholded_run() {
        let cfg = AlgoConfig::default();
        let g = generators::random_connected(30, 40, 2);
        let unthresholded = unthresholded(&g, &[NodeId(0)], &cfg);
        for limit in [31, 1 << 40, u64::MAX - 9, u64::MAX] {
            assert_eq!(thresholded_bfs(&g, &[NodeId(0)], limit, &cfg).unwrap(), unthresholded);
        }
    }

    #[test]
    fn bfs_matches_sequential_on_random_graphs() {
        let cfg = AlgoConfig::default();
        for seed in 0..4 {
            let g = generators::random_connected(40, 60, seed);
            let run = unthresholded(&g, &[NodeId(0)], &cfg);
            let expected = sequential::bfs(&g, &[NodeId(0)]);
            assert_eq!(run.output.distances, expected.distances, "seed {seed}");
        }
    }

    #[test]
    fn multi_source_bfs_matches_sequential() {
        let cfg = AlgoConfig::default();
        let g = generators::grid(6, 7, 1);
        let sources = [NodeId(0), NodeId(41), NodeId(20)];
        let run = unthresholded(&g, &sources, &cfg);
        let expected = sequential::bfs(&g, &sources);
        assert_eq!(run.output.distances, expected.distances);
    }

    #[test]
    fn thresholded_bfs_cuts_at_the_limit() {
        let cfg = AlgoConfig::default();
        let g = generators::path(20, 1);
        let run = thresholded_bfs(&g, &[NodeId(0)], 5, &cfg).unwrap();
        for v in g.nodes() {
            if v.0 <= 5 {
                assert_eq!(run.output.distance(v).finite(), Some(v.0 as u64));
            } else {
                assert!(run.output.distance(v).is_infinite(), "node {v} is beyond the threshold");
            }
        }
        // Time is proportional to the threshold, not the diameter.
        assert!(run.metrics.rounds <= 5 + 3);
    }

    #[test]
    fn bfs_congestion_is_at_most_two_per_edge() {
        let cfg = AlgoConfig::default();
        let g = generators::random_connected(50, 120, 3);
        let run = unthresholded(&g, &[NodeId(0)], &cfg);
        // One announcement per endpoint per edge.
        assert!(run.metrics.max_congestion() <= 2);
        assert!(run.metrics.messages <= 2 * g.edge_count() as u64);
    }

    #[test]
    fn bfs_leaves_unreachable_nodes_infinite() {
        let cfg = AlgoConfig::default();
        let g = generators::disjoint_copies(&generators::path(5, 1), 2);
        let run = unthresholded(&g, &[NodeId(0)], &cfg);
        assert!(run.output.distance(NodeId(7)).is_infinite());
        assert_eq!(run.output.reached_count(), 5);
    }

    #[test]
    fn a_zero_bfs_limit_reaches_only_sources() {
        let cfg = AlgoConfig::default();
        let g = generators::star(6, 1);
        let run = thresholded_bfs(&g, &[NodeId(0)], 0, &cfg).unwrap();
        assert_eq!(run.output.reached_count(), 1);
    }
}
