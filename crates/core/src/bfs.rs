//! Distributed multi-source (thresholded) BFS as a CONGEST protocol.
//!
//! This is the always-awake building block used by the Section-2 algorithms
//! and as the "naive" energy baseline: every node stays awake until the depth
//! limit has certainly been reached, so the energy per node equals the time.
//! Each node broadcasts its distance exactly once, so the congestion is at
//! most one message per edge per direction.
//!
//! Awake is not the same as busy: a node acts only when the wavefront's mail
//! reaches it and at the globally known round `limit + 1`, so in between it
//! waits in [`NodeCtx::listen_until`] — charged and receptive every round,
//! exactly as if it were stepped through them, but costing the host nothing.

use congest_graph::{Distance, Graph, NodeId};
use congest_sim::{Engine, Message, NodeCtx, Protocol};

use crate::result::{distances_of, AlgoRun};
use crate::{AlgoConfig, AlgoError};

/// Per-node state of the BFS protocol.
#[derive(Debug, Clone)]
pub struct BfsNode {
    /// The hop distance from the nearest source (what the node outputs).
    pub dist: Distance,
    is_source: bool,
    announced: bool,
    limit: u64,
}

impl Protocol for BfsNode {
    fn init(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.is_source {
            self.dist = Distance::ZERO;
            self.announced = true;
            if self.limit > 0 {
                ctx.broadcast(&[0]);
            }
        }
        ctx.listen_until(self.limit + 1);
    }

    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Message]) {
        for msg in inbox {
            let cand = Distance::Finite(msg.word(0) + 1);
            if cand < self.dist {
                self.dist = cand;
            }
        }
        if !self.announced {
            if let Some(d) = self.dist.finite() {
                // In synchronous BFS a node first hears of the wavefront in
                // exactly the round equal to its hop distance.
                debug_assert_eq!(d, ctx.round());
                self.announced = true;
                if d < self.limit {
                    ctx.broadcast(&[d]);
                }
            }
        }
        // The wavefront cannot travel further than one hop per round, so by
        // round `limit + 1` everything within the threshold has been reached.
        // Until then only mail can change anything.
        if ctx.round() > self.limit {
            ctx.halt();
        } else {
            ctx.listen_until(self.limit + 1);
        }
    }
}

/// Runs multi-source BFS from `sources` (checked by the facade) up to hop
/// distance `limit` (a *`limit`-thresholded BFS* in the paper's
/// terminology): nodes at hop distance greater than `limit` output
/// [`Distance::Infinite`]. A limit above `n` is the same as `n` — no
/// wavefront travels further — and runs as that.
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
    run_bfs(g, sources, limit, config, |node| node, |node| node.dist)
}

/// [`thresholded_bfs`] over any protocol built from a [`BfsNode`], so that
/// the tests can put the always-stepped reference through the same set-up.
fn run_bfs<P: Protocol>(
    g: &Graph,
    sources: &[NodeId],
    limit: u64,
    config: &AlgoConfig,
    protocol: impl Fn(BfsNode) -> P,
    dist: impl Fn(&P) -> Distance,
) -> Result<AlgoRun, AlgoError> {
    let is_source: Vec<bool> = {
        let mut v = vec![false; g.node_count() as usize];
        for &s in sources {
            v[s.index()] = true;
        }
        v
    };
    let limit = limit.min(g.node_count() as u64);
    let mut sim = config.sim.clone();
    sim.max_rounds = sim.max_rounds.max(limit + 10);
    let run = Engine::new(g, sim).run(|id| {
        protocol(BfsNode {
            dist: Distance::Infinite,
            is_source: is_source[id.index()],
            announced: false,
            limit,
        })
    })?;
    Ok(distances_of(run, dist))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_graphs;
    use congest_graph::{generators, sequential};

    /// The protocol as it was before [`NodeCtx::listen_until`]: stepped in
    /// every round, idling through the ones in which nothing arrives. Kept as
    /// the reference the listening protocol must be indistinguishable from.
    #[derive(Debug, Clone)]
    struct AlwaysStepped(BfsNode);

    impl Protocol for AlwaysStepped {
        fn init(&mut self, ctx: &mut NodeCtx<'_>) {
            let node = &mut self.0;
            if node.is_source {
                node.dist = Distance::ZERO;
                node.announced = true;
                if node.limit > 0 {
                    ctx.broadcast(&[0]);
                }
            }
        }

        fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Message]) {
            let node = &mut self.0;
            for msg in inbox {
                let cand = Distance::Finite(msg.word(0) + 1);
                if cand < node.dist {
                    node.dist = cand;
                }
            }
            if !node.announced {
                if let Some(d) = node.dist.finite() {
                    node.announced = true;
                    if d < node.limit {
                        ctx.broadcast(&[d]);
                    }
                }
            }
            if ctx.round() > node.limit {
                ctx.halt();
            }
        }
    }

    #[test]
    fn listening_changes_nothing_the_simulation_can_observe() {
        for (i, g) in test_graphs::weighted_workloads().iter().enumerate() {
            let n = g.node_count() as u64;
            for cfg in test_graphs::configs() {
                for sources in [&[NodeId(0)][..], &[NodeId(0), NodeId(5)]] {
                    // Unthresholded, truncating, degenerate.
                    for limit in [n, 3, 1, 0] {
                        let fast = thresholded_bfs(g, sources, limit, &cfg).unwrap();
                        let slow =
                            run_bfs(g, sources, limit, &cfg, AlwaysStepped, |s| s.0.dist).unwrap();
                        // Full AlgoRun equality: distances and every
                        // metrics field (per-node energy included).
                        assert_eq!(fast, slow, "workload {i}, limit {limit}");
                    }
                }
            }
        }
    }

    /// Limit `n`, which always suffices.
    fn unthresholded(g: &Graph, sources: &[NodeId], cfg: &AlgoConfig) -> AlgoRun {
        thresholded_bfs(g, sources, g.node_count() as u64, cfg).unwrap()
    }

    #[test]
    fn a_limit_beyond_n_is_the_unthresholded_run() {
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
    fn congestion_is_at_most_two_per_edge() {
        let cfg = AlgoConfig::default();
        let g = generators::random_connected(50, 120, 3);
        let run = unthresholded(&g, &[NodeId(0)], &cfg);
        // One announcement per endpoint per edge.
        assert!(run.metrics.max_congestion() <= 2);
        assert!(run.metrics.messages <= 2 * g.edge_count() as u64);
    }

    #[test]
    fn unreachable_nodes_stay_infinite() {
        let cfg = AlgoConfig::default();
        let g = generators::disjoint_copies(&generators::path(5, 1), 2);
        let run = unthresholded(&g, &[NodeId(0)], &cfg);
        assert!(run.output.distance(NodeId(7)).is_infinite());
        assert_eq!(run.output.reached_count(), 5);
    }

    #[test]
    fn zero_limit_reaches_only_sources() {
        let cfg = AlgoConfig::default();
        let g = generators::star(6, 1);
        let run = thresholded_bfs(&g, &[NodeId(0)], 0, &cfg).unwrap();
        assert_eq!(run.output.reached_count(), 1);
    }
}
