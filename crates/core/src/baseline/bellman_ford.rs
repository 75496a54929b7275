//! The distributed Bellman–Ford baseline (Section 1.1 of the paper): per
//! round every node relaxes its incident edges, so after `n − 1` rounds every
//! estimate is exact — at the cost of `Θ(mn)` messages in the worst case and
//! up to `Θ(n)` messages over a single edge.
//!
//! Every node is awake until the globally known round `n + 2`, but a node
//! whose neighbours have gone quiet has nothing to relax: it waits for the
//! next improvement in [`NodeCtx::listen_until`], charged and receptive as if
//! it were stepped through every round.

use congest_graph::{Distance, Graph, NodeId};
use congest_sim::{Engine, Message, NodeCtx, Protocol};

use crate::result::{distances_of, AlgoRun};
use crate::{AlgoConfig, AlgoError};

/// Per-node state of the Bellman–Ford protocol, over the graph `'g` of its
/// run.
#[derive(Debug, Clone)]
pub struct BellmanFordNode<'g> {
    /// The current (eventually exact) distance estimate.
    pub dist: Distance,
    is_source: bool,
    rounds_total: u64,
    /// The graph, read for the weight of the edge a message arrived on.
    graph: &'g Graph,
}

impl Protocol for BellmanFordNode<'_> {
    fn init(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.is_source {
            self.dist = Distance::ZERO;
            ctx.broadcast(&[0]);
        }
        ctx.listen_until(self.rounds_total + 1);
    }

    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Message]) {
        let mut improved = false;
        for msg in inbox {
            // The candidate is the sender's estimate plus the weight of the
            // edge the message arrived on.
            let cand = Distance::Finite(msg.word(0) + self.graph.edge(msg.edge).w);
            if cand < self.dist {
                self.dist = cand;
                improved = true;
            }
        }
        if improved {
            if let Some(d) = self.dist.finite() {
                ctx.broadcast(&[d]);
            }
        }
        // Estimates are exact after n - 1 relaxation rounds; everyone stops
        // at the globally known round n + 2. Until then only mail can change
        // anything.
        if ctx.round() > self.rounds_total {
            ctx.halt();
        } else {
            ctx.listen_until(self.rounds_total + 1);
        }
    }
}

/// Runs the distributed Bellman–Ford baseline from `sources` (checked by the
/// facade) and returns exact distances together with its (deliberately
/// large) complexity metrics.
///
/// # Errors
///
/// Returns an error if the simulation exceeds its round limit.
pub(crate) fn distributed_bellman_ford(
    g: &Graph,
    sources: &[NodeId],
    config: &AlgoConfig,
) -> Result<AlgoRun, AlgoError> {
    run_bellman_ford(g, sources, config, |node| node, |node| node.dist)
}

/// [`distributed_bellman_ford`] over any protocol built from a
/// [`BellmanFordNode`], so that the tests can put the always-stepped
/// reference through the same set-up.
fn run_bellman_ford<'g, P: Protocol>(
    g: &'g Graph,
    sources: &[NodeId],
    config: &AlgoConfig,
    protocol: impl Fn(BellmanFordNode<'g>) -> P,
    dist: impl Fn(&P) -> Distance,
) -> Result<AlgoRun, AlgoError> {
    let is_source: Vec<bool> = {
        let mut v = vec![false; g.node_count() as usize];
        for &s in sources {
            v[s.index()] = true;
        }
        v
    };
    let rounds_total = g.node_count() as u64 + 1;
    let mut sim = config.sim.clone();
    sim.max_rounds = sim.max_rounds.max(rounds_total.saturating_add(10));
    let run = Engine::new(g, sim).run(|id: NodeId| {
        protocol(BellmanFordNode {
            dist: Distance::Infinite,
            is_source: is_source[id.index()],
            rounds_total,
            graph: g,
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
    struct AlwaysStepped<'g>(BellmanFordNode<'g>);

    impl Protocol for AlwaysStepped<'_> {
        fn init(&mut self, ctx: &mut NodeCtx<'_>) {
            if self.0.is_source {
                self.0.dist = Distance::ZERO;
                ctx.broadcast(&[0]);
            }
        }

        fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Message]) {
            let node = &mut self.0;
            let mut improved = false;
            for msg in inbox {
                let cand = Distance::Finite(msg.word(0) + node.graph.edge(msg.edge).w);
                if cand < node.dist {
                    node.dist = cand;
                    improved = true;
                }
            }
            if improved {
                if let Some(d) = node.dist.finite() {
                    ctx.broadcast(&[d]);
                }
            }
            if ctx.round() > node.rounds_total {
                ctx.halt();
            }
        }
    }

    #[test]
    fn listening_changes_nothing_the_simulation_can_observe() {
        for (i, g) in test_graphs::weighted_workloads().iter().enumerate() {
            for cfg in test_graphs::configs() {
                for sources in [&[NodeId(0)][..], &[NodeId(0), NodeId(5)]] {
                    let fast = distributed_bellman_ford(g, sources, &cfg).unwrap();
                    let slow =
                        run_bellman_ford(g, sources, &cfg, AlwaysStepped, |s| s.0.dist).unwrap();
                    // Full AlgoRun equality: distances and every metrics
                    // field (per-node energy included).
                    assert_eq!(fast, slow, "workload {i}");
                }
            }
        }
    }

    #[test]
    fn bellman_ford_matches_dijkstra() {
        let cfg = AlgoConfig::default();
        for seed in 0..3 {
            let g = generators::with_random_weights(
                &generators::random_connected(30, 60, seed),
                9,
                seed,
            );
            let run = distributed_bellman_ford(&g, &[NodeId(0)], &cfg).unwrap();
            let truth = sequential::dijkstra(&g, &[NodeId(0)]);
            for v in g.nodes() {
                assert_eq!(run.output.distance(v), truth.distance(v));
            }
        }
    }

    #[test]
    fn time_and_energy_are_linear_in_n() {
        let n = 64u32;
        let g = generators::path(n, 1);
        let cfg = AlgoConfig::default();
        let run = distributed_bellman_ford(&g, &[NodeId(0)], &cfg).unwrap();
        // Time is Θ(n) regardless of the diameter being n - 1.
        assert!(run.metrics.rounds >= n as u64);
        // Every node is awake the whole time: energy Θ(n).
        assert!(run.metrics.max_energy() >= n as u64);
    }

    #[test]
    fn message_complexity_is_large_on_dense_graphs() {
        let cfg = AlgoConfig::default();
        let g = generators::with_random_weights(&generators::complete(24, 1), 50, 3);
        let run = distributed_bellman_ford(&g, &[NodeId(0)], &cfg).unwrap();
        // Many improvement waves per node: messages well above m.
        assert!(run.metrics.messages > g.edge_count() as u64);
    }

    #[test]
    fn multi_source_bellman_ford() {
        let cfg = AlgoConfig::default();
        let g = generators::with_random_weights(&generators::grid(5, 5, 1), 4, 2);
        let sources = [NodeId(0), NodeId(24)];
        let run = distributed_bellman_ford(&g, &sources, &cfg).unwrap();
        let truth = sequential::dijkstra(&g, &sources);
        assert_eq!(run.output.distances, truth.distances);
    }
}
