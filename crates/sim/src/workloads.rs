//! The two workloads the perf ledger drives the engine with (`benchmark/`).
//!
//! The paper's low-energy algorithms keep almost every node asleep in almost
//! every round; [`WaveBfs`] distills that cost profile into a small,
//! self-contained state machine the perf ledger can drive at large `n`
//! (workload `engine-wave`): a BFS wavefront under a *perfect*
//! wake schedule, where each node wakes exactly once, in the round its
//! distance arrives. This is the ideal limit of the paper's
//! cluster-activation schedules (Section 3): `O(1)` energy per node, `D`
//! rounds, and per-round awake work equal to one BFS level.
//!
//! [`Flood`] stresses the *message fabric* rather than the sleep scheduler
//! (workload `engine-flood`): every node is awake every round,
//! broadcasts one word and folds its whole inbox, saturating every edge in
//! both directions every round — the maximal per-round message volume the
//! CONGEST model permits — so an engine can only win by moving
//! messages cheaply.
//!
//! Both halt on their own schedule, so a fault plan ([`crate::FaultPlan`])
//! cannot keep them from ending: it only takes mail away.

use congest_graph::{Distance, Graph, NodeId};

use crate::{Message, NodeCtx, Protocol};

/// BFS under a precomputed perfect wake schedule.
///
/// Node `v` sleeps until the round equal to its hop distance `d(v)`, receives
/// the wavefront from a distance-`d(v) − 1` neighbour (such a neighbour
/// always exists and announced in round `d(v) − 1`), announces its own
/// distance once, and halts. Messages to same- or smaller-distance
/// neighbours land on halted nodes and are lost — the engine's
/// `messages_lost` counter records exactly those. Under a fault plan a node
/// whose wavefront messages are all dropped keeps [`Distance::Infinite`].
#[derive(Debug, Clone)]
pub struct WaveBfs {
    /// The wake round of this node (its hop distance), or `None` for
    /// unreachable nodes, which halt immediately.
    wake: Option<u64>,
    /// The distance this node computed (the protocol's output).
    pub dist: Distance,
}

impl WaveBfs {
    /// The perfect wake schedule for a BFS from `sources` on `g`:
    /// `schedule[v] = Some(d(v))`, or `None` if `v` is unreachable.
    pub fn schedule(g: &Graph, sources: &[NodeId]) -> Vec<Option<u64>> {
        let truth = congest_graph::sequential::bfs(g, sources);
        g.nodes().map(|v| truth.distance(v).finite()).collect()
    }

    /// A node with the given wake round (an entry of [`WaveBfs::schedule`]).
    pub fn new(wake: Option<u64>) -> WaveBfs {
        WaveBfs { wake, dist: Distance::Infinite }
    }
}

impl Protocol for WaveBfs {
    fn init(&mut self, ctx: &mut NodeCtx<'_>) {
        match self.wake {
            Some(0) => {
                self.dist = Distance::ZERO;
                ctx.broadcast(&[0]);
                ctx.halt();
            }
            Some(w) => ctx.sleep_until(w),
            None => ctx.halt(),
        }
    }

    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Message]) {
        debug_assert_eq!(Some(ctx.round()), self.wake, "a node wakes exactly once");
        for msg in inbox {
            let cand = Distance::Finite(msg.word(0) + 1);
            if cand < self.dist {
                self.dist = cand;
            }
        }
        // Only the wavefront finds the node awake, so whatever arrives is
        // exact; a fault plan can take all of it away.
        debug_assert!(
            self.dist.is_infinite() || self.dist.finite() == self.wake,
            "the schedule is exact"
        );
        if let Some(d) = self.dist.finite() {
            ctx.broadcast(&[d]);
        }
        ctx.halt();
    }
}

/// Always-awake full-bandwidth flooding.
///
/// Every node starts from its id, and in every round folds the words it
/// received into a running accumulator and broadcasts the accumulator over
/// every incident edge. All nodes halt together after round `until`. Nothing
/// ever sleeps, so every round moves exactly `2m` messages (one per edge per
/// direction, the CONGEST maximum) — the densest message workload
/// the model allows, and therefore the ledger's `engine-flood` workload.
///
/// The accumulator depends on message *content and per-sender arrival
/// order*, so two engines only agree on the final states if their delivery
/// is bit-identical.
#[derive(Debug, Clone)]
pub struct Flood {
    until: u64,
    /// Running fold of everything received (the protocol's output).
    pub acc: u64,
}

impl Flood {
    /// A node of a flood that halts after round `until` (≥ 1).
    pub fn new(id: NodeId, until: u64) -> Flood {
        Flood { until, acc: 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(id.0 as u64 + 1) }
    }
}

impl Protocol for Flood {
    fn init(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.broadcast(&[self.acc]);
    }

    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Message]) {
        for msg in inbox {
            self.acc = self.acc.rotate_left(7) ^ msg.word(0);
        }
        if ctx.round() >= self.until {
            ctx.halt();
        } else {
            ctx.broadcast(&[self.acc]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, SimConfig};
    use congest_graph::{generators, sequential};

    #[test]
    fn wave_bfs_computes_distances_with_constant_energy() {
        let g = generators::random_connected(60, 90, 17);
        let sched = WaveBfs::schedule(&g, &[NodeId(0)]);
        let run = Engine::new(&g, SimConfig::default())
            .run(|id| WaveBfs::new(sched[id.index()]))
            .unwrap();
        let truth = sequential::bfs(&g, &[NodeId(0)]);
        for v in g.nodes() {
            assert_eq!(run.states[v.index()].dist, truth.distance(v), "node {v}");
        }
        // Each node is awake exactly twice: init and its wave round (sources
        // and unreachable nodes only once — they halt at init).
        assert!(run.metrics.max_energy() <= 2);
        // Exactly one message is delivered per tight edge (distance gap 1,
        // downhill endpoint to uphill endpoint); every other announcement
        // lands on a halted node and is counted as lost.
        let delivered = g
            .edges()
            .iter()
            .filter(|e| {
                matches!(
                    (truth.distance(e.u).finite(), truth.distance(e.v).finite()),
                    (Some(a), Some(b)) if a.abs_diff(b) == 1
                )
            })
            .count() as u64;
        assert_eq!(run.metrics.messages_lost, run.metrics.messages - delivered);
    }

    #[test]
    fn wave_bfs_handles_unreachable_components() {
        let g = generators::disjoint_copies(&generators::path(5, 1), 2);
        let sched = WaveBfs::schedule(&g, &[NodeId(0)]);
        let run = Engine::new(&g, SimConfig::default())
            .run(|id| WaveBfs::new(sched[id.index()]))
            .unwrap();
        for v in 5..10 {
            assert!(run.states[v].dist.is_infinite());
            assert_eq!(run.metrics.node_energy[v], 1, "unreachable nodes halt at init");
        }
    }

    #[test]
    fn wave_bfs_agrees_across_engines() {
        let g = generators::grid(6, 6, 1);
        let sched = WaveBfs::schedule(&g, &[NodeId(0)]);
        let cfg = SimConfig::default();
        let fast = Engine::new(&g, cfg.clone()).run(|id| WaveBfs::new(sched[id.index()])).unwrap();
        let slow =
            Engine::new(&g, cfg).run_reference(|id| WaveBfs::new(sched[id.index()])).unwrap();
        assert_eq!(fast.metrics, slow.metrics);
    }

    #[test]
    fn flood_saturates_every_edge_every_round() {
        let g = generators::random_connected(24, 40, 3);
        let until = 10u64;
        let run = Engine::new(&g, SimConfig::default()).run(|id| Flood::new(id, until)).unwrap();
        // Rounds 0..until broadcast 2m messages each; round `until` only
        // folds and halts, so the final wave still finds everyone awake.
        assert_eq!(run.metrics.rounds, until + 1);
        assert_eq!(run.metrics.messages, 2 * g.edge_count() as u64 * until);
        assert_eq!(run.metrics.messages_lost, 0);
        assert_eq!(run.metrics.max_energy(), until + 1);
    }

    #[test]
    fn message_fabric_workloads_agree_across_engines() {
        let cfg = SimConfig::default();
        let g = generators::random_connected(20, 35, 9);
        let fast = Engine::new(&g, cfg.clone()).run(|id| Flood::new(id, 12)).unwrap();
        let slow = Engine::new(&g, cfg.clone()).run_reference(|id| Flood::new(id, 12)).unwrap();
        assert_eq!(fast.metrics, slow.metrics);
        let fa: Vec<u64> = fast.states.iter().map(|s| s.acc).collect();
        let sa: Vec<u64> = slow.states.iter().map(|s| s.acc).collect();
        assert_eq!(fa, sa, "flood folds must be bit-identical");

        // A hub of degree n − 1: its inbox is the whole graph's traffic.
        let g = generators::star(12, 1);
        let fast = Engine::new(&g, cfg.clone()).run(|id| Flood::new(id, 8)).unwrap();
        let slow = Engine::new(&g, cfg).run_reference(|id| Flood::new(id, 8)).unwrap();
        assert_eq!(fast.metrics, slow.metrics);
        let fa: Vec<u64> = fast.states.iter().map(|s| s.acc).collect();
        let sa: Vec<u64> = slow.states.iter().map(|s| s.acc).collect();
        assert_eq!(fa, sa, "star flood folds must be bit-identical");
    }
}
