//! The chaos campaign: differential and liveness testing under randomized
//! fault plans.
//!
//! Random graphs × random protocols × random `FaultPlan`s (drop rates up to
//! 40%) run through both engines, which must stay indistinguishable —
//! identical metrics (including the fault counter) and state digests, and
//! identical *errors* when the round limit trips. A second property pins the termination safety
//! net of the round limit: no fault plan, however hostile, may wedge the
//! simulator — a protocol that never halts still comes back as
//! `RoundLimitExceeded`, and one that halts on a schedule still halts.
//!
//! Listening nodes ([`congest_sim::NodeCtx::listen_until`]) meet the same
//! plans: the fast engine wakes a listener off the stream the drop pass
//! left, so a dropped message that would have ended a wait is exactly where
//! it could drift from the reference.

mod common;

use congest_graph::{generators, Graph, NodeId};
use congest_sim::{Engine, FaultPlan, Message, NodeCtx, Protocol, SimConfig, Words};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use common::ChaosListener;

/// A deterministic pseudo-random protocol (the same shape as the one in
/// `engine_equivalence.rs`): random sends within the CONGEST bound — one
/// broadcast, or at most one message per edge —, sleeps and halts, folding
/// every observation into a digest so any delivery divergence surfaces as a
/// state mismatch.
#[derive(Debug, Clone)]
struct ChaosNode {
    rng: ChaCha8Rng,
    lifetime: u64,
    digest: u64,
}

impl ChaosNode {
    fn new(seed: u64, id: NodeId) -> ChaosNode {
        let mut rng = ChaCha8Rng::seed_from_u64(
            seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(id.0 as u64 + 1)),
        );
        let lifetime = rng.gen_range(3u64..32);
        ChaosNode { rng, lifetime, digest: seed }
    }

    /// A payload of 1 to 4 words: up to the inline capacity.
    fn payload(&mut self) -> Vec<u64> {
        let len = self.rng.gen_range(1..=Words::CAPACITY);
        (0..len).map(|_| self.digest ^ self.rng.gen_range(0u64..1_000_000)).collect()
    }

    fn act(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.rng.gen_range(0u32..100) < 30 {
            let words = self.payload();
            ctx.broadcast(&words);
        } else {
            let neighbors: Vec<_> = ctx.neighbors().to_vec();
            for adj in &neighbors {
                if self.rng.gen_range(0u32..100) < 40 {
                    let words = self.payload();
                    ctx.send_on_edge(adj.edge, &words);
                }
            }
        }
        if ctx.round() >= self.lifetime {
            ctx.halt();
        } else if self.rng.gen_range(0u32..100) < 35 {
            ctx.sleep_until(ctx.round() + self.rng.gen_range(1u64..7) + 1);
        }
    }
}

impl Protocol for ChaosNode {
    fn init(&mut self, ctx: &mut NodeCtx<'_>) {
        self.act(ctx);
    }

    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Message]) {
        for msg in inbox {
            self.digest = self
                .digest
                .wrapping_mul(0x100_0000_01b3)
                .wrapping_add(msg.from.0 as u64)
                .wrapping_add((msg.edge.0 as u64) << 17)
                .wrapping_add(ctx.round() << 34);
            for &w in &msg.words {
                self.digest = self.digest.rotate_left(13) ^ w;
            }
        }
        self.act(ctx);
    }
}

/// Runs the chaos protocol under the plan through both engines and asserts
/// they are indistinguishable — on success *and* on error.
fn assert_engines_equivalent_under_faults(g: &Graph, cfg: SimConfig, seed: u64) {
    assert_equivalent_under_faults(g, cfg, seed, |id| ChaosNode::new(seed, id), |s| s.digest);
}

/// The same for the listening chaos protocol.
fn assert_listeners_equivalent_under_faults(g: &Graph, cfg: SimConfig, seed: u64) {
    let node = |id| ChaosListener::new(seed, id, 100, 40);
    assert_equivalent_under_faults(g, cfg, seed, node, |s| (s.digest, s.calls));
}

/// Runs one protocol under the plan through both engines; `key` reads the
/// part of a final state the comparison is on.
fn assert_equivalent_under_faults<P, K>(
    g: &Graph,
    cfg: SimConfig,
    seed: u64,
    node: impl Fn(NodeId) -> P,
    key: impl Fn(&P) -> K,
) where
    P: Protocol + std::fmt::Debug,
    K: PartialEq + std::fmt::Debug,
{
    let fast = Engine::new(g, cfg.clone()).run(&node);
    let slow = Engine::new(g, cfg).run_reference(&node);
    match (fast, slow) {
        (Ok(fast), Ok(slow)) => {
            assert_eq!(fast.metrics, slow.metrics, "metrics diverged (seed {seed})");
            let fd: Vec<K> = fast.states.iter().map(&key).collect();
            let sd: Vec<K> = slow.states.iter().map(&key).collect();
            assert_eq!(fd, sd, "final states diverged (seed {seed})");
        }
        (Err(fast), Err(slow)) => {
            assert_eq!(fast, slow, "errors diverged (seed {seed})");
        }
        (fast, slow) => panic!("one engine failed: fast={fast:?} slow={slow:?} (seed {seed})"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The differential harness extends to faulty runs: both engines apply
    /// the identical fault schedule.
    #[test]
    fn engines_are_equivalent_under_random_fault_plans(
        n in 2u32..24,
        extra in 0u64..30,
        graph_seed in 0u64..1_000_000,
        protocol_seed in 0u64..1_000_000,
        plan_seed in 0u64..1_000_000,
        drop_ppm in 0u32..400_000,
    ) {
        let g = generators::random_connected(n, extra, graph_seed);
        let plan = FaultPlan::none().with_seed(plan_seed).with_drop_ppm(drop_ppm);
        let cfg = SimConfig::default().with_faults(plan);
        assert_engines_equivalent_under_faults(&g, cfg, protocol_seed);
    }

    /// Listeners under the same plans: drops take away mail that would have
    /// ended a wait early.
    #[test]
    fn listeners_are_equivalent_under_random_fault_plans(
        n in 2u32..24,
        extra in 0u64..30,
        graph_seed in 0u64..1_000_000,
        protocol_seed in 0u64..1_000_000,
        plan_seed in 0u64..1_000_000,
        drop_ppm in 0u32..400_000,
    ) {
        let g = generators::random_connected(n, extra, graph_seed);
        let plan = FaultPlan::none().with_seed(plan_seed).with_drop_ppm(drop_ppm);
        let cfg = SimConfig::default().with_faults(plan);
        assert_listeners_equivalent_under_faults(&g, cfg, protocol_seed);
    }

    /// The killer-family topologies (see `docs/SEQ_BASELINES.md`) built to
    /// break sequential heap disciplines also serve as adversarial fault
    /// substrates: dense decrease-key storms, shortcut-laden paths, and
    /// spiral grids all replay identically through both engines under
    /// random fault plans.
    #[test]
    fn engines_are_equivalent_on_killer_topologies_under_faults(
        family in 0usize..4,
        size in 3u32..10,
        protocol_seed in 0u64..1_000_000,
        plan_seed in 0u64..1_000_000,
        drop_ppm in 0u32..400_000,
    ) {
        let g = match family {
            0 => generators::wrong_dijkstra_killer(size.max(4)),
            1 => generators::spfa_killer(size),
            2 => generators::grid_swirl(size.min(5)),
            _ => generators::almost_line(2 * size, plan_seed),
        };
        let plan = FaultPlan::none().with_seed(plan_seed).with_drop_ppm(drop_ppm);
        let cfg = SimConfig::default().with_faults(plan);
        assert_engines_equivalent_under_faults(&g, cfg, protocol_seed);
    }

    /// Determinism: the same plan replays the identical execution.
    #[test]
    fn the_same_plan_replays_bit_identically(
        protocol_seed in 0u64..1_000_000,
        plan_seed in 0u64..1_000_000,
        drop_ppm in 1u32..300_000,
    ) {
        let g = generators::random_connected(12, 16, 71);
        let plan = FaultPlan::none().with_seed(plan_seed).with_drop_ppm(drop_ppm);
        let cfg = SimConfig::default().with_faults(plan);
        let a = Engine::new(&g, cfg.clone()).run(|id| ChaosNode::new(protocol_seed, id));
        let b = Engine::new(&g, cfg).run(|id| ChaosNode::new(protocol_seed, id));
        match (a, b) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.metrics, b.metrics);
                let ad: Vec<u64> = a.states.iter().map(|s| s.digest).collect();
                let bd: Vec<u64> = b.states.iter().map(|s| s.digest).collect();
                prop_assert_eq!(ad, bd);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "replay diverged: {a:?} vs {b:?}"),
        }
    }

    /// The termination safety net holds under faults: a protocol that never
    /// halts comes back as a round-limit error (never a hang), with both
    /// engines agreeing, whatever the plan drops.
    #[test]
    fn no_fault_plan_wedges_the_round_limit_safety_net(
        plan_seed in 0u64..1_000_000,
        drop_ppm in 0u32..1_000_001,
    ) {
        #[derive(Debug, Clone)]
        struct ImmortalTalker;
        impl Protocol for ImmortalTalker {
            fn init(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.broadcast(&[1]);
            }
            fn on_round(&mut self, ctx: &mut NodeCtx<'_>, _inbox: &[Message]) {
                ctx.broadcast(&[ctx.round()]);
            }
        }
        let g = generators::random_connected(8, 10, 5);
        let plan = FaultPlan::none().with_seed(plan_seed).with_drop_ppm(drop_ppm);
        let cfg = SimConfig { max_rounds: 120, faults: plan };
        let fast = Engine::new(&g, cfg.clone()).run(|_| ImmortalTalker);
        let slow = Engine::new(&g, cfg).run_reference(|_| ImmortalTalker);
        let limit = congest_sim::SimError::RoundLimitExceeded { limit: 120, unhalted_nodes: 8 };
        prop_assert_eq!(fast.expect_err("an immortal protocol never halts"), limit.clone());
        prop_assert_eq!(slow.expect_err("on the reference either"), limit);
    }
}

/// A scheduled (self-halting) workload terminates under *any* loss rate —
/// the graceful half of the degradation story, pinned at the extremes.
#[test]
fn scheduled_workloads_always_terminate_under_total_loss() {
    use congest_sim::workloads::WaveBfs;
    let g = generators::grid(5, 4, 1);
    let n = g.node_count() as u64;
    let truth = congest_graph::sequential::bfs(&g, &[NodeId(0)]);
    let sched = WaveBfs::schedule(&g, &[NodeId(0)]);
    for drop_ppm in [250_000u32, 1_000_000] {
        let cfg = SimConfig::default()
            .with_faults(FaultPlan::none().with_seed(17).with_drop_ppm(drop_ppm));
        // Each node wakes once, by its hop distance, and halts.
        let wave = Engine::new(&g, cfg.clone())
            .run(|id| WaveBfs::new(sched[id.index()]))
            .expect("the wave always halts");
        assert!(wave.metrics.rounds <= n);
        for v in g.nodes() {
            // Loss leaves a node uninformed, never wrong.
            let dist = wave.states[v.index()].dist;
            assert!(dist.is_infinite() || dist == truth.distance(v), "node {v} at {drop_ppm}");
        }
        // Each node halts in its first step at or after its lifetime (≤ 100),
        // and no wait is longer than 40 rounds.
        let listeners = Engine::new(&g, cfg)
            .run(|id| ChaosListener::new(17, id, 100, 40))
            .expect("listeners always halt");
        assert!(listeners.metrics.rounds <= 100 + 40 + 1);
    }
}
