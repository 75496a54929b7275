//! The chaos campaign: differential and liveness testing under randomized
//! fault plans.
//!
//! Random graphs × random protocols × random `FaultPlan`s (drop rates up to
//! 40%, jitter up to 4 rounds, random crash/restart churn) run through both
//! engines, which must stay indistinguishable — identical metrics (including
//! the fault counters), traces, and state digests, and identical *errors*
//! when the round limit trips. A second property pins the termination safety
//! net of the round limit: no fault plan, however hostile, may wedge the
//! simulator — a protocol that never halts still comes back as
//! `RoundLimitExceeded`, and one that halts on a schedule still halts.
//!
//! Listening nodes ([`congest_sim::NodeCtx::listen_until`]) meet the same
//! plans: the fast engine settles a listener's idle rounds lazily, so a
//! crash, a restart, or a jittered delivery that lands in the middle of a
//! wait is exactly where it could drift from the reference.

use congest_graph::{generators, Graph, NodeId};
use congest_sim::workloads::ChaosListener;
use congest_sim::{Engine, FaultPlan, Message, NodeCtx, Protocol, SimConfig};
use proptest::prelude::*;
use rand::{splitmix64, Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A deterministic pseudo-random protocol (the same shape as the one in
/// `engine_equivalence.rs`): random sends, sleeps, and halts, folding every
/// observation into a digest so any delivery divergence surfaces as a state
/// mismatch.
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

    fn act(&mut self, ctx: &mut NodeCtx<'_>) {
        let neighbors: Vec<_> = ctx.neighbors().to_vec();
        for adj in &neighbors {
            if self.rng.gen_range(0u32..100) < 40 {
                let word = self.digest ^ self.rng.gen_range(0u64..1_000_000);
                ctx.send_on_edge(adj.edge, &[word]);
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

/// Expands a few scalar knobs into a fault plan with `crash_count` random
/// crash/restart events (the vendored proptest has no `Vec` strategy, so the
/// event list is derived deterministically from `churn_seed`).
fn build_plan(
    n: u32,
    seed: u64,
    drop_ppm: u32,
    max_skew: u64,
    crash_count: u32,
    churn_seed: u64,
) -> FaultPlan {
    let mut plan =
        FaultPlan::none().with_seed(seed).with_drop_ppm(drop_ppm).with_max_skew(max_skew);
    let mut s = churn_seed;
    for _ in 0..crash_count {
        let node = NodeId((splitmix64(&mut s) % n as u64) as u32);
        let at_round = splitmix64(&mut s) % 24;
        let restart_at = if splitmix64(&mut s) % 3 == 0 {
            None
        } else {
            Some(at_round + 1 + splitmix64(&mut s) % 10)
        };
        plan = plan.with_crash(node, at_round, restart_at);
    }
    plan
}

/// Runs the chaos protocol under the plan through both engines and asserts
/// they are indistinguishable — on success *and* on error.
fn assert_engines_equivalent_under_faults(g: &Graph, cfg: SimConfig, seed: u64) {
    assert_equivalent_under_faults(g, cfg, seed, |id| ChaosNode::new(seed, id), |s| s.digest);
}

/// The same for the listening chaos protocol, whose lifetimes outlast the
/// plans' crash rounds (< 24) and restarts (< 34).
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
            assert_eq!(fast.trace, slow.trace, "edge traces diverged (seed {seed})");
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
        max_skew in 0u64..4,
        crash_count in 0u32..5,
        churn_seed in 0u64..1_000_000,
    ) {
        let g = generators::random_connected(n, extra, graph_seed);
        let plan = build_plan(n, plan_seed, drop_ppm, max_skew, crash_count, churn_seed);
        let cfg = SimConfig {
            strict_capacity: false,
            record_edge_trace: true,
            faults: plan,
            ..SimConfig::default()
        };
        assert_engines_equivalent_under_faults(&g, cfg, protocol_seed);
    }

    /// Listeners under the same plans: crashes and restarts land in the
    /// middle of waits, and jittered messages end them early.
    #[test]
    fn listeners_are_equivalent_under_random_fault_plans(
        n in 2u32..24,
        extra in 0u64..30,
        graph_seed in 0u64..1_000_000,
        protocol_seed in 0u64..1_000_000,
        plan_seed in 0u64..1_000_000,
        drop_ppm in 0u32..400_000,
        max_skew in 0u64..4,
        crash_count in 0u32..5,
        churn_seed in 0u64..1_000_000,
    ) {
        let g = generators::random_connected(n, extra, graph_seed);
        let plan = build_plan(n, plan_seed, drop_ppm, max_skew, crash_count, churn_seed);
        let cfg = SimConfig {
            strict_capacity: false,
            record_edge_trace: true,
            faults: plan,
            ..SimConfig::default()
        };
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
        max_skew in 0u64..4,
        crash_count in 0u32..5,
        churn_seed in 0u64..1_000_000,
    ) {
        let g = match family {
            0 => generators::wrong_dijkstra_killer(size.max(4)),
            1 => generators::spfa_killer(size),
            2 => generators::grid_swirl(size.min(5)),
            _ => generators::almost_line(2 * size, plan_seed),
        };
        let plan =
            build_plan(g.node_count(), plan_seed, drop_ppm, max_skew, crash_count, churn_seed);
        let cfg = SimConfig {
            strict_capacity: false,
            record_edge_trace: true,
            faults: plan,
            ..SimConfig::default()
        };
        assert_engines_equivalent_under_faults(&g, cfg, protocol_seed);
    }

    /// Determinism: the same plan replays the identical execution.
    #[test]
    fn the_same_plan_replays_bit_identically(
        protocol_seed in 0u64..1_000_000,
        plan_seed in 0u64..1_000_000,
        drop_ppm in 1u32..300_000,
        max_skew in 0u64..4,
        churn_seed in 0u64..1_000_000,
    ) {
        let g = generators::random_connected(12, 16, 71);
        let plan = build_plan(12, plan_seed, drop_ppm, max_skew, 2, churn_seed);
        let cfg = SimConfig { strict_capacity: false, faults: plan, ..SimConfig::default() };
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
    /// engines agreeing, whatever the plan does.
    #[test]
    fn no_fault_plan_wedges_the_round_limit_safety_net(
        plan_seed in 0u64..1_000_000,
        drop_ppm in 0u32..1_000_001,
        max_skew in 0u64..6,
        crash_count in 0u32..8,
        churn_seed in 0u64..1_000_000,
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
        let plan = build_plan(8, plan_seed, drop_ppm, max_skew, crash_count, churn_seed);
        let all_permanent = plan.crashes.iter().filter(|c| c.restart_at.is_none()).count();
        let cfg = SimConfig {
            max_rounds: 120,
            strict_capacity: false,
            faults: plan,
            ..SimConfig::default()
        };
        let fast = Engine::new(&g, cfg.clone()).run(|_| ImmortalTalker);
        let slow = Engine::new(&g, cfg).run_reference(|_| ImmortalTalker);
        match (&fast, &slow) {
            (Ok(f), Ok(s)) => {
                // Only a crash-everything plan can terminate an immortal
                // protocol early.
                prop_assert!(all_permanent > 0, "terminated without permanent crashes");
                prop_assert_eq!(&f.metrics, &s.metrics);
                prop_assert!(f.metrics.rounds <= 121);
            }
            (Err(f), Err(s)) => {
                prop_assert_eq!(f, s);
                prop_assert!(
                    matches!(f, congest_sim::SimError::RoundLimitExceeded { .. }),
                    "unexpected error under faults: {f:?}"
                );
            }
            _ => prop_assert!(false, "engines disagreed on liveness: {fast:?} vs {slow:?}"),
        }
    }
}

/// A relay over `path(3)`: node 0 sends in the rounds it is told to, nodes 1
/// and 2 listen to round 40 and note every round they are called back in.
#[derive(Debug, Clone)]
struct Listener {
    send_in: &'static [u64],
    called_in: Vec<u64>,
    heard: u64,
}

impl Protocol for Listener {
    fn init(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.listen_until(if self.send_in.is_empty() { 40 } else { self.send_in[0] });
    }
    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Message]) {
        let round = ctx.round();
        self.called_in.push(round);
        self.heard += inbox.len() as u64;
        if self.send_in.contains(&round) {
            ctx.broadcast(&[round]);
        }
        match self.send_in.iter().find(|&&r| r > round) {
            Some(&next) => ctx.listen_until(next),
            None if round >= 40 => ctx.halt(),
            None => ctx.listen_until(40),
        }
    }
}

fn run_listeners(plan: FaultPlan) -> [congest_sim::RunOutcome<Listener>; 2] {
    let g = generators::path(3, 1);
    let node = |id: NodeId| Listener {
        send_in: if id == NodeId(0) { &[5, 12, 30] } else { &[] },
        called_in: Vec::new(),
        heard: 0,
    };
    let cfg = SimConfig::default().with_faults(plan);
    let fast = Engine::new(&g, cfg.clone()).run(node).expect("listeners halt at round 40");
    let slow = Engine::new(&g, cfg).run_reference(node).expect("listeners halt at round 40");
    assert_eq!(fast.metrics, slow.metrics);
    for (f, s) in fast.states.iter().zip(&slow.states) {
        assert_eq!((&f.called_in, f.heard), (&s.called_in, s.heard));
    }
    [fast, slow]
}

/// A listener that crashes mid-wait is charged through the round before the
/// crash, hears nothing while down, and after its restart (fresh state,
/// `init` again) listens and is charged anew.
#[test]
fn a_listener_crashed_and_restarted_mid_wait_pays_for_exactly_the_rounds_it_was_up() {
    let [clean, _] = run_listeners(FaultPlan::none());
    assert_eq!(clean.states[1].called_in, [6, 13, 31, 40]);
    assert_eq!(clean.metrics.node_energy, [41, 41, 41]);

    // Down over rounds 10..20: the round-13 delivery is a fault drop.
    let [run, _] = run_listeners(FaultPlan::none().with_crash(NodeId(1), 10, Some(20)));
    assert_eq!(run.states[1].called_in, [31, 40], "the restarted state starts from scratch");
    assert_eq!(run.states[1].heard, 1);
    assert_eq!(run.metrics.fault_drops, 1);
    assert_eq!(run.metrics.node_energy, [41, 10 + 21, 41], "rounds 0..=9 and 20..=40");

    // A permanent crash in the middle of the last wait: charged 0..=34, and
    // the run still ends when the others halt.
    let [run, _] = run_listeners(FaultPlan::none().with_crash(NodeId(1), 35, None));
    assert_eq!(run.states[1].called_in, [6, 13, 31]);
    assert_eq!(run.metrics.node_energy, [41, 35, 41]);

    // Overlapping windows restart a node that is up and listening: the wait
    // is cut at the restart round and charged up to it.
    let plan =
        FaultPlan::none().with_crash(NodeId(1), 8, Some(15)).with_crash(NodeId(1), 9, Some(25));
    let [run, _] = run_listeners(plan);
    assert_eq!(run.states[1].called_in, [31, 40]);
    assert_eq!(run.metrics.restarts, 2);
    assert_eq!(run.metrics.node_energy, [41, 8 + 26, 41], "rounds 0..=7 and 15..=40");
}

/// A delivery delayed by jitter ends a listener's wait in the round it
/// actually arrives in, in both engines.
#[test]
fn a_jittered_delivery_wakes_a_listener_in_its_arrival_round() {
    let [clean, _] = run_listeners(FaultPlan::none());
    let mut delayed = 0;
    for seed in 0..8 {
        let [run, _] = run_listeners(FaultPlan::none().with_seed(seed).with_max_skew(3));
        let called = &run.states[1].called_in;
        assert_eq!(called.len(), 4, "three deliveries and the deadline (seed {seed})");
        for (got, on_time) in called.iter().zip(&clean.states[1].called_in) {
            assert!((*on_time..=on_time + 3).contains(got), "seed {seed}: {called:?}");
        }
        assert_eq!(run.metrics.node_energy, [41, 41, 41], "jitter costs a listener nothing");
        delayed += run.metrics.fault_delays;
    }
    assert!(delayed > 0, "skew 3 over 8 seeds must delay something");
}

/// A scheduled (self-halting) workload terminates under *any* loss rate —
/// the graceful half of the degradation story, pinned at the extremes.
#[test]
fn scheduled_workloads_always_terminate_under_total_loss() {
    use congest_sim::workloads::{ChaosPulseBfs, ChaosWaveBfs};
    let g = generators::grid(5, 4, 1);
    let n = g.node_count() as u64;
    for drop_ppm in [250_000u32, 1_000_000] {
        let plan = FaultPlan::none().with_seed(17).with_drop_ppm(drop_ppm).with_max_skew(2);
        let cfg = SimConfig::default().with_faults(plan);
        let skew = 2;
        let sched = ChaosWaveBfs::schedule(&g, &[NodeId(0)], skew);
        let wave = Engine::new(&g, cfg.clone())
            .run(|id| ChaosWaveBfs::new(sched[id.index()], skew))
            .expect("chaos wave always halts");
        assert!(wave.metrics.rounds <= (n + 1) * (skew + 1) + 2);
        let pulse = Engine::new(&g, cfg)
            .run(|id| ChaosPulseBfs::new(id == NodeId(0), 4, n))
            .expect("chaos pulse always halts");
        assert!(pulse.metrics.rounds <= (n + 2) * 4 + 2);
    }
}
