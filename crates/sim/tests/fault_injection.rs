//! Behavioural tests of the fault-injection layer (`docs/FAULT_MODEL.md`):
//! drop accounting — a dropped message is sent but never delivered, counted
//! apart from the sleeping model's losses — and a plan that drops nothing
//! changing nothing. Every scenario runs through *both* engines and must
//! agree bit for bit.

use congest_graph::{generators, Graph, NodeId};
use congest_sim::workloads::Flood;
use congest_sim::{Engine, FaultPlan, Message, Metrics, NodeCtx, Protocol, SimConfig};

/// Runs `factory` under `cfg` through both engines, asserts metric and
/// final-state equality (states by their `Debug` rendering: what each node
/// received is part of it), and returns the active-set outcome.
fn run_both<P, F>(g: &Graph, cfg: SimConfig, factory: F) -> (Vec<P>, Metrics)
where
    P: Protocol + Clone + std::fmt::Debug,
    F: Fn(NodeId) -> P + Copy,
{
    let fast = Engine::new(g, cfg.clone()).run(factory).expect("active-set run");
    let slow = Engine::new(g, cfg).run_reference(factory).expect("reference run");
    assert_eq!(fast.metrics, slow.metrics, "metrics must be identical across engines");
    assert_eq!(
        format!("{:?}", fast.states),
        format!("{:?}", slow.states),
        "final states must be identical across engines"
    );
    (fast.states, fast.metrics)
}

/// Node 0 broadcasts its round number every round; everyone else counts what
/// arrives. All nodes halt unconditionally after `until`.
#[derive(Debug, Clone)]
struct Broadcaster {
    is_sender: bool,
    until: u64,
    got: u64,
}

impl Protocol for Broadcaster {
    fn init(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.is_sender {
            ctx.broadcast(&[ctx.round()]);
        }
    }
    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Message]) {
        self.got += inbox.len() as u64;
        if ctx.round() >= self.until {
            ctx.halt();
        } else if self.is_sender {
            ctx.broadcast(&[ctx.round()]);
        }
    }
}

/// [`Flood`] plus a count of the messages this node received, so a faulty
/// run's delivery ratio is measurable directly
/// (`Σ received = messages − messages_lost − fault_drops`).
#[derive(Debug, Clone)]
struct CountingFlood {
    flood: Flood,
    received: u64,
}

impl CountingFlood {
    fn new(id: NodeId, until: u64) -> CountingFlood {
        CountingFlood { flood: Flood::new(id, until), received: 0 }
    }
}

impl Protocol for CountingFlood {
    fn init(&mut self, ctx: &mut NodeCtx<'_>) {
        self.flood.init(ctx);
    }
    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Message]) {
        self.received += inbox.len() as u64;
        self.flood.on_round(ctx, inbox);
    }
}

#[test]
fn certain_drop_loses_every_message_and_counts_it() {
    let g = generators::random_connected(10, 15, 3);
    let cfg =
        SimConfig::default().with_faults(FaultPlan::none().with_seed(8).with_drop_ppm(1_000_000));
    let (states, metrics) = run_both(&g, cfg, |id| CountingFlood::new(id, 6));
    assert!(metrics.messages > 0);
    assert_eq!(metrics.fault_drops, metrics.messages, "ppm 1_000_000 drops everything");
    assert_eq!(metrics.messages_lost, 0, "nothing survives to be slept away");
    assert!(states.iter().all(|s| s.received == 0));
}

#[test]
fn engines_agree_under_drops_on_a_message_heavy_workload() {
    // Drops on the full-bandwidth flood: both engines must apply the
    // identical drop schedule, and every message is delivered, slept away or
    // dropped.
    let g = generators::random_connected(64, 128, 29);
    let plan = FaultPlan::none().with_seed(0xC4A0_5EED).with_drop_ppm(150_000);
    let cfg = SimConfig::default().with_faults(plan);
    let (states, metrics) = run_both(&g, cfg, |id| CountingFlood::new(id, 48));
    assert!(metrics.fault_drops > 0, "the chaos plan must actually inject faults");
    let received: u64 = states.iter().map(|s| s.received).sum();
    assert_eq!(received, metrics.messages - metrics.messages_lost - metrics.fault_drops);
}

#[test]
fn a_message_undeliverable_at_termination_is_lost_unless_dropped() {
    // Both endpoints halt in round 0, right after node 0 sends: a message
    // the plan keeps is in flight and can never be delivered, so it counts
    // as lost; one the plan drops counts as dropped, and not as lost too.
    #[derive(Debug, Clone)]
    struct SendAndQuit {
        is_sender: bool,
    }
    impl Protocol for SendAndQuit {
        fn init(&mut self, ctx: &mut NodeCtx<'_>) {
            if self.is_sender {
                ctx.broadcast(&[1]);
            }
            ctx.halt();
        }
        fn on_round(&mut self, _ctx: &mut NodeCtx<'_>, _inbox: &[Message]) {}
    }
    let g = generators::path(2, 1);
    let mut dropped = 0;
    for seed in 0..8 {
        let plan = FaultPlan::none().with_seed(seed).with_drop_ppm(500_000);
        let cfg = SimConfig::default().with_faults(plan);
        let (_, metrics) = run_both(&g, cfg, |id| SendAndQuit { is_sender: id == NodeId(0) });
        assert_eq!(metrics.rounds, 1);
        assert_eq!(metrics.messages, 1);
        assert_eq!(metrics.messages_lost + metrics.fault_drops, 1, "seed {seed}");
        dropped += metrics.fault_drops;
    }
    assert!(dropped > 0 && dropped < 8, "some of the eight sends are dropped, some kept");
}

#[test]
fn fault_free_plan_with_seed_changes_nothing() {
    // A plan that sets only the seed takes the fault-free fast path: the
    // metrics (including zeroed fault counters) match a run with no plan.
    let g = generators::random_connected(16, 24, 11);
    let baseline = Engine::new(&g, SimConfig::default())
        .run(|id| Broadcaster { is_sender: id == NodeId(0), until: 10, got: 0 })
        .unwrap();
    let seeded_cfg = SimConfig::default().with_faults(FaultPlan::none().with_seed(123));
    let (states, metrics) = run_both(&g, seeded_cfg, |id| Broadcaster {
        is_sender: id == NodeId(0),
        until: 10,
        got: 0,
    });
    assert_eq!(metrics, baseline.metrics);
    assert_eq!(metrics.fault_drops, 0);
    for (a, b) in states.iter().zip(&baseline.states) {
        assert_eq!(a.got, b.got);
    }
}
