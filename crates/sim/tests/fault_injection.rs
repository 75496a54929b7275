//! Behavioural tests of the fault-injection layer: crash/restart semantics,
//! drop and jitter accounting, and the crash/restart edge cases named in the
//! fault model (`docs/FAULT_MODEL.md`) — a node crashing in the round it
//! would have sent, a restart re-running `init` on fresh state, and a
//! crash-everything plan still terminating promptly. Every scenario runs
//! through *both* engines and must agree bit for bit.

use congest_graph::{generators, Graph, NodeId};
use congest_sim::{Engine, FaultPlan, Message, Metrics, NodeCtx, Protocol, SimConfig};

/// Runs `factory` under `cfg` through both engines, asserts metric, trace and
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
    assert_eq!(fast.trace, slow.trace, "traces must be identical across engines");
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

#[test]
fn crash_in_the_send_round_suppresses_the_send() {
    // Node 0 would broadcast in rounds 0, 1, 2, ...; a permanent crash at
    // round 2 means the round-2 send never happens: the neighbour receives
    // exactly the two messages sent in rounds 0 and 1.
    let g = generators::path(2, 1);
    let cfg = SimConfig::default()
        .with_faults(FaultPlan::none().with_crash(NodeId(0), 2, None))
        .with_edge_trace(true);
    let (states, metrics) =
        run_both(&g, cfg, |id| Broadcaster { is_sender: id == NodeId(0), until: 6, got: 0 });
    assert_eq!(states[1].got, 2, "sends from rounds 0 and 1 only");
    assert_eq!(metrics.messages, 2, "the crash-round send never happened");
    assert_eq!(metrics.crashes, 1);
    assert_eq!(metrics.restarts, 0);
    assert_eq!(metrics.fault_drops, 0, "nothing was in flight toward the crashed node");
    // The crashed node was awake only in rounds 0 and 1.
    assert_eq!(metrics.node_energy[0], 2);
    assert_eq!(metrics.node_energy[1], 7);
}

#[test]
fn deliveries_to_a_crashed_node_are_fault_drops_not_sleep_losses() {
    // Node 1 (the receiver) crashes at round 2 and restarts at round 4: the
    // messages sent to it in rounds 1, 2 and 3 (arriving 2, 3, 4) split into
    // fault drops (arrivals 2 and 3, while down) and a delivery (arrival 4).
    let g = generators::path(2, 1);
    let cfg = SimConfig::default().with_faults(FaultPlan::none().with_crash(NodeId(1), 2, Some(4)));
    let (states, metrics) =
        run_both(&g, cfg, |id| Broadcaster { is_sender: id == NodeId(0), until: 5, got: 0 });
    // Sent rounds 0..=4 → 5 messages. Arrival 1 delivered, arrivals 2 and 3
    // dropped on the crashed node, arrival 4 delivered (the node restarts
    // that round, but the restart-round inbox goes to `init`, which ignores
    // it — the delivery itself still happens and counts as received energy-
    // wise; `got` is only folded by `on_round`, so it sees arrival 5 only).
    assert_eq!(metrics.messages, 5);
    assert_eq!(metrics.fault_drops, 2, "arrivals during the outage");
    assert_eq!(metrics.crashes, 1);
    assert_eq!(metrics.restarts, 1);
    // The restarted node's state is fresh: it only counted arrivals after its
    // restart round (round 5's arrival; round 4's went to `init`).
    assert_eq!(states[1].got, 1);
}

/// Records when `init` ran and every round in which the node was awake.
#[derive(Debug, Clone)]
struct Recorder {
    until: u64,
    init_round: Option<u64>,
    awake_rounds: Vec<u64>,
}

impl Protocol for Recorder {
    fn init(&mut self, ctx: &mut NodeCtx<'_>) {
        self.init_round = Some(ctx.round());
        self.awake_rounds.push(ctx.round());
    }
    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, _inbox: &[Message]) {
        self.awake_rounds.push(ctx.round());
        if ctx.round() >= self.until {
            ctx.halt();
        }
    }
}

#[test]
fn restart_reruns_init_on_fresh_state() {
    let g = generators::path(3, 1);
    let cfg = SimConfig::default().with_faults(FaultPlan::none().with_crash(NodeId(1), 2, Some(5)));
    let (states, metrics) =
        run_both(&g, cfg, |_| Recorder { until: 8, init_round: None, awake_rounds: Vec::new() });
    // The restarted node's state was re-created by the factory and its
    // `init` ran in the restart round — nothing of the pre-crash state
    // (init at round 0, awake rounds 0 and 1) survives.
    assert_eq!(states[1].init_round, Some(5), "init re-ran at the restart round");
    assert_eq!(states[1].awake_rounds, vec![5, 6, 7, 8], "no memory of pre-crash rounds");
    assert_eq!(states[0].init_round, Some(0));
    assert_eq!(states[0].awake_rounds, (0..=8).collect::<Vec<_>>());
    // Energy: the pre-crash rounds were charged to the old incarnation, the
    // outage (rounds 2-4) cost nothing, and the new incarnation pays from
    // its restart on: 2 + 4 awake rounds.
    assert_eq!(metrics.node_energy[1], 6);
    assert_eq!(metrics.crashes, 1);
    assert_eq!(metrics.restarts, 1);
}

#[test]
fn restart_can_revive_a_halted_node() {
    // A node that halted on its own is revived by a scheduled restart: churn
    // does not distinguish voluntary halts from crashes.
    let g = generators::path(2, 1);
    let cfg = SimConfig::default().with_faults(FaultPlan::none().with_crash(NodeId(1), 1, Some(4)));
    // Node 1 halts at init (round 0), before its crash window even starts.
    #[derive(Debug, Clone)]
    struct EarlyQuitter {
        init_round: Option<u64>,
        quits_early: bool,
    }
    impl Protocol for EarlyQuitter {
        fn init(&mut self, ctx: &mut NodeCtx<'_>) {
            self.init_round = Some(ctx.round());
            if self.quits_early {
                ctx.halt();
            }
        }
        fn on_round(&mut self, ctx: &mut NodeCtx<'_>, _inbox: &[Message]) {
            if ctx.round() >= 6 {
                ctx.halt();
            }
        }
    }
    let (states, metrics) =
        run_both(&g, cfg, |id| EarlyQuitter { init_round: None, quits_early: id == NodeId(1) });
    assert_eq!(states[1].init_round, Some(4), "the revived incarnation re-ran init");
    assert_eq!(metrics.crashes, 1);
    assert_eq!(metrics.restarts, 1);
}

/// A protocol that never halts on its own.
#[derive(Debug, Clone)]
struct Immortal;

impl Protocol for Immortal {
    fn init(&mut self, _ctx: &mut NodeCtx<'_>) {}
    fn on_round(&mut self, _ctx: &mut NodeCtx<'_>, _inbox: &[Message]) {}
}

#[test]
fn crash_everything_terminates_promptly() {
    // Permanently crashing every node halts the run the same round — even a
    // protocol that never halts terminates under a crash-everything plan,
    // well inside the round-limit safety net.
    let g = generators::random_connected(12, 20, 7);
    let mut plan = FaultPlan::none();
    for v in g.nodes() {
        plan = plan.with_crash(v, 4, None);
    }
    let cfg = SimConfig::default().with_faults(plan).with_max_rounds(1000);
    let (_, metrics) = run_both(&g, cfg, |_| Immortal);
    assert_eq!(metrics.rounds, 5, "the run ends in the crash round");
    assert_eq!(metrics.crashes, 12);
    // Nobody was awake after round 3.
    assert!(metrics.node_energy.iter().all(|&e| e == 4));
}

#[test]
fn certain_drop_loses_every_message_and_counts_it() {
    use congest_sim::workloads::ChaosFlood;
    let g = generators::random_connected(10, 15, 3);
    let cfg =
        SimConfig::default().with_faults(FaultPlan::none().with_seed(8).with_drop_ppm(1_000_000));
    let (states, metrics) = run_both(&g, cfg, |id| ChaosFlood::new(id, 6));
    assert!(metrics.messages > 0);
    assert_eq!(metrics.fault_drops, metrics.messages, "ppm 1_000_000 drops everything");
    assert_eq!(metrics.messages_lost, 0, "nothing survives to be slept away");
    assert!(states.iter().all(|s| s.received == 0));
}

#[test]
fn engines_agree_under_drops_jitter_and_churn_on_a_message_heavy_workload() {
    // Every fault kind at once on the full-bandwidth flood: both engines must
    // apply the identical schedule of drops, delays, crashes and a restart.
    use congest_sim::workloads::ChaosFlood;
    let g = generators::random_connected(64, 128, 29);
    let plan = FaultPlan::none()
        .with_seed(0xC4A0_5EED)
        .with_drop_ppm(150_000)
        .with_max_skew(2)
        .with_crash(NodeId(3), 4, Some(9))
        .with_crash(NodeId(7), 2, None);
    let cfg = SimConfig::default().with_faults(plan);
    let (_, metrics) = run_both(&g, cfg, |id| ChaosFlood::new(id, 48));
    assert!(metrics.fault_drops > 0, "the chaos plan must actually inject faults");
}

/// Node 0 sends once at init; node 1 records the arrival round of each
/// message and halts at `until`.
#[derive(Debug, Clone)]
struct OneShot {
    is_sender: bool,
    until: u64,
    arrivals: Vec<u64>,
}

impl Protocol for OneShot {
    fn init(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.is_sender {
            ctx.broadcast(&[7]);
        }
    }
    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Message]) {
        for _ in inbox {
            self.arrivals.push(ctx.round());
        }
        if ctx.round() >= self.until {
            ctx.halt();
        }
    }
}

#[test]
fn jitter_delays_within_the_skew_bound_and_is_deterministic() {
    let g = generators::path(2, 1);
    let skew = 4u64;
    let run = |seed: u64| {
        let cfg =
            SimConfig::default().with_faults(FaultPlan::none().with_seed(seed).with_max_skew(skew));
        run_both(&g, cfg, |id| OneShot {
            is_sender: id == NodeId(0),
            until: 2 + skew,
            arrivals: Vec::new(),
        })
    };
    let mut delayed_seen = false;
    for seed in 0..16 {
        let (states, metrics) = run(seed);
        let (again, metrics_again) = run(seed);
        assert_eq!(states[1].arrivals, again[1].arrivals, "same plan, same schedule");
        assert_eq!(metrics, metrics_again);
        assert_eq!(states[1].arrivals.len(), 1, "jitter delays, never duplicates or drops");
        let arrival = states[1].arrivals[0];
        assert!((1..=1 + skew).contains(&arrival), "arrival {arrival} outside the skew bound");
        assert_eq!(metrics.fault_delays, u64::from(arrival > 1));
        delayed_seen |= arrival > 1;
    }
    assert!(delayed_seen, "with skew 4, some of 16 seeds must actually delay");
}

#[test]
fn undeliverable_messages_at_termination_count_as_lost_even_from_the_jitter_buffer() {
    // Both endpoints halt in round 0, right after node 0 sends: whether the
    // message is on time (in flight) or jittered (pending in the fault
    // layer), it can never be delivered and must be counted as lost.
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
    for seed in 0..8 {
        let cfg =
            SimConfig::default().with_faults(FaultPlan::none().with_seed(seed).with_max_skew(3));
        let (_, metrics) = run_both(&g, cfg, |id| SendAndQuit { is_sender: id == NodeId(0) });
        assert_eq!(metrics.rounds, 1);
        assert_eq!(metrics.messages, 1);
        assert_eq!(metrics.messages_lost, 1, "seed {seed}: the send is unconditionally lost");
        assert_eq!(metrics.fault_drops, 0);
    }
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
    assert_eq!(metrics.crashes, 0);
    for (a, b) in states.iter().zip(&baseline.states) {
        assert_eq!(a.got, b.got);
    }
}
