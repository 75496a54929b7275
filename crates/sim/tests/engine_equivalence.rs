//! Differential testing of the active-set engine against the retained naive
//! reference loop.
//!
//! A pseudo-random "chaos" protocol — nodes send to random neighbours, sleep
//! random spans, and halt at random rounds, folding everything they observe
//! into a running digest — runs on random graphs, under random
//! configurations and random fault plans, through both [`Engine::run`] and
//! [`Engine::run_reference`]. The two executions must be indistinguishable:
//! identical [`congest_sim::Metrics`] (rounds, messages, congestion, energy,
//! capacity violations, lost messages, fault counters), identical edge
//! traces, and identical final states — or the *same* error. The digest
//! depends on message *content, order, and arrival round*, so any divergence
//! in scheduling or delivery shows up as a state mismatch, not just a metric
//! mismatch.
//!
//! [`ChaosListener`] runs through the same comparison, with and without
//! fault plans: it mixes `listen_until` into the sends, sleeps and halts, and
//! its state also counts its callbacks, so the lazy settlement of idle
//! listening rounds in [`Engine::run`] is checked against the reference's
//! round-by-round definition of them.
//!
//! The fixed cases name the round rules of `engine/round.rs` one by one —
//! re-initialisation after a restart, listener wake-up off the jitter-merged
//! stream, termination with jitter pending, the jump past the round limit,
//! lenient accounting — and the order in which a round fails: the first
//! strict violation and the first protocol panic in node-id order.
//!
//! The dirty-scratch property is about the buffers [`Engine::run`] keeps per
//! thread: a sequence of unlike runs — other graphs, protocols, fault plans,
//! some of them cut short by an error or a panic — is made on one thread, and
//! each run must come out exactly as it does on a freshly spawned thread and
//! on the reference loop. A run nested in another's callback, which finds
//! its thread's buffers in use, must come out as the reference too.

use std::panic::{catch_unwind, AssertUnwindSafe};

use congest_graph::{generators, Graph, NodeId};
use congest_sim::workloads::{ChaosListener, Flood, WaveBfs};
use congest_sim::{
    EdgeUsageTrace, Engine, FaultPlan, Message, Metrics, NodeCtx, Protocol, RunOutcome, SimConfig,
    SimError,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A deterministic pseudo-random protocol. Behaviour depends only on the
/// node's own RNG stream and what the engine shows it, so two semantically
/// equivalent engines drive it into identical executions.
#[derive(Debug, Clone)]
struct ChaosNode {
    rng: ChaCha8Rng,
    /// Round at which this node halts unconditionally.
    lifetime: u64,
    /// Running digest of everything observed (inbox contents and rounds).
    digest: u64,
    /// Whether the node ever sleeps; an always-awake one runs every round of
    /// its life.
    sleeps: bool,
}

impl ChaosNode {
    fn new(seed: u64, id: NodeId) -> ChaosNode {
        let mut rng = ChaCha8Rng::seed_from_u64(
            seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(id.0 as u64 + 1)),
        );
        let lifetime = rng.gen_range(3u64..40);
        ChaosNode { rng, lifetime, digest: seed, sleeps: true }
    }

    fn absorb(&mut self, round: u64, inbox: &[Message]) {
        for msg in inbox {
            self.digest = self
                .digest
                .wrapping_mul(0x100_0000_01b3)
                .wrapping_add(msg.from.0 as u64)
                .wrapping_add((msg.edge.0 as u64) << 17)
                .wrapping_add(round << 34);
            for &w in &msg.words {
                self.digest = self.digest.rotate_left(13) ^ w;
            }
        }
    }

    fn act(&mut self, ctx: &mut NodeCtx<'_>) {
        // Random sends: at most one message per incident edge, so the
        // capacity-1 CONGEST bound can only be violated through parallel
        // edges — which the lenient configs below merely count. Payload
        // lengths deliberately straddle the inline capacity (4): oversized
        // sends must be counted and truncated identically by both engines.
        let neighbors: Vec<_> = ctx.neighbors().to_vec();
        for adj in &neighbors {
            if self.rng.gen_range(0u32..100) < 40 {
                let len = self.rng.gen_range(1..=5usize);
                let mut words = vec![0u64; len];
                for w in words.iter_mut() {
                    *w = self.digest ^ self.rng.gen_range(0u64..1_000_000);
                }
                ctx.send_on_edge(adj.edge, &words);
            }
        }
        // Random schedule: halt at end of life, otherwise sometimes sleep.
        if ctx.round() >= self.lifetime {
            ctx.halt();
        } else if self.sleeps && self.rng.gen_range(0u32..100) < 35 {
            ctx.sleep_until(ctx.round() + self.rng.gen_range(1u64..7) + 1);
        }
    }
}

impl Protocol for ChaosNode {
    fn init(&mut self, ctx: &mut NodeCtx<'_>) {
        self.act(ctx);
    }

    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Message]) {
        self.absorb(ctx.round(), inbox);
        self.act(ctx);
    }
}

/// Runs one protocol through both engines and asserts equivalence; `key`
/// reads the part of a final state the comparison is on. Returns what they
/// agreed on, for the caller to check that the case exercised what it was
/// written for.
fn assert_equivalent_runs<P: Protocol + std::fmt::Debug, K: PartialEq + std::fmt::Debug>(
    g: &Graph,
    cfg: SimConfig,
    seed: u64,
    node: impl Fn(NodeId) -> P,
    key: impl Fn(&P) -> K,
) -> Result<RunOutcome<P>, SimError> {
    let fast = Engine::new(g, cfg.clone()).run(&node);
    let slow = Engine::new(g, cfg).run_reference(&node);
    match (&fast, &slow) {
        (Ok(fast), Ok(slow)) => {
            assert_eq!(fast.metrics, slow.metrics, "metrics diverged (seed {seed})");
            assert_eq!(fast.trace, slow.trace, "edge traces diverged (seed {seed})");
            let fd: Vec<K> = fast.states.iter().map(&key).collect();
            let sd: Vec<K> = slow.states.iter().map(&key).collect();
            assert_eq!(fd, sd, "final states diverged (seed {seed})");
        }
        (Err(fast), Err(slow)) => assert_eq!(fast, slow, "errors diverged (seed {seed})"),
        (fast, slow) => panic!("one engine failed: fast={fast:?} slow={slow:?} (seed {seed})"),
    }
    fast
}

/// Runs the chaos protocol through both engines and asserts equivalence.
fn assert_engines_equivalent(g: &Graph, cfg: SimConfig, seed: u64) {
    let _ = assert_equivalent_runs(g, cfg, seed, |id| ChaosNode::new(seed, id), |s| s.digest);
}

/// The same for the listening chaos protocol. Waits of up to 90 rounds put
/// deadlines on both sides of the wake queue's 64-round ring.
fn assert_listeners_equivalent(g: &Graph, cfg: SimConfig, seed: u64) {
    let node = |id| ChaosListener::new(seed, id, 160, 90);
    let _ = assert_equivalent_runs(g, cfg, seed, node, |s| (s.digest, s.calls));
}

fn chaos_config() -> impl Strategy<Value = SimConfig> {
    (1u32..3, 0u8..2).prop_map(|(capacity, trace)| SimConfig {
        edge_capacity: capacity,
        // Lenient mode: violations are counted (and must match), not fatal.
        strict_capacity: false,
        record_edge_trace: trace == 1,
        ..SimConfig::default()
    })
}

/// Random fault plans: message loss, delivery jitter, and crash/restart
/// churn.
fn fault_plan(n: u32) -> impl Strategy<Value = FaultPlan> {
    (0u64..1_000_000, 0u32..200_000, 0u64..3, 0u8..2, 0u64..16).prop_map(
        move |(seed, drop_ppm, skew, crash, crash_at)| {
            let mut plan =
                FaultPlan::none().with_seed(seed).with_drop_ppm(drop_ppm).with_max_skew(skew);
            if crash == 1 {
                let node = NodeId(seed as u32 % n);
                plan = plan.with_crash(node, crash_at, Some(crash_at + 3));
            }
            plan
        },
    )
}

/// How one run of the dirty-scratch property is made to end.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ending {
    /// Every node halts in its own time.
    Halt,
    /// The round limit comes first.
    RoundLimit,
    /// The last node sends twice over one edge, in strict mode, after the
    /// nodes before it have sent and been accounted in the same round.
    Oversend,
    /// The last node's callback panics.
    Panic,
}

/// One node of those runs: chaos of three temperaments, or the saboteur that
/// ends the run in round `at`.
#[derive(Debug)]
enum Mixed {
    Chaos(ChaosNode),
    Listener(ChaosListener),
    Saboteur { at: u64, ending: Ending },
}

impl Mixed {
    /// What the comparison reads off a final state.
    fn key(&self) -> (u64, u64) {
        match self {
            Mixed::Chaos(node) => (node.digest, node.lifetime),
            Mixed::Listener(node) => (node.digest, node.calls),
            Mixed::Saboteur { at, .. } => (*at, 0),
        }
    }
}

impl Protocol for Mixed {
    fn init(&mut self, ctx: &mut NodeCtx<'_>) {
        match self {
            Mixed::Chaos(node) => node.init(ctx),
            Mixed::Listener(node) => node.init(ctx),
            Mixed::Saboteur { .. } => {}
        }
    }

    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Message]) {
        match self {
            Mixed::Chaos(node) => node.on_round(ctx, inbox),
            Mixed::Listener(node) => node.on_round(ctx, inbox),
            Mixed::Saboteur { at, ending } if ctx.round() >= *at => match ending {
                Ending::Oversend => {
                    let edge = ctx.neighbors()[0].edge;
                    ctx.send_on_edge(edge, &[1]);
                    ctx.send_on_edge(edge, &[2]);
                }
                Ending::Panic => panic!("node {} sabotaged round {}", ctx.node_id(), ctx.round()),
                Ending::Halt | Ending::RoundLimit => ctx.halt(),
            },
            Mixed::Saboteur { .. } => {}
        }
    }
}

/// Everything one run can be told apart by.
#[derive(Debug, PartialEq)]
enum Ended {
    Halted { metrics: Metrics, trace: Option<EdgeUsageTrace>, states: Vec<(u64, u64)> },
    Failed(SimError),
    Panicked(String),
}

fn ended(run: impl FnOnce() -> Result<RunOutcome<Mixed>, SimError>) -> Ended {
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(Ok(out)) => Ended::Halted {
            metrics: out.metrics,
            trace: out.trace,
            states: out.states.iter().map(Mixed::key).collect(),
        },
        Ok(Err(error)) => Ended::Failed(error),
        Err(payload) => Ended::Panicked(*payload.downcast::<String>().expect("a formatted panic")),
    }
}

/// One run of the sequence, drawn from `rng`: its graph (often empty or a
/// single node, otherwise up to 23 nodes — so consecutive runs shrink and
/// grow the scratch's columns), its configuration, its node factory's seed
/// and how it ends.
fn draw_run(rng: &mut ChaCha8Rng) -> (Graph, SimConfig, u64, Ending) {
    let n = match rng.gen_range(0u32..8) {
        0 => 0,
        1 => 1,
        _ => rng.gen_range(2u32..24),
    };
    let g = match n {
        0 => Graph::builder(0).build(),
        _ => generators::random_connected(n, rng.gen_range(0u64..30), rng.gen_range(0u64..1 << 20)),
    };
    let ending = match rng.gen_range(0u32..6) {
        0 => Ending::RoundLimit,
        1 => Ending::Oversend,
        2 => Ending::Panic,
        _ => Ending::Halt,
    };
    let faults = if rng.gen_range(0u32..2) == 0 {
        FaultPlan::none()
    } else {
        // Jitter on every edge, a crash with a restart and a crash for good;
        // nodes a small graph does not have are ignored by the plan.
        FaultPlan::none()
            .with_seed(rng.gen_range(0u64..1 << 20))
            .with_max_skew(3)
            .with_crash(NodeId(rng.gen_range(0u32..8)), rng.gen_range(1u64..6), Some(9))
            .with_crash(NodeId(rng.gen_range(8u32..16)), rng.gen_range(2u64..30), None)
    };
    let cfg = SimConfig {
        strict_capacity: ending == Ending::Oversend,
        record_edge_trace: rng.gen_range(0u32..2) == 0,
        max_rounds: if ending == Ending::RoundLimit { 7 } else { 10_000 },
        faults,
        ..SimConfig::default()
    };
    (g, cfg, rng.gen_range(0u64..1 << 20), ending)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_dirty_scratch_cannot_be_told_from_a_fresh_one(
        runs in 2usize..5,
        script in 0u64..1_000_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(script);
        for i in 0..runs {
            let (g, cfg, seed, ending) = draw_run(&mut rng);
            let last = NodeId(g.node_count().saturating_sub(1));
            let node = |id: NodeId| {
                if id == last && g.degree(id) > 0 && ending != Ending::Halt {
                    return Mixed::Saboteur { at: 1 + seed % 5, ending };
                }
                // Oversized chaos payloads are themselves a strict-mode
                // error; the run that is to end in a capacity violation has
                // listeners only (two words a message, one per edge).
                match (seed + id.0 as u64) % 3 {
                    0 if !cfg.strict_capacity => Mixed::Chaos(ChaosNode::new(seed, id)),
                    1 if !cfg.strict_capacity => {
                        Mixed::Chaos(ChaosNode { sleeps: false, ..ChaosNode::new(seed, id) })
                    }
                    _ => Mixed::Listener(ChaosListener::new(seed, id, 60, 90)),
                }
            };
            let engine = Engine::new(&g, cfg.clone());
            // This thread's buffers carry whatever its earlier runs, and the
            // earlier cases of the property, left in them.
            let reused = ended(|| engine.run(node));
            let fresh = std::thread::scope(|scope| {
                scope.spawn(|| ended(|| engine.run(node))).join().expect("caught in the thread")
            });
            let reference = ended(|| engine.run_reference(node));
            let what = format!("run {i} of script {script}: {ending:?} on {} nodes", g.node_count());
            prop_assert_eq!(&reused, &fresh, "{}", what);
            prop_assert_eq!(&reused, &reference, "{} (reference)", what);
        }
    }

    #[test]
    fn engines_are_equivalent_on_random_graphs(
        n in 2u32..28,
        extra in 0u64..40,
        graph_seed in 0u64..1_000_000,
        protocol_seed in 0u64..1_000_000,
        cfg in chaos_config(),
    ) {
        let g = generators::random_connected(n, extra, graph_seed);
        assert_engines_equivalent(&g, cfg, protocol_seed);
    }

    #[test]
    fn engines_are_equivalent_under_fault_plans(
        n in 3u32..24,
        extra in 0u64..30,
        graph_seed in 0u64..1_000_000,
        protocol_seed in 0u64..1_000_000,
        cfg in chaos_config(),
        plan in fault_plan(24),
    ) {
        let g = generators::random_connected(n, extra, graph_seed);
        assert_engines_equivalent(&g, cfg.with_faults(plan), protocol_seed);
    }

    #[test]
    fn engines_are_equivalent_on_listeners(
        n in 2u32..28,
        extra in 0u64..40,
        graph_seed in 0u64..1_000_000,
        protocol_seed in 0u64..1_000_000,
        cfg in chaos_config(),
    ) {
        // `chaos_config` covers both settings of the edge trace.
        let g = generators::random_connected(n, extra, graph_seed);
        assert_listeners_equivalent(&g, cfg, protocol_seed);
    }

    #[test]
    fn engines_are_equivalent_on_listeners_under_fault_plans(
        n in 3u32..24,
        extra in 0u64..30,
        graph_seed in 0u64..1_000_000,
        protocol_seed in 0u64..1_000_000,
        cfg in chaos_config(),
        plan in fault_plan(24),
    ) {
        let g = generators::random_connected(n, extra, graph_seed);
        assert_listeners_equivalent(&g, cfg.with_faults(plan), protocol_seed);
    }

    #[test]
    fn engines_are_equivalent_on_multigraphs(
        protocol_seed in 0u64..1_000_000,
        cfg in chaos_config(),
    ) {
        // Parallel edges exercise per-edge-direction capacity accounting.
        let g = Graph::from_edges(3, [(0, 1, 1), (0, 1, 2), (1, 2, 1), (0, 2, 3), (0, 2, 3)])
            .expect("valid multigraph");
        assert_engines_equivalent(&g, cfg, protocol_seed);
    }
}

#[test]
fn engines_are_equivalent_on_structured_graphs() {
    for (i, g) in [
        generators::path(17, 1),
        generators::cycle(12, 2),
        generators::star(9, 1),
        generators::grid(5, 4, 1),
        generators::disjoint_copies(&generators::path(6, 1), 3),
    ]
    .into_iter()
    .enumerate()
    {
        for seed in 0..4 {
            let cfg = SimConfig {
                strict_capacity: false,
                record_edge_trace: true,
                ..SimConfig::default()
            };
            assert_engines_equivalent(&g, cfg.clone(), seed * 1000 + i as u64);
            assert_listeners_equivalent(&g, cfg, seed * 1000 + i as u64);
        }
    }
}

/// Runs a whole simulation of its own inside its first callback: node 0
/// runs the listening chaos workload on `inner` (while the outer run holds
/// the thread's buffers) and keeps what it saw; every node is chaos otherwise.
#[derive(Debug)]
struct Nesting<'g> {
    chaos: ChaosNode,
    inner: Option<&'g Graph>,
    seen: Option<(Metrics, Vec<(u64, u64)>)>,
}

impl Protocol for Nesting<'_> {
    fn init(&mut self, ctx: &mut NodeCtx<'_>) {
        self.chaos.init(ctx);
    }

    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Message]) {
        if let Some(inner) = self.inner.take() {
            self.seen = Some(inner_run(inner, self.chaos.digest, false));
        }
        self.chaos.on_round(ctx, inbox);
    }
}

/// The listening chaos workload on `g` from `seed`, through [`Engine::run`]
/// or the reference loop: its metrics and final `(digest, calls)`.
fn inner_run(g: &Graph, seed: u64, reference: bool) -> (Metrics, Vec<(u64, u64)>) {
    let engine =
        Engine::new(g, SimConfig::default().with_faults(FaultPlan::none().with_max_skew(2)));
    let node = |id| ChaosListener::new(seed, id, 60, 90);
    let run = if reference { engine.run_reference(node) } else { engine.run(node) };
    let run = run.expect("the listeners halt");
    (run.metrics, run.states.iter().map(|s| (s.digest, s.calls)).collect())
}

#[test]
fn a_run_nested_in_a_callback_gets_the_reference_result_for_both_runs() {
    let outer = generators::random_connected(20, 30, 5);
    let inner = generators::random_connected(12, 18, 6);
    for seed in 0..6 {
        let node = |id: NodeId| Nesting {
            chaos: ChaosNode { sleeps: false, ..ChaosNode::new(seed, id) },
            inner: (id == NodeId(0)).then_some(&inner),
            seen: None,
        };
        let cfg = SimConfig { strict_capacity: false, ..SimConfig::default() };
        let key = |s: &Nesting| (s.chaos.digest, s.seen.clone());
        let run = assert_equivalent_runs(&outer, cfg, seed, node, key).expect("halts");
        let seen = run.states[0].seen.clone().expect("node 0 ran the inner simulation");
        // Node 0 never sleeps, so its first callback is in round 1, before
        // any mail has moved its digest off the seed.
        assert_eq!(seen, inner_run(&inner, seed, true), "seed {seed}");
    }
}

/// A real workload: wave-BFS distances, metrics, and energy come out of
/// [`Engine::run`] as out of the reference loop.
#[test]
fn wave_bfs_matches_the_reference() {
    let g = generators::random_connected(400, 700, 11);
    let schedule = WaveBfs::schedule(&g, &[NodeId(0)]);
    let node = |id: NodeId| WaveBfs::new(schedule[id.index()]);
    let run = assert_equivalent_runs(&g, SimConfig::default(), 0, node, |s| s.dist)
        .expect("wave BFS completes");
    assert!(run.metrics.max_energy() <= 2, "a perfect schedule wakes each node once");
}

/// Strict-mode violations surface as the *same* first error: the first in
/// node-id order, though lower-id nodes sent without fault in that round.
#[test]
fn strict_errors_agree_with_the_reference() {
    /// High-id nodes double-send on their first incident edge, so capacity 1
    /// breaks deterministically at node 3.
    #[derive(Debug)]
    struct Blaster;
    impl Protocol for Blaster {
        fn init(&mut self, ctx: &mut NodeCtx<'_>) {
            if ctx.node_id().0 >= 3 {
                let edge = ctx.neighbors()[0].edge;
                ctx.send_on_edge(edge, &[1]);
                ctx.send_on_edge(edge, &[2]);
            }
        }
        fn on_round(&mut self, ctx: &mut NodeCtx<'_>, _inbox: &[Message]) {
            ctx.halt();
        }
    }

    let g = Graph::from_edges(6, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 4, 1), (4, 5, 1)])
        .expect("valid path");
    let err = assert_equivalent_runs(&g, SimConfig::default(), 0, |_| Blaster, |_| ())
        .expect_err("capacity 1 must be exceeded");
    assert!(matches!(err, SimError::EdgeCapacityExceeded { node: NodeId(3), .. }), "{err:?}");
}

/// Listeners woken by the same round's mail fail in node-id order like any
/// other awake nodes: the first strict violation and the first protocol
/// panic are the reference's.
#[test]
fn woken_listeners_fail_in_the_order_of_the_reference() {
    /// The hub of a star broadcasts in round 0; every leaf listens to round
    /// 50 and is woken in round 1. Leaves 3.. then misbehave.
    #[derive(Debug, Clone, Copy)]
    enum Tripwire {
        Oversend,
        Panic,
    }
    impl Protocol for Tripwire {
        fn init(&mut self, ctx: &mut NodeCtx<'_>) {
            if ctx.node_id() == NodeId(0) {
                ctx.broadcast(&[7]);
            }
            ctx.listen_until(50);
        }
        fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Message]) {
            assert_eq!((ctx.round(), inbox.len()), (1, 1), "woken by the hub's mail, not later");
            if ctx.node_id().0 >= 3 {
                match self {
                    Tripwire::Oversend => {
                        ctx.broadcast(&[1]);
                        ctx.broadcast(&[2]);
                    }
                    Tripwire::Panic => panic!("leaf {} tripped", ctx.node_id().0),
                }
            }
            ctx.halt();
        }
    }

    let g = generators::star(8, 1);
    let engine = Engine::new(&g, SimConfig::default());
    let run = |reference: bool, mode: Tripwire| {
        let ended = catch_unwind(|| {
            if reference {
                engine.run_reference(|_| mode)
            } else {
                engine.run(|_| mode)
            }
        });
        let ended = ended.map(|outcome| outcome.map(|_| ()));
        ended.map_err(|payload| *payload.downcast::<String>().expect("a formatted panic"))
    };
    let strict = run(false, Tripwire::Oversend).expect("no panic").expect_err("capacity 1");
    assert!(
        matches!(strict, SimError::EdgeCapacityExceeded { node: NodeId(3), round: 1, .. }),
        "{strict:?}"
    );
    assert_eq!(run(true, Tripwire::Oversend).expect("no panic").expect_err("the same"), strict);
    for reference in [false, true] {
        assert_eq!(run(reference, Tripwire::Panic).expect_err("leaf 3 panics"), "leaf 3 tripped");
    }
}

// --- One named case per round rule ------------------------------------------
//
// Fixed, not random: each is the smallest execution in which one rule of
// `engine/round.rs` decides the outcome, run through `run_reference` and
// `run` and compared whole.

/// Counts its callbacks; always awake and talking until round `until`.
#[derive(Debug, Clone)]
struct Chatter {
    until: u64,
    inits: u32,
    steps: u32,
}

impl Protocol for Chatter {
    fn init(&mut self, ctx: &mut NodeCtx<'_>) {
        self.inits += 1;
        ctx.broadcast(&[ctx.round()]);
    }
    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Message]) {
        self.steps += inbox.len() as u32;
        if ctx.round() >= self.until {
            ctx.halt();
        } else {
            ctx.broadcast(&[ctx.round()]);
        }
    }
}

/// Churn, then the re-init flag: a node restarted in round 4 is stepped in
/// that very round through `init` (on a fresh state, its waiting mail
/// ignored), and through `on_round` from round 5 on — the flag is cleared by
/// the step that read it, once.
#[test]
fn a_restarted_node_reinitialises_in_its_restart_round_and_only_then() {
    let g = generators::cycle(6, 1);
    let plan = FaultPlan::none().with_crash(NodeId(4), 2, Some(4));
    let cfg = SimConfig::default().with_edge_trace(true).with_faults(plan);
    let node = |_| Chatter { until: 8, inits: 0, steps: 0 };
    let run = assert_equivalent_runs(&g, cfg, 0, node, |s| (s.inits, s.steps)).expect("halts");
    assert_eq!((run.metrics.crashes, run.metrics.restarts), (1, 1));
    // Two neighbours' mail in each of rounds 5..=8, none counted in round 4.
    assert_eq!((run.states[4].inits, run.states[4].steps), (1, 8));
    assert_eq!((run.states[0].inits, run.states[0].steps), (1, 16));
    // Up in rounds 0, 1 and 4..=8.
    assert_eq!(run.metrics.node_energy[4], 7);
}

/// Node 0 talks in rounds 0..=5 and then sleeps; node 1 listens, re-listening
/// to the same deadline every time mail wakes it.
#[derive(Debug, Clone)]
struct Patient {
    deadline: u64,
    calls: Vec<u64>,
}

impl Protocol for Patient {
    fn init(&mut self, ctx: &mut NodeCtx<'_>) {
        if ctx.node_id() == NodeId(0) {
            ctx.broadcast(&[0]);
        } else {
            ctx.listen_until(self.deadline);
        }
    }
    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Message]) {
        self.calls.push(ctx.round() << 8 | inbox.len() as u64);
        if ctx.round() >= self.deadline {
            ctx.halt();
        } else if ctx.node_id() != NodeId(0) {
            ctx.listen_until(self.deadline);
        } else if ctx.round() <= 5 {
            ctx.broadcast(&[ctx.round()]);
        } else {
            ctx.sleep_until(self.deadline);
        }
    }
}

/// Listener wake-up off the *merged* stream: a jitter-delayed message is not
/// in the buffer the previous round's sends left behind, yet its arrival must
/// wake the listener — whose deadline entry then sits stale in the wake queue
/// and is filtered out when the deadline round comes.
#[test]
fn a_jittered_arrival_wakes_a_listener_and_its_deadline_entry_goes_stale() {
    let g = generators::path(2, 1);
    let plan = FaultPlan::none().with_seed(5).with_max_skew(6);
    let cfg = SimConfig::default().with_edge_trace(true).with_faults(plan);
    let node = |_| Patient { deadline: 40, calls: Vec::new() };
    let run = assert_equivalent_runs(&g, cfg, 5, node, |s| s.calls.clone()).expect("halts");
    assert!(run.metrics.fault_delays > 0, "the case needs a delayed message");
    let listener = &run.states[1].calls;
    let mail: u64 = listener.iter().map(|c| c & 0xff).sum();
    assert_eq!(mail, 6, "every message arrives, late or not: {listener:?}");
    assert!(listener.iter().any(|c| c >> 8 > 6), "one arrives after the last send: {listener:?}");
    assert_eq!(listener.last(), Some(&(40 << 8)), "the deadline callback runs once, without mail");
    assert_eq!(run.metrics.node_energy[1], 41, "awake in every round, stepped in few");
}

/// Says something to everyone and stops.
#[derive(Debug, Clone)]
struct LastWords;

impl Protocol for LastWords {
    fn init(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.broadcast(&[1]);
        ctx.halt();
    }
    fn on_round(&mut self, _ctx: &mut NodeCtx<'_>, _inbox: &[Message]) {}
}

/// Termination: everyone halts in round 0 with messages on the wire and in
/// the jitter buffer; neither kind can be delivered, both count as lost.
#[test]
fn termination_counts_pending_jitter_as_lost() {
    let g = generators::star(8, 1);
    let plan = FaultPlan::none().with_seed(9).with_max_skew(4);
    let cfg = SimConfig::default().with_edge_trace(true).with_faults(plan);
    let run = assert_equivalent_runs(&g, cfg, 9, |_| LastWords, |_| ()).expect("halts");
    assert_eq!((run.metrics.rounds, run.metrics.messages), (1, 14));
    assert!(run.metrics.fault_delays > 0, "the case needs a message held back");
    assert!(run.metrics.fault_delays < 14, "and one on the wire");
    assert_eq!(run.metrics.messages_lost, 14);
}

/// Sleeps to a round far past any limit.
#[derive(Debug, Clone)]
struct FarSleeper(u64);

impl Protocol for FarSleeper {
    fn init(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.sleep_until(self.0);
    }
    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, _inbox: &[Message]) {
        ctx.halt();
    }
}

/// The round limit, met by a fast-forward jump: the jump is refused with the
/// error a round-by-round run would end in — decided *before* the trace is
/// padded with one entry per skipped round, which for this sleeper used to
/// be a 1.6 TB allocation. With a fault plan the jump target is the earliest
/// of the wake buckets' and the fault layer's next events.
#[test]
fn a_jump_past_the_round_limit_is_the_round_limit_error() {
    let g = generators::path(2, 1);
    let churn = FaultPlan::none().with_crash(NodeId(0), 5, Some(7));
    for plan in [FaultPlan::none(), churn] {
        for traced in [false, true] {
            let cfg = SimConfig::default().with_edge_trace(traced).with_faults(plan.clone());
            let err = assert_equivalent_runs(&g, cfg, 0, |_| FarSleeper(1 << 36), |_| ())
                .expect_err("2^36 is past the default limit");
            assert_eq!(err, SimError::RoundLimitExceeded { limit: 10_000_000, unhalted_nodes: 2 });
        }
    }
    // Below the limit the padding is still there: one entry per round.
    let cfg = SimConfig::default().with_edge_trace(true);
    let run = assert_equivalent_runs(&g, cfg, 0, |_| FarSleeper(1000), |_| ()).expect("halts");
    assert_eq!(run.metrics.rounds, 1001);
    assert_eq!(run.trace.expect("traced").len() as u64, run.metrics.rounds);
}

/// Breaks both CONGEST bounds on one edge in one step.
#[derive(Debug, Clone)]
struct Loudmouth;

impl Protocol for Loudmouth {
    fn init(&mut self, ctx: &mut NodeCtx<'_>) {
        let edge = ctx.neighbors()[0].edge;
        ctx.send_on_edge(edge, &[1, 2, 3, 4, 5]);
        ctx.send_on_edge(edge, &[6]);
        ctx.halt();
    }
    fn on_round(&mut self, _ctx: &mut NodeCtx<'_>, _inbox: &[Message]) {}
}

/// Lenient accounting: an oversized message and a second message on the same
/// edge are one violation each, and both are still sent and counted.
#[test]
fn lenient_mode_counts_an_oversized_and_an_over_capacity_send_separately() {
    let g = generators::path(3, 1);
    let cfg = SimConfig { strict_capacity: false, ..SimConfig::default().with_edge_trace(true) };
    let run = assert_equivalent_runs(&g, cfg, 0, |_| Loudmouth, |_| ()).expect("lenient");
    assert_eq!((run.metrics.messages, run.metrics.capacity_violations), (6, 6));
    // In strict mode the oversized one is met first, at node 0.
    let err = assert_equivalent_runs(&g, SimConfig::default(), 0, |_| Loudmouth, |_| ())
        .expect_err("strict");
    assert_eq!(err, SimError::MessageTooLarge { node: NodeId(0), words: 5, max_words: 4 });
}

/// An [`Engine`] is `Sync`: two threads may run on one at the same time.
/// Here both runs are forced to overlap — each run's hub waits for the
/// other's at a barrier inside its `init` — and each equals the reference.
#[test]
fn two_threads_may_run_on_one_engine_at_once() {
    use std::sync::Barrier;

    struct Gated<'b> {
        gate: Option<&'b Barrier>,
        node: Flood,
    }
    impl Protocol for Gated<'_> {
        fn init(&mut self, ctx: &mut NodeCtx<'_>) {
            if let Some(gate) = self.gate.take() {
                gate.wait();
            }
            self.node.init(ctx);
        }
        fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Message]) {
            self.node.on_round(ctx, inbox);
        }
    }

    let g = generators::star(16, 1);
    let gate = Barrier::new(2);
    let node = |id: NodeId, gate| Gated { gate, node: Flood::new(id, 6) };
    let folds = |run: &RunOutcome<Gated<'_>>| {
        (run.metrics.clone(), run.states.iter().map(|s| s.node.acc).collect::<Vec<_>>())
    };
    let engine = Engine::new(&g, SimConfig::default());
    let reference = engine.run_reference(|id| node(id, None)).expect("halts in round 6");
    let raced = std::thread::scope(|scope| {
        let race = || {
            let run = engine.run(|id| node(id, (id == NodeId(0)).then_some(&gate)));
            folds(&run.expect("halts in round 6"))
        };
        let other = scope.spawn(race);
        [race(), other.join().expect("no panic")]
    });
    for run in raced {
        assert_eq!(run, folds(&reference));
    }
}
