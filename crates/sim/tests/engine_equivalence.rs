//! Differential testing of the active-set engine against the retained naive
//! reference loop.
//!
//! A pseudo-random "chaos" protocol — nodes broadcast or send to random
//! neighbours within the CONGEST bound, sleep random spans, and halt at random
//! rounds, folding everything they observe into a running digest — runs on
//! random graphs, with and without random fault plans, through both
//! [`Engine::run`] and [`Engine::run_reference`]. The two executions must be
//! indistinguishable: identical [`congest_sim::Metrics`] (rounds, messages,
//! congestion, energy, lost messages, fault counters) and identical final
//! states — or the *same* error. The digest
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
//! listener wake-up off the stream the drop pass left, the jump past the
//! round limit — and the order in which a round fails: the first violation of the CONGEST
//! bound (an oversized message, a second message on an edge direction) and
//! the first protocol panic, in node-id order.
//!
//! The dirty-scratch property is about the buffers [`Engine::run`] keeps per
//! thread: a sequence of unlike runs — other graphs, protocols, fault plans,
//! some of them cut short by an error or a panic — is made on one thread, and
//! each run must come out exactly as it does on a freshly spawned thread and
//! on the reference loop. A run nested in another's callback, which finds
//! its thread's buffers in use, must come out as the reference too.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};

use congest_graph::{generators, Graph, NodeId};
use congest_sim::workloads::{Flood, WaveBfs};
use congest_sim::{
    Engine, FaultPlan, Message, Metrics, NodeCtx, Protocol, RunOutcome, SimConfig, SimError, Words,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use common::ChaosListener;

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
    /// Steps that broadcast, and steps that sent several records.
    broadcasts: u32,
    multi_record_steps: u32,
}

impl ChaosNode {
    fn new(seed: u64, id: NodeId) -> ChaosNode {
        let mut rng = ChaCha8Rng::seed_from_u64(
            seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(id.0 as u64 + 1)),
        );
        let lifetime = rng.gen_range(3u64..40);
        ChaosNode {
            rng,
            lifetime,
            digest: seed,
            sleeps: true,
            broadcasts: 0,
            multi_record_steps: 0,
        }
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

    /// A payload of 1 to 4 words: up to the inline capacity.
    fn payload(&mut self) -> Vec<u64> {
        let len = self.rng.gen_range(1..=Words::CAPACITY);
        (0..len).map(|_| self.digest ^ self.rng.gen_range(0u64..1_000_000)).collect()
    }

    fn act(&mut self, ctx: &mut NodeCtx<'_>) {
        // Random sends within the CONGEST bound: in some steps one broadcast
        // — one record over the node's whole run of ports —, in the others at
        // most one message per incident edge, each its own record. A step of
        // several records is checked port by port (parallel edges are ports
        // apart).
        if self.rng.gen_range(0u32..100) < 30 {
            let words = self.payload();
            ctx.broadcast(&words);
            self.broadcasts += u32::from(!ctx.neighbors().is_empty());
        } else {
            let neighbors: Vec<_> = ctx.neighbors().to_vec();
            let mut records = 0;
            for adj in &neighbors {
                if self.rng.gen_range(0u32..100) < 40 {
                    let words = self.payload();
                    ctx.send_on_edge(adj.edge, &words);
                    records += 1;
                }
            }
            self.multi_record_steps += u32::from(records > 1);
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
            let fd: Vec<K> = fast.states.iter().map(&key).collect();
            let sd: Vec<K> = slow.states.iter().map(&key).collect();
            assert_eq!(fd, sd, "final states diverged (seed {seed})");
        }
        (Err(fast), Err(slow)) => assert_eq!(fast, slow, "errors diverged (seed {seed})"),
        (fast, slow) => panic!("one engine failed: fast={fast:?} slow={slow:?} (seed {seed})"),
    }
    fast
}

/// Runs the chaos protocol through both engines and asserts equivalence;
/// returns how many broadcasting and multi-record steps the run made.
fn assert_engines_equivalent(g: &Graph, cfg: SimConfig, seed: u64) -> (u32, u32) {
    let node = |id| ChaosNode::new(seed, id);
    let run = assert_equivalent_runs(g, cfg, seed, node, |s| s.digest);
    let states = run.map(|run| run.states).unwrap_or_default();
    let total = |count: fn(&ChaosNode) -> u32| states.iter().map(count).sum();
    (total(|s| s.broadcasts), total(|s| s.multi_record_steps))
}

/// The same for the listening chaos protocol. Waits of up to 90 rounds put
/// deadlines on both sides of the wake queue's 64-round ring.
fn assert_listeners_equivalent(g: &Graph, cfg: SimConfig, seed: u64) {
    let node = |id| ChaosListener::new(seed, id, 160, 90);
    let _ = assert_equivalent_runs(g, cfg, seed, node, |s| (s.digest, s.calls));
}

/// Random fault plans: message loss at up to one message in five.
fn fault_plan() -> impl Strategy<Value = FaultPlan> {
    (0u64..1_000_000, 0u32..200_000)
        .prop_map(|(seed, drop_ppm)| FaultPlan::none().with_seed(seed).with_drop_ppm(drop_ppm))
}

/// How one run of the dirty-scratch property is made to end.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ending {
    /// Every node halts in its own time.
    Halt,
    /// The round limit comes first.
    RoundLimit,
    /// The last node sends twice over one edge, after the nodes before it
    /// have sent and been accounted in the same round.
    Oversend,
    /// The same, with one message of more than `Words::CAPACITY` words.
    Oversize,
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
                Ending::Oversize => ctx.broadcast(&[0; Words::CAPACITY + 1]),
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
    Halted { metrics: Metrics, states: Vec<(u64, u64)> },
    Failed(SimError),
    Panicked(String),
}

fn ended(run: impl FnOnce() -> Result<RunOutcome<Mixed>, SimError>) -> Ended {
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(Ok(out)) => Ended::Halted {
            metrics: out.metrics,
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
    let ending = match rng.gen_range(0u32..7) {
        0 => Ending::RoundLimit,
        1 => Ending::Oversend,
        2 => Ending::Oversize,
        3 => Ending::Panic,
        _ => Ending::Halt,
    };
    let faults = if rng.gen_range(0u32..2) == 0 {
        FaultPlan::none()
    } else {
        // Drops on every edge, so every step's records are split.
        FaultPlan::none()
            .with_seed(rng.gen_range(0u64..1 << 20))
            .with_drop_ppm(rng.gen_range(1u32..300_000))
    };
    let cfg =
        SimConfig { max_rounds: if ending == Ending::RoundLimit { 7 } else { 10_000 }, faults };
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
                match (seed + id.0 as u64) % 3 {
                    0 => Mixed::Chaos(ChaosNode::new(seed, id)),
                    1 => Mixed::Chaos(ChaosNode { sleeps: false, ..ChaosNode::new(seed, id) }),
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
    ) {
        let g = generators::random_connected(n, extra, graph_seed);
        let _ = assert_engines_equivalent(&g, SimConfig::default(), protocol_seed);
    }

    #[test]
    fn engines_are_equivalent_under_fault_plans(
        n in 3u32..24,
        extra in 0u64..30,
        graph_seed in 0u64..1_000_000,
        protocol_seed in 0u64..1_000_000,
        plan in fault_plan(),
    ) {
        let g = generators::random_connected(n, extra, graph_seed);
        let _ = assert_engines_equivalent(&g, SimConfig::default().with_faults(plan), protocol_seed);
    }

    #[test]
    fn engines_are_equivalent_on_listeners(
        n in 2u32..28,
        extra in 0u64..40,
        graph_seed in 0u64..1_000_000,
        protocol_seed in 0u64..1_000_000,
    ) {
        let g = generators::random_connected(n, extra, graph_seed);
        assert_listeners_equivalent(&g, SimConfig::default(), protocol_seed);
    }

    #[test]
    fn engines_are_equivalent_on_listeners_under_fault_plans(
        n in 3u32..24,
        extra in 0u64..30,
        graph_seed in 0u64..1_000_000,
        protocol_seed in 0u64..1_000_000,
        plan in fault_plan(),
    ) {
        let g = generators::random_connected(n, extra, graph_seed);
        assert_listeners_equivalent(&g, SimConfig::default().with_faults(plan), protocol_seed);
    }

    #[test]
    fn engines_are_equivalent_on_multigraphs(
        protocol_seed in 0u64..1_000_000,
    ) {
        // Parallel edges are distinct ports: one message on each is legal.
        let g = Graph::from_edges(3, [(0, 1, 1), (0, 1, 2), (1, 2, 1), (0, 2, 3), (0, 2, 3)])
            .expect("valid multigraph");
        let _ = assert_engines_equivalent(&g, SimConfig::default(), protocol_seed);
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
            let (broadcasts, multi_record_steps) =
                assert_engines_equivalent(&g, SimConfig::default(), seed * 1000 + i as u64);
            assert!(broadcasts > 0 && multi_record_steps > 0, "graph {i}, seed {seed}");
            assert_listeners_equivalent(&g, SimConfig::default(), seed * 1000 + i as u64);
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
    let plan = FaultPlan::none().with_seed(2).with_drop_ppm(100_000);
    let engine = Engine::new(g, SimConfig::default().with_faults(plan));
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
        let key = |s: &Nesting| (s.chaos.digest, s.seen.clone());
        let run =
            assert_equivalent_runs(&outer, SimConfig::default(), seed, node, key).expect("halts");
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

/// Violations of the CONGEST bound surface as the *same* first error: the
/// first in node-id order, though lower-id nodes sent without fault in that
/// round.
#[test]
fn capacity_errors_agree_with_the_reference() {
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
/// other awake nodes: the first violation of the CONGEST bound and the first
/// protocol panic are the reference's.
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
    let err = run(false, Tripwire::Oversend).expect("no panic").expect_err("capacity 1");
    assert!(
        matches!(err, SimError::EdgeCapacityExceeded { node: NodeId(3), round: 1, .. }),
        "{err:?}"
    );
    assert_eq!(run(true, Tripwire::Oversend).expect("no panic").expect_err("the same"), err);
    for reference in [false, true] {
        assert_eq!(run(reference, Tripwire::Panic).expect_err("leaf 3 panics"), "leaf 3 tripped");
    }
}

// --- One named case per round rule ------------------------------------------
//
// Fixed, not random: each is the smallest execution in which one rule of
// `engine/round.rs` decides the outcome, run through `run_reference` and
// `run` and compared whole.

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

/// Listener wake-up off the stream the drop pass left: a dropped message
/// wakes no listener, so the listener is called back once per message that
/// survives, and once more at its deadline.
#[test]
fn a_dropped_message_wakes_no_listener() {
    let g = generators::path(2, 1);
    let node = |_| Patient { deadline: 40, calls: Vec::new() };
    let mut dropped = 0;
    for seed in 0..8 {
        let plan = FaultPlan::none().with_seed(seed).with_drop_ppm(500_000);
        let cfg = SimConfig::default().with_faults(plan);
        let run = assert_equivalent_runs(&g, cfg, seed, node, |s| s.calls.clone()).expect("halts");
        let listener = &run.states[1].calls;
        let kept = 6 - run.metrics.fault_drops;
        assert!(listener.iter().all(|c| c >> 8 == 40 || c & 0xff == 1), "{listener:?}");
        assert_eq!(listener.len() as u64, kept + 1, "seed {seed}: {listener:?}");
        assert_eq!(listener.last(), Some(&(40 << 8)), "the deadline callback runs once, mail-less");
        assert_eq!(run.metrics.node_energy[1], 41, "awake in every round, stepped in few");
        dropped += run.metrics.fault_drops;
    }
    assert!(dropped > 0 && dropped < 8 * 6, "some of the 48 messages are dropped, some kept");
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
/// error a round-by-round run would end in.
#[test]
fn a_jump_past_the_round_limit_is_the_round_limit_error() {
    let g = generators::path(2, 1);
    let err = assert_equivalent_runs(&g, SimConfig::default(), 0, |_| FarSleeper(1 << 36), |_| ())
        .expect_err("2^36 is past the default limit");
    assert_eq!(err, SimError::RoundLimitExceeded { limit: 10_000_000, unhalted_nodes: 2 });
    // Below the limit the jump is taken: the run ends in the sleeper's round.
    let run = assert_equivalent_runs(&g, SimConfig::default(), 0, |_| FarSleeper(1000), |_| ())
        .expect("halts");
    assert_eq!(run.metrics.rounds, 1001);
}

/// Waits for round `until` — asleep, or listening — and then halts, or, with
/// `halt` unset, keeps asking for the same round.
#[derive(Debug, Clone)]
struct EndOfTime {
    until: u64,
    listen: bool,
    halt: bool,
}

impl EndOfTime {
    fn wait(&self, ctx: &mut NodeCtx<'_>) {
        if self.listen {
            ctx.listen_until(self.until);
        } else {
            ctx.sleep_until(self.until);
        }
    }
}

impl Protocol for EndOfTime {
    fn init(&mut self, ctx: &mut NodeCtx<'_>) {
        self.wait(ctx);
    }
    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, _inbox: &[Message]) {
        if self.halt {
            ctx.halt();
        } else {
            // A round already here: the node stays awake, round after round.
            self.wait(ctx);
        }
    }
}

/// The last rounds there are. A run may open round `u64::MAX − 1` at most,
/// whatever its limit, so its length `round + 1` fits: one that needs round
/// `u64::MAX` is the round limit error — not an overflow, and not, with
/// overflow checks off, a wrap to round 0 that never ends. The sleepers are
/// compared with the reference; the listeners with `Engine::run` alone,
/// because the reference visits every round a listener waits through.
#[test]
fn a_run_ends_by_round_u64_max_minus_one_at_any_limit() {
    let g = generators::path(3, 1);
    let cfg = SimConfig::default().with_max_rounds(u64::MAX);
    let past_the_end = SimError::RoundLimitExceeded { limit: u64::MAX, unhalted_nodes: 3 };
    let node = |until, listen, halt| move |_| EndOfTime { until, listen, halt };
    let sleepers =
        |until, halt| assert_equivalent_runs(&g, cfg.clone(), 0, node(until, false, halt), |_| ());
    // Awake from `u64::MAX − 2` on: the round after the last is refused.
    assert_eq!(sleepers(u64::MAX - 2, false).expect_err("never halts"), past_the_end);
    // A jump to `u64::MAX` is refused before the round is opened.
    assert_eq!(sleepers(u64::MAX, true).expect_err("wakes too late"), past_the_end);
    // The last round there is: a run `u64::MAX` rounds long.
    let run = sleepers(u64::MAX - 1, true).expect("halts in the last round");
    assert_eq!((run.metrics.rounds, run.metrics.max_energy()), (u64::MAX, 2));

    let listeners = |until| Engine::new(&g, cfg.clone()).run(node(until, true, true));
    assert_eq!(listeners(u64::MAX).expect_err("listens too long"), past_the_end);
    // Awake in every round from 0 to `u64::MAX − 1`: charged for each.
    let run = listeners(u64::MAX - 1).expect("halts in the last round");
    assert_eq!(run.metrics.rounds, u64::MAX);
    assert_eq!(run.metrics.node_energy, vec![u64::MAX; 3]);
    assert_eq!(run.rounds_visited, 2);
}

/// Breaks both CONGEST bounds on one edge in one step: an oversized message
/// and a second one, in the order `oversized_first` says.
#[derive(Debug, Clone)]
struct Loudmouth {
    oversized_first: bool,
}

impl Protocol for Loudmouth {
    fn init(&mut self, ctx: &mut NodeCtx<'_>) {
        let edge = ctx.neighbors()[0].edge;
        let (big, small) = (&[1, 2, 3, 4, 5][..], &[6][..]);
        let (first, second) = if self.oversized_first { (big, small) } else { (small, big) };
        ctx.send_on_edge(edge, first);
        ctx.send_on_edge(edge, second);
        ctx.halt();
    }
    fn on_round(&mut self, _ctx: &mut NodeCtx<'_>, _inbox: &[Message]) {}
}

/// A send is checked for its size before its ports: an oversized message is
/// that error even when it is also the second on its edge, in both engines.
#[test]
fn an_oversized_send_is_met_before_its_edge_is_counted() {
    let g = generators::path(3, 1);
    for oversized_first in [true, false] {
        let node = |_| Loudmouth { oversized_first };
        let err = assert_equivalent_runs(&g, SimConfig::default(), 0, node, |_| ())
            .expect_err("the bound is broken");
        assert_eq!(err, SimError::MessageTooLarge { node: NodeId(0), words: 5 });
    }
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
