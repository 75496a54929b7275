//! Differential testing of the threaded driver against the inline one.
//!
//! The design note in `engine/mod.rs` claims results are **bit-identical at
//! every thread count** — sharding is an execution strategy, not a semantic
//! knob. This harness checks that claim the same way `engine_equivalence.rs`
//! checks the active-set engine against the naive loop: a pseudo-random chaos
//! protocol (random sends, sleeps, halts, and a running digest over message
//! content/order/arrival round) runs on random graphs under random
//! configurations *and random fault plans*, once per thread count in
//! `{1, 2, 3, 4}` plus once through `run_reference`. Metrics, edge traces,
//! and per-node state digests must agree exactly across all five executions
//! — and strict-mode errors must be the *same* error.
//!
//! The listening chaos protocol ([`ChaosListener`]) goes through the same
//! comparison, with and without fault plans: early wake-ups are decided on
//! the main thread before the awake list is cut into shard segments, and
//! this is where a mistake in that order would show.
//!
//! Both drivers call one set of round rules (`engine/round.rs`), so what can
//! still diverge is the order and the thread they are called on — and what
//! can be wrong in both at once is a rule itself, which only the reference
//! loop can tell. The fixed cases at the end name the rules that used to
//! have one copy per driver and run each through all five executions.

use congest_graph::{generators, Graph, NodeId};
use congest_sim::fault::FaultPlan;
use congest_sim::workloads::{ChaosListener, WaveBfs};
use congest_sim::{Engine, Message, NodeCtx, Protocol, RunOutcome, SimConfig, SimError};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The thread counts every scenario is replayed at (1 = the inline driver).
const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 4];

/// Clears a `SIM_THREADS` override once per process: it would force every
/// run onto one thread count and collapse the sweep this harness exists for.
fn clear_thread_override() {
    static CLEAR: std::sync::Once = std::sync::Once::new();
    CLEAR.call_once(|| std::env::remove_var("SIM_THREADS"));
}

/// A deterministic pseudo-random protocol (the `engine_equivalence.rs`
/// chaos harness): behaviour depends only on the node's own RNG stream and
/// what the engine shows it.
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
        let lifetime = rng.gen_range(3u64..40);
        ChaosNode { rng, lifetime, digest: seed }
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
        if ctx.round() >= self.lifetime {
            ctx.halt();
        } else if self.rng.gen_range(0u32..100) < 35 {
            ctx.sleep_for(self.rng.gen_range(1u64..7));
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

/// Runs the chaos protocol at every thread count plus through the reference
/// engine and asserts all four executions are indistinguishable.
fn assert_thread_counts_equivalent(g: &Graph, cfg: SimConfig, seed: u64) {
    let _ = assert_runs_equivalent(g, cfg, seed, |id| ChaosNode::new(seed, id), |s| s.digest);
}

/// The same for the listening chaos protocol (waits on both sides of the
/// wake queue's 64-round ring).
fn assert_listeners_equivalent(g: &Graph, cfg: SimConfig, seed: u64) {
    let node = |id| ChaosListener::new(seed, id, 120, 90);
    let _ = assert_runs_equivalent(g, cfg, seed, node, |s| (s.digest, s.calls));
}

/// Runs one protocol at every thread count plus through the reference
/// engine; `key` reads the part of a final state the comparison is on.
/// Returns what they all agreed on, for the caller to check that the case
/// exercised what it was written for.
fn assert_runs_equivalent<P: Protocol + std::fmt::Debug, K: PartialEq + std::fmt::Debug>(
    g: &Graph,
    cfg: SimConfig,
    seed: u64,
    node: impl Fn(NodeId) -> P,
    key: impl Fn(&P) -> K,
) -> Result<RunOutcome<P>, SimError> {
    clear_thread_override();
    let baseline = Engine::new(g, cfg.clone().with_threads(1)).run(&node);
    for threads in &THREAD_COUNTS[1..] {
        let sharded = Engine::new(g, cfg.clone().with_threads(*threads)).run(&node);
        match (&baseline, &sharded) {
            (Ok(b), Ok(s)) => {
                assert_eq!(
                    b.metrics, s.metrics,
                    "metrics diverged at {threads} threads (seed {seed})"
                );
                assert_eq!(b.trace, s.trace, "traces diverged at {threads} threads (seed {seed})");
                let bd: Vec<K> = b.states.iter().map(&key).collect();
                let sd: Vec<K> = s.states.iter().map(&key).collect();
                assert_eq!(bd, sd, "final states diverged at {threads} threads (seed {seed})");
            }
            (Err(b), Err(s)) => {
                assert_eq!(b, s, "errors diverged at {threads} threads (seed {seed})");
            }
            (b, s) => panic!("outcome kind diverged at {threads} threads: 1={b:?} {threads}={s:?}"),
        }
    }
    // The reference loop is the semantic oracle for all of them.
    let reference = Engine::new(g, cfg).run_reference(&node);
    match (&baseline, &reference) {
        (Ok(b), Ok(r)) => {
            assert_eq!(b.metrics, r.metrics, "metrics diverged from reference (seed {seed})");
            assert_eq!(b.trace, r.trace, "traces diverged from reference (seed {seed})");
            let bd: Vec<K> = b.states.iter().map(&key).collect();
            let rd: Vec<K> = r.states.iter().map(&key).collect();
            assert_eq!(bd, rd, "final states diverged from reference (seed {seed})");
        }
        (Err(b), Err(r)) => assert_eq!(b, r, "errors diverged from reference (seed {seed})"),
        (b, r) => panic!("outcome kind diverged from reference: run={b:?} reference={r:?}"),
    }
    baseline
}

fn chaos_config() -> impl Strategy<Value = SimConfig> {
    (1u32..3, 0u8..2).prop_map(|(capacity, trace)| SimConfig {
        edge_capacity: capacity,
        strict_capacity: false,
        record_edge_trace: trace == 1,
        ..SimConfig::default()
    })
}

/// Random fault plans: message loss, delivery jitter, and crash/restart
/// churn — everything the fault layer can throw at the shard merge.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn thread_counts_agree_on_random_graphs(
        n in 2u32..28,
        extra in 0u64..40,
        graph_seed in 0u64..1_000_000,
        protocol_seed in 0u64..1_000_000,
        cfg in chaos_config(),
    ) {
        let g = generators::random_connected(n, extra, graph_seed);
        assert_thread_counts_equivalent(&g, cfg, protocol_seed);
    }

    #[test]
    fn thread_counts_agree_under_fault_plans(
        n in 3u32..24,
        extra in 0u64..30,
        graph_seed in 0u64..1_000_000,
        protocol_seed in 0u64..1_000_000,
        cfg in chaos_config(),
        plan in fault_plan(24),
    ) {
        let g = generators::random_connected(n, extra, graph_seed);
        assert_thread_counts_equivalent(&g, cfg.with_faults(plan), protocol_seed);
    }

    #[test]
    fn thread_counts_agree_on_listeners(
        n in 2u32..28,
        extra in 0u64..40,
        graph_seed in 0u64..1_000_000,
        protocol_seed in 0u64..1_000_000,
        cfg in chaos_config(),
    ) {
        let g = generators::random_connected(n, extra, graph_seed);
        assert_listeners_equivalent(&g, cfg, protocol_seed);
    }

    #[test]
    fn thread_counts_agree_on_listeners_under_fault_plans(
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
    fn thread_counts_agree_on_multigraphs(
        protocol_seed in 0u64..1_000_000,
        cfg in chaos_config(),
    ) {
        // Parallel edges exercise per-edge-direction capacity accounting in
        // the merge's sequential charging pass.
        let g = Graph::from_edges(3, [(0, 1, 1), (0, 1, 2), (1, 2, 1), (0, 2, 3), (0, 2, 3)])
            .expect("valid multigraph");
        assert_thread_counts_equivalent(&g, cfg, protocol_seed);
    }
}

/// A real workload across thread counts: wave-BFS distances, metrics, and
/// energy must come out identical, with more shards than some shards have
/// awake nodes in any given round.
#[test]
fn wave_bfs_is_bit_identical_across_thread_counts() {
    clear_thread_override();
    let g = generators::random_connected(400, 700, 11);
    let schedule = WaveBfs::schedule(&g, &[NodeId(0)]);
    let run = |threads: usize| {
        Engine::new(&g, SimConfig::default().with_threads(threads))
            .run(|id| WaveBfs::new(schedule[id.index()]))
            .expect("wave BFS completes")
    };
    let base = run(1);
    for threads in [2, 4, 7] {
        let sharded = run(threads);
        assert_eq!(base.metrics, sharded.metrics, "metrics diverged at {threads} threads");
        let bd: Vec<_> = base.states.iter().map(|s| s.dist).collect();
        let sd: Vec<_> = sharded.states.iter().map(|s| s.dist).collect();
        assert_eq!(bd, sd, "distances diverged at {threads} threads");
    }
}

/// Strict-mode violations must surface as the *same* first error regardless
/// of which shard steps the offending node.
#[test]
fn strict_errors_agree_across_thread_counts() {
    clear_thread_override();

    /// High-id nodes double-send on their first incident edge, so capacity 1
    /// breaks deterministically — and the *first* violation in node-id order
    /// sits in a late shard, while the merge must still report it first.
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
    let base = Engine::new(&g, SimConfig::default().with_threads(1)).run(|_| Blaster);
    let err = base.expect_err("capacity 1 must be exceeded");
    for threads in [2, 3, 4] {
        let sharded = Engine::new(&g, SimConfig::default().with_threads(threads)).run(|_| Blaster);
        assert_eq!(
            sharded.expect_err("same violation"),
            err,
            "error diverged at {threads} threads"
        );
    }
}

/// Listeners woken by the same round's mail, spread over every shard, fail in
/// node-id order like any other awake nodes: the first strict violation and
/// the first protocol panic are the inline driver's (and the reference's) at
/// every thread count.
#[test]
fn woken_listeners_fail_in_the_same_order_at_every_thread_count() {
    clear_thread_override();

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
    let run = |threads: usize, mode: Tripwire| {
        let engine = Engine::new(&g, SimConfig::default().with_threads(threads));
        std::panic::catch_unwind(|| match threads {
            0 => engine.run_reference(|_| mode),
            _ => engine.run(|_| mode),
        })
        .map(|outcome| outcome.map(|_| ()))
        .map_err(|payload| *payload.downcast::<String>().expect("a formatted panic message"))
    };
    let strict = run(1, Tripwire::Oversend).expect("no panic").expect_err("capacity 1 is exceeded");
    assert!(
        matches!(
            strict,
            congest_sim::SimError::EdgeCapacityExceeded { node: NodeId(3), round: 1, .. }
        ),
        "{strict:?}"
    );
    assert_eq!(run(1, Tripwire::Panic).expect_err("leaf 3 panics"), "leaf 3 tripped");
    // 0 stands for the reference loop.
    for threads in [0, 2, 3, 4] {
        assert_eq!(
            run(threads, Tripwire::Oversend).expect("no panic").expect_err("same violation"),
            strict,
            "error diverged at {threads} threads"
        );
        assert_eq!(
            run(threads, Tripwire::Panic).expect_err("same panic"),
            "leaf 3 tripped",
            "panic diverged at {threads} threads"
        );
    }
}

// --- One named case per round rule ------------------------------------------
//
// Fixed, not random: each is the smallest execution in which one rule of
// `engine/round.rs` decides the outcome, run through `run_reference` and
// `run` at every thread count and compared whole.

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
    let run = assert_runs_equivalent(&g, cfg, 0, node, |s| (s.inits, s.steps)).expect("halts");
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
    let run = assert_runs_equivalent(&g, cfg, 5, node, |s| s.calls.clone()).expect("halts");
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
    let run = assert_runs_equivalent(&g, cfg, 9, |_| LastWords, |_| ()).expect("halts");
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
/// be a 1.6 TB allocation. Without a fault plan the jump target comes from
/// the wake buckets, with one from the scan over `wake_at`.
#[test]
fn a_jump_past_the_round_limit_is_the_round_limit_error() {
    let g = generators::path(2, 1);
    let churn = FaultPlan::none().with_crash(NodeId(0), 5, Some(7));
    for plan in [FaultPlan::none(), churn] {
        for traced in [false, true] {
            let cfg = SimConfig::default().with_edge_trace(traced).with_faults(plan.clone());
            let err = assert_runs_equivalent(&g, cfg, 0, |_| FarSleeper(1 << 36), |_| ())
                .expect_err("2^36 is past the default limit");
            assert_eq!(err, SimError::RoundLimitExceeded { limit: 10_000_000, unhalted_nodes: 2 });
        }
    }
    // Below the limit the padding is still there: one entry per round.
    let cfg = SimConfig::default().with_edge_trace(true);
    let run = assert_runs_equivalent(&g, cfg, 0, |_| FarSleeper(1000), |_| ()).expect("halts");
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
    let run = assert_runs_equivalent(&g, cfg, 0, |_| Loudmouth, |_| ()).expect("lenient");
    assert_eq!((run.metrics.messages, run.metrics.capacity_violations), (6, 6));
    // In strict mode the oversized one is met first, at node 0.
    let err = assert_runs_equivalent(&g, SimConfig::default(), 0, |_| Loudmouth, |_| ())
        .expect_err("strict");
    assert_eq!(err, SimError::MessageTooLarge { node: NodeId(0), words: 5, max_words: 4 });
}

/// One thread means the calling thread: no worker is spawned and no barrier
/// touched, so every callback of a one-thread run executes on the thread
/// that called [`Engine::run`]; with four threads on 64 nodes the callbacks
/// are spread over workers, and nothing else about the run differs.
#[test]
fn one_thread_means_the_calling_thread() {
    clear_thread_override();

    #[derive(Debug, Clone)]
    struct Witness {
        seen: Vec<std::thread::ThreadId>,
        heard: u64,
    }
    impl Protocol for Witness {
        fn init(&mut self, ctx: &mut NodeCtx<'_>) {
            self.seen.push(std::thread::current().id());
            ctx.broadcast(&[ctx.node_id().0 as u64]);
        }
        fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Message]) {
            self.seen.push(std::thread::current().id());
            self.heard += inbox.iter().map(|m| m.word(0)).sum::<u64>();
            if ctx.round() >= 3 {
                ctx.halt();
            } else {
                ctx.broadcast(&[self.heard]);
            }
        }
    }

    let g = generators::random_connected(64, 100, 23);
    let run = |threads: usize| {
        Engine::new(&g, SimConfig::default().with_threads(threads))
            .run(|_| Witness { seen: Vec::new(), heard: 0 })
            .expect("halts in round 3")
    };
    let (inline, sharded) = (run(1), run(4));
    let caller = std::thread::current().id();
    assert!(inline.states.iter().all(|s| s.seen.len() == 4 && s.seen.iter().all(|&t| t == caller)));
    let mut workers: Vec<_> = sharded.states.iter().flat_map(|s| s.seen.clone()).collect();
    workers.sort_by_key(|t| format!("{t:?}"));
    workers.dedup();
    assert!(workers.len() >= 2, "four shards of sixteen nodes ran on {workers:?}");
    assert_eq!(inline.metrics, sharded.metrics);
    let heard = |run: &RunOutcome<Witness>| run.states.iter().map(|s| s.heard).collect::<Vec<_>>();
    assert_eq!(heard(&inline), heard(&sharded));
}

/// The neighbour index behind [`NodeCtx::send`] is built by the first send
/// on a network, not with the engine. Here that first send is a race: the
/// hub opens shard 0's pass and the first spoke of the other half opens
/// shard 1's, each waits for the other at a barrier inside its `init`, and
/// both then send by neighbour at once. Whichever builds the index, both —
/// and every node and run after them — read that one: the run equals the
/// inline one and the reference, and so does a second run on the same engine.
#[test]
fn the_first_send_by_neighbour_may_come_from_two_workers_at_once() {
    use congest_sim::workloads::HubPingPong;
    use std::sync::{Arc, Barrier};

    clear_thread_override();

    struct Gated {
        gate: Option<Arc<Barrier>>,
        node: HubPingPong,
    }
    impl Protocol for Gated {
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
    let plain = |id: NodeId| Gated { gate: None, node: HubPingPong::new(id == NodeId(0), 6) };
    let folds = |run: &RunOutcome<Gated>| run.states.iter().map(|s| s.node.acc).collect::<Vec<_>>();
    let inline = Engine::new(&g, SimConfig::default()).run(plain).expect("halts in round 6");
    let reference = Engine::new(&g, SimConfig::default()).run_reference(plain).expect("the same");
    assert_eq!((&inline.metrics, folds(&inline)), (&reference.metrics, folds(&reference)));

    let engine = Engine::new(&g, SimConfig::default().with_threads(2));
    let gate = Arc::new(Barrier::new(2));
    // Two shards of eight: nodes 0 and 8 are the first their workers step.
    let raced = engine
        .run(|id| Gated { gate: (id.0 % 8 == 0).then(|| Arc::clone(&gate)), ..plain(id) })
        .expect("halts in round 6");
    assert_eq!((&raced.metrics, folds(&raced)), (&inline.metrics, folds(&inline)));
    let again = engine.run(plain).expect("halts in round 6");
    assert_eq!((&again.metrics, folds(&again)), (&inline.metrics, folds(&inline)));
}
