//! Allocation regression test for the zero-allocation message fabric.
//!
//! A counting global allocator wraps [`std::alloc::System`], and a
//! message-saturated always-awake protocol snapshots the allocation counter
//! at the start of every round (node 0 runs first each round, so consecutive
//! snapshots bracket exactly one full engine round: sends, capacity
//! accounting, rescheduling, delivery, and inbox construction). After a
//! warm-up long enough for every reused buffer — the shared outbox, the
//! in-flight double buffer, the delivery arena, and all `WINDOW` wake-ring
//! slots — to reach its steady capacity, **every remaining round must
//! perform zero heap allocations**.
//!
//! This is the contract the inline-payload [`congest_sim::Words`] refactor
//! establishes: in the CONGEST model a message is `O(log n)` bits, so moving
//! one must never touch the allocator.
//!
//! Listening ([`NodeCtx::listen_until`]) holds the same contract: waking a
//! listener early, filtering the deadline entry it left behind, and settling
//! its idle rounds all work in place on per-run buffers.
//!
//! One `Engine::run` also has a pinned *set-up*: the number of
//! allocations and of bytes a thread's first run asks for before its first
//! round is stepped is what the parent of the round-core refactor asked for —
//! a second energy column, a per-step decision list or a copy of the state
//! vector would show here without a clock. And the next run on that thread
//! has none: it finds the buffers the first one grew and allocates what it
//! returns, whatever the size of the graph or the length of the run.
//!
//! The random-delay scheduler's spread front end
//! ([`congest_sim::scheduler::schedule_spread`]) holds a per-*message*
//! version of it: composing a fixed set of instances allocates the same
//! handful of buffers whether they carry five thousand messages or fifty
//! thousand.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use congest_graph::{generators, NodeId};
use congest_sim::scheduler::{schedule_spread, SpreadInstance};
use congest_sim::workloads::{ChaosListener, WaveBfs};
use congest_sim::{Engine, Message, NodeCtx, Protocol, SimConfig};

/// Counts every allocation (alloc, alloc_zeroed, realloc); frees are not
/// interesting here — a free implies a matching earlier allocation.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes asked for by those calls (the new size, for a realloc).
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: same contract as `System::alloc`, to which this delegates.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // simlint::allow(relaxed-ordering: monotone test-only counter; snapshots need no ordering with other memory)
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // simlint::allow(relaxed-ordering: as above)
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwards the caller's `Layout` contract unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `System::alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // simlint::allow(relaxed-ordering: monotone test-only counter; snapshots need no ordering with other memory)
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // simlint::allow(relaxed-ordering: as above)
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwards the caller's `Layout` contract unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: same contract as `System::realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // simlint::allow(relaxed-ordering: monotone test-only counter; snapshots need no ordering with other memory)
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // simlint::allow(relaxed-ordering: as above)
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: forwards the caller's pointer/layout contract unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: same contract as `System::dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwards the caller's pointer/layout contract unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Message-saturated flood whose node 0 snapshots the allocation counter at
/// the start of each round. The protocol itself must stay allocation-free:
/// its per-round state is a `u64` fold and a pre-sized snapshot vector.
struct ProbedFlood {
    until: u64,
    acc: u64,
    /// `(round, allocations so far)` snapshots; non-empty only on node 0,
    /// pre-sized at construction so pushes never reallocate.
    snapshots: Vec<(u64, u64)>,
}

impl ProbedFlood {
    fn new(id: NodeId, until: u64) -> ProbedFlood {
        let snapshots =
            if id == NodeId(0) { Vec::with_capacity(until as usize + 2) } else { Vec::new() };
        ProbedFlood { until, acc: id.0 as u64 + 1, snapshots }
    }
}

impl Protocol for ProbedFlood {
    fn init(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.broadcast(&[self.acc]);
    }

    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Message]) {
        if ctx.node_id() == NodeId(0) {
            // simlint::allow(relaxed-ordering: the counter is monotone and single-purpose; an exact-at-a-boundary read is not required)
            self.snapshots.push((ctx.round(), ALLOCATIONS.load(Ordering::Relaxed)));
        }
        for msg in inbox {
            self.acc = self.acc.rotate_left(5) ^ msg.word(0);
        }
        if ctx.round() >= self.until {
            ctx.halt();
        } else {
            ctx.broadcast(&[self.acc]);
        }
    }
}

/// One test body for both assertions: tests in one binary run on parallel
/// threads by default, and a concurrently running test would pollute the
/// process-global allocation counter.
#[test]
fn steady_state_rounds_allocate_nothing_and_the_probe_is_honest() {
    steady_state_rounds_allocate_nothing();
    reference_engine_allocates_every_round();
    listening_rounds_allocate_nothing();
    schedule_replay_allocations_do_not_depend_on_the_message_count();
    per_run_setup_is_what_the_hand_written_loop_asked_for();
    a_warm_scratch_run_allocates_its_outputs_only();
}

/// Every pinned delta is the least of this many repeats of the measured call:
/// the counters are process-global and libtest's own thread allocates now and
/// then — in one repeat, where a regression of the call is in every one.
const REPEATS: usize = 3;

/// `(allocations, bytes)` one call of `run` asks the allocator for.
fn allocations_of<T>(mut run: impl FnMut() -> T) -> (u64, u64) {
    let mut least = (u64::MAX, u64::MAX);
    for _ in 0..REPEATS {
        least = min_pair(least, allocations_of_one(&mut run));
    }
    least
}

/// [`allocations_of`] a thread's first call of `run`: each repeat is made on
/// a freshly spawned thread, whose engine buffers have seen no run yet.
fn setup_allocations_of<T>(run: impl Fn() -> T + Sync) -> (u64, u64) {
    let mut least = (u64::MAX, u64::MAX);
    for _ in 0..REPEATS {
        let first = std::thread::scope(|s| s.spawn(|| allocations_of_one(&run)).join());
        least = min_pair(least, first.expect("no panic"));
    }
    least
}

fn allocations_of_one<T>(run: impl FnOnce() -> T) -> (u64, u64) {
    // simlint::allow(relaxed-ordering: monotone test-only counters read on the thread that allocates)
    let before = (ALLOCATIONS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    let out = run();
    // simlint::allow(relaxed-ordering: as above)
    let after = (ALLOCATIONS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    drop(out);
    (after.0 - before.0, after.1 - before.1)
}

fn min_pair(a: (u64, u64), b: (u64, u64)) -> (u64, u64) {
    (a.0.min(b.0), a.1.min(b.1))
}

/// `(round, allocations during it)` for every round between two consecutive
/// `(round, allocations so far)` snapshots of a probe that is stepped every
/// round, over [`REPEATS`] runs of the same deterministic execution. Each
/// run is made on a freshly spawned thread, so every repeat starts on empty
/// engine buffers and a buffer that grows late shows in all of them.
fn round_deltas(snapshots_of_run: impl Fn() -> Vec<(u64, u64)> + Sync) -> Vec<(u64, u64)> {
    let deltas_of_run = || -> Vec<(u64, u64)> {
        let snapshots =
            std::thread::scope(|s| s.spawn(&snapshots_of_run).join()).expect("no panic");
        let delta = |pair: &[(u64, u64)]| {
            assert_eq!(pair[1].0, pair[0].0 + 1, "the probe is stepped every round");
            (pair[0].0, pair[1].1 - pair[0].1)
        };
        snapshots.windows(2).map(delta).collect()
    };
    let mut least = deltas_of_run();
    for _ in 1..REPEATS {
        for (least, again) in least.iter_mut().zip(deltas_of_run()) {
            assert_eq!(least.0, again.0, "the runs replay round for round");
            least.1 = least.1.min(again.1);
        }
    }
    least
}

/// The ceilings are the numbers of `run_seq`, the hand-written loop the
/// driver over `RoundCore` replaced, measured by this very function on the
/// commit before (x86-64, where a `WaveBfs` is 32 bytes): the driver must not
/// ask for one allocation or byte more. A second energy column alone would
/// ask for 131 072 bytes more on the large run, and a per-step decision list
/// or a copy of the states more again.
///
/// One ceiling has moved since, on purpose: the capacity counters carry an
/// epoch stamp beside each count, so a round's reset is one increment instead
/// of a walk over a touched list. That column is `2m × 4` bytes — 260 096 on
/// the 128 × 128 grid — in the same allocation as the counts; re-measured on
/// the parent of that change, the large run asked for (13, 1 668 608), and
/// asks for (13, 1 928 704) with it. The 32-node runs went down (43 → 39
/// and 43 → 38 allocations: the touched list it replaced grew in steps), and
/// their ceilings stay.
fn per_run_setup_is_what_the_hand_written_loop_asked_for() {
    // What the ledger's `sim.wave_run_setup_us` times: every node of the
    // `engine-wave` grid halts in round 0. The engine is built inside the
    // measurement.
    let grid = generators::grid(128, 128, 1);
    let engine = |g| Engine::new(g, SimConfig::default());
    let halt_at_once =
        setup_allocations_of(|| engine(&grid).run(|_| WaveBfs::new(None)).expect("halts"));
    // One run at the size of the cutter's instances inside `apsp-random`.
    let small = generators::random_connected(32, 40, 3);
    let schedule = WaveBfs::schedule(&small, &[NodeId(0)]);
    let wave = setup_allocations_of(|| {
        engine(&small).run(|id| WaveBfs::new(schedule[id.index()])).expect("halts")
    });
    assert!(halt_at_once.0 <= 13 && halt_at_once.1 <= 1_928_704, "16384 nodes: {halt_at_once:?}");
    assert!(wave.0 <= 43 && wave.1 <= 23_680, "32 nodes: {wave:?}");
    assert_eq!(allocations_of(|| engine(&grid)), (0, 0), "building an engine is free");
    // Deadlines beyond the wake queue's ring: the far tier is two flat
    // buffers, with one entry per listener however often it is woken.
    let far = setup_allocations_of(|| {
        engine(&small).run(|id| ListeningWave::new(id, 10_000)).expect("halts at the deadline")
    });
    assert!(far.0 <= 43 && far.1 <= 26_864, "32 listeners: {far:?}");
}

/// One wave among listeners: node 0 announces in round 0, everybody else
/// repeats the first announcement it hears, and all wait — awake, idle — for
/// the common deadline `until` to halt.
struct ListeningWave {
    until: u64,
    announce: bool,
}

impl ListeningWave {
    fn new(id: NodeId, until: u64) -> ListeningWave {
        ListeningWave { until, announce: id == NodeId(0) }
    }
}

impl Protocol for ListeningWave {
    fn init(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.announce {
            ctx.broadcast(&[0]);
        }
        self.announce = !self.announce;
        ctx.listen_until(self.until);
    }

    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Message]) {
        if self.announce && !inbox.is_empty() {
            ctx.broadcast(&[ctx.round()]);
            self.announce = false;
        }
        if ctx.round() >= self.until {
            ctx.halt();
        } else {
            ctx.listen_until(self.until);
        }
    }
}

/// The second run on a thread finds every buffer the first one grew: what
/// is left to allocate is what the run hands back — the states and the two
/// `Metrics` columns — on 32 nodes as on 16 384, over 10 rounds as over
/// 10 000, with the far tier of the wake queue in use or not.
fn a_warm_scratch_run_allocates_its_outputs_only() {
    let small = generators::random_connected(32, 40, 3);
    let grid = generators::grid(128, 128, 1);
    let second_run = |run: &(dyn Fn() + Sync)| {
        let on_a_fresh_thread = || {
            run();
            allocations_of(run).0
        };
        std::thread::scope(|s| s.spawn(on_a_fresh_thread).join()).expect("no panic")
    };
    let mut counts = Vec::new();
    for g in [&small, &grid] {
        let engine = Engine::new(g, SimConfig::default());
        let schedule = WaveBfs::schedule(g, &[NodeId(0)]);
        counts.push(second_run(&|| {
            engine.run(|id| WaveBfs::new(schedule[id.index()])).expect("halts");
        }));
        for until in [10, 10_000] {
            counts.push(second_run(&|| {
                engine.run(|id| ListeningWave::new(id, until)).expect("halts");
            }));
        }
    }
    assert!(counts.iter().all(|&c| c == counts[0] && c <= 4), "second runs allocated {counts:?}");
}

/// 64 instances × 200 edges composed by the spread front end: the number of
/// allocations is a function of the instance and edge counts alone — the same
/// for 5 k messages as for 50 k or for none, on one timeline.
fn schedule_replay_allocations_do_not_depend_on_the_message_count() {
    let (instances, edges, rounds) = (64usize, 200usize, 400u64);
    let allocations_for = |messages: u64| {
        // `messages` in total, dealt round-robin over the (instance, edge)
        // pairs so every instance has the same rounds, delay and vector length.
        let pairs = (instances * edges) as u64;
        let totals: Vec<Vec<u64>> = (0..instances as u64)
            .map(|i| {
                (0..edges as u64)
                    .map(|e| messages / pairs + u64::from(i * edges as u64 + e < messages % pairs))
                    .collect()
            })
            .collect();
        let spread: Vec<SpreadInstance<'_>> = totals
            .iter()
            .enumerate()
            .map(|(i, t)| SpreadInstance { delay: 3 * i as u64, rounds, edge_totals: t })
            .collect();
        let composed = || {
            let out = schedule_spread(&spread, 4).expect("no overflow");
            assert_eq!(out.total_messages, messages);
            out
        };
        allocations_of(composed).0
    };
    let base = allocations_for(5_000);
    assert!(base <= 8, "timeline, column, bitmap and delays — not {base} allocations");
    for messages in [0, 50_000, 500_000] {
        assert_eq!(allocations_for(messages), base, "{messages} messages");
    }
}

fn steady_state_rounds_allocate_nothing() {
    // Always-awake flood: every round moves 2m messages, reschedules every
    // node, and rebuilds every inbox — the maximal per-round churn of the
    // message path. 192 nodes keep the test fast; the buffers involved are
    // the same at any size.
    let until: u64 = 160;
    // Each repeat runs on a fresh thread, whose engine buffers start empty.
    // The wake ring has 64 slots, each of which must grow to capacity n
    // once; everything else warms within a couple of rounds. 96 rounds of
    // warm-up covers the ring with margin.
    let warmup: u64 = 96;
    let g = generators::random_connected(192, 400, 41);
    let deltas = round_deltas(|| {
        let mut run = Engine::new(&g, SimConfig::default())
            .run(|id| ProbedFlood::new(id, until))
            .expect("flood runs clean");
        let snapshots = std::mem::take(&mut run.states[0].snapshots);
        assert_eq!(snapshots.len() as u64, until, "node 0 saw every round from 1 to until");
        snapshots
    });

    let mut steady_rounds = 0u64;
    for (round, allocated) in deltas {
        if round >= warmup {
            steady_rounds += 1;
            assert_eq!(
                allocated, 0,
                "round {round} performed {allocated} heap allocation(s); \
                 the steady-state message path must perform none"
            );
        }
    }
    assert!(steady_rounds >= 48, "the steady-state window must be observable");
}

/// The probe protocol itself is honest: the same workload on the reference
/// engine (naive per-round allocation) must allocate in *every* round —
/// proving the counter actually observes the engine, not a fluke of inlining.
fn reference_engine_allocates_every_round() {
    let until: u64 = 48;
    let g = generators::random_connected(96, 200, 43);
    let run = Engine::new(&g, SimConfig::default())
        .run_reference(|id| ProbedFlood::new(id, until))
        .expect("flood runs clean");

    let snapshots = &run.states[0].snapshots;
    assert!(snapshots.len() as u64 == until);
    for pair in snapshots.windows(2) {
        let [(r0, a0), (_, a1)] = pair else { unreachable!() };
        assert!(
            a1 > a0,
            "reference round {r0} allocated nothing — the probe is not observing the engine"
        );
    }
}

/// The listening chaos workload with a probe in place of node 0: the probe
/// is stepped every round (it never listens) and snapshots the allocation
/// counter, while every other node listens, sleeps, is woken early by mail
/// and re-listens around it.
enum ProbedListener {
    Probe { until: u64, snapshots: Vec<(u64, u64)> },
    Node(ChaosListener),
}

impl Protocol for ProbedListener {
    fn init(&mut self, ctx: &mut NodeCtx<'_>) {
        if let ProbedListener::Node(node) = self {
            node.init(ctx);
        }
    }

    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Message]) {
        match self {
            ProbedListener::Probe { until, snapshots } => {
                // simlint::allow(relaxed-ordering: the counter is monotone and single-purpose; an exact-at-a-boundary read is not required)
                snapshots.push((ctx.round(), ALLOCATIONS.load(Ordering::Relaxed)));
                if ctx.round() >= *until {
                    ctx.halt();
                }
            }
            ProbedListener::Node(node) => node.on_round(ctx, inbox),
        }
    }
}

fn listening_rounds_allocate_nothing() {
    // Waits of at most 60 rounds keep every deadline inside the wake queue's
    // 64-slot ring (the far tier's buffers grow with the entries queued, and
    // that is the far-sleeper path, not this one). Each repeat runs on a
    // fresh thread, whose engine buffers start empty, and the load is
    // random, so a buffer's high-water mark is never final; to make the
    // measured window allocation-free by construction rather than by luck,
    // the odd half of the nodes halts by round 200 and the window opens at
    // 300, at half the load every buffer was sized under.
    let (warmup, until) = (300u64, 700u64);
    let g = generators::random_connected(192, 400, 47);
    let deltas = round_deltas(|| {
        let mut run = Engine::new(&g, SimConfig::default())
            .run(|id| {
                if id == NodeId(0) {
                    let snapshots = Vec::with_capacity(until as usize + 2);
                    ProbedListener::Probe { until, snapshots }
                } else {
                    let lifetime = if id.0 % 2 == 1 { 200 } else { 1600 };
                    ProbedListener::Node(ChaosListener::new(53, id, lifetime, 60))
                }
            })
            .expect("listeners halt on a schedule");
        // The window is not vacuous: the listeners idle through most of their
        // awake rounds (charged, not called) and are called back in the rest.
        let calls: u64 = run
            .states
            .iter()
            .map(|s| if let ProbedListener::Node(node) = s { node.calls } else { 0 })
            .sum();
        let energy: u64 = run.metrics.node_energy[1..].iter().sum();
        assert!(calls > 10 * until && energy > 2 * calls, "{calls} calls, {energy} awake rounds");
        let ProbedListener::Probe { snapshots, .. } = &mut run.states[0] else { unreachable!() };
        assert_eq!(snapshots.len() as u64, until, "the probe saw every round from 1 to until");
        std::mem::take(snapshots)
    });
    for (round, allocated) in deltas {
        assert!(
            round < warmup || allocated == 0,
            "round {round} performed {allocated} heap allocation(s) while nodes listened"
        );
    }
}
