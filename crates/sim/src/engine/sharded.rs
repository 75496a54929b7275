//! The threaded driver of [`Engine::run`]: what is about threads, and nothing
//! else.
//!
//! Nodes are partitioned into `S` contiguous id ranges ("shards"). Each shard
//! owns a slice of the protocol states, a range-restricted delivery arena,
//! and a private outbox; a persistent worker thread delivers to and steps the
//! shard's awake nodes each round through the read-only rules of the shared
//! [`RoundCore`]. The main thread then walks the shards in fixed order and
//! feeds each outbox and decision list to the same `account_sends` / `apply`
//! the inline driver calls per node — so every rule of a round is the
//! [`RoundCore`]'s, and the outcome is byte-for-byte the inline driver's at
//! any `S`. Why the fixed-order walk is enough is argued in the [`super`]
//! module docs.
//!
//! Synchronisation is deliberately minimal and allocation-free in steady
//! state: one `thread::scope` with `S` workers spawned once per run, two
//! barriers delimiting each round's parallel section, a `RwLock` the main
//! thread writes only while the workers are parked, and one uncontended
//! mutex per shard. The hot path — a worker sweeping its slice — takes no
//! locks beyond those two once-per-round acquisitions.
//!
//! simlint: hot-path

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex, RwLock};

use congest_graph::NodeId;

use crate::message::InFlight;
use crate::node::Request;
use crate::{Engine, Protocol, RunOutcome, SimError};

use super::delivery::DeliveryArena;
use super::round::{Losses, RoundCore};
use super::RunScratch;

const CORE_LOCK: &str = "round state lock";
const SHARD_LOCK: &str = "shard lock";

/// One shard: a contiguous node-id range `[lo, hi)` with its own state slice,
/// delivery arena, and outbox. Guarded by a per-shard mutex that only its own
/// worker (during the parallel section) and the main thread (during the
/// merge) ever take — never both at once, so it is always uncontended.
struct Shard<P> {
    lo: u32,
    hi: u32,
    /// Protocol states of nodes `[lo, hi)`, indexed by `id - lo`.
    states: Vec<P>,
    /// Awake-round counters of nodes `[lo, hi)`, charged at termination (on
    /// top of what the churn rule charged listeners a fault plan
    /// interrupted).
    energy: Vec<u64>,
    /// Range-restricted delivery arena over `[lo, hi)`.
    arena: DeliveryArena,
    /// This round's sends, in node-id order; drained into the global stream
    /// by the merge.
    outbox: Vec<InFlight>,
    /// Per-node scheduling requests, applied by the main thread in order
    /// during the merge: a worker may not mutate the scheduler.
    decisions: Vec<(NodeId, Request)>,
    /// What this round's delivery lost within this shard's range.
    lost: Losses,
    /// A protocol panic caught while stepping, re-raised by the merge at
    /// this shard's position so panic-vs-error ordering matches the inline
    /// driver.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// Runs the protocol across `shard_count >= 2` worker threads. The round
/// state and the merged outbox live in `scratch`, as they do for the inline
/// driver; the shards — states, arenas, outboxes, decision lists — are this
/// run's own.
pub(super) fn run_sharded<P, F>(
    engine: &Engine<'_>,
    scratch: &mut RunScratch,
    mut factory: F,
    shard_count: usize,
) -> Result<RunOutcome<P>, SimError>
where
    P: Protocol,
    F: FnMut(NodeId) -> P,
{
    let graph = engine.network().graph();
    let n = graph.node_count() as usize;
    let chunk = n.div_ceil(shard_count);

    // States are created in id order, exactly as the inline driver does,
    // then split into per-shard slices (concatenation restores them).
    // simlint::allow(hot-path-alloc: one-time per-run setup before the round loop)
    let mut all_states: Vec<P> = graph.nodes().map(&mut factory).collect();
    let mut shards: Vec<Mutex<Shard<P>>> = Vec::with_capacity(shard_count);
    for s in (0..shard_count).rev() {
        let lo = (s * chunk).min(n);
        let hi = ((s + 1) * chunk).min(n);
        shards.push(Mutex::new(Shard {
            lo: lo as u32,
            hi: hi as u32,
            states: all_states.split_off(lo),
            energy: vec![0; hi - lo], // simlint::allow(hot-path-alloc: per-run shard setup)
            arena: DeliveryArena::new_range(lo, hi),
            outbox: Vec::new(), // simlint::allow(hot-path-alloc: per-run shard setup)
            decisions: Vec::new(), // simlint::allow(hot-path-alloc: per-run shard setup)
            lost: Losses::default(),
            panic: None,
        }));
    }
    shards.reverse();

    let core = RwLock::new(RoundCore::new(engine, &mut scratch.round));
    // This round's merged sends; becomes the core's delivery stream at round
    // end (the inline driver's double-buffering, across the lock).
    let outgoing = &mut scratch.outgoing;
    outgoing.clear();
    let start = Barrier::new(shard_count + 1);
    let end = Barrier::new(shard_count + 1);
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for shard in &shards {
            let (core, start, end, done) = (&core, &start, &end, &done);
            scope.spawn(move || loop {
                start.wait();
                if done.load(Ordering::Acquire) {
                    return;
                }
                step_shard(&mut shard.lock().expect(SHARD_LOCK), &core.read().expect(CORE_LOCK));
                end.wait();
            });
        }
        // Drive the rounds. Catch unwinds (a re-raised protocol panic) so the
        // workers are always released before leaving the scope — otherwise
        // the scope would block forever joining threads parked at the start
        // barrier.
        let result = catch_unwind(AssertUnwindSafe(|| {
            drive(&mut factory, &core, outgoing, &shards, chunk, &start, &end)
        }));
        done.store(true, Ordering::Release);
        start.wait();
        result.unwrap_or_else(|payload| resume_unwind(payload))
    })?;

    // Reassemble the final states and energy in shard order.
    let mut core = core.into_inner().expect(CORE_LOCK);
    let mut states = Vec::with_capacity(n);
    for shard in shards {
        let mut sd = shard.into_inner().expect(SHARD_LOCK);
        for (v, &stepped) in (sd.lo..sd.hi).map(NodeId).zip(&sd.energy) {
            core.charge(v, stepped);
        }
        states.append(&mut sd.states);
    }
    Ok(core.into_outcome(states))
}

/// One worker pass over one shard: build the shard's inboxes from the shared
/// in-flight stream, then step the shard's segment of the awake list —
/// contiguous, because the list is id-sorted — in id order. Runs concurrently
/// with the other shards' passes; touches nothing outside the shard except
/// read-only round state.
fn step_shard<P: Protocol>(sd: &mut Shard<P>, core: &RoundCore<'_>) {
    sd.lost = core.deliver_into(&mut sd.arena);
    sd.decisions.clear();
    let awake = core.awake();
    let seg = awake.partition_point(|v| v.0 < sd.lo)..awake.partition_point(|v| v.0 < sd.hi);
    let lo = sd.lo as usize;
    let Shard { states, energy, arena, outbox, decisions, panic, .. } = sd;
    for &v in &awake[seg] {
        let i = v.index() - lo;
        let sends_from = outbox.len();
        let state = &mut states[i];
        match catch_unwind(AssertUnwindSafe(|| core.step_node(v, state, arena, outbox))) {
            Ok(step) => {
                energy[i] += step.charge;
                decisions.push((v, step.request));
            }
            Err(payload) => {
                // Discard the panicking node's partial sends — no driver
                // accounts a node's sends unless its callback returned — and
                // stop stepping this shard; the merge re-raises at this
                // shard's position.
                outbox.truncate(sends_from);
                *panic = Some(payload);
                return;
            }
        }
    }
}

/// The main thread's round loop: opens the round while the workers are
/// parked, releases them through the barrier pair, then merges the shards in
/// fixed order.
fn drive<P, F>(
    factory: &mut F,
    core: &RwLock<RoundCore<'_>>,
    outgoing: &mut Vec<InFlight>,
    shards: &[Mutex<Shard<P>>],
    chunk: usize,
    start: &Barrier,
    end: &Barrier,
) -> Result<(), SimError>
where
    P: Protocol,
    F: FnMut(NodeId) -> P,
{
    loop {
        // A restart's fresh state is written straight into the owning shard.
        let dispatched = core.write().expect(CORE_LOCK).begin_round(|v| {
            let owner = (v.index() / chunk).min(shards.len() - 1);
            let mut sd = shards[owner].lock().expect(SHARD_LOCK);
            let slot = v.index() - sd.lo as usize;
            sd.states[slot] = factory(v);
        })?;
        if dispatched {
            start.wait();
            end.wait();
        }
        let mut core = core.write().expect(CORE_LOCK);
        if dispatched {
            for shard in shards {
                let sd = &mut *shard.lock().expect(SHARD_LOCK);
                core.count_losses(sd.lost);
                let from = outgoing.len();
                outgoing.append(&mut sd.outbox);
                core.account_sends(outgoing, from)?;
                // A protocol panic surfaces at its node's position in merge
                // order: earlier nodes' sends were accounted above (a strict
                // violation among them wins, as it would inline), the
                // panicking node's partial sends were discarded by the
                // worker.
                if let Some(payload) = sd.panic.take() {
                    resume_unwind(payload);
                }
                for &(v, request) in &sd.decisions {
                    core.apply(v, request);
                }
            }
        }
        if core.end_round(outgoing) {
            return Ok(());
        }
    }
}
