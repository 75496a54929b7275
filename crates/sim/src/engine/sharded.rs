//! The sharded (multi-threaded) execution mode of [`Engine::run`].
//!
//! Nodes are partitioned into `S` contiguous id ranges ("shards"). Each shard
//! owns a slice of the protocol states, a range-restricted delivery arena,
//! and a private outbox; a persistent worker thread steps the shard's awake
//! nodes each round. The main thread then merges the shard outboxes in fixed
//! shard order and performs *all* global accounting itself — capacity
//! charging, fault fates, scheduler mutation — so the outcome is
//! byte-for-byte the sequential engine's at any `S`. The full determinism
//! argument lives in the [`super`] module docs.
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

use congest_graph::{EdgeId, NodeId};

use crate::fault::{FaultAction, FaultRuntime};
use crate::message::InFlight;
use crate::metrics::{EdgeUsageTrace, Metrics};
use crate::node::{NodeCtx, Request};
use crate::{Engine, Network, Protocol, RunOutcome, SimError};

use super::active_set::ActiveSet;
use super::capacity::CapacityTracker;
use super::delivery::DeliveryArena;

/// Round state the main thread publishes to the workers: written under the
/// write lock while the workers are parked at the start barrier, read under
/// read locks during the parallel section — every acquisition is uncontended.
struct Shared {
    round: u64,
    /// Messages delivered this round (sent last round, plus jitter arrivals
    /// merged in by the main thread). Workers scan it read-only.
    incoming: Vec<InFlight>,
    /// The nodes that run this round, globally sorted by id.
    awake: Vec<NodeId>,
    /// `awake[bounds[s]..bounds[s + 1]]` is shard `s`'s segment.
    bounds: Vec<usize>,
    /// The scheduler; workers only call its read-only queries (receptivity,
    /// and the awake rounds a listener is charged for when stepped).
    active: ActiveSet,
    /// The fault layer; workers only read `crashed` / `reinit`.
    faults: Option<FaultRuntime>,
}

/// One shard: a contiguous node-id range `[lo, hi)` with its own state slice,
/// delivery arena, and outbox. Guarded by a per-shard mutex that only its own
/// worker (during the parallel section) and the main thread (during the
/// merge) ever take — never both at once, so it is always uncontended.
struct Shard<P> {
    index: usize,
    lo: u32,
    hi: u32,
    /// Protocol states of nodes `[lo, hi)`, indexed by `id - lo`.
    states: Vec<P>,
    /// Awake-round counters of nodes `[lo, hi)`, added to
    /// [`Metrics::node_energy`] at termination (which already holds what the
    /// main thread charged listeners interrupted by a fault plan).
    energy: Vec<u64>,
    /// Range-restricted delivery arena over `[lo, hi)`.
    arena: DeliveryArena,
    /// This round's sends, in node-id order; drained into the global stream
    /// by the merge.
    outbox: Vec<InFlight>,
    /// Per-node scheduling requests, applied by the main thread in order
    /// during the merge.
    decisions: Vec<(NodeId, Request)>,
    /// Sleeping-model losses within this shard's range this round.
    lost: u64,
    /// Deliveries onto crashed nodes within this shard's range this round.
    crashed_hits: u64,
    /// A protocol panic caught while stepping, re-raised by the merge at
    /// this shard's position so panic-vs-error ordering matches the
    /// sequential engine.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// Runs the protocol across `shard_count >= 2` worker threads. Semantics are
/// bit-identical to [`Engine::run`]'s sequential path; see the module docs.
pub(super) fn run_sharded<P, F>(
    engine: &Engine<'_>,
    mut factory: F,
    shard_count: usize,
) -> Result<RunOutcome<P>, SimError>
where
    P: Protocol,
    F: FnMut(NodeId) -> P,
{
    let graph = engine.network().graph();
    let n = graph.node_count() as usize;
    let m = graph.edge_count() as usize;
    let chunk = n.div_ceil(shard_count);

    // States are created in id order, exactly as the sequential path does,
    // then split into per-shard slices (concatenation restores them).
    // simlint::allow(hot-path-alloc: one-time per-run setup before the round loop)
    let mut all_states: Vec<P> = graph.nodes().map(&mut factory).collect();
    let mut shards: Vec<Mutex<Shard<P>>> = Vec::with_capacity(shard_count);
    for s in (0..shard_count).rev() {
        let lo = (s * chunk).min(n);
        let hi = ((s + 1) * chunk).min(n);
        let states = all_states.split_off(lo);
        shards.push(Mutex::new(Shard {
            index: s,
            lo: lo as u32,
            hi: hi as u32,
            states,
            energy: vec![0; hi - lo], // simlint::allow(hot-path-alloc: per-run shard setup)
            arena: DeliveryArena::new_range(lo, hi),
            outbox: Vec::new(), // simlint::allow(hot-path-alloc: per-run shard setup)
            decisions: Vec::new(), // simlint::allow(hot-path-alloc: per-run shard setup)
            lost: 0,
            crashed_hits: 0,
            panic: None,
        }));
    }
    shards.reverse();

    let mut active = ActiveSet::new(n);
    let faults = FaultRuntime::new(&engine.config().faults, n, m);
    if faults.is_some() {
        active.enable_fault_filtering();
    }
    let shared = RwLock::new(Shared {
        round: 0,
        incoming: Vec::new(), // simlint::allow(hot-path-alloc: per-run setup; reused as the in-flight double buffer)
        awake: Vec::new(), // simlint::allow(hot-path-alloc: per-run setup; refilled in place each round)
        bounds: vec![0; shard_count + 1], // simlint::allow(hot-path-alloc: per-run setup; rewritten in place)
        active,
        faults,
    });
    let start = Barrier::new(shard_count + 1);
    let end = Barrier::new(shard_count + 1);
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for shard in &shards {
            let (shared, start, end, done) = (&shared, &start, &end, &done);
            let network = engine.network();
            scope.spawn(move || loop {
                start.wait();
                if done.load(Ordering::Acquire) {
                    return;
                }
                {
                    let sh = shared.read().expect("round state lock");
                    let mut sd = shard.lock().expect("shard lock");
                    step_shard(&mut sd, &sh, network);
                }
                end.wait();
            });
        }
        // Drive the rounds. Catch unwinds (a re-raised protocol panic) so the
        // workers are always released before leaving the scope — otherwise
        // the scope would block forever joining threads parked at the start
        // barrier.
        let result = catch_unwind(AssertUnwindSafe(|| {
            drive(engine, &mut factory, &shared, &shards, chunk, &start, &end)
        }));
        done.store(true, Ordering::Release);
        start.wait();
        match result {
            Ok(outcome) => outcome,
            Err(payload) => resume_unwind(payload),
        }
    })
}

/// One worker pass over one shard: build the shard's inboxes from the shared
/// in-flight stream, then step the shard's awake segment in id order. Runs
/// concurrently with the other shards' passes; touches nothing outside the
/// shard except read-only round state.
fn step_shard<P: Protocol>(sd: &mut Shard<P>, sh: &Shared, network: &Network<'_>) {
    let round = sh.round;
    // Delivery: keep the shared stream's messages addressed to this range, in
    // stream order. Receptivity is start-of-round scheduler state, read-only.
    sd.crashed_hits = 0;
    sd.lost = if let Some(rt) = sh.faults.as_ref() {
        let (lo, hi) = (sd.lo, sd.hi);
        sd.crashed_hits = sh
            .incoming
            .iter()
            .filter(|f| f.to.0 >= lo && f.to.0 < hi && rt.crashed[f.to.index()])
            .count() as u64;
        sd.arena.build_range(&sh.incoming, |v| {
            sh.active.is_receptive(v, round) && !rt.crashed[v.index()]
        })
    } else {
        sd.arena.build_range(&sh.incoming, |v| sh.active.is_receptive(v, round))
    };

    // Step this shard's segment of the awake list (contiguous, id-sorted).
    sd.decisions.clear();
    let seg = &sh.awake[sh.bounds[sd.index]..sh.bounds[sd.index + 1]];
    let lo = sd.lo as usize;
    let Shard { states, energy, arena, outbox, decisions, panic, .. } = sd;
    // Read once per pass, as in the sequential loop: requests made this round
    // are only applied by the merge.
    let listeners = sh.active.has_listeners();
    for &v in seg {
        let i = v.index() - lo;
        energy[i] += if listeners { sh.active.awake_rounds(v, round) } else { 1 };
        let sends_from = outbox.len();
        // Same rule as the sequential loop, minus the flag *take*: workers
        // read `reinit`; the main thread clears it during the merge.
        let run_init = round == 0 || sh.faults.as_ref().is_some_and(|rt| rt.reinit[v.index()]);
        let mut ctx = NodeCtx::new(v, round, network, outbox);
        let state = &mut states[i];
        let inbox = arena.inbox(v);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            if run_init {
                state.init(&mut ctx);
            } else {
                state.on_round(&mut ctx, inbox);
            }
        }));
        let request = ctx.request();
        match caught {
            Ok(()) => decisions.push((v, request)),
            Err(payload) => {
                // Discard the panicking node's partial sends — the sequential
                // engine never accounts a node's sends unless its callback
                // returned — and stop stepping this shard; the merge re-raises
                // at this shard's position.
                outbox.truncate(sends_from);
                *panic = Some(payload);
                return;
            }
        }
    }
}

/// The main thread's round loop: prepares round state while the workers are
/// parked, releases them through the barrier pair, then merges the shards in
/// fixed order, doing every piece of global accounting exactly as — and in
/// the same order as — the sequential engine.
fn drive<P, F>(
    engine: &Engine<'_>,
    factory: &mut F,
    shared: &RwLock<Shared>,
    shards: &[Mutex<Shard<P>>],
    chunk: usize,
    start: &Barrier,
    end: &Barrier,
) -> Result<RunOutcome<P>, SimError>
where
    P: Protocol,
    F: FnMut(NodeId) -> P,
{
    let graph = engine.network().graph();
    let config = engine.config();
    let n = graph.node_count() as usize;
    let m = graph.edge_count() as usize;
    let shard_count = shards.len();
    let mut capacity = CapacityTracker::new(m);
    let mut metrics = Metrics::zero(n, m);
    let mut trace = if config.record_edge_trace { Some(EdgeUsageTrace::default()) } else { None };
    // This round's merged sends; swapped into `Shared::incoming` at round end
    // (the same double-buffering as the sequential path, across the lock).
    let mut outgoing: Vec<InFlight> = Vec::new(); // simlint::allow(hot-path-alloc: per-run setup; reused every round)
    let mut this_round_trace: Vec<(EdgeId, u32)> = Vec::new(); // simlint::allow(hot-path-alloc: per-run setup; cleared in place)
    let mut round: u64 = 0;
    let max_words = config.effective_max_words();

    loop {
        // ---- Pre-round phase (workers parked at the start barrier) ----
        let dispatched = {
            let mut guard = shared.write().expect("round state lock");
            let sh = &mut *guard;
            if round > config.max_rounds {
                return Err(SimError::RoundLimitExceeded {
                    limit: config.max_rounds,
                    unhalted_nodes: sh.active.unhalted(),
                });
            }
            sh.round = round;
            // Churn first, exactly as in the sequential path. A restart's
            // fresh state is written straight into the owning shard.
            if let Some(rt) = sh.faults.as_mut() {
                while let Some(ev) = rt.next_event(round) {
                    match ev.action {
                        FaultAction::Crash { permanent } => {
                            metrics.crashes += 1;
                            rt.crashed[ev.node.index()] = true;
                            metrics.node_energy[ev.node.index()] +=
                                sh.active.set_down(ev.node, round);
                            if permanent {
                                sh.active.halt(ev.node);
                            }
                        }
                        FaultAction::Restart => {
                            metrics.restarts += 1;
                            rt.crashed[ev.node.index()] = false;
                            rt.reinit[ev.node.index()] = true;
                            let owner = (ev.node.index() / chunk).min(shard_count - 1);
                            let mut sd = shards[owner].lock().expect("shard lock");
                            let slot = ev.node.index() - sd.lo as usize;
                            sd.states[slot] = factory(ev.node);
                            metrics.node_energy[ev.node.index()] +=
                                sh.active.revive(ev.node, round);
                        }
                    }
                }
            }
            let Shared { active, awake, bounds, faults, incoming, .. } = sh;
            active.take_awake(round, awake);
            if let Some(rt) = faults.as_mut() {
                rt.merge_due(round, incoming);
            }
            // Early wake-ups are decided here, from the complete delivery
            // stream and before the awake list is cut into shard segments:
            // workers see a listener with mail as one more awake node.
            if active.has_listeners() {
                active.wake_listeners(round, incoming.iter().map(|f| f.to), awake);
            }
            for (s, bound) in bounds.iter_mut().enumerate().take(shard_count) {
                *bound = awake.partition_point(|v| v.index() < s * chunk);
            }
            bounds[shard_count] = awake.len();
            // An entirely empty round needs no worker pass: nothing to
            // deliver, count, or step.
            !(incoming.is_empty() && awake.is_empty())
        };

        // ---- Parallel phase ----
        if dispatched {
            start.wait();
            end.wait();
        }

        // ---- Merge phase (fixed shard order; workers parked again) ----
        capacity.reset();
        this_round_trace.clear();
        let mut guard = shared.write().expect("round state lock");
        let sh = &mut *guard;
        if dispatched {
            for shard in shards {
                let mut sd = shard.lock().expect("shard lock");
                let sd = &mut *sd;
                metrics.fault_drops += sd.crashed_hits;
                metrics.messages_lost += sd.lost - sd.crashed_hits;
                // Validate and account this shard's sends. The merged walk —
                // shard outboxes in shard order, each in node-id order — is
                // exactly the sequential engine's send stream, so capacity
                // counters, congestion, traces, and the *first* strict
                // violation all come out identical.
                for flight in &sd.outbox {
                    let edge = flight.msg.edge;
                    let v = flight.msg.from;
                    if flight.sent_words > max_words {
                        if config.strict_capacity {
                            return Err(SimError::MessageTooLarge {
                                node: v,
                                words: flight.sent_words,
                                max_words,
                            });
                        }
                        metrics.capacity_violations += 1;
                    }
                    let used = capacity.record(graph, edge, v);
                    if used > config.edge_capacity {
                        if config.strict_capacity {
                            return Err(SimError::EdgeCapacityExceeded {
                                node: v,
                                edge,
                                round,
                                capacity: config.edge_capacity,
                            });
                        }
                        metrics.capacity_violations += 1;
                    }
                    metrics.messages += 1;
                    metrics.edge_congestion[edge.index()] += 1;
                    if trace.is_some() {
                        this_round_trace.push((edge, 1));
                    }
                }
                // A protocol panic surfaces at its node's position in merge
                // order: earlier nodes' sends were accounted above, the
                // panicking node's partial sends were discarded by the
                // worker — the sequential panic point, bit for bit.
                if let Some(payload) = sd.panic.take() {
                    resume_unwind(payload);
                }
                // Fault fates are pure per-message functions of
                // `(edge, sender, send round)`, so rolling them batch-per-
                // shard here visits the same fates in the same order as the
                // sequential per-node pass, and the jitter buffer fills
                // identically.
                let from = outgoing.len();
                outgoing.append(&mut sd.outbox);
                if let Some(rt) = sh.faults.as_mut() {
                    if rt.has_message_faults() {
                        rt.apply_message_faults(&mut metrics, round, &mut outgoing, from);
                    }
                }
                // Sleep/listen/halt requests, in node-id order within the
                // shard.
                for &(v, request) in &sd.decisions {
                    sh.active.apply(v, round, request);
                }
            }
            // The sequential loop *takes* each running node's re-init flag
            // (never at round 0 — its `round == 0 ||` short-circuit skips the
            // take there). Workers only read the flags, so clear them here.
            if round != 0 {
                if let Some(rt) = sh.faults.as_mut() {
                    for v in &sh.awake {
                        rt.reinit[v.index()] = false;
                    }
                }
            }
            // The shared stream was fully delivered/counted (the range build
            // is non-draining); clear it before jitter arrivals merge into it
            // next round.
            sh.incoming.clear();
        }

        if let Some(t) = trace.as_mut() {
            // Coalesce duplicate edges in this round's trace entry; the
            // BTreeMap iterates in edge order, matching the sequential path.
            let mut merged: std::collections::BTreeMap<EdgeId, u32> =
                std::collections::BTreeMap::new();
            for &(e, c) in &this_round_trace {
                *merged.entry(e).or_insert(0) += c;
            }
            // simlint::allow(hot-path-alloc: trace recording is a diagnostic mode; the alloc gate runs untraced)
            t.rounds.push(merged.into_iter().collect());
        }

        // Termination check: all halted and nothing in flight.
        if sh.active.all_halted() {
            metrics.messages_lost += outgoing.len() as u64;
            if let Some(rt) = sh.faults.as_ref() {
                metrics.messages_lost += rt.pending_count();
            }
            metrics.rounds = round + 1;
            drop(guard);
            // Reassemble the final states and energy in shard order.
            let mut states = Vec::with_capacity(n);
            for shard in shards {
                let mut sd = shard.lock().expect("shard lock");
                let (lo, hi) = (sd.lo as usize, sd.hi as usize);
                for (total, stepped) in metrics.node_energy[lo..hi].iter_mut().zip(&sd.energy) {
                    *total += stepped;
                }
                states.append(&mut sd.states);
            }
            return Ok(RunOutcome { states, metrics, trace });
        }

        // Quiescence fast-forward, identical to the sequential path.
        if outgoing.is_empty() && sh.awake.is_empty() && config.fast_forward_idle {
            let target = if let Some(rt) = sh.faults.as_ref() {
                [sh.active.next_wake_scan(), rt.next_pending_round(), rt.next_event_round()]
                    .into_iter()
                    .flatten()
                    .min()
            } else {
                sh.active.next_wake()
            };
            if let Some(w) = target.filter(|&w| w > round) {
                if let Some(t) = trace.as_mut() {
                    for _ in round + 1..w {
                        t.rounds.push(Vec::new()); // simlint::allow(hot-path-alloc: trace mode only, and an empty Vec::new never touches the heap)
                    }
                }
                round = w;
                continue;
            }
        }

        sh.incoming.clear();
        std::mem::swap(&mut sh.incoming, &mut outgoing);
        round += 1;
    }
}
