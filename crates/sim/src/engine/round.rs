//! One simulated round, as the rules the driver of [`Engine::run`] calls.
//!
//! [`RoundCore`] holds everything about a run that is not a protocol state:
//! the round counter, the fault layer, the [`Metrics`] and the optional
//! trace, which are the run's own, and — borrowed from the thread's
//! `RunScratch` as a [`RoundScratch`], re-armed by
//! [`RoundCore::new`] — the in-flight stream being delivered, the awake
//! list, the scheduler and the capacity counters. Each rule of the model is
//! one method, called by the driver in [`super`] in the order its module
//! header lists. The reference loop shares nothing with this file — it is
//! the oracle these rules are tested against.
//!
//! The rules called once per stepped node are `#[inline(always)]`:
//! [`Engine::run`] is generic and instantiated in the caller's crate, and an
//! out-of-line call per node into this one (on a loop body of a few dozen
//! instructions) is what separates the driver from a loop written out by
//! hand.
//!
//! simlint: hot-path

use std::collections::BTreeMap;

use congest_graph::{EdgeId, NodeId};

use crate::fault::{FaultAction, FaultRuntime};
use crate::message::InFlight;
use crate::metrics::{EdgeUsageTrace, Metrics};
use crate::node::NodeCtx;
use crate::{Engine, Protocol, RunOutcome, SimError};

use super::active_set::ActiveSet;
use super::capacity::CapacityTracker;
use super::delivery::DeliveryArena;

/// The buffers of [`RoundCore`] that outlive a run, kept in a
/// `RunScratch`. Nothing in here is read before
/// [`RoundCore::new`] has re-armed it, so what the previous run left behind —
/// however it ended — cannot be observed.
#[derive(Debug, Default)]
pub(super) struct RoundScratch {
    /// Messages delivered this round: sent last round, plus the jitter
    /// arrivals [`RoundCore::begin_round`] merges in. Double-buffered with
    /// the driver's outbox, so the steady-state message path never allocates.
    incoming: Vec<InFlight>,
    /// The nodes that run this round, sorted by id.
    awake: Vec<NodeId>,
    active: ActiveSet,
    capacity: CapacityTracker,
    /// This round's `(edge, 1)` per send, coalesced by `end_round`.
    round_trace: Vec<(EdgeId, u32)>,
}

/// The state and rules of a run's rounds; see the module docs.
pub(super) struct RoundCore<'e> {
    engine: &'e Engine<'e>,
    /// [`crate::SimConfig::effective_max_words`], worked out once per run.
    max_words: usize,
    round: u64,
    /// Whether any node had listened by the start of this round. Read once
    /// per round: a node stepped in it can only be in a wait it asked for in
    /// an earlier one, so a first request made during this round's steps
    /// changes nothing until the next.
    listeners: bool,
    /// The buffers that outlive the run, re-armed for it.
    buf: &'e mut RoundScratch,
    /// The fault layer: `None` for the empty plan, which keeps every rule on
    /// its original (allocation-free) fault-free branch.
    faults: Option<FaultRuntime>,
    metrics: Metrics,
    trace: Option<EdgeUsageTrace>,
    /// See [`RunOutcome::rounds_visited`].
    rounds_visited: u64,
}

impl<'e> RoundCore<'e> {
    /// The state of a run about to enter round 0, every node awake, in
    /// `scratch` re-armed for it: `O(n + m)` clears that keep every
    /// buffer's capacity.
    pub(super) fn new(engine: &'e Engine<'e>, scratch: &'e mut RoundScratch) -> Self {
        let graph = engine.graph();
        let (n, m) = (graph.node_count() as usize, graph.edge_count() as usize);
        let config = engine.config();
        scratch.incoming.clear();
        scratch.awake.clear();
        scratch.active.rearm(n);
        scratch.capacity.rearm(m);
        scratch.round_trace.clear();
        let faults = FaultRuntime::new(&config.faults, n);
        if faults.is_some() {
            scratch.active.enable_fault_filtering();
        }
        RoundCore {
            engine,
            max_words: config.effective_max_words(),
            round: 0,
            listeners: false,
            buf: scratch,
            faults,
            metrics: Metrics::zero(n, m),
            trace: config.record_edge_trace.then(EdgeUsageTrace::default),
            rounds_visited: 0,
        }
    }

    /// The nodes that run this round, sorted by id.
    #[inline(always)]
    pub(super) fn awake(&self) -> &[NodeId] {
        &self.buf.awake
    }

    /// Opens the round: enforces the round limit, applies the round's churn
    /// (`reset` must replace the named node's protocol state with a fresh
    /// one), fixes the awake list and completes the delivery stream. Returns
    /// whether there is anything to deliver or step; an entirely empty round
    /// needs neither pass.
    pub(super) fn begin_round(&mut self, mut reset: impl FnMut(NodeId)) -> Result<bool, SimError> {
        let round = self.round;
        self.rounds_visited += 1;
        if round > self.engine.config().max_rounds {
            return Err(SimError::RoundLimitExceeded {
                limit: self.engine.config().max_rounds,
                unhalted_nodes: self.buf.active.unhalted(),
            });
        }
        // Churn before anything else: a crash takes effect at the start of
        // its round (the node never runs in it), and a restart puts the node
        // — with a fresh state — into this round's wake bucket. A listener
        // either one interrupts was up through `round − 1` and is charged
        // for that here.
        if let Some(rt) = self.faults.as_mut() {
            while let Some(ev) = rt.next_event(round) {
                let i = ev.node.index();
                match ev.action {
                    FaultAction::Crash { permanent } => {
                        self.metrics.crashes += 1;
                        rt.crashed[i] = true;
                        self.metrics.node_energy[i] += self.buf.active.set_down(ev.node, round);
                        if permanent {
                            self.buf.active.halt(ev.node);
                        }
                    }
                    FaultAction::Restart => {
                        self.metrics.restarts += 1;
                        rt.crashed[i] = false;
                        rt.reinit[i] = true;
                        reset(ev.node);
                        self.metrics.node_energy[i] += self.buf.active.revive(ev.node, round);
                    }
                }
            }
        }
        // The awake list is taken before delivery, which reads start-of-round
        // receptivity. Jitter-delayed messages due now join the stream after
        // the on-time ones; then every listening recipient of the complete
        // stream joins the awake list — its wait ends with its first mail.
        self.buf.active.take_awake(round, &mut self.buf.awake);
        if let Some(rt) = self.faults.as_mut() {
            rt.merge_due(round, &mut self.buf.incoming);
        }
        self.listeners = self.buf.active.has_listeners();
        if self.listeners {
            let recipients = self.buf.incoming.iter().map(|f| f.to);
            self.buf.active.wake_listeners(round, recipients, &mut self.buf.awake);
        }
        self.buf.capacity.reset();
        self.buf.round_trace.clear();
        Ok(!(self.buf.incoming.is_empty() && self.buf.awake.is_empty()))
    }

    /// Builds the inboxes in `arena` from this round's stream, in stream
    /// order. Messages to sleeping or halted nodes are lost (the defining
    /// property of the sleeping model) — and counted, so protocol bugs
    /// cannot hide in silence; deliveries onto a crashed node are attributed
    /// to the fault layer instead.
    pub(super) fn deliver(&mut self, arena: &mut DeliveryArena) {
        let (round, active, incoming) = (self.round, &self.buf.active, &self.buf.incoming);
        let Some(rt) = self.faults.as_ref() else {
            self.metrics.messages_lost += arena.build(incoming, |v| active.is_receptive(v, round));
            return;
        };
        let crashed = incoming.iter().filter(|f| rt.crashed[f.to.index()]).count() as u64;
        let lost =
            arena.build(incoming, |v| active.is_receptive(v, round) && !rt.crashed[v.index()]);
        self.metrics.messages_lost += lost - crashed;
        self.metrics.fault_drops += crashed;
    }

    /// Steps `v` in this round: runs its callback — `init` in round 0 and for
    /// a node freshly revived by a fault-injected restart (which ignores any
    /// inbox), `on_round` on its inbox in `arena` otherwise — with its sends
    /// appended to `sent`; charges it the awake rounds of the step (this one,
    /// plus the rounds a listener idled through since it last ran); accounts
    /// the sends; and schedules the node as it asked.
    #[inline(always)]
    pub(super) fn step_node<P: Protocol>(
        &mut self,
        v: NodeId,
        state: &mut P,
        arena: &DeliveryArena,
        sent: &mut Vec<InFlight>,
    ) -> Result<(), SimError> {
        let (round, from) = (self.round, sent.len());
        let charge = if self.listeners { self.buf.active.awake_rounds(v, round) } else { 1 };
        let reinit =
            self.faults.as_mut().is_some_and(|rt| std::mem::take(&mut rt.reinit[v.index()]));
        let mut ctx = NodeCtx::new(v, round, self.engine.graph(), sent);
        if round == 0 || reinit {
            state.init(&mut ctx);
        } else {
            state.on_round(&mut ctx, arena.inbox(v));
        }
        let request = ctx.request();
        self.metrics.node_energy[v.index()] += charge;
        self.account_sends(sent, from)?;
        self.buf.active.apply(v, round, request);
        Ok(())
    }

    /// Validates and accounts the sends `sent[from..]` — one node's step —
    /// then rolls their fault fates: drops vanish (counted), jittered
    /// messages move to the pending buffer. Fates come after accounting — a
    /// dropped message was still *sent* — and are pure functions of
    /// `(edge, sender, send round)`.
    #[inline(always)]
    fn account_sends(&mut self, sent: &mut Vec<InFlight>, from: usize) -> Result<(), SimError> {
        // The loop's invariants, read once.
        let config = self.engine.config();
        let (strict_capacity, edge_capacity) = (config.strict_capacity, config.edge_capacity);
        let (max_words, tracing) = (self.max_words, self.trace.is_some());
        for flight in &sent[from..] {
            let (edge, node) = (flight.msg.edge, flight.msg.from);
            let words = flight.sent_words as usize;
            if words > max_words {
                if strict_capacity {
                    return Err(SimError::MessageTooLarge { node, words, max_words });
                }
                self.metrics.capacity_violations += 1;
            }
            if self.buf.capacity.record(edge, node, flight.to) > edge_capacity {
                if strict_capacity {
                    let (round, capacity) = (self.round, edge_capacity);
                    return Err(SimError::EdgeCapacityExceeded { node, edge, round, capacity });
                }
                self.metrics.capacity_violations += 1;
            }
            self.metrics.messages += 1;
            self.metrics.edge_congestion[edge.index()] += 1;
            if tracing {
                self.buf.round_trace.push((edge, 1));
            }
        }
        if let Some(rt) = self.faults.as_mut() {
            if rt.has_message_faults() {
                rt.apply_message_faults(&mut self.metrics, self.round, sent, from);
            }
        }
        Ok(())
    }

    /// Closes the round `sent` was sent in and says whether the run is over.
    /// Otherwise `sent` becomes the next round's delivery stream and comes
    /// back empty, with its capacity.
    pub(super) fn end_round(&mut self, sent: &mut Vec<InFlight>) -> bool {
        let round = self.round;
        // Delivered or counted as lost, all of it (the arena build does not
        // drain) — and jitter arrivals merge into this buffer next round.
        self.buf.incoming.clear();
        if let Some(t) = self.trace.as_mut() {
            // Coalesce duplicate edges in this round's trace entry; the
            // BTreeMap iterates in edge order, so the entry comes out
            // sorted with no hasher order anywhere near the trace.
            let mut merged: BTreeMap<EdgeId, u32> = BTreeMap::new();
            for &(e, c) in &self.buf.round_trace {
                *merged.entry(e).or_insert(0) += c;
            }
            // simlint::allow(hot-path-alloc: trace recording is a diagnostic mode; the alloc gate runs untraced)
            t.rounds.push(merged.into_iter().collect());
        }

        // Termination: all halted and nothing in flight. Whatever was sent
        // this round — including jittered messages still held in the fault
        // layer — can never be delivered: count it as lost.
        if self.buf.active.all_halted() {
            self.metrics.messages_lost += sent.len() as u64;
            if let Some(rt) = self.faults.as_ref() {
                self.metrics.messages_lost += rt.pending_count();
            }
            self.metrics.rounds = round + 1;
            return true;
        }

        // Quiescence fast-forward: nothing was sent this round, so nothing
        // can happen before the next scheduled wake-up — jump straight to
        // it, whether that is the next round (somebody who just ran stays
        // awake) or a thousand on. The skipped rounds still exist in the
        // model but cost nothing. Under a fault plan the next event is the
        // earliest of a wake-up, a pending jittered delivery, and a churn
        // event.
        let config = self.engine.config();
        if sent.is_empty() {
            let wake = self.buf.active.next_wake(round);
            let target = match self.faults.as_ref() {
                Some(rt) => [wake, rt.next_pending_round(), rt.next_event_round()]
                    .into_iter()
                    .flatten()
                    .min(),
                None => wake,
            };
            if let Some(w) = target.filter(|&w| w > round) {
                // The trace gets one empty entry per skipped round — unless
                // the jump passes the round limit, which `begin_round` is
                // about to refuse: padding first would allocate a vector
                // header per round of a sleep to, say, 2^36 and abort.
                if let Some(t) = self.trace.as_mut().filter(|_| w <= config.max_rounds) {
                    // simlint::allow(hot-path-alloc: trace mode only, and an empty Vec::new never touches the heap)
                    t.rounds.resize_with(t.rounds.len() + (w - round - 1) as usize, Vec::new);
                }
                self.round = w;
                return false;
            }
        }
        // Mail is in flight: it is delivered next round. (If nothing can ever
        // happen again, rounds go by one at a time until the round limit
        // catches it.)
        std::mem::swap(&mut self.buf.incoming, sent);
        self.round += 1;
        false
    }

    /// The outcome of a run [`RoundCore::end_round`] declared over.
    pub(super) fn into_outcome<P>(self, states: Vec<P>) -> RunOutcome<P> {
        let (metrics, trace, rounds_visited) = (self.metrics, self.trace, self.rounds_visited);
        RunOutcome { states, metrics, trace, rounds_visited }
    }
}
