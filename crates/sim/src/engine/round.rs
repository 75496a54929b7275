//! One simulated round, as the rules the driver of [`Engine::run`] calls.
//!
//! [`RoundCore`] holds everything about a run that is not a protocol state:
//! the round counter, the fault layer and the [`Metrics`], which are the
//! run's own, and — borrowed from the thread's
//! `RunScratch` as a [`RoundScratch`], re-armed by
//! [`RoundCore::new`] — the in-flight stream being delivered, the awake
//! list, the scheduler and the ports a step has used. Each rule of the
//! model is one method, called by the driver in [`super`] in the order its
//! module header lists. The reference loop shares nothing with this file — it is
//! the oracle these rules are tested against.
//!
//! The rules called once per stepped node are `#[inline(always)]`:
//! [`Engine::run`] is generic and instantiated in the caller's crate, and an
//! out-of-line call per node into this one (on a loop body of a few dozen
//! instructions) is what separates the driver from a loop written out by
//! hand.
//!
//! simlint: hot-path

use congest_graph::{Adjacency, NodeId};

use crate::fault::{FaultAction, FaultRuntime};
use crate::message::InFlight;
use crate::metrics::Metrics;
use crate::node::NodeCtx;
use crate::{Engine, Protocol, RunOutcome, SimError, Words};

use super::active_set::ActiveSet;
use super::delivery::DeliveryArena;

/// The buffers of [`RoundCore`] that outlive a run, kept in a
/// `RunScratch`. Nothing in here is read before
/// [`RoundCore::new`] has re-armed it, so what the previous run left behind —
/// however it ended — cannot be observed.
#[derive(Debug, Default)]
pub(super) struct RoundScratch {
    /// The send records delivered this round: sent last round, plus the
    /// jitter arrivals [`RoundCore::begin_round`] merges in. Double-buffered
    /// with the driver's outbox, so the steady-state message path never
    /// allocates.
    incoming: Vec<InFlight>,
    /// The nodes that run this round, sorted by id.
    awake: Vec<NodeId>,
    active: ActiveSet,
    /// Whether the node being accounted has sent on a port yet this round, by
    /// position in its run; used only by a step of several records
    /// ([`RoundCore::account_sends`]), and cleared by it.
    port_used: Vec<bool>,
}

/// The state and rules of a run's rounds; see the module docs.
pub(super) struct RoundCore<'e> {
    engine: &'e Engine<'e>,
    /// The graph's flat CSR adjacency, which the send records index.
    adjacency: &'e [Adjacency],
    round: u64,
    /// The buffers that outlive the run, re-armed for it.
    buf: &'e mut RoundScratch,
    /// The fault layer: `None` for the empty plan, whose rules then apply no
    /// churn, jitter or message fates. The wake queue is the same either way:
    /// a crashed node's wake round is never, so it neither runs nor receives.
    faults: Option<FaultRuntime>,
    metrics: Metrics,
    /// See [`RunOutcome::rounds_visited`].
    rounds_visited: u64,
}

impl<'e> RoundCore<'e> {
    /// The state of a run about to enter round 0, every node awake, in
    /// `scratch` re-armed for it: `O(n)` clears that keep every buffer's
    /// capacity.
    pub(super) fn new(engine: &'e Engine<'e>, scratch: &'e mut RoundScratch) -> Self {
        let graph = engine.graph();
        let (n, m) = (graph.node_count() as usize, graph.edge_count() as usize);
        let config = engine.config();
        scratch.incoming.clear();
        scratch.awake.clear();
        scratch.active.rearm(n);
        RoundCore {
            engine,
            adjacency: graph.csr().1,
            round: 0,
            buf: scratch,
            faults: FaultRuntime::new(&config.faults, n),
            metrics: Metrics::zero(n, m),
            rounds_visited: 0,
        }
    }

    /// The nodes that run this round, sorted by id.
    #[inline(always)]
    pub(super) fn awake(&self) -> &[NodeId] {
        &self.buf.awake
    }

    /// Opens the round: enforces the round limit (the last round a run may
    /// open is [`crate::SimConfig::max_rounds`], and never `u64::MAX`),
    /// applies the round's churn (`reset` must replace the named node's
    /// protocol state with a fresh one), fixes the awake list and completes
    /// the delivery stream. Returns whether there is anything to deliver or
    /// step; an entirely empty round needs neither pass.
    pub(super) fn begin_round(&mut self, mut reset: impl FnMut(NodeId)) -> Result<bool, SimError> {
        let round = self.round;
        self.rounds_visited += 1;
        if round > self.engine.config().last_round() {
            return Err(SimError::RoundLimitExceeded {
                limit: self.engine.config().max_rounds,
                unhalted_nodes: self.buf.active.unhalted(),
            });
        }
        // Churn before anything else: a crash takes effect at the start of
        // its round (its wake round becomes never, so it does not run in
        // it), and a restart puts the node — with a fresh state — into this
        // round's wake bucket. A listener either one interrupts was up
        // through `round − 1` and is charged for that here.
        let active = &mut self.buf.active;
        if let Some(rt) = self.faults.as_mut() {
            while let Some(ev) = rt.next_event(round) {
                let i = ev.node.index();
                let energy = &mut self.metrics.node_energy[i];
                match ev.action {
                    FaultAction::Crash { permanent } => {
                        self.metrics.crashes += 1;
                        rt.crashed[i] = true;
                        *energy = energy.saturating_add(active.set_down(ev.node, round));
                        if permanent {
                            active.halt(ev.node);
                        }
                    }
                    FaultAction::Restart => {
                        self.metrics.restarts += 1;
                        rt.crashed[i] = false;
                        rt.reinit[i] = true;
                        reset(ev.node);
                        *energy = energy.saturating_add(active.revive(ev.node, round));
                    }
                }
            }
        }
        // The awake set is collected before delivery, which reads
        // start-of-round receptivity: the round's due queue entries; then,
        // once jitter-delayed messages due now have joined the stream after
        // the on-time ones, every listening recipient of the complete stream
        // — its wait ends with its first mail. Then the set is written out as
        // the id-sorted awake list.
        active.collect_due(round);
        if let Some(rt) = self.faults.as_mut() {
            rt.merge_due(round, &mut self.buf.incoming);
        }
        if active.has_listeners() {
            let adjacency = self.adjacency;
            let recipients = self.buf.incoming.iter().flat_map(|f| f.ports(adjacency));
            active.wake_listeners(round, recipients.map(|port| port.neighbor));
        }
        active.take_awake(&mut self.buf.awake);
        Ok(!(self.buf.incoming.is_empty() && self.buf.awake.is_empty()))
    }

    /// Builds the inboxes in `arena` from this round's stream, fanning each
    /// record out over its ports, in stream order. Messages to sleeping or halted nodes are lost (the defining
    /// property of the sleeping model) — and counted, so protocol bugs
    /// cannot hide in silence; deliveries onto a crashed node are attributed
    /// to the fault layer instead.
    pub(super) fn deliver(&mut self, arena: &mut DeliveryArena) {
        let (round, active, incoming) = (self.round, &self.buf.active, &self.buf.incoming);
        let adjacency = self.adjacency;
        let lost = arena.build(incoming, adjacency, |v| active.is_receptive(v, round));
        let Some(rt) = self.faults.as_ref() else {
            self.metrics.messages_lost += lost;
            return;
        };
        // A crashed node is never receptive: its deliveries are among the
        // lost ones, and are the fault layer's.
        let recipients = incoming.iter().flat_map(|f| f.ports(adjacency));
        let crashed = recipients.filter(|port| rt.crashed[port.neighbor.index()]).count() as u64;
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
        let charge = self.buf.active.awake_rounds(v, round);
        let reinit =
            self.faults.as_mut().is_some_and(|rt| std::mem::take(&mut rt.reinit[v.index()]));
        let mut ctx = NodeCtx::new(v, round, self.engine.graph(), sent);
        if round == 0 || reinit {
            state.init(&mut ctx);
        } else {
            state.on_round(&mut ctx, arena.inbox(v));
        }
        let request = ctx.request();
        let energy = &mut self.metrics.node_energy[v.index()];
        *energy = energy.saturating_add(charge);
        self.account_sends(v, sent, from)?;
        self.buf.active.apply(v, round, request);
        Ok(())
    }

    /// Validates and accounts the send records `sent[from..]` — node `v`'s
    /// step — then rolls their fault fates: drops vanish (counted), jittered
    /// messages move to the pending buffer. Fates come after accounting — a
    /// dropped message was still *sent* — and are pure functions of
    /// `(edge, sender, send round)`.
    ///
    /// The CONGEST bound is checked per step: only `v` writes its directions
    /// of its edges, and it steps at most once a round. One record never uses
    /// a port twice, so a step of one record needs no check of the capacity; a
    /// step of several marks the ports it uses, by position in `v`'s run, and
    /// a port marked twice is the error.
    #[inline(always)]
    fn account_sends(
        &mut self,
        v: NodeId,
        sent: &mut Vec<InFlight>,
        from: usize,
    ) -> Result<(), SimError> {
        let records = &sent[from..];
        let by_port = records.len() > 1;
        let (offsets, _) = self.engine.graph().csr();
        let run_start = offsets[v.index()];
        if by_port {
            let degree = (offsets[v.index() + 1] - run_start) as usize;
            self.buf.port_used.clear();
            self.buf.port_used.resize(degree, false);
        }
        for flight in records {
            let ports = flight.ports(self.adjacency);
            let words = flight.sent_words as usize;
            if words > Words::CAPACITY {
                return Err(SimError::MessageTooLarge { node: v, words });
            }
            if by_port {
                let used = &mut self.buf.port_used[(flight.start - run_start) as usize..];
                for (used, port) in used.iter_mut().zip(ports) {
                    if std::mem::replace(used, true) {
                        let (node, edge, round) = (v, port.edge, self.round);
                        return Err(SimError::EdgeCapacityExceeded { node, edge, round });
                    }
                }
            }
            self.metrics.messages += ports.len() as u64;
            for port in ports {
                self.metrics.edge_congestion[port.edge.index()] += 1;
            }
        }
        if let Some(rt) = self.faults.as_mut() {
            if rt.has_message_faults() {
                rt.apply_message_faults(&mut self.metrics, self.round, self.adjacency, sent, from);
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

        // Termination: all halted and nothing in flight. Whatever was sent
        // this round — including jittered messages still held in the fault
        // layer — can never be delivered: count it as lost.
        if self.buf.active.all_halted() {
            self.metrics.messages_lost += sent.iter().map(|f| u64::from(f.len)).sum::<u64>();
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
        RunOutcome { states, metrics: self.metrics, rounds_visited: self.rounds_visited }
    }
}
