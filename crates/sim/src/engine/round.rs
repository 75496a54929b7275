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

use crate::fault::FaultPlan;
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
    /// The send records delivered this round: those sent last round.
    /// Double-buffered with the driver's outbox, so the steady-state message
    /// path never allocates.
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
    /// The fault layer: `None` for a plan that drops nothing, whose rules
    /// then roll no message fates.
    faults: Option<&'e FaultPlan>,
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
            faults: (!config.faults.is_none()).then_some(&config.faults),
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
    /// open is [`crate::SimConfig::max_rounds`], and never `u64::MAX`), fixes
    /// the awake list and wakes the listeners the round's mail is for.
    /// Returns whether there is anything to deliver or step; an entirely
    /// empty round needs neither pass.
    pub(super) fn begin_round(&mut self) -> Result<bool, SimError> {
        let round = self.round;
        self.rounds_visited += 1;
        if round > self.engine.config().last_round() {
            return Err(SimError::RoundLimitExceeded {
                limit: self.engine.config().max_rounds,
                unhalted_nodes: self.buf.active.unhalted(),
            });
        }
        // The awake set is collected before delivery, which reads
        // start-of-round receptivity: the round's due queue entries, then
        // every listening recipient of the stream — its wait ends with its
        // first mail. Then the set is written out as the id-sorted awake
        // list.
        let active = &mut self.buf.active;
        active.collect_due(round);
        if active.has_listeners() {
            let adjacency = self.adjacency;
            let recipients = self.buf.incoming.iter().flat_map(|f| f.ports(adjacency));
            active.wake_listeners(round, recipients.map(|port| port.neighbor));
        }
        active.take_awake(&mut self.buf.awake);
        Ok(!(self.buf.incoming.is_empty() && self.buf.awake.is_empty()))
    }

    /// Builds the inboxes in `arena` from this round's stream, fanning each
    /// record out over its ports, in stream order. Messages to sleeping or
    /// halted nodes are lost (the defining property of the sleeping model) —
    /// and counted, so protocol bugs cannot hide in silence.
    pub(super) fn deliver(&mut self, arena: &mut DeliveryArena) {
        let (round, active) = (self.round, &self.buf.active);
        let lost =
            arena.build(&self.buf.incoming, self.adjacency, |v| active.is_receptive(v, round));
        self.metrics.messages_lost += lost;
    }

    /// Steps `v` in this round: runs its callback — `init` in round 0,
    /// `on_round` on its inbox in `arena` otherwise — with its sends appended
    /// to `sent`; charges it the awake rounds of the step (this one,
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
        let mut ctx = NodeCtx::new(v, round, self.engine.graph(), sent);
        if round == 0 {
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
    /// step — then rolls their fault fates: drops vanish (counted). Fates
    /// come after accounting — a dropped message was still *sent* — and are
    /// pure functions of `(edge, sender, send round)`.
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
        if let Some(plan) = self.faults {
            plan.apply_message_faults(&mut self.metrics, self.round, self.adjacency, sent, from);
        }
        Ok(())
    }

    /// Closes the round `sent` was sent in and says whether the run is over.
    /// Otherwise `sent` becomes the next round's delivery stream and comes
    /// back empty, with its capacity.
    pub(super) fn end_round(&mut self, sent: &mut Vec<InFlight>) -> bool {
        let round = self.round;
        // Delivered or counted as lost, all of it (the arena build does not
        // drain).
        self.buf.incoming.clear();

        // Termination: all halted and nothing in flight. Whatever was sent
        // this round can never be delivered: count it as lost.
        if self.buf.active.all_halted() {
            self.metrics.messages_lost += sent.iter().map(|f| u64::from(f.len)).sum::<u64>();
            self.metrics.rounds = round + 1;
            return true;
        }

        // Quiescence fast-forward: nothing was sent this round, so nothing
        // can happen before the next scheduled wake-up — jump straight to
        // it, whether that is the next round (somebody who just ran stays
        // awake) or a thousand on. The skipped rounds still exist in the
        // model but cost nothing.
        if sent.is_empty() {
            if let Some(w) = self.buf.active.next_wake(round).filter(|&w| w > round) {
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
