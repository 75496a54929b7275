//! Seeded, deterministic fault injection: message loss, node crash/restart
//! ("churn"), and bounded delivery jitter.
//!
//! # Design: a fault plan, not a fault stream
//!
//! A [`FaultPlan`] is a *value* in [`crate::SimConfig`]: a seed, one drop
//! probability, one delivery-latency bound, and a list of [`CrashEvent`]s.
//! Everything the fabric does under a plan is a pure function of that value
//! and the execution itself — there is no hidden RNG state threaded through
//! the engine. Concretely, the fate of a message is decided by a ChaCha8
//! stream keyed by `seed ⊕ mix(edge, sender, send round)`, so
//!
//! * the same plan on the same protocol produces the *identical* fault
//!   schedule on every run, and
//! * the active-set engine ([`crate::Engine::run`]) and the reference sweep
//!   ([`crate::Engine::run_reference`]) see the same fates without sharing
//!   any mutable state — the differential harnesses extend to faulty runs
//!   unchanged.
//!
//! One consequence worth knowing: messages that share `(edge, sender, send
//! round)` share a fate. Under the default CONGEST capacity of 1 that tuple
//! identifies a message uniquely; with a larger capacity, a burst on one edge
//! in one round is dropped or delayed as a unit.
//!
//! # Fault taxonomy
//!
//! * **Drop** — a sent message vanishes in transit. It still counts as sent
//!   (message complexity, congestion, capacity, traces record the send); the
//!   loss is tallied in [`crate::Metrics::fault_drops`], separately from the
//!   sleeping-model's [`crate::Metrics::messages_lost`].
//! * **Crash / restart** — a node goes down at the *start* of
//!   [`CrashEvent::at_round`]: it does not run (a node crashing in the round
//!   it would have sent never sends), consumes no energy, and messages
//!   addressed to it are fault drops. Messages it already has in flight
//!   still deliver. With [`CrashEvent::restart_at`] set, the node comes back
//!   with a **fresh state** (the engine re-invokes the protocol factory) and
//!   re-runs [`crate::Protocol::init`] in the restart round — even a node
//!   that had halted is revived by a restart. Without a restart the crash is
//!   permanent, and the node counts as stopped for termination purposes.
//! * **Jitter** — delivery of a message is delayed by `0..=max_skew` extra
//!   rounds. Receptivity (awake/halted/crashed) is evaluated at the *actual*
//!   arrival round, so jitter composes with the sleeping model: a delayed
//!   message that lands on a sleeping node is a sleeping-model loss.
//!
//! `docs/FAULT_MODEL.md` documents the taxonomy, the determinism guarantees,
//! and the measured degradation matrix (experiment E14).

use std::collections::BTreeMap;

use congest_graph::{EdgeId, NodeId};
use rand::{splitmix64, Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::message::InFlight;
use crate::metrics::Metrics;

/// Probabilities are expressed in parts per million; this is "always".
pub const PPM: u32 = 1_000_000;

/// One scheduled node crash, optionally followed by a restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashEvent {
    /// The node that crashes.
    pub node: NodeId,
    /// The crash takes effect at the start of this round: the node does not
    /// run in it, and deliveries to it from this round on are fault drops.
    pub at_round: u64,
    /// If set, the round in which the node comes back with a fresh state and
    /// re-runs [`crate::Protocol::init`] (normalized to at least
    /// `at_round + 1`); if `None`, the crash is permanent.
    pub restart_at: Option<u64>,
}

/// A seeded, deterministic fault-injection plan (see the module docs for the
/// taxonomy and determinism guarantees). The default value is
/// [`FaultPlan::none`]: no faults, and the engines take their unmodified
/// fault-free paths.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed of the per-message fate stream. Two plans that differ only in
    /// the seed produce different drop/jitter schedules; the seed has no
    /// effect when no message faults are configured.
    pub seed: u64,
    /// Per-message drop probability in parts per million (`0..=`[`PPM`]),
    /// the same on every edge.
    pub drop_ppm: u32,
    /// Delivery-latency jitter bound: each message is delayed by a
    /// fate-drawn `0..=max_skew` extra rounds.
    pub max_skew: u64,
    /// Scheduled node crashes and restarts; entries for out-of-range nodes
    /// are ignored.
    pub crashes: Vec<CrashEvent>,
}

impl FaultPlan {
    /// The empty plan: no faults. Runs configured with it are bit-identical
    /// to runs without a fault layer at all.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// `true` iff the plan injects no fault of any kind (the seed alone does
    /// not count: it is inert without faults to apply it to).
    pub fn is_none(&self) -> bool {
        self.drop_ppm == 0 && self.max_skew == 0 && self.crashes.is_empty()
    }

    /// Sets the fate seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the drop probability (clamped to [`PPM`]).
    pub fn with_drop_ppm(mut self, ppm: u32) -> Self {
        self.drop_ppm = ppm.min(PPM);
        self
    }

    /// Sets the jitter bound.
    pub fn with_max_skew(mut self, max_skew: u64) -> Self {
        self.max_skew = max_skew;
        self
    }

    /// Adds a crash of `node` at `at_round`, restarting at `restart_at`
    /// (`None` for a permanent crash).
    pub fn with_crash(mut self, node: NodeId, at_round: u64, restart_at: Option<u64>) -> Self {
        self.crashes.push(CrashEvent { node, at_round, restart_at });
        self
    }
}

/// The fate of one sent message under a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MessageFate {
    /// The message vanishes in transit.
    Drop,
    /// The message arrives `1 + delay` rounds after it was sent (`delay == 0`
    /// is the normal synchronous delivery).
    Deliver {
        /// Extra rounds of delivery latency, `0..=max_skew`.
        delay: u64,
    },
}

/// What a [`FaultEvent`] does to its node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultAction {
    /// The node restarts: fresh state, `init` re-runs this round. Restarts
    /// sort before crashes within a round, so overlapping windows resolve to
    /// "the crash wins".
    Restart,
    /// The node goes down at the start of this round.
    Crash {
        /// `true` when no restart follows: the node counts as stopped.
        permanent: bool,
    },
}

impl FaultAction {
    fn order(self) -> u8 {
        match self {
            FaultAction::Restart => 0,
            FaultAction::Crash { .. } => 1,
        }
    }
}

/// One churn event, produced by compiling a plan's [`CrashEvent`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FaultEvent {
    pub(crate) round: u64,
    pub(crate) node: NodeId,
    pub(crate) action: FaultAction,
}

/// Mixes a message's identity into a fate-stream key. Shared verbatim by
/// both engines, which is what makes their fault schedules identical.
fn fate_key(edge: EdgeId, from: NodeId, send_round: u64) -> u64 {
    let mut s = (edge.index() as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (from.0 as u64 + 1).wrapping_mul(0xbf58_476d_1ce4_e5b9)
        ^ send_round.wrapping_mul(0x94d0_49bb_1331_11eb);
    splitmix64(&mut s)
}

/// The per-run runtime of a non-empty plan: the plan compiled against one
/// graph (a sorted churn-event queue) plus the mutable delivery state
/// (crashed flags, pending re-init flags, and the jitter buffer). Both
/// engines drive one of these through the identical sequence of calls,
/// which is the determinism argument in one sentence.
#[derive(Debug, Clone)]
pub(crate) struct FaultRuntime {
    seed: u64,
    drop_ppm: u32,
    max_skew: u64,
    /// Compiled churn events, sorted by `(round, action, node)`.
    events: Vec<FaultEvent>,
    /// Cursor into `events`: everything before it has been applied.
    cursor: usize,
    /// Per-node "currently crashed" flag (true between a crash and its
    /// restart, or forever for a permanent crash). Deliveries to a crashed
    /// node are fault drops, not sleeping-model losses.
    pub(crate) crashed: Vec<bool>,
    /// Per-node "run `init` instead of `on_round` next time it runs" flag,
    /// set by a restart.
    pub(crate) reinit: Vec<bool>,
    /// Jittered messages keyed by their arrival round. Buckets fill in
    /// (send round, sender id, send order) order, so merged inboxes are
    /// deterministic and engine-independent.
    pending: BTreeMap<u64, Vec<InFlight>>,
}

impl FaultRuntime {
    /// Compiles `plan` for a graph with `n` nodes; `None` for the empty plan,
    /// which keeps the engines on their fault-free paths.
    pub(crate) fn new(plan: &FaultPlan, n: usize) -> Option<FaultRuntime> {
        if plan.is_none() {
            return None;
        }
        let mut events = Vec::new();
        for c in &plan.crashes {
            if c.node.index() >= n {
                continue;
            }
            // A restart in or before the crash round would be a no-op crash;
            // normalize it to the first round after the crash.
            let restart_at = c.restart_at.map(|r| r.max(c.at_round + 1));
            events.push(FaultEvent {
                round: c.at_round,
                node: c.node,
                action: FaultAction::Crash { permanent: restart_at.is_none() },
            });
            if let Some(r) = restart_at {
                events.push(FaultEvent { round: r, node: c.node, action: FaultAction::Restart });
            }
        }
        events.sort_by_key(|e| (e.round, e.action.order(), e.node));
        Some(FaultRuntime {
            seed: plan.seed,
            drop_ppm: plan.drop_ppm.min(PPM),
            max_skew: plan.max_skew,
            events,
            cursor: 0,
            crashed: vec![false; n],
            reinit: vec![false; n],
            pending: BTreeMap::new(),
        })
    }

    /// `true` when any drop or jitter is configured (churn-only plans skip
    /// the per-send fate pass).
    pub(crate) fn has_message_faults(&self) -> bool {
        self.drop_ppm > 0 || self.max_skew > 0
    }

    /// Pops the next churn event due at (or before) `round`, advancing the
    /// event cursor.
    pub(crate) fn next_event(&mut self, round: u64) -> Option<FaultEvent> {
        let ev = *self.events.get(self.cursor)?;
        if ev.round <= round {
            self.cursor += 1;
            Some(ev)
        } else {
            None
        }
    }

    /// The round of the next unapplied churn event, if any.
    pub(crate) fn next_event_round(&self) -> Option<u64> {
        self.events.get(self.cursor).map(|e| e.round)
    }

    /// The fate of a message sent over `edge` by `from` in `send_round`: a
    /// pure function of the plan and the message's identity. Called only
    /// when [`FaultRuntime::has_message_faults`].
    pub(crate) fn fate(&self, edge: EdgeId, from: NodeId, send_round: u64) -> MessageFate {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ fate_key(edge, from, send_round));
        if self.drop_ppm > 0 && rng.gen_range(0u32..PPM) < self.drop_ppm {
            return MessageFate::Drop;
        }
        let delay = if self.max_skew > 0 { rng.gen_range(0u64..=self.max_skew) } else { 0 };
        MessageFate::Deliver { delay }
    }

    /// Appends the jittered messages arriving in `round` to `incoming`
    /// (after the on-time messages, in send order — both engines merge in
    /// this order, so inboxes stay bit-identical).
    pub(crate) fn merge_due(&mut self, round: u64, incoming: &mut Vec<InFlight>) {
        if let Some(mut bucket) = self.pending.remove(&round) {
            incoming.append(&mut bucket);
        }
    }

    /// The earliest round with a pending jittered delivery, if any.
    pub(crate) fn next_pending_round(&self) -> Option<u64> {
        self.pending.keys().next().copied()
    }

    /// Number of jittered messages still awaiting delivery (counted as lost
    /// when the run terminates before they arrive).
    pub(crate) fn pending_count(&self) -> u64 {
        self.pending.values().map(|b| b.len() as u64).sum()
    }

    /// Applies per-message fates to the sends `outgoing[start..]` of one node
    /// in `round`: drops are removed (and tallied), jittered messages move to
    /// the pending buffer, on-time messages stay, order preserved. Both
    /// engines call this with the exact same `(flight, round)` sequence.
    pub(crate) fn apply_message_faults(
        &mut self,
        metrics: &mut Metrics,
        round: u64,
        outgoing: &mut Vec<InFlight>,
        start: usize,
    ) {
        let mut write = start;
        for read in start..outgoing.len() {
            let flight = outgoing[read];
            match self.fate(flight.msg.edge, flight.msg.from, round) {
                MessageFate::Drop => metrics.fault_drops += 1,
                MessageFate::Deliver { delay: 0 } => {
                    outgoing[write] = flight;
                    write += 1;
                }
                MessageFate::Deliver { delay } => {
                    metrics.fault_delays += 1;
                    self.pending.entry(round + 1 + delay).or_default().push(flight);
                }
            }
        }
        outgoing.truncate(write);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Words;
    use crate::Message;

    fn flight(edge: u32, from: u32, to: u32) -> InFlight {
        InFlight {
            to: NodeId(to),
            sent_words: 1,
            msg: Message { from: NodeId(from), edge: EdgeId(edge), words: Words::new(&[1]) },
        }
    }

    #[test]
    fn empty_plan_compiles_to_nothing() {
        assert!(FaultPlan::none().is_none());
        assert!(FaultPlan::none().with_seed(7).is_none(), "a seed alone is inert");
        assert!(FaultRuntime::new(&FaultPlan::none(), 4).is_none());
        assert!(!FaultPlan::none().with_drop_ppm(1).is_none());
        assert!(!FaultPlan::none().with_max_skew(1).is_none());
        assert!(!FaultPlan::none().with_crash(NodeId(0), 3, None).is_none());
    }

    #[test]
    fn fates_are_deterministic_and_seed_dependent() {
        let plan = FaultPlan::none().with_seed(11).with_drop_ppm(500_000).with_max_skew(3);
        let rt = FaultRuntime::new(&plan, 4).expect("non-empty plan");
        let fates: Vec<MessageFate> =
            (0..64).map(|r| rt.fate(EdgeId(r % 6), NodeId(r % 4), r as u64)).collect();
        let again: Vec<MessageFate> =
            (0..64).map(|r| rt.fate(EdgeId(r % 6), NodeId(r % 4), r as u64)).collect();
        assert_eq!(fates, again, "fates are a pure function of the plan");
        assert!(fates.contains(&MessageFate::Drop), "a 50% rate drops something in 64 draws");
        assert!(
            fates.iter().any(|f| matches!(f, MessageFate::Deliver { delay } if *delay > 0)),
            "skew 3 delays something in 64 draws"
        );

        let other = FaultRuntime::new(&plan.clone().with_seed(12), 4).expect("non-empty plan");
        let reseeded: Vec<MessageFate> =
            (0..64).map(|r| other.fate(EdgeId(r % 6), NodeId(r % 4), r as u64)).collect();
        assert_ne!(fates, reseeded, "the seed selects the schedule");
    }

    #[test]
    fn ppm_is_clamped_and_certain_drop_always_drops() {
        let plan = FaultPlan::none().with_drop_ppm(u32::MAX);
        assert_eq!(plan.drop_ppm, PPM);
        let rt = FaultRuntime::new(&plan, 2).expect("non-empty plan");
        for r in 0..32 {
            assert_eq!(rt.fate(EdgeId(r % 2), NodeId(0), r as u64), MessageFate::Drop);
        }
    }

    #[test]
    fn events_sort_restarts_first_and_normalize_restart_rounds() {
        let plan = FaultPlan::none()
            .with_crash(NodeId(1), 5, Some(10))
            .with_crash(NodeId(0), 10, Some(3)) // restart_at <= at_round: normalized to 11
            .with_crash(NodeId(7), 1, None); // out of range for n = 4: dropped
        let mut rt = FaultRuntime::new(&plan, 4).expect("non-empty plan");
        assert!(!rt.has_message_faults(), "churn-only plans skip the fate pass");
        assert_eq!(rt.next_event_round(), Some(5));
        assert!(rt.next_event(4).is_none(), "events wait for their round");
        let e = rt.next_event(5).expect("crash at 5");
        assert_eq!((e.node, e.action), (NodeId(1), FaultAction::Crash { permanent: false }));
        // Round 10: node 1's restart sorts before node 0's crash.
        let e = rt.next_event(10).expect("restart at 10");
        assert_eq!((e.node, e.action), (NodeId(1), FaultAction::Restart));
        let e = rt.next_event(10).expect("crash at 10");
        assert_eq!((e.node, e.action), (NodeId(0), FaultAction::Crash { permanent: false }));
        let e = rt.next_event(11).expect("normalized restart at 11");
        assert_eq!((e.node, e.action), (NodeId(0), FaultAction::Restart));
        assert!(rt.next_event(u64::MAX).is_none());
    }

    #[test]
    fn message_fault_pass_partitions_sends() {
        // Flights with distinct fate keys, under a uniform plan that drops
        // and jitters: every send is dropped, kept or delayed, exactly once.
        let plan = FaultPlan::none().with_seed(5).with_drop_ppm(300_000).with_max_skew(3);
        let mut rt = FaultRuntime::new(&plan, 4).expect("non-empty plan");
        assert!(rt.has_message_faults());
        let mut metrics = Metrics::zero(4, 48);
        let sent: Vec<InFlight> = (0..48).map(|i| flight(i, i % 4, (i + 1) % 4)).collect();
        let keys =
            |flights: &[InFlight]| -> Vec<EdgeId> { flights.iter().map(|f| f.msg.edge).collect() };
        let mut outgoing = sent.clone();
        let (round, start) = (4, 5);
        rt.apply_message_faults(&mut metrics, round, &mut outgoing, start);
        assert_eq!(keys(&outgoing[..start]), keys(&sent[..start]), "sends before `start` stay");
        let kept = (outgoing.len() - start) as u64;
        assert!(metrics.fault_drops > 0 && kept > 0 && metrics.fault_delays > 0, "all three fates");
        assert_eq!(metrics.fault_drops + kept + metrics.fault_delays, (sent.len() - start) as u64);
        assert_eq!(rt.pending_count(), metrics.fault_delays);
        let on_time: Vec<InFlight> = sent[start..]
            .iter()
            .copied()
            .filter(|f| rt.fate(f.msg.edge, f.msg.from, round) == MessageFate::Deliver { delay: 0 })
            .collect();
        assert_eq!(keys(&outgoing[start..]), keys(&on_time), "on-time sends keep their order");

        let at = rt.next_pending_round().expect("something is delayed");
        assert!(at > round + 1, "a delayed message arrives strictly later than on time");
        let mut incoming = vec![flight(99, 0, 1)];
        rt.merge_due(at, &mut incoming);
        let due = incoming.len() as u64 - 1;
        assert!(due > 0, "the earliest pending round has a bucket");
        assert_eq!(incoming[0].msg.edge, EdgeId(99), "due messages go after the on-time ones");
        assert_eq!(due + rt.pending_count(), metrics.fault_delays);
        assert!(rt.next_pending_round().map_or(true, |next| next > at), "the bucket is gone");
    }
}
