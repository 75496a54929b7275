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
//! The CONGEST capacity — one message per edge direction per round — makes
//! `(edge, sender, send round)` identify a message uniquely, so no two
//! messages share a fate.
//!
//! # Fault taxonomy
//!
//! * **Drop** — a sent message vanishes in transit. It still counts as sent
//!   (message complexity and congestion record the send); the
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

use congest_graph::{Adjacency, EdgeId, NodeId};
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
    /// Jittered messages, as one-message records, keyed by their arrival
    /// round. Buckets fill in (send round, sender id, send order) order, so
    /// merged inboxes are deterministic and engine-independent.
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
            // normalize it to the first round after the crash (saturated: a
            // crash at round `u64::MAX` is never opened, nor its restart).
            let restart_at = c.restart_at.map(|r| r.max(c.at_round.saturating_add(1)));
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
        self.pending.values().flatten().map(|f| u64::from(f.len)).sum()
    }

    /// Applies per-message fates to the send records `outgoing[start..]` of
    /// one node in `round`, whose ports are runs of `adjacency`: each record
    /// is first split into one-message records, then drops are removed (and
    /// tallied), jittered messages move to the pending buffer and on-time
    /// messages stay, in send order. A fate is keyed by the message's edge,
    /// as it was before records existed. Both engines call this with the
    /// exact same `(record, round)` sequence.
    pub(crate) fn apply_message_faults(
        &mut self,
        metrics: &mut Metrics,
        round: u64,
        adjacency: &[Adjacency],
        outgoing: &mut Vec<InFlight>,
        start: usize,
    ) {
        // The survivors are appended behind the step's records, which are
        // then drained: in place, so a warm outbox allocates nothing.
        let end = outgoing.len();
        for read in start..end {
            for one in outgoing[read].split() {
                let edge = adjacency[one.start as usize].edge;
                match self.fate(edge, one.from, round) {
                    MessageFate::Drop => metrics.fault_drops += 1,
                    MessageFate::Deliver { delay: 0 } => outgoing.push(one),
                    MessageFate::Deliver { delay } => {
                        metrics.fault_delays += 1;
                        // Saturated: an arrival past `u64::MAX` is one the
                        // round limit refuses.
                        let arrival = round.saturating_add(1).saturating_add(delay);
                        self.pending.entry(arrival).or_default().push(one);
                    }
                }
            }
        }
        outgoing.drain(start..end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Words;

    /// A flat adjacency of `k` ports over the edges `0..k`, one port each:
    /// the fate pass reads nothing of a port but its edge.
    fn ports(k: u32) -> Vec<Adjacency> {
        let port = |e: u32| Adjacency { neighbor: NodeId((e + 1) % 4), edge: EdgeId(e), weight: 1 };
        (0..k).map(port).collect()
    }

    /// A send record by `from` over the ports `start..start + len`.
    fn record(from: u32, start: u32, len: u32) -> InFlight {
        InFlight { from: NodeId(from), start, len, sent_words: 1, words: Words::new(&[1]) }
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
    fn rounds_at_the_end_of_time_saturate() {
        // A crash at the last round restarts "after" it at `u64::MAX`, and a
        // delay past the last round arrives at `u64::MAX`: neither wraps.
        let plan = FaultPlan::none().with_crash(NodeId(0), u64::MAX, Some(0));
        let mut rt = FaultRuntime::new(&plan, 1).expect("non-empty plan");
        let events: Vec<_> =
            std::iter::from_fn(|| rt.next_event(u64::MAX)).map(|e| (e.round, e.action)).collect();
        let crash = FaultAction::Crash { permanent: false };
        assert_eq!(events, [(u64::MAX, FaultAction::Restart), (u64::MAX, crash)]);

        let mut rt = FaultRuntime::new(&FaultPlan::none().with_max_skew(u64::MAX), 4).unwrap();
        let (adjacency, mut metrics) = (ports(8), Metrics::zero(4, 8));
        let mut sent: Vec<InFlight> = (0..8).map(|e| record(0, e, 1)).collect();
        rt.apply_message_faults(&mut metrics, u64::MAX - 1, &adjacency, &mut sent, 0);
        assert!(metrics.fault_delays > 0, "eight draws over all of u64 delay something");
        assert_eq!(rt.next_pending_round(), Some(u64::MAX));
    }

    #[test]
    fn message_fault_pass_splits_records_and_partitions_their_messages() {
        // Records of one to three messages over 48 distinct edges, under a
        // uniform plan that drops and jitters: every message is dropped, kept
        // or delayed, exactly once, as a one-message record.
        let plan = FaultPlan::none().with_seed(5).with_drop_ppm(300_000).with_max_skew(3);
        let mut rt = FaultRuntime::new(&plan, 4).expect("non-empty plan");
        assert!(rt.has_message_faults());
        let adjacency = ports(48);
        let mut metrics = Metrics::zero(4, 48);
        let mut sent = Vec::new();
        let mut next = 0;
        while next < 48 {
            let len = (1 + sent.len() as u32 % 3).min(48 - next);
            sent.push(record(sent.len() as u32 % 4, next, len));
            next += len;
        }
        let edges = |flights: &[InFlight]| -> Vec<EdgeId> {
            flights.iter().flat_map(|f| f.ports(&adjacency)).map(|p| p.edge).collect()
        };
        let mut outgoing = sent.clone();
        let (round, start) = (4, 5);
        rt.apply_message_faults(&mut metrics, round, &adjacency, &mut outgoing, start);
        assert_eq!(edges(&outgoing[..start]), edges(&sent[..start]), "records before `start` stay");
        assert!(outgoing[start..].iter().all(|f| f.len == 1), "survivors are one message each");
        let kept = (outgoing.len() - start) as u64;
        let messages = sent[start..].iter().map(|f| u64::from(f.len)).sum::<u64>();
        assert!(metrics.fault_drops > 0 && kept > 0 && metrics.fault_delays > 0, "all three fates");
        assert_eq!(metrics.fault_drops + kept + metrics.fault_delays, messages);
        assert_eq!(rt.pending_count(), metrics.fault_delays);
        let on_time: Vec<InFlight> = sent[start..]
            .iter()
            .flat_map(|f| f.split())
            .filter(|f| {
                let edge = adjacency[f.start as usize].edge;
                rt.fate(edge, f.from, round) == MessageFate::Deliver { delay: 0 }
            })
            .collect();
        assert_eq!(edges(&outgoing[start..]), edges(&on_time), "on-time messages keep their order");

        let at = rt.next_pending_round().expect("something is delayed");
        assert!(at > round + 1, "a delayed message arrives strictly later than on time");
        let mut incoming = vec![record(0, 47, 1)];
        rt.merge_due(at, &mut incoming);
        let due = incoming.len() as u64 - 1;
        assert!(due > 0, "the earliest pending round has a bucket");
        assert_eq!(incoming[0].start, 47, "due messages go after the on-time ones");
        assert_eq!(due + rt.pending_count(), metrics.fault_delays);
        assert!(rt.next_pending_round().map_or(true, |next| next > at), "the bucket is gone");
    }
}
