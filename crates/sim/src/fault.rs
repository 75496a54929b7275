//! Seeded, deterministic fault injection: message loss.
//!
//! # Design: a fault plan, not a fault stream
//!
//! A [`FaultPlan`] is a *value* in [`crate::SimConfig`]: a seed and one drop
//! probability. Everything the fabric does under a plan is a pure function
//! of that value and the execution itself — there is no hidden RNG state
//! threaded through the engine. Concretely, the fate of a message is decided
//! by a ChaCha8 stream keyed by `seed ⊕ mix(edge, sender, send round)`, so
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
//! One kind: **drop** — a sent message vanishes in transit. It still counts
//! as sent (message complexity and congestion record the send); the loss is
//! tallied in [`crate::Metrics::fault_drops`], separately from the
//! sleeping-model's [`crate::Metrics::messages_lost`]. The paper's model is
//! synchronous, and its only other lost message is one sent to a sleeping
//! node, which the engines model without a plan.
//!
//! `docs/FAULT_MODEL.md` documents the taxonomy, the determinism guarantees,
//! and the measured degradation matrix (experiment E14).

use congest_graph::{Adjacency, EdgeId, NodeId};
use rand::{splitmix64, Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::message::InFlight;
use crate::metrics::Metrics;

/// Probabilities are expressed in parts per million; this is "always".
pub const PPM: u32 = 1_000_000;

/// A seeded, deterministic fault-injection plan (see the module docs for the
/// taxonomy and determinism guarantees). The default value is
/// [`FaultPlan::none`]: no faults, and the engines take their unmodified
/// fault-free paths.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed of the per-message fate stream. Two plans that differ only in
    /// the seed produce different drop schedules; the seed has no effect
    /// when no drops are configured.
    pub seed: u64,
    /// Per-message drop probability in parts per million (`0..=`[`PPM`]),
    /// the same on every edge.
    pub drop_ppm: u32,
}

impl FaultPlan {
    /// The empty plan: no faults. Runs configured with it are bit-identical
    /// to runs without a fault layer at all.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// `true` iff the plan drops nothing (the seed alone does not count: it
    /// is inert without drops to apply it to).
    pub fn is_none(&self) -> bool {
        self.drop_ppm == 0
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

    /// Whether the message sent over `edge` by `from` in `send_round` is
    /// dropped: a pure function of the plan and the message's identity, so
    /// both engines, calling it with the identical sequence of sends, draw
    /// the identical fates — the determinism argument in one sentence. A
    /// `drop_ppm` of [`PPM`] or more drops every message.
    pub(crate) fn drops(&self, edge: EdgeId, from: NodeId, send_round: u64) -> bool {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ fate_key(edge, from, send_round));
        rng.gen_range(0u32..PPM) < self.drop_ppm
    }

    /// Applies per-message fates to the send records `outgoing[start..]` of
    /// one node in `round`, whose ports are runs of `adjacency`: each record
    /// is first split into one-message records, then drops are removed (and
    /// tallied) and the other messages stay, in send order. A fate is keyed
    /// by the message's edge, as it was before records existed. Both engines
    /// call this with the exact same `(record, round)` sequence, and only for
    /// a plan that is not [`FaultPlan::none`].
    pub(crate) fn apply_message_faults(
        &self,
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
                if self.drops(edge, one.from, round) {
                    metrics.fault_drops += 1;
                } else {
                    outgoing.push(one);
                }
            }
        }
        outgoing.drain(start..end);
    }
}

/// Mixes a message's identity into a fate-stream key. Shared verbatim by
/// both engines, which is what makes their fault schedules identical.
fn fate_key(edge: EdgeId, from: NodeId, send_round: u64) -> u64 {
    let mut s = (edge.index() as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (from.0 as u64 + 1).wrapping_mul(0xbf58_476d_1ce4_e5b9)
        ^ send_round.wrapping_mul(0x94d0_49bb_1331_11eb);
    splitmix64(&mut s)
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
    fn a_plan_without_drops_compiles_to_nothing() {
        assert!(FaultPlan::none().is_none());
        assert!(FaultPlan::none().with_seed(7).is_none(), "a seed alone is inert");
        assert!(!FaultPlan::none().with_drop_ppm(1).is_none());
    }

    #[test]
    fn fates_are_deterministic_and_seed_dependent() {
        let plan = FaultPlan::none().with_seed(11).with_drop_ppm(500_000);
        let fates: Vec<bool> =
            (0..64).map(|r| plan.drops(EdgeId(r % 6), NodeId(r % 4), r as u64)).collect();
        let again: Vec<bool> =
            (0..64).map(|r| plan.drops(EdgeId(r % 6), NodeId(r % 4), r as u64)).collect();
        assert_eq!(fates, again, "fates are a pure function of the plan");
        assert!(fates.contains(&true), "a 50% rate drops something in 64 draws");
        assert!(fates.contains(&false), "and keeps something");

        let other = plan.clone().with_seed(12);
        let reseeded: Vec<bool> =
            (0..64).map(|r| other.drops(EdgeId(r % 6), NodeId(r % 4), r as u64)).collect();
        assert_ne!(fates, reseeded, "the seed selects the schedule");
    }

    #[test]
    fn ppm_is_clamped_and_certain_drop_always_drops() {
        let plan = FaultPlan::none().with_drop_ppm(u32::MAX);
        assert_eq!(plan.drop_ppm, PPM);
        // A plan built past the clamp drops every message too.
        for plan in [plan, FaultPlan { seed: 0, drop_ppm: u32::MAX }] {
            for r in 0..32 {
                assert!(plan.drops(EdgeId(r % 2), NodeId(0), r as u64));
            }
        }
    }

    #[test]
    fn message_fault_pass_splits_records_and_partitions_their_messages() {
        // Records of one to three messages over 48 distinct edges, under a
        // uniform plan that drops: every message is dropped or kept, exactly
        // once, as a one-message record.
        let plan = FaultPlan::none().with_seed(5).with_drop_ppm(300_000);
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
        plan.apply_message_faults(&mut metrics, round, &adjacency, &mut outgoing, start);
        assert_eq!(edges(&outgoing[..start]), edges(&sent[..start]), "records before `start` stay");
        assert!(outgoing[start..].iter().all(|f| f.len == 1), "survivors are one message each");
        let kept = (outgoing.len() - start) as u64;
        let messages = sent[start..].iter().map(|f| u64::from(f.len)).sum::<u64>();
        assert!(metrics.fault_drops > 0 && kept > 0, "both fates");
        assert_eq!(metrics.fault_drops + kept, messages);
        let survivors: Vec<InFlight> = sent[start..]
            .iter()
            .flat_map(|f| f.split())
            .filter(|f| !plan.drops(adjacency[f.start as usize].edge, f.from, round))
            .collect();
        assert_eq!(edges(&outgoing[start..]), edges(&survivors), "kept messages keep their order");
    }
}
