//! Random-delay scheduling of many protocol instances over one network.
//!
//! The paper obtains APSP by running `n` SSSP instances — each with only
//! `poly(log n)` congestion per edge — *concurrently*, using the classic
//! random-delays scheduling idea of Leighton, Maggs, and Rao (LMR94) as
//! packaged for CONGEST by Ghaffari (Gha15): give every instance a uniformly
//! random start delay, then run them together; with high probability each edge
//! only has to carry a small number of messages per round, so the makespan is
//! `O(congestion + dilation · log n)` instead of the trivial
//! `instances × dilation`.
//!
//! This module implements the *scheduling* part as a queueing simulation over
//! per-instance edge usage: each instance is first executed alone (which
//! preserves its correctness), then its usage is superimposed on the others'
//! with random delays and a per-round per-edge capacity, and messages that
//! exceed the capacity queue up. The resulting makespan is what the experiments
//! report. This mirrors the paper's own use of scheduling as a black box on
//! top of independently-correct low-congestion instances.
//!
//! # Execution model and cost
//!
//! Edges do not interact under this queueing discipline: each edge serves its
//! own backlog at `capacity` messages per round, so the whole schedule
//! decomposes into independent per-edge queues. [`schedule_spread`] (module
//! `replay`) exploits this literally: it takes instances as `(delay, rounds,
//! per-edge totals)`, generates each edge's evenly spread arrivals on the
//! fly into one reusable count column, and runs the edge's queue over the
//! rounds that receive messages with lazy service draining — **one edge at
//! a time**, with no trace at any point. `congest_sssp::apsp` composes its
//! `n` SSSP instances through it in `O(messages)` time and `O(n · m +
//! rounds)` memory (the `n` per-edge total vectors plus the column, one word
//! per round from the earliest delay to the horizon; `apsp`'s delays are
//! below `n`, so the rounds between windows add fewer than `n`).
//! `docs/APSP.md` has the full argument.
//!
//! Explicit [`EdgeUsageTrace`]s, built by the caller (the simulator records
//! none), go through [`schedule_reference`], the round-by-round loop
//! ([`random_delay_schedule`] draws the delays and calls it). It is the
//! oracle of the differential tests (`crates/sim/tests/scheduler_equivalence.rs`,
//! mirroring the `Engine::run_reference` pattern): [`schedule_spread`] must
//! equal it on the materialised per-message partition.
//!
//! # Makespan semantics
//!
//! The makespan is `max(last service round + 1, horizon)`, where the
//! *horizon* is `max_i(delay_i + len_i)` over the instances. The `.max`
//! clause means an instance occupies the schedule for its **full recorded
//! duration**, including trailing message-free rounds: a trace that computes
//! silently for its last rounds still holds the network until it ends, and a
//! delayed instance holds it until `delay + len` even if its messages all
//! clear early. [`ScheduleOutcome::model_rounds`] is always
//! `makespan × capacity` — including for schedules with zero messages, whose
//! makespan is still the horizon.

use congest_graph::EdgeId;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

mod reference;
mod replay;

pub use reference::schedule_reference;
pub use replay::{schedule_spread, SpreadInstance};

/// The per-round, per-edge usage of one protocol instance: the input format
/// of [`random_delay_schedule`] and [`schedule_reference`]. The simulator
/// does not record it; a caller builds it, e.g. by spreading an instance's
/// per-edge totals over its rounds.
///
/// `rounds[r]` lists `(edge, messages_sent_over_edge_in_round_r)` pairs,
/// sparsely (edges with zero usage are omitted); the round axis is dense.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeUsageTrace {
    /// Sparse per-round edge usage.
    pub rounds: Vec<Vec<(EdgeId, u32)>>,
}

impl EdgeUsageTrace {
    /// Number of rounds covered by the trace.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Returns `true` if the trace covers no rounds.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Total messages in the trace.
    pub fn total_messages(&self) -> u64 {
        self.rounds.iter().flatten().map(|&(_, c)| c as u64).sum()
    }
}

/// Configuration of the random-delay scheduler.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleConfig {
    /// How many messages one edge can carry per round, totalled over all
    /// instances and both directions. The CONGEST model allows one `O(log n)`
    /// bit message per direction per round; a capacity of `c` here corresponds
    /// to grouping `c` model rounds into one "megaround", which the reported
    /// makespan accounts for via [`ScheduleOutcome::model_rounds`].
    pub edge_capacity_per_round: u32,
    /// Delays are drawn uniformly from `0..max_delay` (0 means "no delays").
    pub max_delay: u64,
    /// PRNG seed for the delays.
    pub seed: u64,
}

impl Default for ScheduleConfig {
    fn default() -> Self {
        ScheduleConfig { edge_capacity_per_round: 1, max_delay: 0, seed: 0 }
    }
}

/// The outcome of scheduling a set of instance traces.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleOutcome {
    /// Rounds until every instance's last message has been served *and* every
    /// instance's full duration (delay + trace length) has elapsed, in
    /// scheduler rounds (each carrying up to `edge_capacity_per_round`
    /// messages per edge). See the module docs on makespan semantics.
    pub makespan: u64,
    /// The makespan converted to model rounds: `makespan * edge_capacity`,
    /// i.e. charging the megaround width as the paper does (Section 3.1.3).
    /// Always exactly `makespan * edge_capacity`, including for zero-message
    /// schedules.
    pub model_rounds: u64,
    /// Sum of the individual instance lengths — the cost of running the
    /// instances one after another (the trivial sequential schedule).
    pub sequential_rounds: u64,
    /// The longest individual instance (the schedule's dilation).
    pub dilation: u64,
    /// The maximum total number of messages any edge carries across all
    /// instances (the schedule's congestion).
    pub congestion: u64,
    /// Total messages over all instances.
    pub total_messages: u64,
    /// The largest backlog observed on any edge during the schedule.
    pub max_edge_backlog: u64,
    /// The random start delay assigned to each instance.
    pub delays: Vec<u64>,
}

/// Draws one instance start delay: uniform from `0..max_delay`, or a fixed
/// 0 — consuming no randomness — when `max_delay` is 0 ("no delays").
///
/// This is **the** delay-draw convention: [`random_delay_schedule`],
/// `congest_sssp::apsp` and its test-only oracle (`apsp/reference.rs`) all
/// call this helper rather than re-implementing the draw, so their delay
/// streams, and the bit-identical outcomes that rest on them, cannot drift
/// apart.
pub fn draw_delay<R: Rng>(rng: &mut R, max_delay: u64) -> u64 {
    if max_delay == 0 {
        0
    } else {
        rng.gen_range(0..max_delay)
    }
}

/// Superimposes the given instance traces with random start delays and a
/// per-round edge capacity, and returns the realized makespan.
///
/// Draws one delay per trace with [`draw_delay`], in trace order, and runs
/// the traces through [`schedule_reference`], the round-by-round loop.
/// Returns a zero outcome if `traces` is empty.
///
/// # Panics
///
/// Panics if the capacity is zero or an instance's `delay + len` does not
/// fit `u64` ([`schedule_spread`] reports the latter as an error instead).
pub fn random_delay_schedule(
    traces: &[EdgeUsageTrace],
    config: &ScheduleConfig,
) -> ScheduleOutcome {
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let delays: Vec<u64> = traces.iter().map(|_| draw_delay(&mut rng, config.max_delay)).collect();
    schedule_reference(traces, &delays, config.edge_capacity_per_round)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trace that uses edge `e` once per round for `len` rounds.
    fn uniform_trace(e: u32, len: usize) -> EdgeUsageTrace {
        EdgeUsageTrace { rounds: vec![vec![(EdgeId(e), 1)]; len] }
    }

    #[test]
    fn trace_statistics() {
        let t = EdgeUsageTrace {
            rounds: vec![vec![(EdgeId(0), 1), (EdgeId(1), 2)], vec![], vec![(EdgeId(0), 3)]],
        };
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.total_messages(), 6);
        assert!(EdgeUsageTrace::default().is_empty());
    }

    #[test]
    fn empty_input_gives_zero_outcome() {
        let out = random_delay_schedule(&[], &ScheduleConfig::default());
        assert_eq!(out.makespan, 0);
        assert_eq!(out.model_rounds, 0);
        assert_eq!(out.total_messages, 0);
        assert_eq!(out.congestion, 0);
    }

    #[test]
    fn single_instance_keeps_its_length() {
        let t = uniform_trace(0, 10);
        let out = schedule_reference(&[t], &[0], 1);
        assert_eq!(out.makespan, 10);
        assert_eq!(out.dilation, 10);
        assert_eq!(out.sequential_rounds, 10);
        assert_eq!(out.congestion, 10);
        assert_eq!(out.max_edge_backlog, 1);
    }

    #[test]
    fn disjoint_instances_run_fully_in_parallel() {
        // Ten instances, each using a different edge: contention-free.
        let traces: Vec<_> = (0..10).map(|e| uniform_trace(e, 20)).collect();
        let delays = vec![0; 10];
        let out = schedule_reference(&traces, &delays, 1);
        assert_eq!(out.makespan, 20, "no contention, makespan = dilation");
        assert_eq!(out.sequential_rounds, 200);
    }

    #[test]
    fn contending_instances_queue_up() {
        // Ten instances all hammering edge 0 with no delays: the edge must
        // carry 10 messages per round at capacity 1, so makespan ~ 10 * 20.
        let traces: Vec<_> = (0..10).map(|_| uniform_trace(0, 20)).collect();
        let delays = vec![0; 10];
        let out = schedule_reference(&traces, &delays, 1);
        assert!(out.makespan >= 200, "makespan {} should reflect full serialization", out.makespan);
        assert_eq!(out.congestion, 200);
        assert!(out.max_edge_backlog >= 9);
    }

    #[test]
    fn random_delays_spread_bursty_instances() {
        // Each instance sends a burst of 1 message on edge 0 in its first
        // round only. With no delays they all collide; with random delays in a
        // large window, queueing is much smaller.
        let traces: Vec<_> =
            (0..50).map(|_| EdgeUsageTrace { rounds: vec![vec![(EdgeId(0), 1)]] }).collect();
        let no_delay = random_delay_schedule(&traces, &ScheduleConfig::default());
        let spread = random_delay_schedule(
            &traces,
            &ScheduleConfig { edge_capacity_per_round: 1, max_delay: 500, seed: 42 },
        );
        assert_eq!(no_delay.delays, vec![0; 50], "max_delay 0 means no delays");
        assert!(no_delay.max_edge_backlog >= 49);
        assert!(
            spread.max_edge_backlog < no_delay.max_edge_backlog,
            "delays should reduce the peak backlog ({} vs {})",
            spread.max_edge_backlog,
            no_delay.max_edge_backlog
        );
    }

    #[test]
    fn higher_capacity_shrinks_makespan() {
        let traces: Vec<_> = (0..8).map(|_| uniform_trace(0, 10)).collect();
        let slow = schedule_reference(&traces, &[0; 8], 1);
        let fast = schedule_reference(&traces, &[0; 8], 8);
        assert!(fast.makespan < slow.makespan);
        assert_eq!(fast.model_rounds, fast.makespan * 8);
    }

    #[test]
    fn makespan_at_least_delay_plus_length() {
        let t = uniform_trace(0, 5);
        let out = schedule_reference(&[t], &[100], 1);
        assert!(out.makespan >= 105);
    }

    #[test]
    fn delays_are_reproducible_per_seed() {
        let traces: Vec<_> = (0..5).map(|e| uniform_trace(e, 3)).collect();
        let cfg = ScheduleConfig { edge_capacity_per_round: 1, max_delay: 50, seed: 7 };
        let a = random_delay_schedule(&traces, &cfg);
        let b = random_delay_schedule(&traces, &cfg);
        assert_eq!(a.delays, b.delays);
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn zero_message_schedule_reports_consistent_model_rounds() {
        // Regression: delay-shifted empty traces used to report
        // `model_rounds: 0` while the makespan (= horizon) was nonzero.
        let traces = vec![EdgeUsageTrace { rounds: vec![vec![], vec![], vec![]] }];
        for capacity in [1u32, 4] {
            let out = schedule_reference(&traces, &[7], capacity);
            assert_eq!(out.makespan, 10, "horizon = delay + len");
            assert_eq!(out.model_rounds, 10 * capacity as u64);
            assert_eq!(out.total_messages, 0);
            let silent = SpreadInstance { delay: 7, rounds: 3, edge_totals: &[] };
            assert_eq!(schedule_spread(&[silent], capacity), Ok(out));
        }
    }

    #[test]
    fn trailing_message_free_rounds_extend_the_makespan() {
        // One message in round 0, then four silent rounds: the instance still
        // occupies the schedule for its full five-round duration.
        let t =
            EdgeUsageTrace { rounds: vec![vec![(EdgeId(0), 1)], vec![], vec![], vec![], vec![]] };
        let out = schedule_reference(std::slice::from_ref(&t), &[0], 1);
        assert_eq!(out.makespan, 5, "trailing silence counts toward the horizon");
        // With a delay the horizon shifts accordingly.
        let delayed = schedule_reference(&[t], &[3], 1);
        assert_eq!(delayed.makespan, 8);
    }

    #[test]
    fn makespan_is_bounded_by_horizon_plus_service_time() {
        // The termination bound the reference loop's safety net encodes:
        // after the horizon no arrivals remain, so the worst edge drains in
        // at most ceil(congestion / capacity) further rounds.
        let traces: Vec<_> = (0..6).map(|_| uniform_trace(0, 9)).collect();
        for capacity in [1u32, 2, 4] {
            let out = schedule_reference(&traces, &[0, 1, 2, 3, 4, 5], capacity);
            let horizon = 9 + 5;
            assert!(out.makespan >= horizon as u64);
            assert!(
                out.makespan <= horizon as u64 + out.congestion.div_ceil(capacity as u64),
                "makespan {} exceeds horizon {} + ceil(congestion {} / capacity {})",
                out.makespan,
                horizon,
                out.congestion,
                capacity
            );
        }
    }
}
