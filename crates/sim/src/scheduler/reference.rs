//! The round-by-round scheduling loop: the one path for explicit traces and
//! the oracle of the per-edge replay (mirroring `Engine::run_reference`).
//!
//! [`schedule_reference`] replays the superimposed traces one scheduler round
//! at a time through a `BTreeMap` backlog — `O(busy rounds × instances)` work
//! plus map overhead, which is exactly the cost profile the per-edge replay
//! ([`super::schedule_spread`]) avoids. Its semantics are easy to audit line
//! by line; the differential harness
//! (`crates/sim/tests/scheduler_equivalence.rs`) asserts that the replay
//! produces identical [`ScheduleOutcome`]s on the materialised per-message
//! partition of random and adversarial instances. Its one concession to
//! cost: a stretch of rounds in which nothing is queued and no instance is
//! running is skipped in one step (nothing can happen in it), so delays that
//! are far apart stay testable.

use std::collections::BTreeMap;

use congest_graph::EdgeId;

use super::ScheduleOutcome;
use crate::EdgeUsageTrace;

/// Schedules explicit traces started after the given delays, one scheduler
/// round at a time: `O(busy rounds × instances)` cost. It is the oracle of
/// [`super::schedule_spread`], which must report the same outcome for the
/// materialised per-message partition, and the engine of
/// [`super::random_delay_schedule`].
///
/// # Panics
///
/// Panics if `delays.len() != traces.len()`, the capacity is zero, or an
/// instance's `delay + len` does not fit `u64`.
pub fn schedule_reference(
    traces: &[EdgeUsageTrace],
    delays: &[u64],
    edge_capacity_per_round: u32,
) -> ScheduleOutcome {
    assert_eq!(traces.len(), delays.len(), "one delay per instance required");
    assert!(edge_capacity_per_round > 0, "edge capacity must be positive");
    let capacity = edge_capacity_per_round as u64;

    let sequential_rounds: u64 = traces.iter().map(|t| t.len() as u64).sum();
    let dilation: u64 = traces.iter().map(|t| t.len() as u64).max().unwrap_or(0);
    let total_messages: u64 = traces.iter().map(|t| t.total_messages()).sum();
    let end = |t: &EdgeUsageTrace, d: u64| {
        d.checked_add(t.len() as u64).expect("an instance's delay + len fits u64")
    };
    let horizon: u64 = traces.iter().zip(delays).map(|(t, &d)| end(t, d)).max().unwrap_or(0);

    // Congestion: total load per edge across all instances.
    let mut per_edge_total: BTreeMap<EdgeId, u64> = BTreeMap::new();
    for t in traces {
        for round in &t.rounds {
            for &(e, c) in round {
                *per_edge_total.entry(e).or_insert(0) += c as u64;
            }
        }
    }
    let congestion = per_edge_total.values().copied().max().unwrap_or(0);

    if traces.is_empty() || total_messages == 0 {
        // No messages: the makespan is still the horizon (every instance
        // occupies its full duration), and model rounds charge the megaround
        // width exactly as in the serving case.
        return ScheduleOutcome {
            makespan: horizon,
            model_rounds: horizon.saturating_mul(capacity),
            sequential_rounds,
            dilation,
            congestion,
            total_messages,
            max_edge_backlog: 0,
            delays: delays.to_vec(),
        };
    }

    let mut backlog: BTreeMap<EdgeId, u64> = BTreeMap::new();
    let mut max_backlog = 0u64;
    let mut last_service_round = 0u64;
    let mut round = 0u64;
    loop {
        // Arrivals from every instance active at this scheduler round.
        for (t, &d) in traces.iter().zip(delays) {
            if round < d {
                continue;
            }
            let local = (round - d) as usize;
            if let Some(entry) = t.rounds.get(local) {
                for &(e, c) in entry {
                    *backlog.entry(e).or_insert(0) += c as u64;
                }
            }
        }
        let current_max = backlog.values().copied().max().unwrap_or(0);
        max_backlog = max_backlog.max(current_max);
        // Serve up to `capacity` messages per edge.
        let mut any_served = false;
        backlog.retain(|_, b| {
            if *b > 0 {
                let served = (*b).min(capacity);
                *b -= served;
                any_served = true;
            }
            *b > 0
        });
        if any_served {
            last_service_round = round;
        }
        if round >= horizon && backlog.is_empty() {
            break;
        }
        round += 1;
        if backlog.is_empty() {
            // Idle stretch: with nothing queued, nothing happens until the
            // next instance starts (or, past the last one, until the horizon).
            let running = |(t, &d): (&EdgeUsageTrace, &u64)| d <= round && round < end(t, d);
            if !traces.iter().zip(delays).any(running) {
                let next_start = delays.iter().copied().filter(|&d| d > round).min();
                round = next_start.unwrap_or(horizon).max(round);
            }
        }
        // Safety net: after the horizon no further arrivals exist, so the
        // worst edge (load at most `congestion`) drains within
        // ceil(congestion / capacity) additional rounds. The natural break
        // above always fires first; this guards against that invariant ever
        // being broken by a future change.
        if round > horizon.saturating_add(congestion.div_ceil(capacity)) {
            break;
        }
    }

    let makespan = (last_service_round + 1).max(horizon);
    ScheduleOutcome {
        makespan,
        model_rounds: makespan.saturating_mul(capacity),
        sequential_rounds,
        dilation,
        congestion,
        total_messages,
        max_edge_backlog: max_backlog,
        delays: delays.to_vec(),
    }
}
