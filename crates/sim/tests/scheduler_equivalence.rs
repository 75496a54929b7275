//! Differential testing of the per-edge replay scheduler
//! ([`schedule_spread`]) against the round-by-round reference loop
//! ([`schedule_reference`]).
//!
//! The replay never sees a trace: it is compared with the reference run on
//! the *materialised* per-message partition (message `k` of an edge's `t` in
//! local round `⌊k·R/t⌋`). The two must produce identical
//! [`ScheduleOutcome`]s — makespan, model rounds, congestion, dilation, peak
//! backlog, everything — on random instance sets (random lengths, totals,
//! delays near and thousands of rounds apart) and on a fixed matrix of edge cases (empty
//! input, all-zero instances, capacity far above the congestion, single
//! instance, trailing message-free rounds, adversarial same-edge pileups).

use congest_graph::EdgeId;
use congest_sim::scheduler::{
    schedule_reference, schedule_spread, ScheduleOutcome, SpreadInstance,
};
use congest_sim::EdgeUsageTrace;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Invariants every outcome must satisfy regardless of input.
fn assert_outcome_invariants(out: &ScheduleOutcome, capacity: u32) {
    assert_eq!(out.model_rounds, out.makespan * capacity as u64);
    assert!(out.dilation <= out.makespan);
    assert!(out.congestion <= out.total_messages);
    assert!(out.max_edge_backlog <= out.total_messages);
}

/// The trace a spread instance stands for: message `k` of edge `e`'s total
/// `t` sits in round `⌊k·R/t⌋` of `R = rounds.max(1)`, one push per message.
fn materialised(edge_totals: &[u64], rounds: u64) -> EdgeUsageTrace {
    let r = rounds.max(1);
    let mut per_round: Vec<Vec<(EdgeId, u32)>> = vec![Vec::new(); r as usize];
    for (e, &total) in edge_totals.iter().enumerate() {
        for k in 0..total {
            let slot = (u128::from(k) * u128::from(r) / u128::from(total)) as usize;
            per_round[slot].push((EdgeId(e as u32), 1));
        }
    }
    EdgeUsageTrace { rounds: per_round }
}

/// One spread instance: `(delay, rounds, per-edge totals)`.
type Instance = (u64, u64, Vec<u64>);

/// Runs the replay and the reference on the materialised traces.
fn assert_spread_matches_reference(instances: &[Instance], capacity: u32) -> ScheduleOutcome {
    let spread: Vec<SpreadInstance<'_>> = instances
        .iter()
        .map(|(delay, rounds, totals)| SpreadInstance {
            delay: *delay,
            rounds: *rounds,
            edge_totals: totals,
        })
        .collect();
    let traces: Vec<EdgeUsageTrace> =
        instances.iter().map(|(_, rounds, totals)| materialised(totals, *rounds)).collect();
    let delays: Vec<u64> = instances.iter().map(|(delay, _, _)| *delay).collect();
    let out = schedule_spread(&spread, capacity).expect("small delays cannot overflow");
    assert_eq!(
        out,
        schedule_reference(&traces, &delays, capacity),
        "replay and reference diverged (capacity {capacity}) on {instances:?}"
    );
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn spread_front_end_agrees_with_the_materialised_reference(
        seed in 0u64..1_000_000,
        instances in 0usize..9,
        max_rounds in 0u64..40,
        max_total in 0u64..90,
        edge_span in 1usize..7,
        far_apart in 0u64..3,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let set: Vec<Instance> = (0..instances)
            .map(|i| {
                // R in {0, 1} and t = R, t > R, t < R all occur; some
                // instances are all-zero, some lack trailing edges.
                let rounds = match rng.gen_range(0..6u32) {
                    0 => 0,
                    1 => 1,
                    _ => rng.gen_range(0..=max_rounds),
                };
                let edges = rng.gen_range(0..=edge_span);
                let silent = rng.gen_range(0..5u32) == 0;
                let totals = (0..edges)
                    .map(|_| match rng.gen_range(0..4u32) {
                        _ if silent => 0,
                        0 => 0,
                        1 => rounds,
                        _ => rng.gen_range(0..=max_total),
                    })
                    .collect();
                // Delays 0, close together, or (far_apart > 0) thousands of
                // rounds apart so the occupied windows do not touch.
                let delay = match rng.gen_range(0..3u32) {
                    0 => 0,
                    _ => rng.gen_range(0..25u64) + i as u64 * far_apart * 5_000,
                };
                (delay, rounds, totals)
            })
            .collect();
        // Once arrivals stop (at the horizon), the worst edge drains in
        // ceil(congestion / capacity) rounds.
        let horizon = set.iter().map(|(delay, rounds, _)| delay + (*rounds).max(1)).max();
        for capacity in [1u32, 3, 64] {
            let out = assert_spread_matches_reference(&set, capacity);
            assert_outcome_invariants(&out, capacity);
            prop_assert!(
                out.makespan <= horizon.unwrap_or(0) + out.congestion.div_ceil(capacity as u64),
                "makespan {} beyond horizon {:?} + ceil({} / {})",
                out.makespan, horizon, out.congestion, capacity
            );
        }
    }
}

#[test]
fn spread_front_end_edge_cases() {
    for capacity in [1u32, 3, 64] {
        let empty = assert_spread_matches_reference(&[], capacity);
        assert_eq!((empty.makespan, empty.total_messages), (0, 0));
        // Zero rounds still occupy one; all-zero instances only hold time.
        let out = assert_spread_matches_reference(&[(7, 0, vec![0, 0]), (2, 0, vec![])], capacity);
        assert_eq!((out.makespan, out.sequential_rounds, out.dilation), (8, 2, 1));
        // t = R, t > R (not a multiple), t < R, on overlapping windows.
        assert_spread_matches_reference(
            &[(0, 5, vec![5, 13, 2]), (3, 4, vec![9]), (4, 1, vec![0, 0, 0, 6])],
            capacity,
        );
    }
}

#[test]
fn a_schedule_too_long_to_hold_is_an_error_not_an_abort() {
    // One instance of 2^54 rounds spans 2^54 slots: a count column of
    // 2^57 bytes, which no allocator grants. The replay reports that before
    // any message is poured, instead of aborting the process.
    let totals = [1u64];
    let instance = SpreadInstance { delay: 0, rounds: 1 << 54, edge_totals: &totals };
    assert_eq!(
        schedule_spread(&[instance], 1),
        Err(congest_sim::SimError::ScheduleTooLong { slots: 1 << 54 })
    );
    // Two one-round instances 2^60 rounds apart: the column holds every
    // round between them, more bytes than `isize::MAX`, so the reservation
    // fails before the allocator is asked.
    let at = |delay| SpreadInstance { delay, rounds: 1, edge_totals: &totals };
    assert_eq!(
        schedule_spread(&[at(0), at(1 << 60)], 1),
        Err(congest_sim::SimError::ScheduleTooLong { slots: (1 << 60) + 1 })
    );
}

#[test]
fn schedulers_agree_on_edge_case_matrix() {
    // One round carrying `c` messages on edge `e` is an instance of one
    // round with total `c` there.
    let burst = |d: u64, e: usize, c: u64| {
        let mut totals = vec![0; e + 1];
        totals[e] = c;
        (d, 1, totals)
    };
    let cases: Vec<(&str, Vec<Instance>)> = vec![
        ("empty input", vec![]),
        ("single zero-round instance", vec![(0, 0, vec![])]),
        ("single zero-round instance, delayed", vec![(9, 0, vec![])]),
        ("all-zero totals", vec![(3, 1, vec![0, 0, 0])]),
        ("message-free rounds only", vec![(1, 5, vec![]), (7, 2, vec![])]),
        ("single instance", vec![burst(0, 0, 4)]),
        ("single instance, delayed", vec![burst(11, 3, 7)]),
        ("trailing silence after a burst", vec![burst(0, 0, 9), (0, 5, vec![])]),
        ("pileup on one edge", [0, 0, 1, 1, 2, 2].iter().map(|&d| burst(d, 1, 3)).collect()),
        ("disjoint edges", (0..5).map(|e| burst(e as u64, e, 2)).collect()),
    ];
    for capacity in [1u32, 2, 7, 1000] {
        for (label, set) in &cases {
            let out = assert_spread_matches_reference(set, capacity);
            assert_eq!(
                out.model_rounds,
                out.makespan * capacity as u64,
                "model-round consistency broken for case {label:?} at capacity {capacity}"
            );
        }
    }
}

#[test]
fn lazy_draining_tracks_interleaved_batches() {
    // Edge 0: 5 messages at round 0, 2 more at round 2, capacity 2.
    // Backlog: r0 = 5 (peak), serve 2; r1 = 3, serve 2; r2 = 1 + 2 = 3,
    // serve 2; r3 = 1, serve 1 -> last service round 3, makespan 4.
    let out = assert_spread_matches_reference(&[(0, 1, vec![5]), (2, 1, vec![2])], 2);
    assert_eq!(out.makespan, 4);
    assert_eq!(out.max_edge_backlog, 5);
    assert_eq!(out.congestion, 7);
    assert_eq!(out.model_rounds, 8);
}

#[test]
fn batches_that_drain_before_the_next_arrival_finalize_their_span() {
    // Edge 0: 2 messages at round 0 (drain by round 1), 1 at round 9, inside
    // one ten-round window. Last service round is 9, makespan 10, peak backlog 2.
    let set = [(0, 1, vec![2]), (0, 10, vec![]), (9, 1, vec![1])];
    let out = assert_spread_matches_reference(&set, 1);
    assert_eq!(out.makespan, 10);
    assert_eq!(out.max_edge_backlog, 2);
}

#[test]
fn zero_totals_are_ignored() {
    let out = assert_spread_matches_reference(&[(4, 2, vec![0, 0, 0, 0])], 1);
    assert_eq!(out.total_messages, 0);
    assert_eq!(out.makespan, 6, "horizon = delay 4 + len 2");
    assert_eq!(out.model_rounds, 6);
    assert_eq!(out.congestion, 0);
}

#[test]
fn huge_capacity_collapses_makespan_to_the_horizon() {
    // Capacity far above the congestion: every arrival is served the round it
    // lands, so the makespan is exactly the horizon. Each instance sends 12
    // messages on edge 0 over 4 rounds: 3 a round.
    let set: Vec<_> = (0..8).map(|d| (d, 4, vec![12])).collect();
    let out = assert_spread_matches_reference(&set, 10_000);
    assert_eq!(out.makespan, 4 + 7, "horizon = max(len + delay)");
    // Everything is served the round it arrives, so the peak backlog is the
    // largest single-round arrival: 4 overlapping instances x 3 messages.
    assert_eq!(out.max_edge_backlog, 12);
    assert_eq!(out.model_rounds, out.makespan * 10_000);
}

#[test]
fn replay_handles_sparse_far_apart_arrivals_cheaply() {
    // Two arrivals 50k rounds apart inside one silent 50k-round instance:
    // the replay's cost is two column entries (plus the 50k-slot column),
    // not 50k x instances trace probes per round. This is a correctness
    // check that distant batches still finalize their service spans properly.
    let set = [(0, 1, vec![5]), (0, 50_001, vec![]), (50_000, 1, vec![2])];
    let out = assert_spread_matches_reference(&set, 1);
    assert_eq!(out.makespan, 50_002, "second batch serves at rounds 50000-50001");
    assert_eq!(out.max_edge_backlog, 5);
    assert_eq!(out.congestion, 7);
}
