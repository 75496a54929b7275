//! Differential testing of the per-edge replay scheduler against the retained
//! round-by-round reference loop, through both of its front ends.
//!
//! Random trace sets (random lengths, sparse per-round edge usage including
//! zero-count entries and empty rounds), random delays, and random capacities
//! run through both [`schedule_with_delays`] (the explicit-entry front end)
//! and [`schedule_reference`]. The two must produce identical
//! [`ScheduleOutcome`]s — makespan, model rounds, congestion, dilation, peak
//! backlog, everything. A fixed matrix of edge cases (empty input, all-zero
//! traces, capacity far above the congestion, single instance, trailing
//! message-free rounds, adversarial same-edge pileups) complements the
//! random sweep.
//!
//! The spread front end ([`schedule_spread`]) never sees a trace: it is
//! compared with the reference run on the *materialised* per-message
//! partition (message `k` of an edge's `t` in local round `⌊k·R/t⌋`).

use congest_graph::EdgeId;
use congest_sim::scheduler::{
    schedule_reference, schedule_spread, schedule_with_delays, ScheduleOutcome, SpreadInstance,
};
use congest_sim::EdgeUsageTrace;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Generates a pseudo-random trace set plus per-instance delays from a seed.
fn random_workload(
    seed: u64,
    instances: usize,
    max_len: usize,
    edge_span: u32,
    max_delay: u64,
) -> (Vec<EdgeUsageTrace>, Vec<u64>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut traces = Vec::with_capacity(instances);
    let mut delays = Vec::with_capacity(instances);
    for _ in 0..instances {
        let len = rng.gen_range(0..=max_len);
        let mut rounds = Vec::with_capacity(len);
        for _ in 0..len {
            let entries = rng.gen_range(0..4usize);
            let mut round = Vec::with_capacity(entries);
            for _ in 0..entries {
                // Zero counts are deliberately included: they must be inert
                // in both schedulers.
                round.push((EdgeId(rng.gen_range(0..edge_span)), rng.gen_range(0..5u32)));
            }
            rounds.push(round);
        }
        traces.push(EdgeUsageTrace { rounds });
        delays.push(if max_delay == 0 { 0 } else { rng.gen_range(0..max_delay) });
    }
    (traces, delays)
}

/// Runs both schedulers and asserts identical outcomes; returns the outcome
/// so callers can pile on further invariants.
fn assert_schedulers_equivalent(
    traces: &[EdgeUsageTrace],
    delays: &[u64],
    capacity: u32,
) -> ScheduleOutcome {
    let event = schedule_with_delays(traces, delays, capacity);
    let reference = schedule_reference(traces, delays, capacity);
    assert_eq!(
        event, reference,
        "event-driven and reference schedulers diverged (capacity {capacity})"
    );
    event
}

/// Invariants every outcome must satisfy regardless of input.
fn assert_outcome_invariants(out: &ScheduleOutcome, capacity: u32) {
    assert_eq!(out.model_rounds, out.makespan * capacity as u64);
    assert!(out.dilation <= out.makespan);
    assert!(out.congestion <= out.total_messages);
    assert!(out.max_edge_backlog <= out.total_messages);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn schedulers_agree_on_random_workloads(
        seed in 0u64..1_000_000,
        instances in 0usize..12,
        max_len in 0usize..10,
        edge_span in 1u32..8,
        max_delay in 0u64..20,
        capacity in 1u32..5,
    ) {
        let (traces, delays) = random_workload(seed, instances, max_len, edge_span, max_delay);
        let out = assert_schedulers_equivalent(&traces, &delays, capacity);
        assert_outcome_invariants(&out, capacity);
        // Termination/tightness bound: once arrivals stop (at the horizon),
        // the worst edge drains in ceil(congestion / capacity) rounds.
        let horizon = traces
            .iter()
            .zip(&delays)
            .map(|(t, &d)| t.len() as u64 + d)
            .max()
            .unwrap_or(0);
        prop_assert!(
            out.makespan <= horizon + out.congestion.div_ceil(capacity as u64),
            "makespan {} beyond horizon {} + ceil({} / {})",
            out.makespan, horizon, out.congestion, capacity
        );
    }

    #[test]
    fn schedulers_agree_on_contended_single_edge_workloads(
        seed in 0u64..1_000_000,
        instances in 1usize..16,
        capacity in 1u32..4,
    ) {
        // Everything on edge 0: maximal queueing, exercises long lazy drains.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let traces: Vec<EdgeUsageTrace> = (0..instances)
            .map(|_| {
                let len = rng.gen_range(1..8usize);
                EdgeUsageTrace {
                    rounds: (0..len)
                        .map(|_| vec![(EdgeId(0), rng.gen_range(0..6u32))])
                        .collect(),
                }
            })
            .collect();
        let delays: Vec<u64> = (0..instances).map(|_| rng.gen_range(0..6u64)).collect();
        let out = assert_schedulers_equivalent(&traces, &delays, capacity);
        assert_outcome_invariants(&out, capacity);
    }
}

/// The trace the spread front end stands for: message `k` of edge `e`'s total
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

/// Runs the spread front end and the reference on the materialised traces.
fn assert_spread_matches_reference(
    instances: &[(u64, u64, Vec<u64>)],
    capacity: u32,
) -> ScheduleOutcome {
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
        "spread front end and reference diverged (capacity {capacity}) on {instances:?}"
    );
    // The explicit front end agrees on the same materialisation, too.
    assert_eq!(out, schedule_with_delays(&traces, &delays, capacity));
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
        let set: Vec<(u64, u64, Vec<u64>)> = (0..instances)
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
        for capacity in [1u32, 3, 64] {
            let out = assert_spread_matches_reference(&set, capacity);
            assert_outcome_invariants(&out, capacity);
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
fn far_apart_delays_cost_the_occupied_rounds_only() {
    // Two three-round instances 2^40 rounds apart: the replay's column has
    // six slots (a round-indexed structure would need 2^40), the reference
    // skips the idle stretch, and both agree on the real round numbers.
    let trace = EdgeUsageTrace {
        rounds: vec![vec![(EdgeId(0), 4)], vec![(EdgeId(1), 1)], vec![(EdgeId(0), 2)]],
    };
    let traces = vec![trace.clone(), trace];
    let far = 1u64 << 40;
    for capacity in [1u32, 2] {
        let out = assert_schedulers_equivalent(&traces, &[0, far], capacity);
        assert!(out.makespan >= far + 3);
        assert_eq!(out.congestion, 12);
    }
    // The backlog of the first instance drains long before the second starts.
    let out = assert_schedulers_equivalent(&traces, &[0, far], 1);
    assert_eq!(out.makespan, far + 6, "4 at round far, 2 more at far+2: served through far+5");
    assert_eq!(out.max_edge_backlog, 4);
}

#[test]
fn a_schedule_too_long_to_hold_is_an_error_not_an_abort() {
    // One instance of 2^54 rounds occupies 2^54 slots: a count column of
    // 2^57 bytes, which no allocator grants. The replay reports that before
    // any message is poured, instead of aborting the process.
    let totals = [1u64];
    let instance = SpreadInstance { delay: 0, rounds: 1 << 54, edge_totals: &totals };
    assert_eq!(
        schedule_spread(&[instance], 1),
        Err(congest_sim::SimError::ScheduleTooLong { slots: 1 << 54 })
    );
}

#[test]
fn schedulers_agree_on_edge_case_matrix() {
    let burst = |e: u32, c: u32| EdgeUsageTrace { rounds: vec![vec![(EdgeId(e), c)]] };
    let silent = |len: usize| EdgeUsageTrace { rounds: vec![Vec::new(); len] };
    let cases: Vec<(&str, Vec<EdgeUsageTrace>, Vec<u64>)> = vec![
        ("empty input", vec![], vec![]),
        ("single empty trace", vec![EdgeUsageTrace::default()], vec![0]),
        ("single empty trace, delayed", vec![EdgeUsageTrace::default()], vec![9]),
        ("all-zero counts", vec![EdgeUsageTrace { rounds: vec![vec![(EdgeId(2), 0)]] }], vec![3]),
        ("message-free rounds only", vec![silent(5), silent(2)], vec![1, 7]),
        ("single instance", vec![burst(0, 4)], vec![0]),
        ("single instance, delayed", vec![burst(3, 7)], vec![11]),
        (
            "trailing silence after a burst",
            vec![EdgeUsageTrace {
                rounds: vec![vec![(EdgeId(0), 9)], vec![], vec![], vec![], vec![]],
            }],
            vec![0],
        ),
        ("pileup on one edge", (0..6).map(|_| burst(1, 3)).collect(), vec![0, 0, 1, 1, 2, 2]),
        ("disjoint edges", (0..5).map(|e| burst(e, 2)).collect(), vec![0, 1, 2, 3, 4]),
    ];
    for capacity in [1u32, 2, 7, 1000] {
        for (label, traces, delays) in &cases {
            let out = assert_schedulers_equivalent(traces, delays, capacity);
            assert_eq!(
                out.model_rounds,
                out.makespan * capacity as u64,
                "model-round consistency broken for case {label:?} at capacity {capacity}"
            );
        }
    }
}

#[test]
fn huge_capacity_collapses_makespan_to_the_horizon() {
    // Capacity far above the congestion: every arrival is served the round it
    // lands, so the makespan is exactly the horizon.
    let traces: Vec<EdgeUsageTrace> =
        (0..8).map(|_| EdgeUsageTrace { rounds: vec![vec![(EdgeId(0), 3)]; 4] }).collect();
    let delays = vec![0, 1, 2, 3, 4, 5, 6, 7];
    let out = assert_schedulers_equivalent(&traces, &delays, 10_000);
    assert_eq!(out.makespan, 4 + 7, "horizon = max(len + delay)");
    // Everything is served the round it arrives, so the peak backlog is the
    // largest single-round arrival: 4 overlapping instances x 3 messages.
    assert_eq!(out.max_edge_backlog, 12);
    assert_eq!(out.model_rounds, out.makespan * 10_000);
}

#[test]
fn replay_handles_sparse_far_apart_arrivals_cheaply() {
    // Two arrivals 50k rounds apart within one instance: the replay's cost is
    // two column entries (plus the 50k-slot column), not 50k x instances
    // trace probes per round. This is a correctness check that distant
    // batches still finalize their service spans properly.
    let mut rounds = vec![vec![(EdgeId(0), 5)]];
    rounds.extend(std::iter::repeat_with(Vec::new).take(50_000 - 1));
    rounds.push(vec![(EdgeId(0), 2)]);
    let traces = vec![EdgeUsageTrace { rounds }];
    let out = assert_schedulers_equivalent(&traces, &[0], 1);
    assert_eq!(out.makespan, 50_002, "second batch serves at rounds 50000-50001");
    assert_eq!(out.max_edge_backlog, 5);
    assert_eq!(out.congestion, 7);
}
