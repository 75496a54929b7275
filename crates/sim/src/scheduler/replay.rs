//! The per-edge replay core of the random-delay scheduler.
//!
//! Edges do not interact under the queueing discipline (each serves its own
//! backlog at `capacity` messages per round), so the schedule is replayed
//! **one edge at a time**: a front end pours every arrival of the edge into
//! one reusable round-indexed count column (plus an occupancy bitmap), and
//! [`Replay::close_edge`] runs the edge's queue over the set bits in round
//! order — lazily draining the service between two arrivals in `O(1)`
//! arithmetic — and clears the column as it goes. Nothing is allocated per
//! message, per round or per edge.
//!
//! Two front ends feed the core:
//!
//! * [`schedule_spread`] — instances described by `(delay, rounds, per-edge
//!   totals)` whose messages are spread evenly over their duration (message
//!   `k` of an edge's `t` goes to local round `⌊k·R/t⌋`). The arrivals are
//!   generated on the fly; no trace is ever materialised. This is what
//!   `congest_sssp::apsp` runs.
//! * [`schedule_traces`] — explicit [`EdgeUsageTrace`]s, whose
//!   `(edge, round, count)` entries are grouped by edge with one counting
//!   sort. This powers [`super::schedule_with_delays`].
//!
//! # Occupied time
//!
//! The column is indexed by **occupied** time only: the union of the
//! instances' `[delay, delay + len)` windows, merged after sorting by delay
//! ([`Timeline`]). A schedule whose instances start `2^40` rounds apart
//! costs the sum of their lengths, not the gap, while elapsed service time
//! is still computed from real round numbers. See `docs/APSP.md`.
//!
//! The semantics are exactly those of the retained round-by-round oracle
//! [`super::schedule_reference`]; `crates/sim/tests/scheduler_equivalence.rs`
//! pins the equivalence for both front ends.
//!
//! simlint: hot-path

use crate::{EdgeUsageTrace, SimError};

use super::ScheduleOutcome;

/// One protocol instance as the spread front end sees it: when it starts,
/// how long it runs, and how many messages it sends over each edge in total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpreadInstance<'a> {
    /// Start delay in scheduler rounds.
    pub delay: u64,
    /// Duration of the instance. An instance of zero rounds still occupies
    /// one (it exists for the scheduler), so the length is `rounds.max(1)`.
    pub rounds: u64,
    /// Total messages per edge, indexed by edge id. Edges past the end of
    /// the slice carry nothing.
    pub edge_totals: &'a [u64],
}

/// A maximal run of consecutive occupied rounds.
#[derive(Debug, Clone, Copy)]
struct Segment {
    /// The real scheduler round of the segment's first slot.
    start: u64,
    /// The column slot of the segment's first round.
    base: usize,
    len: usize,
}

/// The occupied part of the time axis, compacted: maps each instance's local
/// round 0 to a column slot and each slot back to its real round.
#[derive(Debug)]
struct Timeline {
    segments: Vec<Segment>,
    /// `slot_of[i]` is the column slot of instance `i`'s local round 0.
    slot_of: Vec<usize>,
    slots: usize,
    horizon: u64,
    sequential_rounds: u64,
    dilation: u64,
}

impl Timeline {
    /// Lays out the windows `[delay, delay + len)` of the given instances.
    fn new(windows: impl Iterator<Item = (u64, u64)>) -> Result<Timeline, SimError> {
        let order = windows.enumerate().map(|(i, (delay, len))| (delay, len, i));
        // simlint::allow(hot-path-alloc: per-schedule set-up, one entry per instance)
        let mut order: Vec<(u64, u64, usize)> = order.collect();
        let mut timeline = Timeline {
            // simlint::allow(hot-path-alloc: per-schedule set-up, at most one segment per instance)
            segments: Vec::new(),
            // simlint::allow(hot-path-alloc: per-schedule set-up, one slot base per instance)
            slot_of: vec![0; order.len()],
            slots: 0,
            horizon: 0,
            sequential_rounds: 0,
            dilation: 0,
        };
        order.sort_unstable();
        for &(delay, len, instance) in &order {
            let overflow = || SimError::ScheduleHorizonOverflow { delay, rounds: len };
            let end = delay.checked_add(len).ok_or_else(overflow)?;
            timeline.horizon = timeline.horizon.max(end);
            timeline.sequential_rounds = timeline.sequential_rounds.saturating_add(len);
            timeline.dilation = timeline.dilation.max(len);
            if len == 0 {
                continue; // occupies no round; only its horizon counts
            }
            let len = usize::try_from(len).map_err(|_| overflow())?;
            match timeline.segments.last_mut() {
                // Overlapping or adjacent: the window extends the open segment.
                Some(seg) if delay - seg.start <= seg.len as u64 => {
                    let offset = (delay - seg.start) as usize;
                    timeline.slot_of[instance] = seg.base + offset;
                    let grown = seg.len.max(offset.checked_add(len).ok_or_else(overflow)?);
                    timeline.slots =
                        timeline.slots.checked_add(grown - seg.len).ok_or_else(overflow)?;
                    seg.len = grown;
                }
                _ => {
                    let base = timeline.slots;
                    timeline.slot_of[instance] = base;
                    timeline.slots = base.checked_add(len).ok_or_else(overflow)?;
                    timeline.segments.push(Segment { start: delay, base, len });
                }
            }
        }
        Ok(timeline)
    }
}

/// The replay state: the shared count column and the statistics folded in
/// edge by edge.
#[derive(Debug)]
struct Replay {
    capacity: u64,
    timeline: Timeline,
    /// `counts[slot]` messages of the current edge arrive in that slot.
    counts: Vec<u64>,
    /// Bit `slot` is set iff `counts[slot] > 0`.
    occupied: Vec<u64>,
    /// The bitmap words the current edge touched (`lo > hi`: none).
    lo_word: usize,
    hi_word: usize,
    congestion: u64,
    total_messages: u64,
    max_backlog: u64,
    last_service_round: u64,
}

impl Replay {
    fn new(capacity: u32, timeline: Timeline) -> Replay {
        assert!(capacity > 0, "edge capacity must be positive");
        let slots = timeline.slots;
        Replay {
            capacity: u64::from(capacity),
            timeline,
            // simlint::allow(hot-path-alloc: the one count column of the schedule, reused by every edge)
            counts: vec![0; slots],
            // simlint::allow(hot-path-alloc: the occupancy bitmap of the column, reused by every edge)
            occupied: vec![0; slots.div_ceil(64)],
            lo_word: usize::MAX,
            hi_word: 0,
            congestion: 0,
            total_messages: 0,
            max_backlog: 0,
            last_service_round: 0,
        }
    }

    /// Adds `count > 0` arrivals of the current edge at column slot `slot`.
    /// This sum and those of `close_edge` saturate: no executable schedule
    /// comes near `u64::MAX` messages, but a public caller can ask for one,
    /// and it then reads `u64::MAX`, never a wrapped count.
    #[inline]
    fn pour(&mut self, slot: usize, count: u64) {
        self.counts[slot] = self.counts[slot].saturating_add(count);
        let word = slot / 64;
        self.occupied[word] |= 1 << (slot % 64);
        self.lo_word = self.lo_word.min(word);
        self.hi_word = self.hi_word.max(word);
    }

    /// Pours the `total > 0` messages one instance sends over the current
    /// edge, spread evenly over its `len` rounds starting at slot `base`:
    /// message `k` lands in local round `⌊k·len/total⌋`.
    fn pour_spread(&mut self, base: usize, len: u64, total: u64) {
        if total <= len {
            // Consecutive messages land `len/total ≥ 1` rounds apart, one per
            // occupied round. Step `⌊k·len/total⌋` without dividing per
            // message: it advances by `q`, plus one whenever the running
            // remainder `k·rem mod total` wraps.
            let (q, rem) = ((len / total) as usize, len % total);
            let (mut slot, mut err) = (base, 0u64);
            for _ in 0..total {
                self.pour(slot, 1);
                slot += q;
                err += rem;
                if err >= total {
                    err -= total;
                    slot += 1;
                }
            }
        } else {
            // Every round is occupied; local round `r` carries
            // `⌈(r+1)·total/len⌉ − ⌈r·total/len⌉` messages.
            let (t, l) = (u128::from(total), u128::from(len));
            let mut lo = 0u128;
            for r in 0..len {
                let hi = (u128::from(r + 1) * t).div_ceil(l);
                self.pour(base + r as usize, (hi - lo) as u64);
                lo = hi;
            }
        }
    }

    /// Runs the current edge's queue over its poured arrivals in round order,
    /// folds the edge's statistics in, and leaves the column clear.
    fn close_edge(&mut self) {
        if self.lo_word > self.hi_word {
            return;
        }
        let capacity = self.capacity;
        let (mut backlog, mut last_arrival, mut total) = (0u64, 0u64, 0u64);
        let mut segment = 0usize;
        for word in self.lo_word..=self.hi_word {
            let mut bits = std::mem::take(&mut self.occupied[word]);
            while bits != 0 {
                let slot = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let count = std::mem::take(&mut self.counts[slot]);
                let segments = &self.timeline.segments;
                while slot >= segments[segment].base + segments[segment].len {
                    segment += 1;
                }
                let seg = segments[segment];
                let round = seg.start + (slot - seg.base) as u64;

                total = total.saturating_add(count);
                if backlog > 0 {
                    // Lazily apply the service of rounds last_arrival..round.
                    let needed = backlog.div_ceil(capacity);
                    let elapsed = round - last_arrival;
                    if needed <= elapsed {
                        // The previous batch drained before this arrival; its
                        // final service round ends a service span.
                        self.last_service_round =
                            self.last_service_round.max(last_arrival + needed - 1);
                        backlog = 0;
                    } else {
                        backlog -= capacity * elapsed;
                    }
                }
                last_arrival = round;
                backlog = backlog.saturating_add(count);
                self.max_backlog = self.max_backlog.max(backlog);
            }
        }
        // Drain whatever is still queued after the edge's final arrival. The
        // sum cannot overflow in any schedule that could be executed, but a
        // public caller can ask for one: saturate, the makespan check reports it.
        if backlog > 0 {
            let drained = last_arrival.saturating_add(backlog.div_ceil(capacity) - 1);
            self.last_service_round = self.last_service_round.max(drained);
        }
        self.congestion = self.congestion.max(total);
        self.total_messages = self.total_messages.saturating_add(total);
        self.lo_word = usize::MAX;
        self.hi_word = 0;
    }

    fn finish(self, delays: Vec<u64>) -> Result<ScheduleOutcome, SimError> {
        let Timeline { horizon, sequential_rounds, dilation, .. } = self.timeline;
        let makespan = if self.total_messages == 0 {
            // No messages: nothing queues, the makespan is the horizon (the
            // instances still occupy their full durations).
            horizon
        } else {
            let served = self.last_service_round.checked_add(1).ok_or(
                SimError::ScheduleHorizonOverflow { delay: self.last_service_round, rounds: 1 },
            )?;
            served.max(horizon)
        };
        Ok(ScheduleOutcome {
            makespan,
            model_rounds: makespan.saturating_mul(self.capacity),
            sequential_rounds,
            dilation,
            congestion: self.congestion,
            total_messages: self.total_messages,
            max_edge_backlog: self.max_backlog,
            delays,
        })
    }
}

/// Schedules instances whose per-edge message totals are spread evenly over
/// their durations (message `k` of an edge's `t` arrives in the instance's
/// local round `⌊k·R/t⌋`), without materialising any trace.
///
/// The outcome equals what [`super::schedule_reference`] reports for the
/// materialised per-message partition. Cost is `O(messages)` for instances
/// with at most one message per edge and round (`O(R)` per heavier edge),
/// plus `O(instances · edges)`; memory is one `u64` per occupied round.
///
/// # Errors
///
/// [`SimError::ScheduleHorizonOverflow`] if an instance's `delay + rounds`
/// (or the schedule's completion time) does not fit `u64`.
///
/// # Panics
///
/// Panics if the capacity is zero.
pub fn schedule_spread(
    instances: &[SpreadInstance<'_>],
    edge_capacity_per_round: u32,
) -> Result<ScheduleOutcome, SimError> {
    let timeline = Timeline::new(instances.iter().map(|i| (i.delay, i.rounds.max(1))))?;
    let mut replay = Replay::new(edge_capacity_per_round, timeline);
    let edges = instances.iter().map(|i| i.edge_totals.len()).max().unwrap_or(0);
    for edge in 0..edges {
        for (i, instance) in instances.iter().enumerate() {
            match instance.edge_totals.get(edge) {
                Some(&total) if total > 0 => {
                    replay.pour_spread(replay.timeline.slot_of[i], instance.rounds.max(1), total);
                }
                _ => {}
            }
        }
        replay.close_edge();
    }
    // simlint::allow(hot-path-alloc: part of the outcome, one entry per instance)
    replay.finish(instances.iter().map(|i| i.delay).collect())
}

/// Schedules explicit traces started after the given delays: the entries are
/// grouped by edge with one counting sort and replayed edge by edge.
///
/// # Errors
///
/// [`SimError::ScheduleHorizonOverflow`] if an instance's `delay + len` (or
/// the schedule's completion time) does not fit `u64`.
pub(super) fn schedule_traces(
    traces: &[EdgeUsageTrace],
    delays: &[u64],
    edge_capacity_per_round: u32,
) -> Result<ScheduleOutcome, SimError> {
    assert_eq!(traces.len(), delays.len(), "one delay per instance required");
    let timeline = Timeline::new(traces.iter().zip(delays).map(|(t, &d)| (d, t.len() as u64)))?;
    let mut replay = Replay::new(edge_capacity_per_round, timeline);

    // Counting sort of the non-zero entries by edge: `first[e]..first[e + 1]`
    // will be edge `e`'s `(slot, count)` arrivals.
    let live = || {
        traces.iter().enumerate().flat_map(|(i, trace)| {
            trace.rounds.iter().enumerate().flat_map(move |(local, entries)| {
                entries.iter().filter(|&&(_, c)| c > 0).map(move |&(e, c)| (i, local, e, c))
            })
        })
    };
    // simlint::allow(hot-path-alloc: per-schedule set-up, one offset per edge)
    let mut first = vec![0usize];
    for (_, _, e, _) in live() {
        if first.len() < e.index() + 2 {
            first.resize(e.index() + 2, 0);
        }
        first[e.index() + 1] += 1;
    }
    let edges = first.len() - 1;
    for e in 0..edges {
        first[e + 1] += first[e];
    }
    // simlint::allow(hot-path-alloc: per-schedule set-up, the explicit entries grouped by edge)
    let mut arrivals = vec![(0usize, 0u32); first[edges]];
    for (i, local, e, c) in live() {
        arrivals[first[e.index()]] = (replay.timeline.slot_of[i] + local, c);
        first[e.index()] += 1;
    }
    // Filling advanced every `first[e]` to the end of `e`'s run, which is
    // where `e + 1`'s begins.
    let mut begin = 0;
    for &end in &first[..edges] {
        for &(slot, count) in &arrivals[begin..end] {
            replay.pour(slot, u64::from(count));
        }
        replay.close_edge();
        begin = end;
    }
    replay.finish(delays.to_vec()) // simlint::allow(hot-path-alloc: part of the outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::schedule_with_delays;
    use congest_graph::EdgeId;

    #[test]
    fn lazy_draining_tracks_interleaved_batches() {
        // Edge 0: 5 messages at round 0, 2 more at round 2, capacity 2.
        // Backlog: r0 = 5 (peak), serve 2; r1 = 3, serve 2; r2 = 1 + 2 = 3,
        // serve 2; r3 = 1, serve 1 -> last service round 3, makespan 4.
        let trace =
            EdgeUsageTrace { rounds: vec![vec![(EdgeId(0), 5)], vec![], vec![(EdgeId(0), 2)]] };
        let out = schedule_with_delays(&[trace], &[0], 2);
        assert_eq!(out.makespan, 4);
        assert_eq!(out.max_edge_backlog, 5);
        assert_eq!(out.congestion, 7);
        assert_eq!(out.model_rounds, 8);
    }

    #[test]
    fn batches_that_drain_before_the_next_arrival_finalize_their_span() {
        // Edge 0: 2 messages at round 0 (drain by round 1), 1 at round 9.
        // Last service round is 9, makespan 10, peak backlog 2.
        let mut rounds = vec![vec![(EdgeId(0), 2)]];
        rounds.extend(std::iter::repeat_with(Vec::new).take(8));
        rounds.push(vec![(EdgeId(0), 1)]);
        let out = schedule_with_delays(&[EdgeUsageTrace { rounds }], &[0], 1);
        assert_eq!(out.makespan, 10);
        assert_eq!(out.max_edge_backlog, 2);
    }

    #[test]
    fn zero_count_entries_are_ignored() {
        let trace = EdgeUsageTrace { rounds: vec![vec![(EdgeId(3), 0), (EdgeId(1), 0)], vec![]] };
        let out = schedule_with_delays(&[trace], &[4], 1);
        assert_eq!(out.total_messages, 0);
        assert_eq!(out.makespan, 6, "horizon = delay 4 + len 2");
        assert_eq!(out.model_rounds, 6);
        assert_eq!(out.congestion, 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = schedule_with_delays(&[], &[], 0);
    }

    #[test]
    fn the_timeline_indexes_occupied_rounds_only() {
        // Windows [0, 5), [3, 9), [9, 10) merge into one segment; the window
        // at 2^40 opens a second one right behind it in the column.
        let far = 1u64 << 40;
        let t = Timeline::new([(3, 6), (far, 4), (0, 5), (9, 1), (7, 0)].into_iter()).unwrap();
        assert_eq!(t.slots, 14);
        assert_eq!(t.slot_of, vec![3, 10, 0, 9, 0]);
        assert_eq!(t.horizon, far + 4);
        assert_eq!(t.sequential_rounds, 16);
        assert_eq!(t.dilation, 6);
        assert_eq!(t.segments.len(), 2);
        assert_eq!((t.segments[1].start, t.segments[1].base, t.segments[1].len), (far, 10, 4));
    }

    #[test]
    fn a_horizon_past_u64_is_a_typed_error() {
        let totals = [1u64];
        let instance = SpreadInstance { delay: u64::MAX - 2, rounds: 3, edge_totals: &totals };
        assert_eq!(
            schedule_spread(&[instance], 1),
            Err(SimError::ScheduleHorizonOverflow { delay: u64::MAX - 2, rounds: 3 })
        );
        // One round earlier it fits: the message is served in the last
        // representable round but one.
        let instance = SpreadInstance { delay: u64::MAX - 3, ..instance };
        assert_eq!(schedule_spread(&[instance], 1).unwrap().makespan, u64::MAX);
    }

    #[test]
    fn message_counts_past_u64_saturate() {
        // Two instances of `u64::MAX` messages on one edge used to wrap the
        // slot count, the edge total and the schedule total to 2^64 − 2 (a
        // panic in debug builds).
        let totals = [u64::MAX];
        let at = |delay| SpreadInstance { delay, rounds: 1, edge_totals: &totals };
        let out = schedule_spread(&[at(0), at(0)], 1).unwrap();
        assert_eq!(out.congestion, u64::MAX);
        assert_eq!(out.total_messages, u64::MAX);
        assert_eq!(out.max_edge_backlog, u64::MAX);
        assert_eq!(out.makespan, u64::MAX);
        // A round later the saturated backlog drains past `u64::MAX`: the
        // makespan check's typed error, not a wrapped count.
        assert_eq!(
            schedule_spread(&[at(0), at(1)], 1),
            Err(SimError::ScheduleHorizonOverflow { delay: u64::MAX, rounds: 1 })
        );
    }

    #[test]
    fn spread_stepping_matches_the_quotients() {
        // The division-free stepping lands message k in slot ⌊k·R/t⌋.
        for (total, len) in [(1u64, 1u64), (3, 5), (7, 7), (1, 9), (13, 100), (99, 100)] {
            let timeline = Timeline::new(std::iter::once((0, len))).unwrap();
            let mut replay = Replay::new(1, timeline);
            replay.pour_spread(0, len, total);
            let mut expected = vec![0u64; len as usize];
            for k in 0..total {
                expected[(u128::from(k) * u128::from(len) / u128::from(total)) as usize] += 1;
            }
            assert_eq!(replay.counts, expected, "{total} messages over {len} rounds");
            replay.close_edge();
            assert!(
                replay.counts.iter().all(|&c| c == 0) && replay.occupied.iter().all(|&w| w == 0)
            );
            assert_eq!(replay.total_messages, total);
        }
    }
}
