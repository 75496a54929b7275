//! The per-edge replay of the random-delay scheduler: [`schedule_spread`].
//!
//! Instances are described by `(delay, rounds, per-edge totals)`, their
//! messages spread evenly over their duration (message `k` of an edge's `t`
//! goes to local round `⌊k·R/t⌋`); this is what `congest_sssp::apsp` runs.
//! Edges do not interact under the queueing discipline (each serves its own
//! backlog at `capacity` messages per round), so the schedule is replayed
//! **one edge at a time**: [`Replay::pour_spread`] generates every arrival of
//! the edge on the fly into one reusable round-indexed count column (plus an
//! occupancy bitmap) — no trace is ever materialised — and
//! [`Replay::close_edge`] runs the edge's queue over the set bits in round
//! order — lazily draining the service between two arrivals in `O(1)`
//! arithmetic — and clears the column as it goes. Nothing is allocated per
//! message, per round or per edge.
//!
//! # One time axis
//!
//! Slot `s` of the column is round `earliest + s`, where `earliest` is the
//! smallest delay, and the column ends at the horizon: instance `i`'s local
//! round `r` is slot `delay_i − earliest + r`. `congest_sssp::apsp` draws
//! its delays from `0..n`, so the rounds between windows that the column
//! also holds are fewer than `n`. A schedule whose instances start too far
//! apart for memory to hold a count per round between them is
//! [`SimError::ScheduleTooLong`]. See `docs/APSP.md`.
//!
//! The semantics are exactly those of the round-by-round loop
//! [`super::schedule_reference`] on the materialised per-message partition;
//! `crates/sim/tests/scheduler_equivalence.rs` pins the equivalence.
//!
//! simlint: hot-path

use crate::SimError;

use super::ScheduleOutcome;

/// One protocol instance as [`schedule_spread`] sees it: when it starts,
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

/// The replay state: the shared count column and the statistics folded in
/// edge by edge.
#[derive(Debug)]
struct Replay {
    capacity: u64,
    /// The round of slot 0: the smallest delay (0 without instances).
    earliest: u64,
    /// `max_i(delay_i + len_i)`: the column ends here.
    horizon: u64,
    sequential_rounds: u64,
    dilation: u64,
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
    /// Lays the instances' windows `[delay, delay + len)` out on one axis
    /// (`len = rounds.max(1)`) and allocates a clear column for the rounds
    /// `earliest..horizon`.
    ///
    /// # Errors
    ///
    /// [`SimError::ScheduleHorizonOverflow`] if a window ends past
    /// `u64::MAX`, found before anything is allocated, and
    /// [`SimError::ScheduleTooLong`] if the column or its bitmap cannot be
    /// allocated: the allocation is fallible, so a schedule spanning `2⁵⁴`
    /// rounds is an error, not an aborted process.
    fn new(capacity: u32, instances: &[SpreadInstance<'_>]) -> Result<Replay, SimError> {
        assert!(capacity > 0, "edge capacity must be positive");
        let (mut earliest, mut horizon) = (u64::MAX, 0u64);
        let (mut sequential_rounds, mut dilation) = (0u64, 0u64);
        for &SpreadInstance { delay, rounds, .. } in instances {
            let len = rounds.max(1);
            let overflow = SimError::ScheduleHorizonOverflow { delay, rounds: len };
            horizon = horizon.max(delay.checked_add(len).ok_or(overflow)?);
            earliest = earliest.min(delay);
            sequential_rounds = sequential_rounds.saturating_add(len);
            dilation = dilation.max(len);
        }
        // Every window is at least one round long, so `earliest < horizon`
        // unless there are no instances.
        let earliest = earliest.min(horizon);
        let slots = usize::try_from(horizon - earliest).unwrap_or(usize::MAX);
        let zeroed = |len: usize| {
            // simlint::allow(hot-path-alloc: the column and its bitmap, once per schedule, reused by every edge)
            let mut column = Vec::new();
            column.try_reserve_exact(len).map_err(|_| SimError::ScheduleTooLong { slots })?;
            column.resize(len, 0u64);
            Ok(column)
        };
        Ok(Replay {
            capacity: u64::from(capacity),
            earliest,
            horizon,
            sequential_rounds,
            dilation,
            counts: zeroed(slots)?,
            occupied: zeroed(slots.div_ceil(64))?,
            lo_word: usize::MAX,
            hi_word: 0,
            congestion: 0,
            total_messages: 0,
            max_backlog: 0,
            last_service_round: 0,
        })
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

    /// Pours the `total > 0` messages one instance starting at `delay` sends
    /// over the current edge, spread evenly over its `len` rounds: message
    /// `k` lands in local round `⌊k·len/total⌋`.
    fn pour_spread(&mut self, delay: u64, len: u64, total: u64) {
        // Below the column's length, which is a `usize`.
        let base = (delay - self.earliest) as usize;
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
        for word in self.lo_word..=self.hi_word {
            let mut bits = std::mem::take(&mut self.occupied[word]);
            while bits != 0 {
                let slot = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let count = std::mem::take(&mut self.counts[slot]);
                let round = self.earliest + slot as u64;

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
        let makespan = if self.total_messages == 0 {
            // No messages: nothing queues, the makespan is the horizon (the
            // instances still occupy their full durations).
            self.horizon
        } else {
            let served = self.last_service_round.checked_add(1).ok_or(
                SimError::ScheduleHorizonOverflow { delay: self.last_service_round, rounds: 1 },
            )?;
            served.max(self.horizon)
        };
        Ok(ScheduleOutcome {
            makespan,
            model_rounds: makespan.saturating_mul(self.capacity),
            sequential_rounds: self.sequential_rounds,
            dilation: self.dilation,
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
/// plus `O(instances · edges)`; memory is one `u64` per round from the
/// earliest delay to the horizon.
///
/// # Errors
///
/// [`SimError::ScheduleHorizonOverflow`] if an instance's `delay + rounds`
/// (or the schedule's completion time) does not fit `u64`, and
/// [`SimError::ScheduleTooLong`] if the count column of the rounds from the
/// earliest delay to the horizon cannot be allocated.
///
/// # Panics
///
/// Panics if the capacity is zero.
pub fn schedule_spread(
    instances: &[SpreadInstance<'_>],
    edge_capacity_per_round: u32,
) -> Result<ScheduleOutcome, SimError> {
    let mut replay = Replay::new(edge_capacity_per_round, instances)?;
    let edges = instances.iter().map(|i| i.edge_totals.len()).max().unwrap_or(0);
    for edge in 0..edges {
        for instance in instances {
            match instance.edge_totals.get(edge) {
                Some(&total) if total > 0 => {
                    replay.pour_spread(instance.delay, instance.rounds.max(1), total);
                }
                _ => {}
            }
        }
        replay.close_edge();
    }
    // simlint::allow(hot-path-alloc: part of the outcome, one entry per instance)
    replay.finish(instances.iter().map(|i| i.delay).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = schedule_spread(&[], 0);
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
            let instance = SpreadInstance { delay: 3, rounds: len, edge_totals: &[] };
            let mut replay = Replay::new(1, &[instance]).unwrap();
            replay.pour_spread(3, len, total);
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
