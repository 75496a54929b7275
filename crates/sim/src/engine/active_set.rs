//! The active-set scheduler: tracks which nodes are awake in which round.
//!
//! The sleeping model's cost profile (only `poly(log n)` awake rounds per
//! node) means that in a typical low-energy execution almost every node is
//! asleep in almost every round. The engine therefore must never iterate over
//! all `n` nodes per round; instead this module maintains an explicit *wake
//! queue* — buckets keyed by the absolute wake round — so that a round
//! touches exactly the nodes scheduled to run in it.
//!
//! The queue is split in two so the common case is allocation-free:
//!
//! * a **ring** of [`WINDOW`] buckets for wake-ups within the next `WINDOW`
//!   rounds. Always-awake nodes cycle through the ring's recycled `Vec`s, so
//!   a steady-state round allocates nothing (the allocation-regression test
//!   `tests/alloc_regression.rs` pins this);
//! * an **overflow** `BTreeMap` for wake-ups beyond the ring horizon —
//!   sleeping-model protocols legitimately schedule arbitrarily far ahead.
//!   Its bucket `Vec`s are recycled through a spare pool.
//!
//! Invariant: a non-halted node `v` runs in round `r` iff
//! `wake_at[v] == r`. (`wake_at` only ever moves forward, and it is only
//! rewritten when `v` runs, at which point its old queue entry has already
//! been consumed — so every queue entry is live and unique, and all entries
//! in one ring slot share one absolute round.)
//!
//! Two things break the parenthesis, and both switch the queue into
//! *filtering* mode, where entries are a superset of the truth and `wake_at`
//! is authoritative: fault-injected churn (a crashed node's entry goes
//! stale, a revived node is enqueued twice) and **listening**. A node that
//! asked to [`crate::NodeCtx::listen_until`] a deadline sits in the queue at
//! that deadline like a sleeper, but stays awake in the model; when mail
//! arrives first, [`ActiveSet::wake_listeners`] pulls `wake_at` forward to
//! the delivery round and the deadline entry is left behind, stale. The
//! rounds it idled through are never visited: [`ActiveSet::awake_rounds`]
//! settles their energy in one subtraction when the node next runs.
//!
//! simlint: hot-path

use std::collections::BTreeMap;

use congest_graph::NodeId;

use crate::node::Request;

/// Ring width: wake-ups at most this many rounds ahead stay in the
/// allocation-free ring. Chosen to cover every always-awake cadence (wake
/// next round) and short sleeps (e.g. megaround pulses) with room to spare;
/// longer sleeps take the overflow path, whose cost is charged to genuinely
/// low-duty-cycle executions.
const WINDOW: u64 = 64;

/// Per-node status plus the two-tier wake bucket queue.
#[derive(Debug, Clone)]
pub(crate) struct ActiveSet {
    /// The round in which each node next runs (meaningless once halted).
    wake_at: Vec<u64>,
    /// Nodes that have halted for good.
    halted: Vec<bool>,
    halted_count: usize,
    /// Near-future buckets: the bucket for round `r` lives at slot
    /// `r % WINDOW`. Draining a slot keeps its capacity, so steady-state
    /// rescheduling never allocates.
    ring: Vec<Vec<NodeId>>,
    /// Far-future buckets (wake more than `WINDOW` rounds ahead), keyed by
    /// absolute round.
    overflow: BTreeMap<u64, Vec<NodeId>>,
    /// Recycled bucket vectors for `overflow` inserts.
    spare: Vec<Vec<NodeId>>,
    /// Nodes currently down due to a fault-injected crash (awaiting restart).
    /// Empty (all-false) outside fault mode.
    down: Vec<bool>,
    /// Nodes currently waiting in [`crate::NodeCtx::listen_until`]. Empty
    /// until the first listen request of the run allocates it (and
    /// `listen_from`), so protocols that never listen run the path — and pay
    /// the per-run set-up — they always did.
    listening: Vec<bool>,
    /// For a listening node, the round in which it last ran (it has been
    /// awake, unvisited, in every round since); meaningless otherwise.
    listen_from: Vec<u64>,
    /// Queue entries may be stale (a revived node is re-enqueued without its
    /// old entry being removable; an early-woken listener leaves its deadline
    /// entry behind), so [`ActiveSet::take_awake`] must filter and dedup
    /// instead of trusting the buckets. Set by a crash/restart plan and by
    /// the first listen request.
    filtering: bool,
}

impl ActiveSet {
    /// Creates the scheduler for `n` nodes, all awake in round 0 (the
    /// initialization round of the model).
    pub(crate) fn new(n: usize) -> Self {
        // simlint::allow(hot-path-alloc: one-time construction; steady-state rounds only recycle these buckets)
        let mut ring = vec![Vec::new(); WINDOW as usize];
        // simlint::allow(hot-path-alloc: one-time construction of the round-0 bucket)
        ring[0] = (0..n as u32).map(NodeId).collect();
        ActiveSet {
            wake_at: vec![0; n],    // simlint::allow(hot-path-alloc: per-run setup)
            halted: vec![false; n], // simlint::allow(hot-path-alloc: per-run setup)
            halted_count: 0,
            ring,
            overflow: BTreeMap::new(),
            spare: Vec::new(),     // simlint::allow(hot-path-alloc: per-run setup)
            down: vec![false; n],  // simlint::allow(hot-path-alloc: per-run setup)
            listening: Vec::new(), // simlint::allow(hot-path-alloc: empty; sized by the first listen request)
            listen_from: Vec::new(), // simlint::allow(hot-path-alloc: empty; sized by the first listen request)
            filtering: false,
        }
    }

    /// Switches the scheduler into fault (churn) mode: queue entries are no
    /// longer trusted to be live, and [`ActiveSet::take_awake`] filters and
    /// dedups them. Called once, before round 0, when the engine runs with a
    /// crash/restart plan — the fault-free path never pays for this.
    pub(crate) fn enable_fault_filtering(&mut self) {
        self.filtering = true;
    }

    /// Removes and returns (into `out`) the nodes awake in `round`, sorted by
    /// id so the execution order matches the reference engine's `0..n` sweep.
    pub(crate) fn take_awake(&mut self, round: u64, out: &mut Vec<NodeId>) {
        out.clear();
        out.append(&mut self.ring[(round % WINDOW) as usize]);
        if !self.overflow.is_empty() {
            if let Some(mut far) = self.overflow.remove(&round) {
                out.append(&mut far);
                self.spare.push(far);
            }
        }
        if self.filtering {
            // Churn and early-woken listeners leave stale entries behind (a
            // crashed node's pending wake-up, a revived node's duplicate, a
            // deadline its listener did not wait for), so the buckets are a
            // superset: keep only genuinely runnable nodes and dedup after
            // sorting.
            out.retain(|v| {
                self.wake_at[v.index()] == round && !self.halted[v.index()] && !self.down[v.index()]
            });
            out.sort_unstable();
            out.dedup();
            return;
        }
        debug_assert!(
            out.iter().all(|v| self.wake_at[v.index()] == round && !self.halted[v.index()]),
            "a bucket only holds live entries for its own round"
        );
        out.sort_unstable();
    }

    /// `true` iff `v` receives messages delivered in `round` (awake and not
    /// halted). Must be queried *before* the nodes of `round` are rescheduled
    /// and, once a node listens, *after* [`ActiveSet::wake_listeners`] — a
    /// listener with mail runs this round like any other awake node, and one
    /// without mail is never asked about.
    pub(crate) fn is_receptive(&self, v: NodeId, round: u64) -> bool {
        !self.halted[v.index()] && self.wake_at[v.index()] == round
    }

    /// `true` once any node has asked to listen in this run; the engine then
    /// calls [`ActiveSet::wake_listeners`] before each delivery.
    pub(crate) fn has_listeners(&self) -> bool {
        !self.listening.is_empty()
    }

    /// `true` iff `v` is waiting in a listen request (never, in a run that has
    /// not seen one: the bookkeeping is still empty).
    fn is_listening(&self, v: NodeId) -> bool {
        self.listening.get(v.index()).is_some_and(|&listening| listening)
    }

    /// Ends `v`'s wait, if it is in one, and says whether it was.
    fn stop_listening(&mut self, v: NodeId) -> bool {
        self.listening.get_mut(v.index()).is_some_and(std::mem::take)
    }

    /// Pulls every listening recipient of `recipients` (this round's delivery
    /// stream) into `awake`, the id-sorted list [`ActiveSet::take_awake`]
    /// just produced: mail ends the wait, so the node runs in `round` instead
    /// of at its deadline, whose queue entry stays behind for the filter.
    /// Crashed and halted nodes are never listening, so exactly the
    /// recipients whose inbox will be non-empty are woken.
    pub(crate) fn wake_listeners(
        &mut self,
        round: u64,
        recipients: impl Iterator<Item = NodeId>,
        awake: &mut Vec<NodeId>,
    ) {
        let before = awake.len();
        for v in recipients {
            if self.is_listening(v) && self.wake_at[v.index()] != round {
                self.wake_at[v.index()] = round;
                awake.push(v);
            }
        }
        if awake.len() > before {
            awake.sort_unstable();
        }
    }

    /// The energy `v` is charged when it is stepped in `round`: one unit for
    /// the round itself, plus — for a listener — one for every round it has
    /// idled through, awake but unvisited, since it last ran.
    pub(crate) fn awake_rounds(&self, v: NodeId, round: u64) -> u64 {
        if self.is_listening(v) {
            round - self.listen_from[v.index()]
        } else {
            1
        }
    }

    /// Ends `v`'s listening because a fault-plan event replaces it in
    /// `round` (a crash, or a restart of a node that is up), and returns the
    /// energy of the rounds it idled through — up to `round − 1`, the last
    /// one it was up in.
    fn interrupt_listening(&mut self, v: NodeId, round: u64) -> u64 {
        if self.stop_listening(v) {
            round - 1 - self.listen_from[v.index()]
        } else {
            0
        }
    }

    /// Applies the scheduling request `v` ended its step in `round` with.
    pub(crate) fn apply(&mut self, v: NodeId, round: u64, request: Request) {
        match request {
            Request::Halt => self.halt(v),
            Request::Stay => self.reschedule(v, round, round + 1),
            Request::SleepUntil(wake_at) => self.reschedule(v, round, wake_at),
            Request::ListenUntil(deadline) => self.listen(v, round, deadline),
        }
    }

    /// Reschedules `v` (which just ran in `round`) to wake at `wake_at`.
    pub(crate) fn reschedule(&mut self, v: NodeId, round: u64, wake_at: u64) {
        self.stop_listening(v);
        self.enqueue(v, round, wake_at);
    }

    /// Reschedules `v` (which just ran in `round`) to listen until
    /// `deadline`: it stays awake — charged and receptive — and next runs
    /// when mail arrives ([`ActiveSet::wake_listeners`]) or at the deadline.
    pub(crate) fn listen(&mut self, v: NodeId, round: u64, deadline: u64) {
        if !self.has_listeners() {
            // The first request of the run: size the listening bookkeeping
            // and switch the stale-entry filtering on. Nothing is stale yet,
            // so buckets taken unfiltered were exact.
            let n = self.wake_at.len();
            self.listening = vec![false; n]; // simlint::allow(hot-path-alloc: once per run, at its first listen request)
            self.listen_from = vec![0; n]; // simlint::allow(hot-path-alloc: once per run, at its first listen request)
            self.filtering = true;
        }
        self.listening[v.index()] = true;
        self.listen_from[v.index()] = round;
        self.enqueue(v, round, deadline);
    }

    fn enqueue(&mut self, v: NodeId, round: u64, wake_at: u64) {
        debug_assert!(wake_at > round, "wake-ups must move forward");
        let w = wake_at.max(round + 1);
        self.wake_at[v.index()] = w;
        if w - round <= WINDOW {
            // Slots (round, round + WINDOW] are distinct mod WINDOW, and the
            // slot shared with `round` itself was drained by `take_awake`.
            self.ring[(w % WINDOW) as usize].push(v);
        } else {
            self.overflow.entry(w).or_insert_with(|| self.spare.pop().unwrap_or_default()).push(v);
        }
    }

    /// Marks `v` as halted; it never runs again (unless a fault-injected
    /// restart revives it — see [`ActiveSet::revive`]).
    pub(crate) fn halt(&mut self, v: NodeId) {
        self.stop_listening(v);
        if !self.halted[v.index()] {
            self.halted[v.index()] = true;
            self.halted_count += 1;
        }
    }

    /// Marks `v` as down due to a fault-injected crash at the start of
    /// `round`: it neither runs nor receives until revived. Requires fault
    /// mode. Returns the energy `v` still owes for rounds it listened
    /// through (zero unless it was listening).
    pub(crate) fn set_down(&mut self, v: NodeId, round: u64) -> u64 {
        debug_assert!(self.filtering, "churn requires fault filtering");
        self.down[v.index()] = true;
        self.interrupt_listening(v, round)
    }

    /// `true` iff `v` is currently down due to a fault-injected crash. (The
    /// engine tracks this authoritatively in its `FaultRuntime`; this
    /// accessor exists for the scheduler's own tests.)
    #[cfg(test)]
    pub(crate) fn is_down(&self, v: NodeId) -> bool {
        self.down[v.index()]
    }

    /// Revives `v` at `round` after a fault-injected restart: clears its
    /// down (and, if set, halted) status and schedules it to run *this*
    /// round. Must be called before `take_awake(round, ..)` drains the
    /// round's bucket; requires fault mode, whose filtering also absorbs the
    /// duplicate or stale queue entries this can create. Returns the energy
    /// `v` still owes for rounds it listened through (overlapping crash
    /// windows can restart a node that is up and listening).
    pub(crate) fn revive(&mut self, v: NodeId, round: u64) -> u64 {
        debug_assert!(self.filtering, "churn requires fault filtering");
        let owed = self.interrupt_listening(v, round);
        self.down[v.index()] = false;
        if self.halted[v.index()] {
            self.halted[v.index()] = false;
            self.halted_count -= 1;
        }
        self.wake_at[v.index()] = round;
        self.ring[(round % WINDOW) as usize].push(v);
        owed
    }

    /// `true` once every node has halted.
    pub(crate) fn all_halted(&self) -> bool {
        self.halted_count == self.halted.len()
    }

    /// Number of nodes that have not halted.
    pub(crate) fn unhalted(&self) -> u32 {
        (self.halted.len() - self.halted_count) as u32
    }

    /// The earliest round in which any node is scheduled to wake, if any.
    /// `O(WINDOW)`: each non-empty ring slot's round is read off its first
    /// entry's `wake_at` (all entries of a slot share one round).
    ///
    /// Once nodes listen, a slot's first entry may be stale, so every ring
    /// entry is read instead: each live node has an entry at its `wake_at`,
    /// and a stale entry only names its node's real, later wake-up, so the
    /// minimum over unhalted entries is exact. A stale overflow key can only
    /// make the answer too early, which costs one empty round and nothing
    /// else (no key is ever jumped over, so none lingers behind `round`).
    /// Not for fault mode — see [`ActiveSet::next_wake_scan`].
    pub(crate) fn next_wake(&self) -> Option<u64> {
        let far = self.overflow.keys().next().copied();
        let near = if self.filtering {
            let live = self.ring.iter().flatten().filter(|v| !self.halted[v.index()]);
            live.map(|v| self.wake_at[v.index()]).min()
        } else {
            self.ring.iter().filter_map(|slot| slot.first()).map(|v| self.wake_at[v.index()]).min()
        };
        match (near, far) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Fault-mode replacement for [`ActiveSet::next_wake`]: an `O(n)` scan of
    /// the authoritative `wake_at` array over live (non-halted, non-down)
    /// nodes. The bucket-based shortcut is unsound under churn — a stale
    /// first entry can shadow a live later wake-up in the same ring slot.
    pub(crate) fn next_wake_scan(&self) -> Option<u64> {
        (0..self.wake_at.len())
            .filter(|&i| !self.halted[i] && !self.down[i])
            .map(|i| self.wake_at[i])
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_nodes_start_awake_in_round_zero() {
        let mut a = ActiveSet::new(3);
        let mut awake = Vec::new();
        a.take_awake(0, &mut awake);
        assert_eq!(awake, vec![NodeId(0), NodeId(1), NodeId(2)]);
        a.take_awake(0, &mut awake);
        assert!(awake.is_empty(), "a bucket is consumed exactly once");
    }

    #[test]
    fn reschedule_orders_nodes_by_id_within_a_bucket() {
        let mut a = ActiveSet::new(4);
        let mut awake = Vec::new();
        a.take_awake(0, &mut awake);
        // Insert out of id order; the bucket must come back sorted.
        a.reschedule(NodeId(3), 0, 5);
        a.reschedule(NodeId(1), 0, 5);
        a.reschedule(NodeId(2), 0, 7);
        a.halt(NodeId(0));
        assert_eq!(a.next_wake(), Some(5));
        a.take_awake(5, &mut awake);
        assert_eq!(awake, vec![NodeId(1), NodeId(3)]);
        assert_eq!(a.next_wake(), Some(7));
    }

    #[test]
    fn receptivity_tracks_wake_round_exactly() {
        let mut a = ActiveSet::new(2);
        let mut awake = Vec::new();
        a.take_awake(0, &mut awake);
        a.reschedule(NodeId(0), 0, 3);
        a.halt(NodeId(1));
        assert!(!a.is_receptive(NodeId(0), 1));
        assert!(a.is_receptive(NodeId(0), 3));
        assert!(!a.is_receptive(NodeId(1), 1), "halted nodes receive nothing");
    }

    #[test]
    fn halt_counting() {
        let mut a = ActiveSet::new(2);
        assert_eq!(a.unhalted(), 2);
        a.halt(NodeId(0));
        a.halt(NodeId(0)); // idempotent
        assert_eq!(a.unhalted(), 1);
        assert!(!a.all_halted());
        a.halt(NodeId(1));
        assert!(a.all_halted());
    }

    #[test]
    fn empty_network_is_trivially_halted() {
        let a = ActiveSet::new(0);
        assert!(a.all_halted());
        assert_eq!(a.next_wake(), None);
    }

    #[test]
    fn far_wakeups_go_through_overflow_and_come_back() {
        let mut a = ActiveSet::new(3);
        let mut awake = Vec::new();
        a.take_awake(0, &mut awake);
        // One near, one just past the ring horizon, one far out.
        a.reschedule(NodeId(0), 0, WINDOW); // last ring slot
        a.reschedule(NodeId(1), 0, WINDOW + 1); // first overflow round
        a.reschedule(NodeId(2), 0, 10 * WINDOW);
        assert_eq!(a.next_wake(), Some(WINDOW));
        a.take_awake(WINDOW, &mut awake);
        assert_eq!(awake, vec![NodeId(0)]);
        a.halt(NodeId(0));
        assert_eq!(a.next_wake(), Some(WINDOW + 1));
        a.take_awake(WINDOW + 1, &mut awake);
        assert_eq!(awake, vec![NodeId(1)]);
        a.halt(NodeId(1));
        assert_eq!(a.next_wake(), Some(10 * WINDOW));
        a.take_awake(10 * WINDOW, &mut awake);
        assert_eq!(awake, vec![NodeId(2)]);
    }

    #[test]
    fn fault_mode_filters_stale_entries_and_revives_nodes() {
        let mut a = ActiveSet::new(3);
        a.enable_fault_filtering();
        let mut awake = Vec::new();
        a.take_awake(0, &mut awake);
        assert_eq!(awake.len(), 3);
        a.reschedule(NodeId(0), 0, 2);
        a.reschedule(NodeId(1), 0, 2);
        a.halt(NodeId(2));
        // Node 0 crashes before its wake round: its queue entry goes stale.
        assert_eq!(a.set_down(NodeId(0), 1), 0, "a sleeper owes nothing");
        assert!(a.is_down(NodeId(0)));
        a.take_awake(2, &mut awake);
        assert_eq!(awake, vec![NodeId(1)], "down nodes are filtered out");
        a.reschedule(NodeId(1), 2, 100);
        // Down and halted nodes are invisible to the wake scan.
        assert_eq!(a.next_wake_scan(), Some(100));
        // Restart node 0 (clearing `down`) and even halted node 2: a revive
        // runs the node in its own round, and duplicates are absorbed.
        a.revive(NodeId(0), 7);
        a.revive(NodeId(0), 7);
        a.revive(NodeId(2), 7);
        assert!(!a.is_down(NodeId(0)));
        assert!(!a.all_halted() && a.unhalted() == 3);
        assert_eq!(a.next_wake_scan(), Some(7));
        a.take_awake(7, &mut awake);
        assert_eq!(awake, vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn listeners_wake_on_mail_and_settle_the_rounds_they_idled_through() {
        let mut a = ActiveSet::new(4);
        let mut awake = Vec::new();
        a.take_awake(0, &mut awake);
        assert!(!a.has_listeners());
        assert_eq!(a.awake_rounds(NodeId(0), 0), 1);
        // 0 and 1 listen to a far deadline (overflow), 2 to a near one
        // (ring), 3 sleeps.
        a.listen(NodeId(0), 0, 200);
        a.listen(NodeId(1), 0, 200);
        a.listen(NodeId(2), 0, 9);
        a.reschedule(NodeId(3), 0, 200);
        assert!(a.has_listeners());
        assert_eq!(a.next_wake(), Some(9));

        // Mail for 1 (twice), 2 and the sleeper in round 5: the listeners
        // join the awake list once each, in id order; the sleeper stays deaf.
        a.take_awake(5, &mut awake);
        let mail = [NodeId(2), NodeId(1), NodeId(3), NodeId(1)];
        a.wake_listeners(5, mail.into_iter(), &mut awake);
        assert_eq!(awake, vec![NodeId(1), NodeId(2)]);
        assert!(a.is_receptive(NodeId(1), 5) && a.is_receptive(NodeId(2), 5));
        assert!(!a.is_receptive(NodeId(3), 5));
        assert_eq!(a.awake_rounds(NodeId(1), 5), 5, "rounds 1..=5");
        // 1 goes back to the deadline it already has an entry for; 2 halts,
        // leaving its round-9 entry stale.
        a.listen(NodeId(1), 5, 200);
        a.halt(NodeId(2));
        assert_eq!(a.next_wake(), Some(200), "a stale first entry does not stop the jump");

        // The deadline bucket holds 0, 1 twice, and 3: filtered and deduped.
        a.take_awake(200, &mut awake);
        assert_eq!(awake, vec![NodeId(0), NodeId(1), NodeId(3)]);
        assert_eq!(a.awake_rounds(NodeId(0), 200), 200);
        assert_eq!(a.awake_rounds(NodeId(1), 200), 195);
        assert_eq!(a.awake_rounds(NodeId(3), 200), 1, "sleep is free");
        a.reschedule(NodeId(0), 200, 201);
        assert_eq!(a.awake_rounds(NodeId(0), 201), 1, "running ends the wait");
    }

    #[test]
    fn a_crashed_listener_is_charged_through_the_round_before() {
        let mut a = ActiveSet::new(2);
        a.enable_fault_filtering();
        let mut awake = Vec::new();
        a.take_awake(0, &mut awake);
        a.listen(NodeId(0), 0, 50);
        a.listen(NodeId(1), 0, 50);
        assert_eq!(a.set_down(NodeId(0), 7), 6, "rounds 1..=6");
        a.take_awake(7, &mut awake);
        a.wake_listeners(7, [NodeId(0)].into_iter(), &mut awake);
        assert!(awake.is_empty(), "a crashed node is no longer listening");
        // A restart that finds the node up (overlapping crash windows) also
        // settles the wait it cuts short.
        assert_eq!(a.revive(NodeId(1), 10), 9);
        assert_eq!(a.revive(NodeId(0), 10), 0);
        a.take_awake(10, &mut awake);
        assert_eq!(awake, vec![NodeId(0), NodeId(1)]);
        assert_eq!(a.awake_rounds(NodeId(1), 10), 1);
    }

    #[test]
    fn ring_and_overflow_entries_for_one_round_are_merged_and_sorted() {
        let mut a = ActiveSet::new(4);
        let mut awake = Vec::new();
        a.take_awake(0, &mut awake);
        let target = WINDOW + 5;
        // Scheduled far ahead of round 0: overflow.
        a.reschedule(NodeId(3), 0, target);
        a.reschedule(NodeId(1), 0, target);
        // Nodes 0 and 2 step forward and, once close enough, schedule the
        // same round through the ring.
        a.reschedule(NodeId(2), 0, 10);
        a.reschedule(NodeId(0), 0, 10);
        a.take_awake(10, &mut awake);
        assert_eq!(awake, vec![NodeId(0), NodeId(2)]);
        a.reschedule(NodeId(0), 10, target);
        a.reschedule(NodeId(2), 10, target);
        a.take_awake(target, &mut awake);
        assert_eq!(awake, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(a.next_wake(), None);
    }
}
