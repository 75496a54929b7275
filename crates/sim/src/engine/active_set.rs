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
//! * a **far tier** for wake-ups beyond the ring horizon — sleeping-model
//!   protocols legitimately schedule arbitrarily far ahead: `(round, node)`
//!   entries in flat buffers (`FarTier`) that, like the ring's, survive
//!   [`ActiveSet::rearm`], so a warm scheduler allocates nothing on this
//!   path either.
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
//! The scheduler is part of a [`crate::RunScratch`]: a run starts by
//! [`ActiveSet::rearm`]ing it, which forgets the last run and keeps every
//! buffer's capacity.
//!
//! simlint: hot-path

use congest_graph::NodeId;

use super::zeroed;
use crate::node::Request;

/// Ring width: wake-ups at most this many rounds ahead stay in the
/// allocation-free ring. Chosen to cover every always-awake cadence (wake
/// next round) and short sleeps (e.g. megaround pulses) with room to spare;
/// longer sleeps take the far tier, whose sorting is charged to genuinely
/// low-duty-cycle executions.
const WINDOW: u64 = 64;

/// Per-node status plus the two-tier wake queue. The `Default` value is the
/// scheduler of no run; [`ActiveSet::rearm`] makes it the scheduler of one.
#[derive(Debug, Clone, Default)]
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
    /// Far-future entries (wake more than `WINDOW` rounds ahead of the round
    /// they were scheduled in), earliest round on top.
    far: FarTier,
    /// Nodes currently down due to a fault-injected crash (awaiting restart).
    /// Empty (all-false) outside fault mode.
    down: Vec<bool>,
    /// Nodes currently waiting in [`crate::NodeCtx::listen_until`]. Empty
    /// until the first listen request of the run sizes it (and
    /// `listen_from`), so protocols that never listen run the path — and pay
    /// the per-run set-up — they always did.
    listening: Vec<bool>,
    /// For a listening node, the round in which it last ran (it has been
    /// awake, unvisited, in every round since); meaningless otherwise.
    listen_from: Vec<u64>,
    /// For a node of a run with listeners: the round of a far-tier entry of
    /// its that is known to be in the far tier still, or 0. A listener woken
    /// early mostly goes back to the deadline it came from (the waiting BFS
    /// returns to its round limit after every message), and without this its
    /// deadline's round would open by popping one stale entry per callback of
    /// the whole run. Sized with `listening`.
    far_deadline: Vec<u64>,
    /// Queue entries may be stale (a revived node is re-enqueued without its
    /// old entry being removable; an early-woken listener leaves its deadline
    /// entry behind), so [`ActiveSet::take_awake`] must filter and dedup
    /// instead of trusting the buckets. Set by a crash/restart plan and by
    /// the first listen request.
    filtering: bool,
}

/// The far tier of the wake queue: `(round, node)` entries more than
/// [`WINDOW`] rounds ahead of the round they were made in, in two flat
/// buffers that survive [`ActiveSet::rearm`]. New entries are staged in push
/// order, and sorted in only once one of them is due before everything
/// already in order (or nothing is): a schedule handed over in one round
/// (every node of a wave sleeping to its own round) costs one sort, and
/// sleepers that each go back to sleep for a period, one after the other,
/// cost one sort per period. The sort also takes whatever is in order and no
/// later than the latest staged entry, so the case to know about is a staged
/// buffer holding an entry earlier than the whole run *and* one later than
/// most of it: that sorts most of the run again.
#[derive(Debug, Clone, Default)]
struct FarTier {
    /// Sorted by round, latest first: the earliest entry is the last one.
    sorted: Vec<(u64, NodeId)>,
    /// Entries pushed since `sorted` was last completed.
    staged: Vec<(u64, NodeId)>,
    /// The earliest round in `staged` (meaningless while it is empty).
    staged_min: u64,
}

impl FarTier {
    fn clear(&mut self) {
        self.sorted.clear();
        self.staged.clear();
    }

    fn push(&mut self, round: u64, v: NodeId) {
        self.staged_min = if self.staged.is_empty() { round } else { self.staged_min.min(round) };
        self.staged.push((round, v));
    }

    /// The earliest round queued, if any.
    fn earliest(&self) -> Option<u64> {
        let staged = (!self.staged.is_empty()).then_some(self.staged_min);
        staged.into_iter().chain(self.sorted.last().map(|e| e.0)).min()
    }

    /// The earliest entry, if any. Answered from the sorted run as it stands
    /// unless a staged entry comes before all of it.
    fn first(&mut self) -> Option<(u64, NodeId)> {
        let in_order = self.sorted.last().map(|e| e.0);
        if !self.staged.is_empty() && in_order.map_or(true, |r| self.staged_min < r) {
            let latest = self.staged.iter().map(|e| e.0).max().expect("non-empty");
            let keep = self.sorted.partition_point(|e| e.0 > latest);
            self.sorted.append(&mut self.staged);
            // By round alone: the order within a round is `take_awake`'s.
            self.sorted[keep..].sort_unstable_by_key(|e| std::cmp::Reverse(e.0));
        }
        self.sorted.last().copied()
    }

    /// Removes the entry [`FarTier::first`] just returned.
    fn pop(&mut self) {
        self.sorted.pop();
    }

    /// Removes and returns the earliest entry if it is due by `round`.
    fn due(&mut self, round: u64) -> Option<(u64, NodeId)> {
        if self.earliest()? > round {
            return None;
        }
        let first = self.first();
        self.pop();
        first
    }
}

impl ActiveSet {
    /// Creates the scheduler for `n` nodes, all awake in round 0.
    #[cfg(test)]
    pub(crate) fn new(n: usize) -> Self {
        let mut fresh = ActiveSet::default();
        fresh.rearm(n);
        fresh
    }

    /// Makes this the scheduler of a run about to enter round 0 on `n` nodes
    /// — all awake, the initialization round of the model — whatever state
    /// the previous run (finished, failed or unwound) left it in. `O(n)`, and
    /// allocation-free once the buffers have seen a run this large.
    pub(crate) fn rearm(&mut self, n: usize) {
        zeroed(&mut self.wake_at, n);
        zeroed(&mut self.halted, n);
        self.halted_count = 0;
        // simlint::allow(hot-path-alloc: the ring's buckets, created by a scratch's first run and recycled by every later one)
        self.ring.resize_with(WINDOW as usize, Vec::new);
        self.ring.iter_mut().for_each(Vec::clear);
        self.ring[0].extend((0..n as u32).map(NodeId));
        self.far.clear();
        zeroed(&mut self.down, n);
        self.listening.clear();
        self.listen_from.clear();
        self.far_deadline.clear();
        self.filtering = false;
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
        // Every live entry's round is visited, so an entry the far tier still
        // holds for an earlier round went stale before its round came.
        while let Some((due, v)) = self.far.due(round) {
            self.forget_far(due, v);
            if due == round {
                out.push(v);
            }
        }
        if self.filtering {
            // Churn and early-woken listeners leave stale entries behind (a
            // crashed node's pending wake-up, a revived node's duplicate, a
            // deadline its listener did not wait for), so the buckets are a
            // superset: keep only genuinely runnable nodes and dedup after
            // sorting.
            out.retain(|&v| self.is_live(v, round));
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
            self.listening.resize(n, false);
            self.listen_from.resize(n, 0);
            self.far_deadline.resize(n, 0);
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
        } else if self.far_deadline.get(v.index()) != Some(&w) {
            self.far.push(w, v);
            if let Some(known) = self.far_deadline.get_mut(v.index()) {
                *known = w;
            }
        }
    }

    /// Notes that the far tier's entry `(due, v)` has been taken out of it.
    fn forget_far(&mut self, due: u64, v: NodeId) {
        if let Some(known) = self.far_deadline.get_mut(v.index()).filter(|k| **k == due) {
            *known = 0;
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

    /// The earliest round after `round` — the round just stepped — in which
    /// any node is scheduled to wake, if any.
    ///
    /// Ring entries lie in `(round, round + WINDOW]`, a different slot for
    /// each of those rounds, so the slots are visited in round order and the
    /// walk stops at the first one that holds a live entry — one of a node
    /// neither halted nor down whose `wake_at` is the slot's round: the
    /// first entry looked at, until nodes listen or crash and an early
    /// wake-up, a halt or a crash leaves entries behind, stale. Stale entries
    /// at the front of the far tier are dropped on the way: `wake_at` is only
    /// ever set to a future round together with a fresh entry for it, or
    /// with the knowledge (`far_deadline`) that one is still queued, and a
    /// crashed node comes back through [`ActiveSet::revive`], which queues it
    /// afresh — so a stale entry is never needed again.
    pub(crate) fn next_wake(&mut self, round: u64) -> Option<u64> {
        let near = (round + 1..=round + WINDOW)
            .find(|&r| self.ring[(r % WINDOW) as usize].iter().any(|&v| self.is_live(v, r)));
        // Most jumps end in the ring; the far tier is put in order only when
        // it may hold something earlier.
        let Some(bound) = self.far.earliest() else { return near };
        if near.is_some_and(|near| near <= bound) {
            return near;
        }
        while let Some((due, v)) = self.far.first() {
            if !self.filtering || self.is_live(v, due) {
                return Some(near.map_or(due, |near| near.min(due)));
            }
            self.far.pop();
            self.forget_far(due, v);
        }
        near
    }

    /// `true` iff a queue entry `(round, v)` is a wake-up: `v` is neither
    /// halted nor down, and due in `round`.
    fn is_live(&self, v: NodeId, round: u64) -> bool {
        let i = v.index();
        self.wake_at[i] == round && !self.halted[i] && !self.down[i]
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
        assert_eq!(a.next_wake(0), Some(5));
        a.take_awake(5, &mut awake);
        assert_eq!(awake, vec![NodeId(1), NodeId(3)]);
        assert_eq!(a.next_wake(5), Some(7));
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
        let mut a = ActiveSet::new(0);
        assert!(a.all_halted());
        assert_eq!(a.next_wake(0), None);
    }

    #[test]
    fn far_wakeups_go_through_the_far_tier_and_come_back() {
        let mut a = ActiveSet::new(3);
        let mut awake = Vec::new();
        a.take_awake(0, &mut awake);
        // One near, one just past the ring horizon, one far out.
        a.reschedule(NodeId(0), 0, WINDOW); // last ring slot
        a.reschedule(NodeId(1), 0, WINDOW + 1); // first far-tier round
        a.reschedule(NodeId(2), 0, 10 * WINDOW);
        assert_eq!(a.next_wake(0), Some(WINDOW));
        a.take_awake(WINDOW, &mut awake);
        assert_eq!(awake, vec![NodeId(0)]);
        a.halt(NodeId(0));
        assert_eq!(a.next_wake(WINDOW), Some(WINDOW + 1));
        a.take_awake(WINDOW + 1, &mut awake);
        assert_eq!(awake, vec![NodeId(1)]);
        a.halt(NodeId(1));
        assert_eq!(a.next_wake(WINDOW + 1), Some(10 * WINDOW));
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
        assert_eq!(a.next_wake(2), Some(100));
        // Restart node 0 (clearing `down`) and even halted node 2: a revive
        // runs the node in its own round, and duplicates are absorbed.
        a.revive(NodeId(0), 7);
        a.revive(NodeId(0), 7);
        a.revive(NodeId(2), 7);
        assert!(!a.is_down(NodeId(0)));
        assert!(!a.all_halted() && a.unhalted() == 3);
        a.take_awake(7, &mut awake);
        assert_eq!(awake, vec![NodeId(0), NodeId(2)]);
        // A crashed node's entry, in the ring or in the far tier, is no
        // wake-up to jump to.
        a.reschedule(NodeId(0), 7, 9);
        a.reschedule(NodeId(2), 7, 10);
        assert_eq!(a.next_wake(7), Some(9));
        a.set_down(NodeId(0), 8);
        assert_eq!(a.next_wake(7), Some(10));
        a.set_down(NodeId(1), 8);
        a.set_down(NodeId(2), 8);
        assert_eq!(a.next_wake(7), None);
    }

    #[test]
    fn listeners_wake_on_mail_and_settle_the_rounds_they_idled_through() {
        let mut a = ActiveSet::new(4);
        let mut awake = Vec::new();
        a.take_awake(0, &mut awake);
        assert!(!a.has_listeners());
        assert_eq!(a.awake_rounds(NodeId(0), 0), 1);
        // 0 and 1 listen to a far deadline (the far tier), 2 to a near one
        // (ring), 3 sleeps.
        a.listen(NodeId(0), 0, 200);
        a.listen(NodeId(1), 0, 200);
        a.listen(NodeId(2), 0, 9);
        a.reschedule(NodeId(3), 0, 200);
        assert!(a.has_listeners());
        assert_eq!(a.next_wake(0), Some(9));

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
        assert_eq!(a.next_wake(5), Some(200), "a stale first entry does not stop the jump");

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
    fn ring_and_far_entries_for_one_round_are_merged_and_sorted() {
        let mut a = ActiveSet::new(4);
        let mut awake = Vec::new();
        a.take_awake(0, &mut awake);
        let target = WINDOW + 5;
        // Scheduled far ahead of round 0: the far tier.
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
        assert_eq!(a.next_wake(target), None);
    }

    #[test]
    fn the_far_tier_hands_out_what_a_sorted_list_would() {
        // Bursts pushed between pops, as the engine makes them: rounds dense
        // or scattered over 2^40, later than everything queued, earlier, or
        // in between.
        let mut rng = 7u64;
        let mut draw = |bound: u64| rand::splitmix64(&mut rng) % bound;
        let (mut far, mut model) = (FarTier::default(), Vec::new());
        let mut now = 0u64;
        for burst in 0..400 {
            let spread = [8, 300, 1 << 40][burst % 3];
            for _ in 0..draw(40) {
                let entry = (now + WINDOW + 1 + draw(spread), NodeId(draw(50) as u32));
                far.push(entry.0, entry.1);
                model.push(entry);
            }
            assert_eq!(far.earliest(), model.iter().map(|e| e.0).min());
            now += draw(3) * draw(200);
            let mut handed_out = Vec::new();
            while let Some(entry) = far.due(now) {
                assert!(handed_out.last().map_or(true, |last: &(u64, NodeId)| last.0 <= entry.0));
                handed_out.push(entry);
            }
            let mut due: Vec<_> = model.iter().copied().filter(|e| e.0 <= now).collect();
            model.retain(|e| e.0 > now);
            due.sort_unstable();
            handed_out.sort_unstable();
            assert_eq!(handed_out, due, "burst {burst}, round {now}");
        }
        assert!(now > 10_000 && !model.is_empty(), "entries came due and entries stayed");
        far.clear();
        assert_eq!((far.earliest(), far.first()), (None, None));
    }

    #[test]
    fn sleepers_taking_turns_are_sorted_once_per_period() {
        // Node `i` wakes in round `period + i` and sleeps `period` more, for
        // ever: every visited round pushes one entry later than everything
        // queued. Work is counted in entries handed to a sort, not in time.
        let (n, period, periods) = (500u64, 1000u64, 4u64);
        let mut a = ActiveSet::new(n as usize);
        let mut awake = Vec::new();
        a.take_awake(0, &mut awake);
        for i in 0..n {
            a.reschedule(NodeId(i as u32), 0, period + i);
        }
        let mut sorted_entries = 0;
        let mut counting = |a: &mut ActiveSet, call: &mut dyn FnMut(&mut ActiveSet)| {
            let (staged, in_order) = (a.far.staged.len(), a.far.sorted.len());
            call(a);
            if a.far.staged.len() < staged {
                // A sort: of the staged entries and at most the whole run.
                sorted_entries += staged + in_order;
            }
        };
        let mut round = 0;
        for _ in 0..periods * n {
            let mut next = None;
            counting(&mut a, &mut |a| next = a.next_wake(round));
            round = next.expect("somebody always wakes");
            counting(&mut a, &mut |a| a.take_awake(round, &mut awake));
            assert_eq!(awake, vec![NodeId(((round - period) % period) as u32)]);
            a.reschedule(awake[0], round, round + period);
        }
        assert_eq!(round, periods * period + n - 1);
        assert_eq!(sorted_entries as u64, periods * n, "each entry is sorted once");
    }

    #[test]
    fn the_next_wake_is_the_first_live_entry_in_round_order() {
        let mut a = ActiveSet::new(4);
        let mut awake = Vec::new();
        a.take_awake(0, &mut awake);
        // Slot order is not round order: from round 60, round 70 sits in
        // slot 6 and round 62 in slot 62.
        a.reschedule(NodeId(0), 0, 60);
        a.listen(NodeId(1), 0, 300);
        a.listen(NodeId(2), 0, 500);
        a.halt(NodeId(3));
        a.take_awake(60, &mut awake);
        a.listen(NodeId(0), 60, 70);
        assert_eq!(a.next_wake(60), Some(70));
        // Mail wakes 0 and 1 early; both move on and leave their deadlines
        // behind — 0's in the ring, 1's on top of the far tier.
        a.take_awake(61, &mut awake);
        a.wake_listeners(61, [NodeId(0), NodeId(1)].into_iter(), &mut awake);
        a.listen(NodeId(0), 61, 64);
        a.listen(NodeId(1), 61, 400);
        assert_eq!(a.next_wake(61), Some(64));
        a.take_awake(64, &mut awake);
        a.halt(NodeId(0));
        assert_eq!(a.next_wake(64), Some(400), "neither stale entry is a wake-up");
        a.take_awake(400, &mut awake);
        assert_eq!(awake, vec![NodeId(1)]);
    }

    #[test]
    fn rearming_forgets_whatever_the_last_run_left() {
        let mut a = ActiveSet::new(5);
        a.enable_fault_filtering();
        let mut awake = Vec::new();
        a.take_awake(0, &mut awake);
        // Abandoned mid-run: ring and far entries, a listener, a crashed and
        // a halted node.
        a.reschedule(NodeId(0), 0, 3);
        a.reschedule(NodeId(1), 0, 1000);
        a.listen(NodeId(2), 0, 9);
        a.set_down(NodeId(3), 1);
        a.halt(NodeId(4));
        for n in [2, 7, 0] {
            a.rearm(n);
            assert_eq!(a.unhalted() as usize, n);
            assert!(!a.has_listeners());
            a.take_awake(0, &mut awake);
            assert_eq!(awake, (0..n as u32).map(NodeId).collect::<Vec<_>>());
            assert_eq!(a.next_wake(0), None);
            assert!((0..n as u32).all(|v| !a.is_down(NodeId(v)) && a.is_receptive(NodeId(v), 0)));
        }
    }
}
