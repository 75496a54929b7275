//! The active-set scheduler: tracks which nodes are awake in which round.
//!
//! The sleeping model's cost profile (only `poly(log n)` awake rounds per
//! node) means that in a typical low-energy execution almost every node is
//! asleep in almost every round. The engine therefore must never iterate over
//! all `n` nodes per round; instead this module maintains an explicit *wake
//! queue* — entries keyed by the absolute wake round — so that a round
//! touches exactly the nodes scheduled to run in it.
//!
//! The queue is split in two tiers so the common case is allocation-free:
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
//! Opening a round collects its awake set in an id-ordered bitmap
//! (`AwakeBits`): every live due queue entry, and every listener woken by
//! mail ([`ActiveSet::wake_listeners`]), sets one bit, and one scan of the
//! set words writes the id-sorted awake list the engine steps
//! ([`ActiveSet::take_awake`]). A node entered twice is one bit, so neither
//! duplicates nor the order entries arrive in cost a sort. Round 0 — every
//! node awake — is the bitmap with all `n` bits set by
//! [`ActiveSet::rearm`]; no queue entry is made for it.
//!
//! One discipline, in every run: **`wake_at` decides who runs.** A node `v`
//! runs in round `r` iff `wake_at[v] == r`; a halted node's `wake_at` is
//! [`NEVER`], a round no run opens. Queue entries only say where to look: an
//! entry `(r, v)` is *live* iff `wake_at[v] == r`, and a due entry sets its
//! bit only if it is. Entries go stale when a node leaves the round it was
//! queued at before that round comes — it is a listener woken early by mail,
//! and then perhaps halts — and a stale entry is dropped when its round is
//! opened, or passed over by [`ActiveSet::next_wake`].
//!
//! A node that asked to [`crate::NodeCtx::listen_until`] a deadline sits in
//! the queue at that deadline like a sleeper, but stays awake in the model;
//! when mail arrives first, [`ActiveSet::wake_listeners`] pulls `wake_at`
//! forward to the delivery round and the deadline entry is left behind. The
//! rounds it idled through are never visited: [`ActiveSet::awake_rounds`]
//! settles their energy in one subtraction when the node next runs.
//!
//! One entry per node and deadline: in a run with listeners the scheduler
//! remembers, per node, the rounds of its two latest entries known to be
//! queued still (`queued_at`). A node sent back to one of them pushes
//! nothing, in the ring as in the far tier — the waiting BFS returns its
//! listeners to their round limit after every message, and from the round
//! its pending distance came due — so a deadline's round opens by draining
//! one entry per waiting node however often each was woken before it.
//!
//! The scheduler is part of a [`super::RunScratch`]: a run starts by
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

/// The `wake_at` of a halted node. The last round a run may open is
/// `u64::MAX − 1`, so no entry of such a node is live and it is never
/// receptive.
const NEVER: u64 = u64::MAX;

/// The `listen_from` of a node that is not listening.
const NOT_LISTENING: u64 = u64::MAX;

/// Per-node status, the two-tier wake queue and the awake set of the round
/// being opened. The `Default` value is the scheduler of no run;
/// [`ActiveSet::rearm`] makes it the scheduler of one.
#[derive(Debug, Clone, Default)]
pub(crate) struct ActiveSet {
    /// The round in which each node next runs, or [`NEVER`] once it has
    /// halted.
    wake_at: Vec<u64>,
    halted_count: usize,
    /// Near-future buckets: the bucket for round `r` lives at slot
    /// `r % WINDOW`. Draining a slot keeps its capacity, so steady-state
    /// rescheduling never allocates.
    ring: Vec<Vec<NodeId>>,
    /// Far-future entries (wake more than `WINDOW` rounds ahead of the round
    /// they were scheduled in), earliest round on top.
    far: FarTier,
    /// The nodes awake in the round being opened.
    awake: AwakeBits,
    /// For a node waiting in [`crate::NodeCtx::listen_until`], the round in
    /// which it last ran (it has been awake, unvisited, in every round
    /// since); [`NOT_LISTENING`] for any other. Empty until the first listen
    /// request of the run sizes it (and `queued_at`), so protocols that never
    /// listen pay no per-run set-up for it.
    listen_from: Vec<u64>,
    /// For a node of a run with listeners: the rounds of its two latest
    /// queue entries (ring or far tier) that are known to be queued still,
    /// latest first, or 0. A listener woken early mostly goes back to a
    /// deadline it came from, and without this its deadline's round would
    /// drain one entry per callback of the whole run. A round below the
    /// current one is harmless: every new wake-up is later than it.
    queued_at: Vec<[u64; 2]>,
}

/// The far tier of the wake queue: `(round, node)` entries more than
/// [`WINDOW`] rounds ahead of the round they were made in, in two flat
/// buffers that survive [`ActiveSet::rearm`]. New entries are staged in push
/// order, and sorted in only once one of them is due before everything
/// already in order (or nothing is): a schedule handed over in one round
/// (every node of a wave sleeping to its own round) costs one sort, and
/// sleepers that each go back to sleep for a period, one after the other,
/// cost one sort per period. Sorting in sorts the staged entries alone and
/// merges them into the run from its earliest end, so the entries of the run
/// earlier than the latest staged one are moved, not compared again: a
/// staged buffer holding an entry earlier than the whole run *and* one later
/// than most of it moves most of the run.
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
            self.merge_staged();
        }
        self.sorted.last().copied()
    }

    /// Sorts the staged entries into the run: by round alone (the awake
    /// bitmap puts a round's nodes in order), latest first, then merged from
    /// the back, where each place takes the earlier of the two entries left.
    fn merge_staged(&mut self) {
        self.staged.sort_unstable_by_key(|e| std::cmp::Reverse(e.0));
        if self.sorted.last().map_or(true, |last| last.0 >= self.staged[0].0) {
            // Nothing in the run is earlier than a staged entry: the staged
            // entries go behind it as they are.
            self.sorted.append(&mut self.staged);
            return;
        }
        let (mut i, mut j) = (self.sorted.len(), self.staged.len());
        self.sorted.resize(i + j, (0, NodeId(0)));
        while j > 0 {
            if i > 0 && self.sorted[i - 1].0 < self.staged[j - 1].0 {
                self.sorted[i + j - 1] = self.sorted[i - 1];
                i -= 1;
            } else {
                self.sorted[i + j - 1] = self.staged[j - 1];
                j -= 1;
            }
        }
        self.staged.clear();
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

/// A set of node ids as a bitmap, read out in id order: bit `v % 64` of word
/// `v / 64` is node `v`, and one summary bit per word — bit `w % 64` of
/// summary word `w / 64` — is set whenever word `w` may be non-zero, so a
/// read-out visits the set words only.
#[derive(Debug, Clone, Default)]
struct AwakeBits {
    /// The node words, then the summary words, in one allocation.
    bits: Vec<u64>,
    /// The number of node words: `⌈n / 64⌉`.
    words: usize,
}

/// Sets the first `count` bits of `words`, which are all clear.
fn set_first(words: &mut [u64], count: usize) {
    let (full, rest) = (count / 64, count % 64);
    words[..full].fill(!0);
    if rest != 0 {
        words[full] = (1 << rest) - 1;
    }
}

/// The indices of the set bits of `word`, lowest first.
fn ones(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let one = (word != 0).then(|| word.trailing_zeros() as usize);
        word &= word.wrapping_sub(1);
        one
    })
}

/// The node words `summary` marks, in order.
fn set_words(summary: &[u64]) -> impl Iterator<Item = usize> + '_ {
    summary.iter().enumerate().flat_map(|(s, &word)| ones(word).map(move |i| s * 64 + i))
}

impl AwakeBits {
    /// Makes this the set of all `n` nodes.
    fn fill(&mut self, n: usize) {
        self.words = n.div_ceil(64);
        zeroed(&mut self.bits, self.words + self.words.div_ceil(64));
        let (nodes, summary) = self.bits.split_at_mut(self.words);
        set_first(nodes, n);
        set_first(summary, self.words);
    }

    /// Adds `nodes` to the set. Nodes that follow each other in one word —
    /// a bucket filled in id order, or any bucket of a run on at most 64
    /// nodes — are gathered in a register and stored at once.
    #[inline(always)]
    fn extend(&mut self, nodes: impl Iterator<Item = NodeId>) {
        let (mut word, mut gathered) = (0, 0);
        for v in nodes {
            let w = v.index() / 64;
            if w != word && gathered != 0 {
                self.store(word, gathered);
                gathered = 0;
            }
            word = w;
            gathered |= 1 << (v.index() % 64);
        }
        if gathered != 0 {
            self.store(word, gathered);
        }
    }

    /// Adds the nodes of `bits` to node word `w`.
    #[inline(always)]
    fn store(&mut self, w: usize, bits: u64) {
        let old = self.bits[w];
        if old == 0 {
            self.bits[self.words + w / 64] |= 1 << (w % 64);
        }
        self.bits[w] = old | bits;
    }

    /// Replaces `out` with the set's nodes in id order and empties the set.
    /// The set words are counted first, so `out` is sized once, before it
    /// is written.
    fn drain_into(&mut self, out: &mut Vec<NodeId>) {
        out.clear();
        let (nodes, summary) = self.bits.split_at_mut(self.words);
        out.reserve(set_words(summary).map(|w| nodes[w].count_ones() as usize).sum());
        for w in set_words(summary) {
            let (mut word, base) = (std::mem::take(&mut nodes[w]), (w * 64) as u32);
            if word == !0 {
                // A full word — every node awake — is a range.
                out.extend((base..base + 64).map(NodeId));
                continue;
            }
            while word != 0 {
                out.push(NodeId(base + word.trailing_zeros()));
                word &= word - 1;
            }
        }
        summary.fill(0);
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
        self.halted_count = 0;
        // simlint::allow(hot-path-alloc: the ring's buckets, created by a scratch's first run and recycled by every later one)
        self.ring.resize_with(WINDOW as usize, Vec::new);
        self.ring.iter_mut().for_each(Vec::clear);
        self.far.clear();
        self.awake.fill(n);
        self.listen_from.clear();
        self.queued_at.clear();
    }

    /// Takes the queue entries due in `round` — its ring slot and the far
    /// tier's entries up to it — out of the queue and puts the nodes of the
    /// live ones into the round's awake set.
    pub(crate) fn collect_due(&mut self, round: u64) {
        let (wake_at, queued_at) = (&self.wake_at, &mut self.queued_at);
        let slot = &mut self.ring[(round % WINDOW) as usize];
        self.awake.extend(
            slot.iter()
                .inspect(|&&v| forget_queued(queued_at, round, v))
                .filter(|&&v| wake_at[v.index()] == round)
                .copied(),
        );
        slot.clear();
        // Every live entry's round is visited, so an entry the far tier still
        // holds for an earlier round went stale before its round came.
        while let Some((due, v)) = self.far.due(round) {
            forget_queued(&mut self.queued_at, due, v);
            if due == round && self.is_receptive(v, round) {
                self.awake.extend(std::iter::once(v));
            }
        }
    }

    /// Writes the awake list of the round being opened into `out` — the
    /// nodes [`ActiveSet::collect_due`] took, the listeners
    /// [`ActiveSet::wake_listeners`] woke, or in round 0 every node — sorted
    /// by id so the execution order matches the reference engine's `0..n`
    /// sweep, and starts the next round's set empty.
    pub(crate) fn take_awake(&mut self, out: &mut Vec<NodeId>) {
        self.awake.drain_into(out);
    }

    /// `true` iff `v` runs in `round`, and so receives the messages delivered
    /// in it; a queue entry `(round, v)` is live iff this holds. Must be
    /// queried *before* the nodes of `round` are rescheduled and, once a node
    /// listens, *after* [`ActiveSet::wake_listeners`] — a listener with mail
    /// runs this round like any other awake node, and one without mail is
    /// never asked about.
    #[inline(always)]
    pub(crate) fn is_receptive(&self, v: NodeId, round: u64) -> bool {
        self.wake_at[v.index()] == round
    }

    /// `true` once any node has asked to listen in this run; the engine then
    /// calls [`ActiveSet::wake_listeners`] before each delivery.
    pub(crate) fn has_listeners(&self) -> bool {
        !self.listen_from.is_empty()
    }

    /// Ends `v`'s wait, if it is in one, and returns the round it last ran
    /// in.
    fn stop_listening(&mut self, v: NodeId) -> Option<u64> {
        let from = std::mem::replace(self.listen_from.get_mut(v.index())?, NOT_LISTENING);
        (from != NOT_LISTENING).then_some(from)
    }

    /// Puts every listening recipient of `recipients` (this round's delivery
    /// stream) into the round's awake set: mail ends the wait, so the node
    /// runs in `round` instead of at its deadline, whose queue entry stays
    /// behind, stale. A recipient named many times is one bit. Halted nodes
    /// are never listening, so exactly the recipients whose inbox will be
    /// non-empty are woken.
    pub(crate) fn wake_listeners(&mut self, round: u64, recipients: impl Iterator<Item = NodeId>) {
        let (listen_from, wake_at) = (&self.listen_from, &mut self.wake_at);
        let woken = recipients.filter(|&v| is_listening(listen_from, v));
        self.awake.extend(woken.inspect(|v| wake_at[v.index()] = round));
    }

    /// The energy `v` is charged when it is stepped in `round`: one unit for
    /// the round itself, plus — for a listener — one for every round it has
    /// idled through, awake but unvisited, since it last ran.
    #[inline(always)]
    pub(crate) fn awake_rounds(&self, v: NodeId, round: u64) -> u64 {
        match self.listen_from.get(v.index()) {
            Some(&from) if from != NOT_LISTENING => round - from,
            _ => 1,
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
            // The first request of the run sizes the listening bookkeeping.
            let n = self.wake_at.len();
            self.listen_from.resize(n, NOT_LISTENING);
            self.queued_at.resize(n, [0; 2]);
        }
        self.listen_from[v.index()] = round;
        self.enqueue(v, round, deadline);
    }

    fn enqueue(&mut self, v: NodeId, round: u64, wake_at: u64) {
        debug_assert!(wake_at > round, "wake-ups must move forward");
        let w = wake_at.max(round + 1);
        self.wake_at[v.index()] = w;
        if let Some(queued) = self.queued_at.get_mut(v.index()) {
            if queued.contains(&w) {
                return;
            }
            *queued = [w, queued[0]];
        }
        if w - round <= WINDOW {
            // Slots (round, round + WINDOW] are distinct mod WINDOW, and the
            // slot shared with `round` itself was drained by `collect_due`.
            self.ring[(w % WINDOW) as usize].push(v);
        } else {
            self.far.push(w, v);
        }
    }

    /// Marks `v`, which has just run, as halted: it never runs again.
    fn halt(&mut self, v: NodeId) {
        self.stop_listening(v);
        let wake_at = std::mem::replace(&mut self.wake_at[v.index()], NEVER);
        debug_assert!(wake_at != NEVER, "node {v} halts twice");
        self.halted_count += 1;
    }

    /// `true` once every node has halted.
    pub(crate) fn all_halted(&self) -> bool {
        self.halted_count == self.wake_at.len()
    }

    /// Number of nodes that have not halted.
    pub(crate) fn unhalted(&self) -> u32 {
        (self.wake_at.len() - self.halted_count) as u32
    }

    /// The earliest round after `round` — the round just stepped — in which
    /// any node is scheduled to wake, if any.
    ///
    /// Ring entries lie in `(round, round + WINDOW]`, a different slot for
    /// each of those rounds, so the slots are visited in round order and the
    /// walk stops at the first one that holds a live entry — mostly the first
    /// entry looked at, unless early-woken listeners left entries behind.
    /// Stale entries at the front of the far tier are dropped on the way:
    /// `wake_at` is only ever set to a future round together with a fresh
    /// entry for it, or with the knowledge (`queued_at`) that one is still
    /// queued — so a stale entry is never needed again.
    pub(crate) fn next_wake(&mut self, round: u64) -> Option<u64> {
        // Saturating: the ring ends at the last round there is.
        let near = (round + 1..=round.saturating_add(WINDOW))
            .find(|&r| self.ring[(r % WINDOW) as usize].iter().any(|&v| self.is_receptive(v, r)));
        // Most jumps end in the ring; the far tier is put in order only when
        // it may hold something earlier.
        let Some(bound) = self.far.earliest() else { return near };
        if near.is_some_and(|near| near <= bound) {
            return near;
        }
        while let Some((due, v)) = self.far.first() {
            if self.is_receptive(v, due) {
                return Some(near.map_or(due, |near| near.min(due)));
            }
            self.far.pop();
            forget_queued(&mut self.queued_at, due, v);
        }
        near
    }
}

/// `true` iff `v` is waiting in a listen request (never, in a run that has
/// not seen one: `listen_from` is still empty).
fn is_listening(listen_from: &[u64], v: NodeId) -> bool {
    listen_from.get(v.index()).is_some_and(|&from| from != NOT_LISTENING)
}

/// Notes that `v`'s queue entry for `due` has been taken out of the queue.
fn forget_queued(queued_at: &mut [[u64; 2]], due: u64, v: NodeId) {
    for known in queued_at.get_mut(v.index()).into_iter().flatten() {
        if *known == due {
            *known = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Opens `round` as the engine does — its due entries, then the
    /// listening recipients of `mail` — and returns its awake list.
    fn open(a: &mut ActiveSet, round: u64, mail: &[NodeId]) -> Vec<NodeId> {
        let mut awake = Vec::new();
        a.collect_due(round);
        a.wake_listeners(round, mail.iter().copied());
        a.take_awake(&mut awake);
        awake
    }

    #[test]
    fn all_nodes_start_awake_in_round_zero() {
        let mut a = ActiveSet::new(3);
        let awake = open(&mut a, 0, &[]);
        assert_eq!(awake, vec![NodeId(0), NodeId(1), NodeId(2)]);
        let awake = open(&mut a, 0, &[]);
        assert!(awake.is_empty(), "a round's set is taken exactly once");
    }

    #[test]
    fn reschedule_orders_nodes_by_id_within_a_bucket() {
        let mut a = ActiveSet::new(4);
        open(&mut a, 0, &[]);
        // Insert out of id order; the awake list must come back sorted.
        a.reschedule(NodeId(3), 0, 5);
        a.reschedule(NodeId(1), 0, 5);
        a.reschedule(NodeId(2), 0, 7);
        a.halt(NodeId(0));
        assert_eq!(a.next_wake(0), Some(5));
        let awake = open(&mut a, 5, &[]);
        assert_eq!(awake, vec![NodeId(1), NodeId(3)]);
        assert_eq!(a.next_wake(5), Some(7));
    }

    #[test]
    fn receptivity_tracks_wake_round_exactly() {
        let mut a = ActiveSet::new(2);
        open(&mut a, 0, &[]);
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
        assert_eq!(a.unhalted(), 1);
        assert!(!a.all_halted());
        a.halt(NodeId(1));
        assert!(a.all_halted());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "node v0 halts twice")]
    fn a_node_halts_once() {
        let mut a = ActiveSet::new(2);
        a.halt(NodeId(0));
        a.halt(NodeId(0));
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
        open(&mut a, 0, &[]);
        // One near, one just past the ring horizon, one far out.
        a.reschedule(NodeId(0), 0, WINDOW); // last ring slot
        a.reschedule(NodeId(1), 0, WINDOW + 1); // first far-tier round
        a.reschedule(NodeId(2), 0, 10 * WINDOW);
        assert_eq!(a.next_wake(0), Some(WINDOW));
        let awake = open(&mut a, WINDOW, &[]);
        assert_eq!(awake, vec![NodeId(0)]);
        a.halt(NodeId(0));
        assert_eq!(a.next_wake(WINDOW), Some(WINDOW + 1));
        let awake = open(&mut a, WINDOW + 1, &[]);
        assert_eq!(awake, vec![NodeId(1)]);
        a.halt(NodeId(1));
        assert_eq!(a.next_wake(WINDOW + 1), Some(10 * WINDOW));
        let awake = open(&mut a, 10 * WINDOW, &[]);
        assert_eq!(awake, vec![NodeId(2)]);
    }

    #[test]
    fn listeners_wake_on_mail_and_settle_the_rounds_they_idled_through() {
        let mut a = ActiveSet::new(4);
        open(&mut a, 0, &[]);
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
        let mail = [NodeId(2), NodeId(1), NodeId(3), NodeId(1)];
        let awake = open(&mut a, 5, &mail);
        assert_eq!(awake, vec![NodeId(1), NodeId(2)]);
        assert!(a.is_receptive(NodeId(1), 5) && a.is_receptive(NodeId(2), 5));
        assert!(!a.is_receptive(NodeId(3), 5));
        assert_eq!(a.awake_rounds(NodeId(1), 5), 5, "rounds 1..=5");
        // 1 goes back to the deadline it already has an entry for; 2 halts,
        // leaving its round-9 entry stale.
        a.listen(NodeId(1), 5, 200);
        a.halt(NodeId(2));
        assert_eq!(a.next_wake(5), Some(200), "a stale first entry does not stop the jump");

        // The deadline's entries are 0, 1 (once: it went back to the round it
        // was queued at) and 3.
        let awake = open(&mut a, 200, &[]);
        assert_eq!(awake, vec![NodeId(0), NodeId(1), NodeId(3)]);
        assert_eq!(a.awake_rounds(NodeId(0), 200), 200);
        assert_eq!(a.awake_rounds(NodeId(1), 200), 195);
        assert_eq!(a.awake_rounds(NodeId(3), 200), 1, "sleep is free");
        a.reschedule(NodeId(0), 200, 201);
        assert_eq!(a.awake_rounds(NodeId(0), 201), 1, "running ends the wait");
    }

    #[test]
    fn ring_and_far_entries_for_one_round_are_merged_and_sorted() {
        let mut a = ActiveSet::new(4);
        open(&mut a, 0, &[]);
        let target = WINDOW + 5;
        // Scheduled far ahead of round 0: the far tier.
        a.reschedule(NodeId(3), 0, target);
        a.reschedule(NodeId(1), 0, target);
        // Nodes 0 and 2 step forward and, once close enough, schedule the
        // same round through the ring.
        a.reschedule(NodeId(2), 0, 10);
        a.reschedule(NodeId(0), 0, 10);
        let awake = open(&mut a, 10, &[]);
        assert_eq!(awake, vec![NodeId(0), NodeId(2)]);
        a.reschedule(NodeId(0), 10, target);
        a.reschedule(NodeId(2), 10, target);
        let awake = open(&mut a, target, &[]);
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
        open(&mut a, 0, &[]);
        let mut awake = Vec::new();
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
            counting(&mut a, &mut |a| awake = open(a, round, &[]));
            assert_eq!(awake, vec![NodeId(((round - period) % period) as u32)]);
            a.reschedule(awake[0], round, round + period);
        }
        assert_eq!(round, periods * period + n - 1);
        assert_eq!(sorted_entries as u64, periods * n, "each entry is sorted once");
    }

    #[test]
    fn the_next_wake_is_the_first_live_entry_in_round_order() {
        let mut a = ActiveSet::new(4);
        open(&mut a, 0, &[]);
        // Slot order is not round order: from round 60, round 70 sits in
        // slot 6 and round 62 in slot 62.
        a.reschedule(NodeId(0), 0, 60);
        a.listen(NodeId(1), 0, 300);
        a.listen(NodeId(2), 0, 500);
        a.halt(NodeId(3));
        open(&mut a, 60, &[]);
        a.listen(NodeId(0), 60, 70);
        assert_eq!(a.next_wake(60), Some(70));
        // Mail wakes 0 and 1 early; both move on and leave their deadlines
        // behind — 0's in the ring, 1's on top of the far tier.
        open(&mut a, 61, &[NodeId(0), NodeId(1)]);
        a.listen(NodeId(0), 61, 64);
        a.listen(NodeId(1), 61, 400);
        assert_eq!(a.next_wake(61), Some(64));
        open(&mut a, 64, &[]);
        a.halt(NodeId(0));
        assert_eq!(a.next_wake(64), Some(400), "neither stale entry is a wake-up");
        let awake = open(&mut a, 400, &[]);
        assert_eq!(awake, vec![NodeId(1)]);
    }

    #[test]
    fn rearming_forgets_whatever_the_last_run_left() {
        let mut a = ActiveSet::new(5);
        open(&mut a, 0, &[]);
        // Abandoned mid-run: ring and far entries, a listener and a halted
        // node.
        a.reschedule(NodeId(0), 0, 3);
        a.reschedule(NodeId(1), 0, 1000);
        a.listen(NodeId(2), 0, 9);
        a.halt(NodeId(4));
        for n in [2, 7, 0] {
            a.rearm(n);
            assert_eq!(a.unhalted() as usize, n);
            assert!(!a.has_listeners());
            let awake = open(&mut a, 0, &[]);
            assert_eq!(awake, (0..n as u32).map(NodeId).collect::<Vec<_>>());
            assert_eq!(a.next_wake(0), None);
            assert!((0..n as u32).all(|v| a.is_receptive(NodeId(v), 0)));
        }
    }

    #[test]
    fn a_listener_sent_back_to_its_ring_deadline_leaves_one_queue_entry() {
        let mut a = ActiveSet::new(2);
        open(&mut a, 0, &[]);
        let deadline = 50;
        a.listen(NodeId(0), 0, deadline);
        a.reschedule(NodeId(1), 0, 1);
        for round in 1..=10 {
            // Mail every round: 0 runs with 1, and goes back to its deadline.
            assert_eq!(open(&mut a, round, &[NodeId(0)]), vec![NodeId(0), NodeId(1)]);
            a.listen(NodeId(0), round, deadline);
            a.reschedule(NodeId(1), round, round + 1);
        }
        let slot = &a.ring[(deadline % WINDOW) as usize];
        assert_eq!(slot, &vec![NodeId(0)], "woken ten times, queued once");
        a.halt(NodeId(1));
        assert_eq!(a.next_wake(10), Some(deadline));
        assert_eq!(open(&mut a, deadline, &[]), vec![NodeId(0)]);
        assert_eq!(a.awake_rounds(NodeId(0), deadline), deadline - 10);
    }

    #[test]
    fn a_listener_back_from_a_detour_leaves_one_far_entry_per_deadline() {
        let mut a = ActiveSet::new(2);
        open(&mut a, 0, &[]);
        let (limit, due) = (10 * WINDOW, 5 * WINDOW);
        a.listen(NodeId(0), 0, limit);
        a.reschedule(NodeId(1), 0, 1);
        // Mail moves 0's pending round to `due`, and then, at `due`, it
        // goes back to the limit it is still queued at.
        assert_eq!(open(&mut a, 1, &[NodeId(0)]), vec![NodeId(0), NodeId(1)]);
        a.listen(NodeId(0), 1, due);
        a.halt(NodeId(1));
        assert_eq!(a.next_wake(1), Some(due));
        assert_eq!(open(&mut a, due, &[]), vec![NodeId(0)]);
        a.listen(NodeId(0), due, limit);
        let far = |a: &ActiveSet| a.far.sorted.len() + a.far.staged.len();
        assert_eq!(far(&a), 1, "the limit's entry is queued once");
        assert_eq!(a.next_wake(due), Some(limit));
        assert_eq!(open(&mut a, limit, &[]), vec![NodeId(0)]);
        assert_eq!(far(&a), 0);
    }

    /// A node of the model [`ActiveSet`] is checked against.
    #[derive(Debug, Clone, Copy, Default)]
    struct Modelled {
        wake_at: u64,
        /// `Some(round it last ran)` while it listens.
        listen_from: Option<u64>,
        /// The last deadline it listened to.
        deadline: u64,
        halted: bool,
    }

    proptest::proptest! {
        /// Random interleavings of every operation of the queue, at sizes on
        /// both sides of every word boundary of the awake bitmap (and of its
        /// first summary word), with wake-ups inside and beyond the ring:
        /// every opened round must agree with a naive model of the nodes.
        #[test]
        fn every_opened_round_agrees_with_a_naive_model(
            size in 0usize..5,
            seed in 0u64..u64::MAX,
        ) {
            use std::collections::BTreeMap;
            let n = [1, 63, 64, 65, 130][size];
            let mut rng = seed;
            let mut draw = |bound: u64| rand::splitmix64(&mut rng) % bound;
            let mut a = ActiveSet::new(n);
            let mut model: BTreeMap<u32, Modelled> =
                (0..n as u32).map(|v| (v, Modelled::default())).collect();
            let mut round = 0;
            for _ in 0..80 {
                let mut awake = Vec::new();
                a.collect_due(round);
                let mail: Vec<NodeId> = (0..draw(6)).map(|_| NodeId(draw(n as u64) as u32)).collect();
                a.wake_listeners(round, mail.iter().copied());
                for v in &mail {
                    let node = model.get_mut(&v.0).expect("modelled");
                    if node.listen_from.is_some() {
                        node.wake_at = round;
                    }
                }
                a.take_awake(&mut awake);
                let live = model.iter().filter(|(_, m)| !m.halted && m.wake_at == round);
                let expected: Vec<NodeId> = live.map(|(&v, _)| NodeId(v)).collect();
                proptest::prop_assert_eq!(&awake, &expected, "round {}", round);

                for &v in &awake {
                    let node = model.get_mut(&v.0).expect("modelled");
                    let charge = node.listen_from.map_or(1, |from| round - from);
                    proptest::prop_assert_eq!(a.awake_rounds(v, round), charge);
                    let later = round + 1 + draw(3 * WINDOW);
                    match draw(8) {
                        0 => {
                            a.halt(v);
                            (node.halted, node.listen_from) = (true, None);
                        }
                        1..=4 => {
                            // Half of the early-woken listeners go back to
                            // the deadline they were woken before.
                            let back = node.deadline > round && draw(2) == 0;
                            let deadline = if back { node.deadline } else { later };
                            a.listen(v, round, deadline);
                            node.listen_from = Some(round);
                            (node.wake_at, node.deadline) = (deadline, deadline);
                        }
                        _ => {
                            a.reschedule(v, round, later);
                            (node.wake_at, node.listen_from) = (later, None);
                        }
                    }
                }
                let unhalted = model.values().filter(|m| !m.halted).count();
                proptest::prop_assert_eq!(a.unhalted() as usize, unhalted);
                let wakes = model.values().filter(|m| !m.halted).map(|m| m.wake_at);
                let next = wakes.min();
                proptest::prop_assert!(next.map_or(true, |next| next > round));
                proptest::prop_assert_eq!(a.next_wake(round), next, "after round {}", round);
                // The engine opens a round at or before the next wake-up:
                // that one, or an earlier one with mail in it.
                round = match next {
                    Some(next) if draw(2) == 0 => next,
                    Some(next) => round + 1 + draw(next - round),
                    None if unhalted == 0 => break,
                    None => round + 1 + draw(2 * WINDOW),
                };
            }
        }
    }
}
