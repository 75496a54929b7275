//! The message delivery arena: flat, reusable per-round inbox storage.
//!
//! The reference engine materializes `vec![Vec::new(); n]` inboxes every
//! round — an `O(n)` allocation even in rounds where two messages move. This
//! arena instead keeps one flat `Vec<Message>` grouped by recipient plus
//! per-node `(start, len)` range indexes, rebuilt in place each round with a
//! counting pass. The per-node index vectors are sized once per run; a round
//! resets only the lengths of last round's recipients, asks the scheduler
//! about each of this round's recipients once (not once per message), and
//! writes each delivered message once into a buffer that only grows — it is
//! neither cleared nor pre-filled per round, and no inbox range reaches past
//! what this round wrote. So the per-round cost is `O(deliveries)`, not
//! `O(n)`, and since [`Message`] carries its payload inline and is `Copy`,
//! the placement pass is a flat move with **zero per-message allocations**
//! once the arena's capacity has warmed up.
//!
//! simlint: hot-path

use congest_graph::{EdgeId, NodeId};

use super::zeroed;
use crate::message::{InFlight, Words};
use crate::Message;

/// A placeholder message used to grow the arena before the placement pass
/// of a round larger than any before it; plain `Copy` data, so growing is a
/// memset-like fill.
const PLACEHOLDER: Message = Message { from: NodeId(0), edge: EdgeId(0), words: Words::EMPTY };

/// Flat inbox storage for one round of deliveries.
///
/// An arena covers a contiguous node-id range `[base, base + size)`. The
/// inline driver uses one arena over all `n` nodes; the sharded one gives
/// each shard an arena over exactly its slice, so total index memory stays
/// `O(n)` across all shards instead of `O(shards · n)`. The former is part of
/// a [`crate::RunScratch`] and is [`DeliveryArena::rearm`]ed for each run.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeliveryArena {
    /// This round's delivered messages, grouped by recipient, at the front;
    /// behind them, whatever earlier rounds left (never read).
    msgs: Vec<Message>,
    /// Per-node start of its inbox range in `msgs`, indexed by `id - base`.
    start: Vec<u32>,
    /// Per-node inbox length, indexed by `id - base`.
    len: Vec<u32>,
    /// Per-node fill cursor for the placement pass, indexed by `id - base`.
    cursor: Vec<u32>,
    /// Recipients with a non-empty inbox this round, in first-message order
    /// (for the next round's `O(touched)` reset).
    touched: Vec<NodeId>,
    /// First node id this arena covers (0 for the engine-wide arena).
    base: u32,
}

/// The index of `v` in the per-node vectors of an arena starting at `base`, if
/// `v` lies in its range at all: an id below `base` wraps to an index past
/// any length, so one bounds check answers for both ends of the range.
fn local(v: NodeId, base: u32) -> usize {
    v.0.wrapping_sub(base) as usize
}

impl DeliveryArena {
    /// Creates an empty arena covering the node-id range `[lo, hi)`.
    pub(crate) fn new_range(lo: usize, hi: usize) -> Self {
        let mut fresh = DeliveryArena::default();
        fresh.rearm(lo, hi);
        fresh
    }

    /// Makes this an empty arena covering the node-id range `[lo, hi)`,
    /// whatever range and inboxes the previous run left in it. This is the
    /// only `O(hi − lo)` pass; every round after it works in `O(deliveries)`.
    /// Keeps capacity.
    pub(crate) fn rearm(&mut self, lo: usize, hi: usize) {
        self.msgs.clear();
        for column in [&mut self.start, &mut self.len, &mut self.cursor] {
            zeroed(column, hi - lo);
        }
        self.touched.clear();
        self.base = lo as u32;
    }

    /// `true` iff `v` lies in this arena's range.
    pub(crate) fn covers(&self, v: NodeId) -> bool {
        local(v, self.base) < self.len.len()
    }

    /// Rebuilds the arena from the messages sent last round, delivering to
    /// recipients in this arena's range for which `receptive` holds and
    /// dropping the rest of that range (the sleeping model loses messages to
    /// sleeping/halted nodes); `receptive` is asked once per recipient in
    /// range, not once per message. `incoming` is not drained: every shard's
    /// worker scans the *shared* in-flight stream concurrently and keeps only
    /// messages addressed to its own range.
    ///
    /// Returns the number of messages lost on non-receptive recipients
    /// *within this arena's range*; messages to other ranges are ignored
    /// entirely (each message's recipient lies in exactly one shard, so the
    /// shard tallies sum to the whole-range total). Per-recipient message
    /// order is preserved from `incoming`, which itself preserves send
    /// order, so inboxes are identical to the reference engine's.
    pub(crate) fn build_range(
        &mut self,
        incoming: &[InFlight],
        receptive: impl Fn(NodeId) -> bool,
    ) -> u64 {
        // The range bounds are read once, and the range test is the counts'
        // own bounds check: two passes over every message of the round are
        // the engine's innermost loops at one thread as at many.
        let DeliveryArena { msgs, start, len, cursor, touched, base } = self;
        let (len, base) = (&mut len[..], *base);
        // Reset last round's ranges.
        for v in touched.drain(..) {
            len[local(v, base)] = 0;
        }

        // Counting pass: the messages to each recipient in range.
        for flight in incoming {
            let Some(count) = len.get_mut(local(flight.to, base)) else { continue };
            if *count == 0 {
                touched.push(flight.to);
            }
            *count += 1;
        }

        // Receptivity, once per recipient: a non-receptive one loses its
        // whole count and leaves the touched list with a zero length, so the
        // next round's reset stays exact.
        let mut lost = 0u64;
        touched.retain(|&v| {
            let count = &mut len[local(v, base)];
            let keep = receptive(v);
            if !keep {
                lost += u64::from(*count);
                *count = 0;
            }
            keep
        });

        // Prefix pass: assign each receptive recipient a contiguous range.
        let mut offset = 0u32;
        for &v in touched.iter() {
            let i = local(v, base);
            start[i] = offset;
            cursor[i] = offset;
            offset += len[i];
        }

        // Placement pass: copy every deliverable message into its slot — a
        // recipient in range has a non-zero count iff it is receptive. The
        // buffer only grows; what lies past `offset` is never read.
        if msgs.len() < offset as usize {
            msgs.resize(offset as usize, PLACEHOLDER);
        }
        for flight in incoming {
            let i = local(flight.to, base);
            if len.get(i).is_some_and(|&count| count != 0) {
                let c = &mut cursor[i];
                msgs[*c as usize] = flight.msg;
                *c += 1;
            }
        }
        lost
    }

    /// The inbox delivered to `v` this round (empty unless `v` received mail
    /// and was receptive in the latest build), a range the latest build
    /// wrote. `v` must lie in this arena's range.
    pub(crate) fn inbox(&self, v: NodeId) -> &[Message] {
        let i = local(v, self.base);
        let l = self.len[i] as usize;
        if l == 0 {
            // `start[v]` may be stale from an earlier round; never index it.
            return &[];
        }
        let s = self.start[i] as usize;
        &self.msgs[s..s + l]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flight(from: u32, to: u32, word: u64) -> InFlight {
        InFlight {
            to: NodeId(to),
            sent_words: 1,
            msg: Message { from: NodeId(from), edge: EdgeId(0), words: Words::new(&[word]) },
        }
    }

    #[test]
    fn groups_messages_by_recipient_preserving_order() {
        let mut arena = DeliveryArena::new_range(0, 4);
        let incoming = vec![flight(0, 2, 10), flight(1, 3, 20), flight(3, 2, 30), flight(2, 3, 40)];
        let lost = arena.build_range(&incoming, |_| true);
        assert_eq!(lost, 0);
        let at = |v: u32, i: usize| arena.inbox(NodeId(v))[i].words[0];
        assert_eq!(arena.inbox(NodeId(2)).len(), 2);
        assert_eq!((at(2, 0), at(2, 1)), (10, 30), "arrival order per recipient");
        assert_eq!((at(3, 0), at(3, 1)), (20, 40));
        assert!(arena.inbox(NodeId(0)).is_empty());
    }

    #[test]
    fn non_receptive_recipients_lose_messages() {
        let mut arena = DeliveryArena::new_range(0, 3);
        let incoming = vec![flight(0, 1, 1), flight(0, 2, 2), flight(1, 2, 3)];
        let lost = arena.build_range(&incoming, |v| v == NodeId(2));
        assert_eq!(lost, 1);
        assert!(arena.inbox(NodeId(1)).is_empty());
        assert_eq!(arena.inbox(NodeId(2)).len(), 2);
    }

    #[test]
    fn range_arena_filters_to_its_slice_without_draining() {
        // Two shard arenas over [0, 2) and [2, 4); node 3 is not receptive.
        let mut lo_arena = DeliveryArena::new_range(0, 2);
        let mut hi_arena = DeliveryArena::new_range(2, 4);
        let incoming = vec![flight(0, 2, 10), flight(1, 3, 20), flight(3, 1, 30), flight(0, 2, 40)];
        let lo_lost = lo_arena.build_range(&incoming, |v| v != NodeId(3));
        let hi_lost = hi_arena.build_range(&incoming, |v| v != NodeId(3));
        assert_eq!(incoming.len(), 4, "the shared stream is not drained");
        assert_eq!((lo_lost, hi_lost), (0, 1), "losses are counted per range");
        assert_eq!(lo_arena.inbox(NodeId(1)).len(), 1);
        assert_eq!(lo_arena.inbox(NodeId(1))[0].words[0], 30);
        let hub = hi_arena.inbox(NodeId(2));
        assert_eq!(hub.len(), 2);
        assert_eq!((hub[0].words[0], hub[1].words[0]), (10, 40), "stream order per recipient");
        // Rebuilding resets stale ranges.
        let incoming = vec![flight(1, 0, 50)];
        lo_arena.build_range(&incoming, |_| true);
        assert!(lo_arena.inbox(NodeId(1)).is_empty());
        assert_eq!(lo_arena.inbox(NodeId(0)).len(), 1);
    }

    #[test]
    fn rebuild_resets_previous_round() {
        let mut arena = DeliveryArena::new_range(0, 3);
        arena.build_range(&[flight(0, 1, 1)], |_| true);
        assert_eq!(arena.inbox(NodeId(1)).len(), 1);
        arena.build_range(&[flight(1, 2, 2)], |_| true);
        assert!(arena.inbox(NodeId(1)).is_empty(), "stale ranges must be cleared");
        assert_eq!(arena.inbox(NodeId(2)).len(), 1);
        arena.build_range(&[], |_| true);
        assert!(arena.inbox(NodeId(2)).is_empty());
    }

    #[test]
    fn a_deaf_recipient_loses_its_whole_count_and_the_next_reset_is_exact() {
        let mut arena = DeliveryArena::new_range(0, 3);
        let incoming = vec![flight(0, 1, 1), flight(2, 1, 2), flight(0, 2, 3), flight(2, 1, 4)];
        let lost = arena.build_range(&incoming, |v| v != NodeId(1));
        assert_eq!(lost, 3, "all three messages to node 1");
        assert!(arena.inbox(NodeId(1)).is_empty());
        assert_eq!(arena.inbox(NodeId(2))[0].words[0], 3);
        // Node 1 left the touched list with a zero length: awake next round,
        // it holds exactly what is sent to it then.
        let lost = arena.build_range(&[flight(0, 1, 5)], |_| true);
        assert_eq!(lost, 0);
        assert_eq!(arena.inbox(NodeId(1)).len(), 1);
        assert_eq!(arena.inbox(NodeId(1))[0].words[0], 5);
        assert!(arena.inbox(NodeId(2)).is_empty());
    }

    #[test]
    fn a_small_round_after_a_large_one_never_exposes_the_stale_tail() {
        let mut arena = DeliveryArena::new_range(0, 4);
        let six: Vec<InFlight> = (0..6).map(|i| flight(0, 1 + i % 3, 10 + u64::from(i))).collect();
        arena.build_range(&six, |_| true);
        assert_eq!(arena.inbox(NodeId(3)).len(), 2);
        arena.build_range(&[flight(3, 2, 99)], |_| true);
        for v in [0, 1, 3] {
            assert!(arena.inbox(NodeId(v)).is_empty(), "node {v} reads last round's mail");
        }
        let inbox = arena.inbox(NodeId(2));
        assert_eq!(inbox.len(), 1);
        assert_eq!((inbox[0].from, inbox[0].words[0]), (NodeId(3), 99));
    }
}
