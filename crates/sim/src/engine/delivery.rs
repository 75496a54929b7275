//! The message delivery arena: flat, reusable per-round inbox storage.
//!
//! What arrives is a stream of send records (`InFlight`): a payload and a
//! run of its sender's ports in the graph's flat adjacency array — a whole
//! row for a broadcast. The arena fans each record out from that run, one
//! [`Message`] per port, into the recipients' inboxes; nothing in between
//! ever held a copy per recipient.
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
//! the placement pass is a flat store with **zero per-message allocations**
//! once the arena's capacity has warmed up.
//!
//! simlint: hot-path

use congest_graph::{Adjacency, EdgeId, NodeId};

use super::zeroed;
use crate::message::{InFlight, Words};
use crate::Message;

/// A placeholder message used to grow the arena before the placement pass
/// of a round larger than any before it; plain `Copy` data, so growing is a
/// memset-like fill.
const PLACEHOLDER: Message = Message { from: NodeId(0), edge: EdgeId(0), words: Words::EMPTY };

/// Flat inbox storage for one round of deliveries over all `n` nodes; part
/// of the thread's `RunScratch`, [`DeliveryArena::rearm`]ed for each run.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeliveryArena {
    /// This round's delivered messages, grouped by recipient, at the front;
    /// behind them, whatever earlier rounds left (never read).
    msgs: Vec<Message>,
    /// Per-node start of its inbox range in `msgs`.
    start: Vec<u32>,
    /// Per-node inbox length.
    len: Vec<u32>,
    /// Per-node fill cursor for the placement pass.
    cursor: Vec<u32>,
    /// Recipients with a non-empty inbox this round, in first-message order
    /// (for the next round's `O(touched)` reset).
    touched: Vec<NodeId>,
}

impl DeliveryArena {
    /// Makes this an empty arena over `n` nodes, whatever inboxes the
    /// previous run left in it. This is the only `O(n)` pass; every round
    /// after it works in `O(deliveries)`. Keeps capacity.
    pub(crate) fn rearm(&mut self, n: usize) {
        self.msgs.clear();
        for column in [&mut self.start, &mut self.len, &mut self.cursor] {
            zeroed(column, n);
        }
        self.touched.clear();
    }

    /// Rebuilds the arena from the records sent last round, whose ports are
    /// runs of `adjacency` (the graph's flat CSR array), delivering to
    /// recipients for which `receptive` holds and dropping the rest (the
    /// sleeping model loses messages to sleeping/halted nodes); `receptive`
    /// is asked once per recipient, not once per message. `incoming` is not
    /// drained.
    ///
    /// Returns the number of messages lost on non-receptive recipients.
    /// Per-recipient message order is preserved from `incoming`, read record
    /// by record and port by port — which is send order — so inboxes are
    /// identical to the reference engine's.
    pub(crate) fn build(
        &mut self,
        incoming: &[InFlight],
        adjacency: &[Adjacency],
        receptive: impl Fn(NodeId) -> bool,
    ) -> u64 {
        // Two passes over every message of the round are the engine's
        // innermost loops.
        let DeliveryArena { msgs, start, len, cursor, touched } = self;
        // Reset last round's ranges.
        for v in touched.drain(..) {
            len[v.index()] = 0;
        }

        // Counting pass: the messages to each recipient.
        for flight in incoming {
            for port in flight.ports(adjacency) {
                let count = &mut len[port.neighbor.index()];
                if *count == 0 {
                    touched.push(port.neighbor);
                }
                *count += 1;
            }
        }

        // Receptivity, once per recipient: a non-receptive one loses its
        // whole count and leaves the touched list with a zero length, so the
        // next round's reset stays exact.
        let mut lost = 0u64;
        touched.retain(|&v| {
            let count = &mut len[v.index()];
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
            let i = v.index();
            start[i] = offset;
            cursor[i] = offset;
            offset += len[i];
        }

        // Placement pass: write every deliverable message into its slot — a
        // recipient has a non-zero count iff it is receptive. The buffer
        // only grows; what lies past `offset` is never read.
        if msgs.len() < offset as usize {
            msgs.resize(offset as usize, PLACEHOLDER);
        }
        for flight in incoming {
            for port in flight.ports(adjacency) {
                let i = port.neighbor.index();
                if len[i] != 0 {
                    let c = &mut cursor[i];
                    msgs[*c as usize] = flight.message(port);
                    *c += 1;
                }
            }
        }
        lost
    }

    /// The inbox delivered to `v` this round (empty unless `v` received mail
    /// and was receptive in the latest build), a range the latest build
    /// wrote.
    pub(crate) fn inbox(&self, v: NodeId) -> &[Message] {
        let i = v.index();
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
    use congest_graph::{generators, Graph};

    /// The one-message record `from` sends to `to` (a `send_on_edge`).
    fn flight(g: &Graph, from: u32, to: u32, word: u64) -> InFlight {
        let (offsets, _) = g.csr();
        let port = g.neighbors(NodeId(from)).iter().position(|a| a.neighbor == NodeId(to));
        InFlight {
            from: NodeId(from),
            start: offsets[from as usize] + port.expect("an edge") as u32,
            len: 1,
            sent_words: 1,
            words: Words::new(&[word]),
        }
    }

    /// The record of a broadcast by `from`: its whole run.
    fn broadcast(g: &Graph, from: u32, word: u64) -> InFlight {
        let (offsets, _) = g.csr();
        InFlight {
            from: NodeId(from),
            start: offsets[from as usize],
            len: g.degree(NodeId(from)) as u32,
            sent_words: 1,
            words: Words::new(&[word]),
        }
    }

    fn arena(n: usize) -> DeliveryArena {
        let mut fresh = DeliveryArena::default();
        fresh.rearm(n);
        fresh
    }

    #[test]
    fn groups_messages_by_recipient_preserving_order() {
        let g = generators::complete(4, 1);
        let mut arena = arena(4);
        let incoming = vec![
            flight(&g, 0, 2, 10),
            flight(&g, 1, 3, 20),
            flight(&g, 3, 2, 30),
            flight(&g, 2, 3, 40),
        ];
        let lost = arena.build(&incoming, g.csr().1, |_| true);
        assert_eq!(incoming.len(), 4, "the stream is not drained");
        assert_eq!(lost, 0);
        let at = |v: u32, i: usize| arena.inbox(NodeId(v))[i].words[0];
        assert_eq!(arena.inbox(NodeId(2)).len(), 2);
        assert_eq!((at(2, 0), at(2, 1)), (10, 30), "arrival order per recipient");
        assert_eq!((at(3, 0), at(3, 1)), (20, 40));
        assert!(arena.inbox(NodeId(0)).is_empty());
    }

    #[test]
    fn a_broadcast_record_fans_out_over_its_run_in_stream_order() {
        let g = generators::star(4, 1); // edges 0-1, 0-2, 0-3
        let mut arena = arena(4);
        let incoming = vec![flight(&g, 2, 0, 5), broadcast(&g, 0, 7), broadcast(&g, 3, 9)];
        assert_eq!(arena.build(&incoming, g.csr().1, |_| true), 0);
        for v in 1..4 {
            let inbox = arena.inbox(NodeId(v));
            assert_eq!(inbox.len(), 1);
            let edge = g.neighbors(NodeId(0))[v as usize - 1].edge;
            assert_eq!((inbox[0].from, inbox[0].edge, inbox[0].words[0]), (NodeId(0), edge, 7));
        }
        let words: Vec<u64> = arena.inbox(NodeId(0)).iter().map(|m| m.words[0]).collect();
        assert_eq!(words, [5, 9], "a record's messages keep the stream's order");
    }

    #[test]
    fn non_receptive_recipients_lose_messages() {
        let g = generators::complete(3, 1);
        let mut arena = arena(3);
        let incoming = vec![flight(&g, 0, 1, 1), flight(&g, 0, 2, 2), flight(&g, 1, 2, 3)];
        let lost = arena.build(&incoming, g.csr().1, |v| v == NodeId(2));
        assert_eq!(lost, 1);
        assert!(arena.inbox(NodeId(1)).is_empty());
        assert_eq!(arena.inbox(NodeId(2)).len(), 2);
        // A broadcast loses exactly its messages to the deaf.
        assert_eq!(arena.build(&[broadcast(&g, 0, 4)], g.csr().1, |v| v == NodeId(2)), 1);
        assert_eq!(arena.inbox(NodeId(2))[0].words[0], 4);
    }

    #[test]
    fn rebuild_resets_previous_round() {
        let g = generators::complete(3, 1);
        let mut arena = arena(3);
        arena.build(&[flight(&g, 0, 1, 1)], g.csr().1, |_| true);
        assert_eq!(arena.inbox(NodeId(1)).len(), 1);
        arena.build(&[flight(&g, 1, 2, 2)], g.csr().1, |_| true);
        assert!(arena.inbox(NodeId(1)).is_empty(), "stale ranges must be cleared");
        assert_eq!(arena.inbox(NodeId(2)).len(), 1);
        arena.build(&[], g.csr().1, |_| true);
        assert!(arena.inbox(NodeId(2)).is_empty());
    }

    #[test]
    fn a_deaf_recipient_loses_its_whole_count_and_the_next_reset_is_exact() {
        let g = generators::complete(3, 1);
        let mut arena = arena(3);
        let incoming = vec![
            flight(&g, 0, 1, 1),
            flight(&g, 2, 1, 2),
            flight(&g, 0, 2, 3),
            flight(&g, 2, 1, 4),
        ];
        let lost = arena.build(&incoming, g.csr().1, |v| v != NodeId(1));
        assert_eq!(lost, 3, "all three messages to node 1");
        assert!(arena.inbox(NodeId(1)).is_empty());
        assert_eq!(arena.inbox(NodeId(2))[0].words[0], 3);
        // Node 1 left the touched list with a zero length: awake next round,
        // it holds exactly what is sent to it then.
        let lost = arena.build(&[flight(&g, 0, 1, 5)], g.csr().1, |_| true);
        assert_eq!(lost, 0);
        assert_eq!(arena.inbox(NodeId(1)).len(), 1);
        assert_eq!(arena.inbox(NodeId(1))[0].words[0], 5);
        assert!(arena.inbox(NodeId(2)).is_empty());
    }

    #[test]
    fn a_small_round_after_a_large_one_never_exposes_the_stale_tail() {
        let g = generators::complete(4, 1);
        let mut arena = arena(4);
        let six: Vec<InFlight> =
            (0..6).map(|i| flight(&g, 0, 1 + i % 3, 10 + u64::from(i))).collect();
        arena.build(&six, g.csr().1, |_| true);
        assert_eq!(arena.inbox(NodeId(3)).len(), 2);
        arena.build(&[flight(&g, 3, 2, 99)], g.csr().1, |_| true);
        for v in [0, 1, 3] {
            assert!(arena.inbox(NodeId(v)).is_empty(), "node {v} reads last round's mail");
        }
        let inbox = arena.inbox(NodeId(2));
        assert_eq!(inbox.len(), 1);
        assert_eq!((inbox[0].from, inbox[0].words[0]), (NodeId(3), 99));
    }
}
