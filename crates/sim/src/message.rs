//! Messages exchanged between neighbouring nodes.
//!
//! # Design: inline payloads and the CONGEST bandwidth bound
//!
//! In the CONGEST model a message carries `B = O(log n)` bits (the paper,
//! Section 1.2). One `u64` word comfortably holds a node id, an edge id, or a
//! distance bounded by `n · max_w ≤ poly(n)`, so `O(log n)` bits is a small
//! *constant* number of words for any graph this workspace simulates: one
//! constant, [`Words::CAPACITY`], is the model's bound on a message.
//!
//! The simulator exploits that correspondence structurally: a payload is a
//! [`Words`] value — a fixed-capacity `[u64; CAPACITY]` buffer plus a length,
//! stored *inline* in the [`Message`] — rather than a heap-allocated
//! `Vec<u64>`. [`Message`] is therefore `Copy`, and so is what carries it
//! between rounds. In the **outbox** a send call is one record — the payload
//! plus a run of the sender's ports in the graph's flat adjacency, however
//! many neighbours a broadcast reaches. The record stays one record **in
//! flight** (the fault layer alone splits it, into one record per message,
//! to roll their fates). Delivery fans it out from that run into the
//! **inbox** arena, one inline [`Message`] per recipient. All three stages
//! are flat buffers of plain structs that the engine reuses from round to
//! round, with **zero heap allocations per message**. The
//! allocation-regression test `tests/alloc_regression.rs` pins this property:
//! after warm-up, a message-saturated round performs no allocation at all.
//!
//! A send longer than the inline capacity is, by construction, a violation of
//! the model's bandwidth bound: both engines end the run with
//! [`crate::SimError::MessageTooLarge`], and the message is never delivered.
//! The same holds for the model's other bound, one message per edge direction
//! per round, and [`crate::SimError::EdgeCapacityExceeded`].
//!
//! simlint: hot-path

use std::fmt;
use std::ops::Deref;

use congest_graph::{Adjacency, EdgeId, NodeId};

/// The inline payload capacity, in `u64` words.
const INLINE_WORDS: usize = 4;

/// A fixed-capacity inline message payload: up to [`Words::CAPACITY`] `u64`
/// words stored by value.
///
/// Dereferences to `&[u64]`, so indexing (`words[i]`) and iteration
/// (`for &w in &msg.words`) work exactly as they did when the payload was a
/// `Vec<u64>`.
#[derive(Clone, Copy)]
pub struct Words {
    /// Number of valid words in `buf`.
    len: u8,
    /// Inline storage; entries beyond `len` are unspecified padding.
    buf: [u64; INLINE_WORDS],
}

impl Words {
    /// The inline payload capacity, in `u64` words, and the model's bound on a
    /// message: `CAPACITY` words are `O(log n)` bits, the CONGEST bandwidth
    /// bound. A longer send is [`crate::SimError::MessageTooLarge`].
    pub const CAPACITY: usize = INLINE_WORDS;

    /// The empty payload.
    pub const EMPTY: Words = Words { len: 0, buf: [0; INLINE_WORDS] };

    /// Copies `words` into an inline payload.
    ///
    /// # Panics
    ///
    /// Panics if `words.len() > Words::CAPACITY`. The engine's send path
    /// truncates instead of panicking, so an oversized *send* is the run's
    /// [`crate::SimError::MessageTooLarge`] rather than this panic.
    pub fn new(words: &[u64]) -> Words {
        assert!(
            words.len() <= Words::CAPACITY,
            "payload of {} words exceeds the inline capacity {}",
            words.len(),
            Words::CAPACITY
        );
        Words::truncated(words)
    }

    /// Copies at most [`Words::CAPACITY`] leading words of `words`, silently
    /// dropping the rest. The engine pairs this with the recorded attempted
    /// length, so an oversized send is still the error.
    pub(crate) fn truncated(words: &[u64]) -> Words {
        let len = words.len().min(Words::CAPACITY);
        let mut buf = [0u64; INLINE_WORDS];
        buf[..len].copy_from_slice(&words[..len]);
        Words { len: len as u8, buf }
    }

    /// The payload as a slice.
    pub fn as_slice(&self) -> &[u64] {
        &self.buf[..self.len as usize]
    }

    /// Number of words in the payload.
    #[allow(clippy::len_without_is_empty)] // is_empty comes via Deref<[u64]>
    pub fn len(&self) -> usize {
        self.len as usize
    }
}

impl Deref for Words {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        self.as_slice()
    }
}

impl<'a> IntoIterator for &'a Words {
    type Item = &'a u64;
    type IntoIter = std::slice::Iter<'a, u64>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl PartialEq for Words {
    fn eq(&self, other: &Words) -> bool {
        // Compare only the valid prefix; the padding is unspecified.
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Words {}

impl fmt::Debug for Words {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl From<&[u64]> for Words {
    fn from(words: &[u64]) -> Words {
        Words::new(words)
    }
}

/// A message delivered to a node at the start of a round.
///
/// The payload is a fixed-capacity inline [`Words`] value (see the module
/// docs for the correspondence with the model's `B = O(log n)` bandwidth
/// bound), which makes the whole message a plain `Copy` struct; the engine
/// enforces [`Words::CAPACITY`] on every send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// The neighbour that sent this message.
    pub from: NodeId,
    /// The edge over which the message travelled.
    pub edge: EdgeId,
    /// The message payload.
    pub words: Words,
}

impl Message {
    /// Returns payload word `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.words.len()` — the payload carries fewer than
    /// `idx + 1` words.
    pub fn word(&self, idx: usize) -> u64 {
        self.words[idx]
    }
}

/// One send call on its way to the next round (internal to the engine): a
/// [`crate::NodeCtx::broadcast`] or a [`crate::NodeCtx::send_on_edge`], as
/// one record however many messages it makes.
///
/// The recipients are not copied into it. `start..start + len` is a run of
/// the sender's ports in the graph's flat CSR adjacency
/// ([`congest_graph::Graph::csr`]) — its whole row for a broadcast, one port
/// for a send on an edge — and the record's `i`-th message travels over
/// `adjacency[start + i]`. Plain `Copy` data, 56 bytes on a 64-bit host: a
/// broadcast to `d` neighbours costs one record instead of `d` copies, and
/// delivery fans it out from the row.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InFlight {
    /// The sending node.
    pub(crate) from: NodeId,
    /// The record's first port: an index into the flat adjacency array.
    pub(crate) start: u32,
    /// The number of ports, and of messages: at least 1.
    pub(crate) len: u32,
    /// The payload length the sender *attempted* (may exceed the inline
    /// capacity, in which case `words` holds the truncated prefix),
    /// saturated at `u32::MAX`; the engine checks it against
    /// [`Words::CAPACITY`], so the saturation never turns a violation into a
    /// legal send.
    pub(crate) sent_words: u32,
    /// The payload every message of the record carries.
    pub(crate) words: Words,
}

impl InFlight {
    /// The ports the record's messages travel over, in send order.
    #[inline(always)]
    pub(crate) fn ports<'g>(&self, adjacency: &'g [Adjacency]) -> &'g [Adjacency] {
        &adjacency[self.start as usize..(self.start + self.len) as usize]
    }

    /// The message the record delivers over `port`.
    #[inline(always)]
    pub(crate) fn message(&self, port: &Adjacency) -> Message {
        Message { from: self.from, edge: port.edge, words: self.words }
    }

    /// The record as one-message records, in port order.
    pub(crate) fn split(self) -> impl Iterator<Item = InFlight> {
        (self.start..self.start + self.len).map(move |start| InFlight { start, len: 1, ..self })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_accessor() {
        let m = Message { from: NodeId(1), edge: EdgeId(0), words: Words::new(&[10, 20]) };
        assert_eq!(m.word(0), 10);
        assert_eq!(m.word(1), 20);
        assert_eq!(m.words.len(), 2);
        assert_eq!(&m.words[..], &[10, 20]);
    }

    #[test]
    #[should_panic]
    fn word_accessor_panics_out_of_range() {
        let m = Message { from: NodeId(1), edge: EdgeId(0), words: Words::EMPTY };
        let _ = m.word(0);
    }

    #[test]
    fn words_iterate_and_compare_by_valid_prefix() {
        let a = Words::new(&[1, 2, 3]);
        let collected: Vec<u64> = (&a).into_iter().copied().collect();
        assert_eq!(collected, vec![1, 2, 3]);
        assert_ne!(Words::new(&[1, 2]), Words::new(&[1]));
        assert_eq!(Words::new(&[1]), Words::from(&[1u64][..]));
        assert!(Words::EMPTY.is_empty());
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn an_in_flight_record_is_56_bytes() {
        assert_eq!(std::mem::size_of::<Message>(), 48);
        assert_eq!(std::mem::size_of::<InFlight>(), 56);
    }

    #[test]
    fn truncated_keeps_the_inline_prefix_and_new_panics() {
        let w = Words::truncated(&[1, 2, 3, 4, 5, 6]);
        assert_eq!(&w[..], &[1, 2, 3, 4]);
        assert_eq!(w.len(), Words::CAPACITY);
        assert!(std::panic::catch_unwind(|| Words::new(&[0; 5])).is_err());
    }
}
