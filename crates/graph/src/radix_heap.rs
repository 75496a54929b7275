//! simlint: hot-path
//!
//! A monotone radix heap over `(u64 distance, u32 node)` entries — the
//! priority queue behind the default sequential Dijkstra truth oracle
//! ([`crate::sequential::dijkstra`]).
//!
//! # Layout
//!
//! Entries live in 65 buckets indexed by the position of the highest bit in
//! which a key differs from `last`, the distance most recently popped:
//! bucket `0` holds keys equal to `last`, bucket `i ≥ 1` holds keys whose
//! highest differing bit (1-based) is `i`. Because Dijkstra only ever pushes
//! keys `≥ last` (edge weights are non-negative), every bucket's contents
//! agree with `last` on all bits above its index — so when bucket `i` is the
//! first non-empty one, advancing `last` to that bucket's minimum and
//! rebucketing its entries lands every one of them in a *strictly lower*
//! bucket. Each entry therefore moves O(64) times total, and `pop` is
//! amortized O(64) plus the bucket-0 scan.
//!
//! # Tie-break
//!
//! Bucket 0 holds exactly the entries whose distance equals `last`, so a
//! linear scan for the minimum node id reproduces the lexicographic
//! `(dist, node)` pop order of `BinaryHeap<Reverse<(Weight, u32)>>`
//! bit-for-bit — see `docs/SEQ_BASELINES.md` for why this matters to every
//! differential harness in the workspace.
//!
//! # Allocation discipline
//!
//! The 65 bucket spines are allocated once in [`RadixHeap::new`]; pushes
//! reuse bucket capacity and redistribution recycles the drained bucket's
//! allocation via `std::mem::take` + put-back, so the steady state after
//! warm-up allocates only when a bucket grows past its high-water mark.

/// Number of buckets: one per possible highest-differing-bit position of a
/// `u64` key (1..=64), plus bucket 0 for keys equal to `last`.
const BUCKETS: usize = 65;

/// A monotone priority queue of `(distance, node)` entries: pops must be
/// non-decreasing in distance, which Dijkstra guarantees. Pop order is
/// lexicographic on `(distance, node)`, matching the binary-heap oracle.
#[derive(Debug, Clone)]
pub(crate) struct RadixHeap {
    /// `buckets[i]` holds entries whose key differs from `last` first at
    /// (1-based) bit `i`; `buckets[0]` holds entries equal to `last`.
    buckets: Vec<Vec<(u64, u32)>>,
    /// The distance of the most recent pop (0 before the first pop). Every
    /// entry in the heap is `≥ last`.
    last: u64,
    /// Total live entries across all buckets.
    len: usize,
}

impl RadixHeap {
    /// Creates an empty heap. This is the only place that allocates the
    /// bucket spines; [`RadixHeap::clear`] resets for reuse without freeing.
    pub(crate) fn new() -> Self {
        let mut buckets = Vec::with_capacity(BUCKETS);
        for _ in 0..BUCKETS {
            buckets.push(Vec::with_capacity(0));
        }
        RadixHeap { buckets, last: 0, len: 0 }
    }

    /// Empties the heap and resets the monotone floor to 0, keeping every
    /// bucket's capacity so a reused heap (e.g. across the `n` runs of
    /// [`crate::sequential::all_pairs`]) stays allocation-free.
    pub(crate) fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.last = 0;
        self.len = 0;
    }

    /// The bucket for key `d` relative to the current `last`: 0 when equal,
    /// otherwise the 1-based index of the highest differing bit.
    fn bucket_of(&self, d: u64) -> usize {
        if d == self.last {
            0
        } else {
            64 - (d ^ self.last).leading_zeros() as usize
        }
    }

    /// Queues `(dist, node)`.
    ///
    /// # Panics
    ///
    /// Debug-asserts the monotone invariant `dist >= self.last`.
    pub(crate) fn push(&mut self, dist: u64, node: u32) {
        debug_assert!(
            dist >= self.last,
            "monotone violation: push {dist} below last {}",
            self.last
        );
        let b = self.bucket_of(dist);
        self.buckets[b].push((dist, node));
        self.len += 1;
    }

    /// Removes and returns the minimum entry in `(distance, node)` order, or
    /// `None` when empty.
    pub(crate) fn pop(&mut self) -> Option<(u64, u32)> {
        if self.len == 0 {
            return None;
        }
        if self.buckets[0].is_empty() {
            self.refill();
        }
        // Bucket 0 entries all carry distance == last; the minimum entry is
        // the one with the smallest node id.
        let bucket = &mut self.buckets[0];
        let mut at = 0;
        for (i, e) in bucket.iter().enumerate().skip(1) {
            if e.1 < bucket[at].1 {
                at = i;
            }
        }
        let entry = bucket.swap_remove(at);
        self.len -= 1;
        Some(entry)
    }

    /// Advances `last` to the minimum queued distance and redistributes the
    /// first non-empty bucket; on return bucket 0 is non-empty.
    fn refill(&mut self) {
        let first = self
            .buckets
            .iter()
            .position(|b| !b.is_empty())
            .expect("refill called on a non-empty heap");
        debug_assert!(first > 0, "refill with bucket 0 already populated");
        let mut drained = std::mem::take(&mut self.buckets[first]);
        let min = drained.iter().map(|e| e.0).min().expect("non-empty bucket");
        self.last = min;
        for &(d, v) in &drained {
            let b = self.bucket_of(d);
            debug_assert!(b < first, "redistribution must land strictly lower");
            self.buckets[b].push((d, v));
        }
        // Put the drained spine back so its capacity is reused next time.
        drained.clear();
        self.buckets[first] = drained;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn empty_heap_pops_none() {
        let mut h = RadixHeap::new();
        assert_eq!(h.len, 0);
        assert_eq!(h.pop(), None);
        assert_eq!(h.last, 0);
    }

    #[test]
    fn pops_in_distance_then_node_order() {
        let mut h = RadixHeap::new();
        for &(d, v) in &[(5u64, 2u32), (1, 9), (5, 0), (1, 3), (0, 7), (5, 1)] {
            h.push(d, v);
        }
        let mut out = Vec::new();
        while let Some(e) = h.pop() {
            out.push(e);
        }
        assert_eq!(out, [(0, 7), (1, 3), (1, 9), (5, 0), (5, 1), (5, 2)]);
    }

    #[test]
    fn interleaved_monotone_pushes_match_binary_heap() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mut radix = RadixHeap::new();
        let mut binary: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
        let mut floor = 0u64;
        for _ in 0..2000 {
            if rng.gen_bool(0.6) || radix.len == 0 {
                let d = floor + rng.gen_range(0u64..1 << 20);
                let v = rng.gen_range(0u32..64);
                radix.push(d, v);
                binary.push(Reverse((d, v)));
            } else {
                let a = radix.pop().unwrap();
                let Reverse(b) = binary.pop().unwrap();
                assert_eq!(a, b);
                floor = a.0;
            }
        }
        while let Some(a) = radix.pop() {
            let Reverse(b) = binary.pop().unwrap();
            assert_eq!(a, b);
        }
        assert!(binary.is_empty());
    }

    #[test]
    fn handles_extreme_keys() {
        let mut h = RadixHeap::new();
        h.push(0, 1);
        h.push(u64::MAX, 2);
        h.push(u64::MAX - 1, 3);
        assert_eq!(h.pop(), Some((0, 1)));
        assert_eq!(h.pop(), Some((u64::MAX - 1, 3)));
        assert_eq!(h.pop(), Some((u64::MAX, 2)));
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn clear_resets_floor_for_reuse() {
        let mut h = RadixHeap::new();
        h.push(100, 1);
        assert_eq!(h.pop(), Some((100, 1)));
        assert_eq!(h.last, 100);
        h.push(200, 2);
        h.clear();
        assert_eq!(h.len, 0);
        assert_eq!(h.last, 0);
        // After clear, small keys are legal again.
        h.push(3, 4);
        assert_eq!(h.pop(), Some((3, 4)));
    }

    #[test]
    fn duplicate_entries_survive() {
        let mut h = RadixHeap::new();
        h.push(7, 5);
        h.push(7, 5);
        h.push(7, 5);
        assert_eq!(h.len, 3);
        assert_eq!(h.pop(), Some((7, 5)));
        assert_eq!(h.pop(), Some((7, 5)));
        assert_eq!(h.pop(), Some((7, 5)));
        assert_eq!(h.pop(), None);
    }
}
