//! Per-round CONGEST edge-capacity accounting.
//!
//! The reference engine tracks per-round edge usage in a
//! `HashMap<(EdgeId, NodeId), u32>`, paying hashing and allocation on the hot
//! send path. This tracker instead keeps one dense, epoch-stamped counter per
//! *edge direction* (`2m` `(stamp, count)` pairs, sized once per run): a count
//! is this round's iff its stamp is the current epoch, so a round's reset is
//! one increment, and a send touches its own slot and nothing else.
//!
//! A direction's slot is `2e + (from > to)`. The graph has no self-loops, so
//! the two directions of every edge land on different slots, and the slot is
//! found from the send alone — no edge record is loaded.
//!
//! simlint: hot-path

use congest_graph::{EdgeId, NodeId};

use super::zeroed;

/// Dense per-edge-direction send counters for one round. Part of the
/// thread's `RunScratch`: [`CapacityTracker::rearm`] sizes it for a run.
#[derive(Debug, Clone, Default)]
pub(crate) struct CapacityTracker {
    /// The current round's stamp.
    epoch: u32,
    /// `slots[2e + (from > to)] = (stamp, count)`: `count` messages sent over
    /// edge `e` by `from` this round, if `stamp == epoch`; none otherwise.
    slots: Vec<(u32, u32)>,
}

impl CapacityTracker {
    /// Creates a tracker for a graph with `m` edges.
    #[cfg(test)]
    pub(crate) fn new(m: usize) -> Self {
        let mut fresh = CapacityTracker::default();
        fresh.rearm(m);
        fresh
    }

    /// Makes this the tracker of a run on a graph with `m` edges, all counts
    /// zero whatever the previous run left in them. `O(m)`; keeps capacity.
    pub(crate) fn rearm(&mut self, m: usize) {
        zeroed(&mut self.slots, 2 * m);
        self.epoch = 0;
    }

    /// Starts a new round: every count of the previous one goes stale. When
    /// the epoch would wrap, the column is cleared instead, so that a stamp
    /// from `2^32` rounds ago cannot come back to life.
    pub(crate) fn reset(&mut self) {
        if self.epoch == u32::MAX {
            self.slots.fill((0, 0));
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Records one send by `from` to `to` over `edge` and returns the
    /// direction's total so far this round (including this send).
    ///
    /// `from` and `to` must be the two endpoints of `edge`; the node context
    /// guarantees this (sends are validated against the sender's adjacency).
    pub(crate) fn record(&mut self, edge: EdgeId, from: NodeId, to: NodeId) -> u32 {
        debug_assert_ne!(from, to, "the graph has no self-loops");
        let slot = &mut self.slots[2 * edge.index() + usize::from(from > to)];
        let count = if slot.0 == self.epoch { slot.1 + 1 } else { 1 };
        *slot = (self.epoch, count);
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::{generators, Graph};

    /// Records a send by `from` over `edge`, to the edge's other endpoint.
    fn send(t: &mut CapacityTracker, g: &Graph, edge: u32, from: u32) -> u32 {
        let e = g.edge(EdgeId(edge));
        let to = if e.u == NodeId(from) { e.v } else { e.u };
        t.record(EdgeId(edge), NodeId(from), to)
    }

    #[test]
    fn directions_are_counted_independently() {
        let g = generators::path(3, 1); // edges: 0-1 (e0), 1-2 (e1)
        let mut t = CapacityTracker::new(g.edge_count() as usize);
        t.reset();
        assert_eq!(send(&mut t, &g, 0, 0), 1);
        assert_eq!(send(&mut t, &g, 0, 0), 2);
        assert_eq!(send(&mut t, &g, 0, 1), 1, "reverse direction is separate");
        assert_eq!(send(&mut t, &g, 1, 1), 1);
    }

    #[test]
    fn reset_clears_every_count_and_is_reusable() {
        let g = generators::path(3, 1);
        let mut t = CapacityTracker::new(g.edge_count() as usize);
        t.reset();
        send(&mut t, &g, 0, 0);
        send(&mut t, &g, 0, 0);
        t.reset();
        assert_eq!(send(&mut t, &g, 0, 0), 1, "fresh after reset");
        t.reset();
        t.reset(); // a round without sends changes nothing
        assert_eq!(send(&mut t, &g, 1, 2), 1);
        assert_eq!(send(&mut t, &g, 0, 0), 1);
    }

    #[test]
    fn parallel_edges_have_distinct_counters() {
        let g = Graph::from_edges(2, [(0, 1, 1), (0, 1, 1)]).unwrap();
        let mut t = CapacityTracker::new(2);
        t.reset();
        assert_eq!(send(&mut t, &g, 0, 0), 1);
        assert_eq!(send(&mut t, &g, 1, 0), 1);
    }

    #[test]
    fn an_edge_stored_backwards_beside_a_parallel_pair_keeps_four_directions() {
        // e2 is stored as (1, 0): the direction slot comes from the send, not
        // from the endpoint order of the record.
        let g = Graph::from_edges(2, [(0, 1, 1), (0, 1, 1), (1, 0, 1)]).unwrap();
        assert_eq!(g.edge(EdgeId(2)).u, NodeId(1));
        let mut t = CapacityTracker::new(3);
        t.reset();
        assert_eq!(send(&mut t, &g, 2, 1), 1, "e2 from its stored u, the larger id");
        assert_eq!(send(&mut t, &g, 2, 1), 2);
        assert_eq!(send(&mut t, &g, 2, 0), 1, "e2 from its stored v");
        assert_eq!(send(&mut t, &g, 1, 1), 1, "e1's `from > to` slot is its own");
        assert_eq!(send(&mut t, &g, 0, 1), 1, "so is e0's");
        assert_eq!(send(&mut t, &g, 0, 0), 1);
        assert_eq!(send(&mut t, &g, 2, 1), 3, "nothing else moved e2's count");
    }

    #[test]
    fn counts_survive_an_epoch_wrap() {
        let g = generators::path(3, 1);
        let mut t = CapacityTracker::new(2);
        t.reset(); // epoch 1
        send(&mut t, &g, 0, 0);
        send(&mut t, &g, 0, 0);
        t.epoch = u32::MAX;
        t.slots[2] = (u32::MAX, 5); // e1 from node 1, this round
        t.reset(); // wraps back to 1: without the clear, e0's epoch-1 count revives
        assert_eq!(t.epoch, 1);
        assert_eq!(send(&mut t, &g, 0, 0), 1, "a stale stamp does not come back to life");
        assert_eq!(send(&mut t, &g, 1, 1), 1, "the wrapped round's counts are gone");
    }
}
