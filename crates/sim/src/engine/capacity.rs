//! Per-round CONGEST edge-capacity accounting.
//!
//! The reference engine tracks per-round edge usage in a
//! `HashMap<(EdgeId, NodeId), u32>`, paying hashing and allocation on the hot
//! send path. This tracker instead keeps one dense counter per *edge
//! direction* (`2m` counters, sized once per run) and resets only the entries
//! actually used, via a touched-list — `O(sends)` per round.
//!
//! simlint: hot-path

use congest_graph::{EdgeId, Graph, NodeId};

use super::zeroed;

/// Dense per-edge-direction send counters for one round. Part of a
/// [`crate::RunScratch`]: [`CapacityTracker::rearm`] sizes it for a run.
#[derive(Debug, Clone, Default)]
pub(crate) struct CapacityTracker {
    /// `counts[2e + d]` = messages sent over edge `e` in direction `d` this
    /// round, where `d = 0` means "sent by `edge.u`" and `d = 1` "by `edge.v`".
    counts: Vec<u32>,
    /// Slots written this round, for `O(touched)` reset.
    touched: Vec<u32>,
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
        zeroed(&mut self.counts, 2 * m);
        self.touched.clear();
    }

    /// Clears the counts touched in the previous round.
    pub(crate) fn reset(&mut self) {
        for slot in self.touched.drain(..) {
            self.counts[slot as usize] = 0;
        }
    }

    /// Records one send by `from` over `edge` and returns the direction's
    /// total so far this round (including this send).
    ///
    /// `from` must be an endpoint of `edge`; the node context guarantees this
    /// (sends are validated against the sender's adjacency list).
    pub(crate) fn record(&mut self, g: &Graph, edge: EdgeId, from: NodeId) -> u32 {
        let e = g.edge(edge);
        debug_assert!(from == e.u || from == e.v, "sender must be an endpoint");
        let dir = u32::from(from != e.u);
        let slot = 2 * edge.0 + dir;
        let count = &mut self.counts[slot as usize];
        if *count == 0 {
            self.touched.push(slot);
        }
        *count += 1;
        *count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;

    #[test]
    fn directions_are_counted_independently() {
        let g = generators::path(3, 1); // edges: 0-1 (e0), 1-2 (e1)
        let mut t = CapacityTracker::new(g.edge_count() as usize);
        assert_eq!(t.record(&g, EdgeId(0), NodeId(0)), 1);
        assert_eq!(t.record(&g, EdgeId(0), NodeId(0)), 2);
        assert_eq!(t.record(&g, EdgeId(0), NodeId(1)), 1, "reverse direction is separate");
        assert_eq!(t.record(&g, EdgeId(1), NodeId(1)), 1);
    }

    #[test]
    fn reset_clears_only_touched_slots_and_is_reusable() {
        let g = generators::path(3, 1);
        let mut t = CapacityTracker::new(g.edge_count() as usize);
        t.record(&g, EdgeId(0), NodeId(0));
        t.record(&g, EdgeId(0), NodeId(0));
        t.reset();
        assert_eq!(t.record(&g, EdgeId(0), NodeId(0)), 1, "fresh after reset");
        t.reset();
        t.reset(); // idempotent on an untouched tracker
        assert_eq!(t.record(&g, EdgeId(1), NodeId(2)), 1);
    }

    #[test]
    fn parallel_edges_have_distinct_counters() {
        let g = congest_graph::Graph::from_edges(2, [(0, 1, 1), (0, 1, 1)]).unwrap();
        let mut t = CapacityTracker::new(2);
        assert_eq!(t.record(&g, EdgeId(0), NodeId(0)), 1);
        assert_eq!(t.record(&g, EdgeId(1), NodeId(0)), 1);
    }
}
