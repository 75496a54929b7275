//! The one search workspace of cover construction and validation: a
//! hop-distance BFS over node-indexed, epoch-stamped vectors, so that a
//! search costs the nodes it visits and nothing proportional to `n`.
//!
//! A workspace is allocated once per carving / per
//! [`SparseCover::construct`](crate::SparseCover::construct) / per
//! validation and then reused for every cluster: [`BfsWorkspace::begin`]
//! invalidates the previous search by bumping the epoch instead of clearing.
//! See `docs/COVERS.md` ("Workspace lifetime").
//!
//! simlint: hot-path

use congest_graph::{Graph, NodeId};

/// Hop-distance BFS state that is reset in `O(1)`.
///
/// The visit list doubles as the FIFO queue, so a search can be *extended*:
/// [`explore_to`](Self::explore_to) with a larger bound continues exactly
/// where the previous call stopped and discovers nodes in the order (and
/// with the parents) an unbounded BFS would have.
pub(crate) struct BfsWorkspace {
    epoch: u32,
    /// `stamp[v] == epoch` iff `v` was visited by the current search.
    stamp: Vec<u32>,
    dist: Vec<u64>,
    /// BFS parent of every visited non-seed node.
    parent: Vec<NodeId>,
    /// Nodes in discovery order (hop distance is non-decreasing along it).
    order: Vec<NodeId>,
    /// `order[head..]` is the queue of nodes not expanded yet.
    head: usize,
    /// `mark_stamp[v] == epoch` iff the caller marked `v` during this search.
    mark_stamp: Vec<u32>,
    mark_depth: Vec<u64>,
    /// Nodes visited over the workspace's lifetime (host-cost pin in tests).
    #[cfg(test)]
    pub(crate) visited_total: usize,
}

impl BfsWorkspace {
    pub(crate) fn new(n: usize) -> Self {
        BfsWorkspace {
            epoch: 0,
            // simlint::allow(hot-path-alloc: the workspace itself — allocated once per construct/validate, reused by every cluster)
            stamp: vec![0; n],
            dist: vec![0; n], // simlint::allow(hot-path-alloc: workspace column, as above)
            parent: vec![NodeId(0); n], // simlint::allow(hot-path-alloc: workspace column, as above)
            order: Vec::new(), // simlint::allow(hot-path-alloc: workspace column, as above)
            head: 0,
            mark_stamp: vec![0; n], // simlint::allow(hot-path-alloc: workspace column, as above)
            mark_depth: vec![0; n], // simlint::allow(hot-path-alloc: workspace column, as above)
            #[cfg(test)]
            visited_total: 0,
        }
    }

    /// Starts a new search: forgets every visit and every mark.
    pub(crate) fn begin(&mut self) {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.mark_stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.order.clear();
        self.head = 0;
    }

    /// Adds `s` as a source (hop distance 0) unless it was visited already.
    pub(crate) fn seed(&mut self, s: NodeId) {
        if self.stamp[s.index()] != self.epoch {
            self.visit(s, 0, s);
        }
    }

    fn visit(&mut self, v: NodeId, dist: u64, parent: NodeId) {
        self.stamp[v.index()] = self.epoch;
        self.dist[v.index()] = dist;
        self.parent[v.index()] = parent;
        self.order.push(v);
        #[cfg(test)]
        {
            self.visited_total += 1;
        }
    }

    /// Expands queued nodes until every node within `bound` hops of a seed is
    /// visited. Nodes at exactly `bound` hops stay queued for a later call.
    pub(crate) fn explore_to(&mut self, g: &Graph, bound: u64) {
        while let Some(&v) = self.order.get(self.head) {
            let dv = self.dist[v.index()];
            if dv >= bound {
                break;
            }
            self.head += 1;
            for adj in g.neighbors(v) {
                if self.stamp[adj.neighbor.index()] != self.epoch {
                    self.visit(adj.neighbor, dv + 1, v);
                }
            }
        }
    }

    /// The nodes visited so far, in discovery order.
    pub(crate) fn visited(&self) -> &[NodeId] {
        &self.order
    }

    /// The hop distance of a visited node.
    pub(crate) fn dist(&self, v: NodeId) -> u64 {
        debug_assert_eq!(self.stamp[v.index()], self.epoch, "{v} was not visited");
        self.dist[v.index()]
    }

    /// The BFS parent of a visited node (a seed is its own parent).
    pub(crate) fn parent(&self, v: NodeId) -> NodeId {
        debug_assert_eq!(self.stamp[v.index()], self.epoch, "{v} was not visited");
        self.parent[v.index()]
    }

    /// Marks `v` with a tree depth for the duration of the current search.
    pub(crate) fn mark(&mut self, v: NodeId, depth: u64) {
        self.mark_stamp[v.index()] = self.epoch;
        self.mark_depth[v.index()] = depth;
    }

    /// The depth `v` was marked with during the current search, if any.
    pub(crate) fn marked(&self, v: NodeId) -> Option<u64> {
        (self.mark_stamp[v.index()] == self.epoch).then(|| self.mark_depth[v.index()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;

    #[test]
    fn extending_a_search_matches_one_unbounded_search() {
        let g = generators::random_connected(80, 120, 4);
        let mut whole = BfsWorkspace::new(80);
        whole.begin();
        whole.seed(NodeId(7));
        whole.explore_to(&g, u64::MAX);
        let mut stepped = BfsWorkspace::new(80);
        stepped.begin();
        stepped.seed(NodeId(7));
        for bound in [1, 2, 5, u64::MAX] {
            stepped.explore_to(&g, bound);
            let seen = stepped.visited();
            assert_eq!(seen, &whole.visited()[..seen.len()]);
            assert!(seen.iter().all(|&v| stepped.dist(v) <= bound));
            assert!(seen.iter().all(|&v| stepped.parent(v) == whole.parent(v)));
        }
        assert_eq!(stepped.visited().len(), 80);
    }

    #[test]
    fn begin_forgets_visits_and_marks() {
        let g = generators::path(6, 1);
        let mut ws = BfsWorkspace::new(6);
        ws.begin();
        ws.seed(NodeId(0));
        ws.mark(NodeId(3), 9);
        ws.explore_to(&g, 2);
        assert_eq!(ws.visited(), [NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(ws.marked(NodeId(3)), Some(9));
        ws.begin();
        assert!(ws.visited().is_empty());
        assert_eq!(ws.marked(NodeId(3)), None);
        ws.seed(NodeId(5));
        ws.seed(NodeId(5));
        ws.explore_to(&g, 1);
        assert_eq!(ws.visited(), [NodeId(5), NodeId(4)]);
        assert_eq!(ws.visited_total, 5);
    }
}
