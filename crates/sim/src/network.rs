//! The simulated network: a view over a [`congest_graph::Graph`] plus a
//! neighbour→adjacency index, built on first use, for fast send-by-neighbour
//! lookups.

use std::sync::OnceLock;

use congest_graph::{Adjacency, Graph, NodeId};

/// Per-node neighbour→adjacency lookup.
///
/// [`crate::NodeCtx::send`] must resolve "the lightest edge to neighbour `u`"
/// on every call; scanning the adjacency list makes that `O(degree)` per send
/// — `Θ(degree²)` per round on a hub that talks to every neighbour (the
/// `HubPingPong` workload on a star). This index resolves it in `O(log degree)` from one
/// `O(m log Δ)` build pass, made by the first [`crate::NodeCtx::send`] on the
/// network: protocols that address edges (`send_on_edge`, `broadcast`) never
/// pay for it.
///
/// The index is CSR-shaped, like [`Graph`]'s adjacency itself: one flat array
/// of best-edge entries (one per distinct `(node, neighbour)` pair, sorted by
/// neighbour id within each node's run) plus an `n + 1` offset table, and a
/// lookup is a binary search over the node's run. This replaces the earlier
/// `HashMap<(u32, u32), Adjacency>`: flat arrays cost a fraction of the hash
/// map's memory at large `n` (the million-node regime), and binary search on
/// a hub's cache-resident run competes well with hashing.
#[derive(Debug, Clone)]
pub(crate) struct NeighborIndex {
    /// CSR offsets: node `v`'s best-edge entries live at
    /// `entries[offsets[v] .. offsets[v + 1]]`. Length `n + 1`.
    offsets: Vec<u32>,
    /// One entry per distinct `(node, neighbour)` pair: the minimum-weight
    /// edge to that neighbour, resolving weight ties to the *first* such
    /// entry in the node's adjacency list (the tie `Iterator::min_by_key`
    /// resolved before the index existed, preserved bit for bit). Sorted by
    /// neighbour id within each node's run.
    entries: Vec<Adjacency>,
}

impl NeighborIndex {
    fn build(graph: &Graph) -> NeighborIndex {
        let n = graph.node_count() as usize;
        let mut offsets = Vec::with_capacity(n + 1);
        let mut entries: Vec<Adjacency> = Vec::with_capacity(2 * graph.edge_count() as usize);
        let mut row: Vec<Adjacency> = Vec::new();
        offsets.push(0);
        for v in graph.nodes() {
            row.clear();
            row.extend_from_slice(graph.neighbors(v));
            // A *stable* sort keeps adjacency-list order within each
            // neighbour's group, so "first minimal entry" below means first
            // in insertion order — the pre-index tie rule.
            row.sort_by_key(|a| a.neighbor);
            let mut iter = row.iter();
            if let Some(&first) = iter.next() {
                let mut best = first;
                for &a in iter {
                    if a.neighbor != best.neighbor {
                        entries.push(best);
                        best = a;
                    } else if a.weight < best.weight {
                        best = a;
                    }
                }
                entries.push(best);
            }
            offsets.push(entries.len() as u32);
        }
        NeighborIndex { offsets, entries }
    }

    /// The adjacency entry for the preferred (lightest) edge from `from` to
    /// its neighbour `to`, or `None` if they are not adjacent.
    pub(crate) fn best_edge_to(&self, from: NodeId, to: NodeId) -> Option<&Adjacency> {
        let lo = self.offsets[from.index()] as usize;
        let hi = self.offsets[from.index() + 1] as usize;
        let run = &self.entries[lo..hi];
        run.binary_search_by_key(&to, |a| a.neighbor).ok().map(|i| &run[i])
    }
}

/// A simulated network over an undirected weighted graph.
///
/// The network does not own the graph; it provides the topology queries that
/// nodes are allowed to make locally (their own neighbourhood) plus the global
/// parameters every node is assumed to know (`n`, as is standard in CONGEST).
///
/// The neighbour→adjacency index behind [`crate::NodeCtx::send`] (see
/// `NeighborIndex`) is built by the first such send and then shared: every
/// node of a run — and of every later run on this network, on any thread —
/// reads that one index, and a clone of the network takes a copy of it along
/// instead of building its own.
#[derive(Debug, Clone)]
pub struct Network<'g> {
    graph: &'g Graph,
    /// Set once, by whichever run sends by neighbour first; a run on another
    /// thread arriving meanwhile waits for that build instead of racing it.
    index: OnceLock<NeighborIndex>,
}

impl<'g> Network<'g> {
    /// Creates a network over `graph`. `O(1)`, no allocation.
    pub fn new(graph: &'g Graph) -> Self {
        Network { graph, index: OnceLock::new() }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Number of nodes.
    pub fn node_count(&self) -> u32 {
        self.graph.node_count()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> u32 {
        self.graph.edge_count()
    }

    /// The local neighbourhood of `v` (the only topology a node can see).
    pub fn neighbors(&self, v: NodeId) -> &'g [Adjacency] {
        self.graph.neighbors(v)
    }

    /// The send-by-neighbour lookup index, built on the first call.
    pub(crate) fn index(&self) -> &NeighborIndex {
        self.index.get_or_init(|| NeighborIndex::build(self.graph))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;

    #[test]
    fn network_exposes_graph_views() {
        let g = generators::cycle(5, 2);
        let net = Network::new(&g);
        assert_eq!(net.node_count(), 5);
        assert_eq!(net.edge_count(), 5);
        assert_eq!(net.neighbors(NodeId(0)).len(), 2);
        assert_eq!(net.graph().max_weight(), 2);
    }

    #[test]
    fn index_finds_each_neighbor_in_both_directions() {
        let g = generators::star(5, 3);
        let net = Network::new(&g);
        for leaf in 1..5u32 {
            let out = net.index().best_edge_to(NodeId(0), NodeId(leaf)).expect("adjacent");
            let back = net.index().best_edge_to(NodeId(leaf), NodeId(0)).expect("adjacent");
            assert_eq!(out.edge, back.edge);
            assert_eq!(out.neighbor, NodeId(leaf));
            assert_eq!(back.neighbor, NodeId(0));
        }
        assert!(net.index().best_edge_to(NodeId(1), NodeId(2)).is_none(), "leaves not adjacent");
    }

    #[test]
    fn index_prefers_lightest_edge_and_breaks_ties_like_a_scan() {
        // Parallel edges: the index must agree with the pre-index behaviour,
        // `filter(..).min_by_key(weight)`, which returns the *first* minimal
        // entry of the adjacency list.
        let g = congest_graph::Graph::from_edges(2, [(0, 1, 9), (0, 1, 2), (0, 1, 2), (0, 1, 5)])
            .unwrap();
        let expected = g
            .neighbors(NodeId(0))
            .iter()
            .filter(|a| a.neighbor == NodeId(1))
            .min_by_key(|a| a.weight)
            .unwrap();
        let net = Network::new(&g);
        let indexed = net.index().best_edge_to(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(indexed.edge, expected.edge);
        assert_eq!(indexed.weight, 2);
    }

    #[test]
    fn the_index_is_built_by_the_first_lookup_and_travels_with_clones() {
        let g = generators::star(5, 3);
        let net = Network::new(&g);
        assert!(net.index.get().is_none(), "construction builds nothing");
        assert!(net.clone().index.get().is_none());
        let built: *const NeighborIndex = net.index();
        assert!(std::ptr::eq(built, net.index()), "one index per network");
        let copy = net.clone();
        let carried = copy.index.get().expect("a clone takes the built index along");
        assert_eq!(carried.entries, net.index().entries);
        assert_eq!(carried.offsets, net.index().offsets);
    }
}
