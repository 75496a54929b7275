//! The [`Graph`] type: an undirected, weighted multigraph.

use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::GraphError;

/// Edge weights are non-negative integers, as in the paper (`w(e) ∈ [0, poly(n)]`).
pub type Weight = u64;

/// A handle to a node of a [`Graph`]. Node ids are dense: `0..n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// A handle to an undirected edge of a [`Graph`]. Edge ids are dense: `0..m`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The edge id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// An undirected edge `{u, v}` with weight `w`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Edge {
    /// One endpoint.
    pub u: NodeId,
    /// The other endpoint.
    pub v: NodeId,
    /// Non-negative integer weight.
    pub w: Weight,
}

impl Edge {
    /// Given one endpoint, returns the other.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not an endpoint of this edge.
    pub fn other(&self, x: NodeId) -> NodeId {
        if x == self.u {
            self.v
        } else if x == self.v {
            self.u
        } else {
            panic!("{x} is not an endpoint of edge {{{}, {}}}", self.u, self.v)
        }
    }
}

/// One entry of a node's adjacency list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Adjacency {
    /// The neighbouring node.
    pub neighbor: NodeId,
    /// The id of the connecting edge.
    pub edge: EdgeId,
    /// The weight of the connecting edge.
    pub weight: Weight,
}

/// An undirected, weighted multigraph with `n` nodes (ids `0..n`) and `m`
/// edges (ids `0..m`).
///
/// Parallel edges are allowed (they occur naturally when contracting graphs);
/// self-loops are rejected. The maximum supported weight is
/// [`Graph::MAX_WEIGHT`], mirroring the paper's `poly(n)` weight assumption.
///
/// Adjacency is stored in CSR (compressed sparse row) form: one flat
/// [`Adjacency`] array holding every node's entries back to back, plus an
/// `n + 1` offset table. [`Graph::neighbors`] is a slice of the flat array,
/// so iterating a whole node range walks memory linearly instead of chasing
/// `n` separate heap vectors. Within a node, entries keep edge-insertion order (the order
/// `Vec<Vec<_>>` adjacency used to expose), which broadcast order and the
/// send-path tie rules depend on.
///
/// ```
/// use congest_graph::{Graph, NodeId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = Graph::builder(3);
/// b.add_edge(0, 1, 5)?;
/// b.add_edge(1, 2, 7)?;
/// let g = b.build();
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge_count(), 2);
/// assert_eq!(g.degree(NodeId(1)), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    node_count: u32,
    edges: Vec<Edge>,
    /// CSR offsets: node `v`'s adjacency entries live at
    /// `adjacency[adj_offsets[v] .. adj_offsets[v + 1]]`. Length `n + 1`.
    adj_offsets: Vec<u32>,
    /// All adjacency entries (`2m` of them), grouped by node, each node's
    /// run in edge-insertion order.
    adjacency: Vec<Adjacency>,
    max_weight: Weight,
}

impl Graph {
    /// The largest supported edge weight (`2^40`), comfortably `poly(n)` for
    /// any graph size this workspace simulates.
    pub const MAX_WEIGHT: Weight = 1 << 40;

    /// Creates an empty graph (no edges) on `n` nodes.
    pub fn empty(n: u32) -> Graph {
        Graph {
            node_count: n,
            edges: Vec::new(),
            adj_offsets: vec![0; n as usize + 1],
            adjacency: Vec::new(),
            max_weight: 0,
        }
    }

    /// Starts building a graph with `n` nodes.
    pub fn builder(n: u32) -> GraphBuilder {
        GraphBuilder { node_count: n, edges: Vec::new(), max_weight: 0 }
    }

    /// The one place a [`Graph`] is put together: lays the adjacency of
    /// already validated `edges` (endpoints in range, no self-loops) out in
    /// CSR form by a counting pass — two sweeps over the edge list and three
    /// allocations, whatever `n` is. Walking the edges in id order leaves
    /// every node's run in edge-insertion order.
    fn from_valid_edges(node_count: u32, edges: Vec<Edge>, max_weight: Weight) -> Graph {
        let n = node_count as usize;
        let mut adj_offsets = vec![0u32; n + 1];
        for e in &edges {
            adj_offsets[e.u.index() + 1] += 1;
            adj_offsets[e.v.index() + 1] += 1;
        }
        for v in 0..n {
            adj_offsets[v + 1] += adj_offsets[v];
        }
        let filler = Adjacency { neighbor: NodeId(0), edge: EdgeId(0), weight: 0 };
        let mut adjacency = vec![filler; 2 * edges.len()];
        for (id, e) in edges.iter().enumerate() {
            let edge = EdgeId(id as u32);
            for (from, to) in [(e.u, e.v), (e.v, e.u)] {
                let at = &mut adj_offsets[from.index()];
                adjacency[*at as usize] = Adjacency { neighbor: to, edge, weight: e.w };
                *at += 1;
            }
        }
        // Filling advanced every `adj_offsets[v]` to the end of `v`'s run,
        // which is where `v + 1`'s begins: shift back.
        adj_offsets.copy_within(0..n, 1);
        adj_offsets[0] = 0;
        Graph { node_count, edges, adj_offsets, adjacency, max_weight }
    }

    /// Builds a graph on `n` nodes from `(u, v, w)` edge triples.
    ///
    /// # Errors
    ///
    /// Returns an error if an endpoint is out of range, an edge is a
    /// self-loop, or a weight exceeds [`Graph::MAX_WEIGHT`].
    pub fn from_edges(
        n: u32,
        edges: impl IntoIterator<Item = (u32, u32, Weight)>,
    ) -> Result<Graph, GraphError> {
        let mut b = Graph::builder(n);
        for (u, v, w) in edges {
            b.add_edge(u, v, w)?;
        }
        Ok(b.build())
    }

    /// Number of nodes `n`.
    pub fn node_count(&self) -> u32 {
        self.node_count
    }

    /// Number of edges `m`.
    pub fn edge_count(&self) -> u32 {
        self.edges.len() as u32
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count).map(NodeId)
    }

    /// Iterator over all edge ids `0..m`.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// All edges, indexed by [`EdgeId`].
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn edge(&self, e: EdgeId) -> Edge {
        self.edges[e.index()]
    }

    /// The adjacency list of `v`: a slice of the flat CSR adjacency array, in
    /// edge-insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: NodeId) -> &[Adjacency] {
        let lo = self.adj_offsets[v.index()] as usize;
        let hi = self.adj_offsets[v.index() + 1] as usize;
        &self.adjacency[lo..hi]
    }

    /// The CSR arrays themselves: the `n + 1` offsets and the `2m` flat
    /// entries, node `v`'s run ([`Graph::neighbors`]) being
    /// `entries[offsets[v] .. offsets[v + 1]]`. A run is named by its
    /// position in `entries`, which a simulator can keep in place of a copy.
    pub fn csr(&self) -> (&[u32], &[Adjacency]) {
        (&self.adj_offsets, &self.adjacency)
    }

    /// The degree (number of incident edges) of `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        (self.adj_offsets[v.index() + 1] - self.adj_offsets[v.index()]) as usize
    }

    /// The largest edge weight, or 0 for an edgeless graph.
    pub fn max_weight(&self) -> Weight {
        self.max_weight
    }

    /// Returns `true` if `v` is a valid node id of this graph.
    pub fn contains_node(&self, v: NodeId) -> bool {
        v.0 < self.node_count
    }

    /// Returns `true` if some edge directly connects `u` and `v`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).iter().any(|a| a.neighbor == v)
    }

    /// The minimum weight among edges directly connecting `u` and `v`, if any.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<Weight> {
        self.neighbors(u).iter().filter(|a| a.neighbor == v).map(|a| a.weight).min()
    }

    /// An upper bound `n * max_weight` on any finite shortest-path distance,
    /// used as the initial threshold `D` of the recursion in the paper
    /// (Section 2.2: "Let D = n · max w_e").
    pub fn distance_upper_bound(&self) -> Weight {
        (self.node_count as Weight).saturating_mul(self.max_weight.max(1))
    }

    /// Builds the subgraph induced by `keep`, returning the new graph and, for
    /// each new node id, the original node id it corresponds to.
    ///
    /// Nodes are renumbered densely in increasing order of their original id;
    /// edges keep their weights and their relative order. Edges with an
    /// endpoint outside `keep` are dropped.
    ///
    /// This is [`Graph::induced_on`] with a one-off [`SubsetMarks`]; build
    /// many subgraphs of one graph through that instead.
    ///
    /// # Panics
    ///
    /// Panics if a node of `keep` is not in the graph.
    pub fn induced_subgraph(&self, keep: &BTreeSet<NodeId>) -> (Graph, Vec<NodeId>) {
        let members: Vec<NodeId> = keep.iter().copied().collect();
        let mut marks = SubsetMarks::new(self.node_count as usize);
        let (sub, _edge_map) = self.induced_on(&members, &mut marks);
        (sub, members)
    }

    /// Builds the subgraph induced by `members` — node ids in strictly
    /// increasing order — at a cost of the members' adjacency, not of the
    /// graph: `O(|members| + vol(members))` plus sorting the edges found.
    ///
    /// Subgraph node `i` is `members[i]`; the returned map gives, for each
    /// subgraph edge id, the original edge id. Subgraph edges are numbered in
    /// increasing original-id order and keep the orientation (`u`, `v`) and
    /// weight of the original, so adjacency order — and with it the message
    /// order of any protocol simulated on the subgraph — is that of the
    /// original graph restricted to `members`.
    ///
    /// `marks` (sized for this graph) is left marking `members`, so the
    /// caller can translate further node ids with [`SubsetMarks::local`].
    ///
    /// # Panics
    ///
    /// Panics if a member is not in the graph.
    pub fn induced_on(&self, members: &[NodeId], marks: &mut SubsetMarks) -> (Graph, Vec<EdgeId>) {
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]), "members must be sorted");
        if let Some(&last) = members.last() {
            assert!(self.contains_node(last), "node {last} not in graph");
        }
        marks.mark(members);
        // Every internal edge is found twice; keep the sighting from its
        // lower endpoint.
        let mut edge_map = std::mem::take(&mut marks.edges);
        edge_map.clear();
        for &v in members {
            let row = self.neighbors(v);
            marks.adjacency_scanned += row.len() as u64;
            edge_map.extend(
                row.iter().filter(|a| a.neighbor > v && marks.contains(a.neighbor)).map(|a| a.edge),
            );
        }
        edge_map.sort_unstable();
        let mut max_weight = 0;
        let edges: Vec<Edge> = edge_map
            .iter()
            .map(|&e| {
                let Edge { u, v, w } = self.edges[e.index()];
                max_weight = max_weight.max(w);
                Edge { u: NodeId(marks.local[u.index()]), v: NodeId(marks.local[v.index()]), w }
            })
            .collect();
        let sub = Graph::from_valid_edges(members.len() as u32, edges, max_weight);
        // The caller keeps an exact-size copy; the scratch keeps its capacity.
        let out = edge_map.clone();
        marks.edges = edge_map;
        (sub, out)
    }

    /// Total size of the graph representation, `n + m`, a convenient proxy for
    /// work bounds in tests.
    pub fn size(&self) -> usize {
        self.node_count as usize + self.edges.len()
    }
}

/// An epoch-stamped node-subset column for one graph: which nodes belong to
/// the current subset, and each member's index in it. Re-marking costs the
/// new subset, not `n` — the device that lets a recursion build thousands of
/// induced subgraphs ([`Graph::induced_on`]) and membership tests out of one
/// allocation.
#[derive(Debug, Clone)]
pub struct SubsetMarks {
    epoch: u32,
    /// `stamp[v] == epoch` iff `v` is in the current subset.
    stamp: Vec<u32>,
    /// The index of `v` in the current subset (valid iff stamped).
    local: Vec<u32>,
    /// Edge-id scratch of [`Graph::induced_on`].
    edges: Vec<EdgeId>,
    adjacency_scanned: u64,
}

impl SubsetMarks {
    /// An empty subset of the nodes `0..n`.
    pub fn new(n: usize) -> SubsetMarks {
        SubsetMarks {
            epoch: 0,
            stamp: vec![0; n],
            local: vec![0; n],
            edges: Vec::new(),
            adjacency_scanned: 0,
        }
    }

    /// Makes `members` the current subset (forgetting the previous one):
    /// `members[i]` gets local index `i`.
    ///
    /// # Panics
    ///
    /// Panics if a member is out of range.
    pub fn mark(&mut self, members: &[NodeId]) {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        for (i, &v) in members.iter().enumerate() {
            self.stamp[v.index()] = self.epoch;
            self.local[v.index()] = i as u32;
        }
    }

    /// Whether `v` is in the current subset.
    pub fn contains(&self, v: NodeId) -> bool {
        self.stamp[v.index()] == self.epoch
    }

    /// The index of `v` in the current subset, if it is a member.
    pub fn local(&self, v: NodeId) -> Option<u32> {
        self.contains(v).then(|| self.local[v.index()])
    }

    /// Adjacency entries read by every [`Graph::induced_on`] that used these
    /// marks — a deterministic work counter (host cost without a clock).
    pub fn adjacency_scanned(&self) -> u64 {
        self.adjacency_scanned
    }
}

/// Incremental builder for [`Graph`] (see [`Graph::builder`]).
///
/// The builder only collects (validated) edges; [`GraphBuilder::build`] lays
/// the adjacency out in CSR form in one `O(n + m)` counting pass, each
/// node's run in edge-insertion order.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    node_count: u32,
    edges: Vec<Edge>,
    max_weight: Weight,
}

impl GraphBuilder {
    /// Adds an undirected edge `{u, v}` with weight `w`.
    ///
    /// # Errors
    ///
    /// Returns an error if an endpoint is out of range, `u == v`, or the
    /// weight exceeds [`Graph::MAX_WEIGHT`].
    pub fn add_edge(&mut self, u: u32, v: u32, w: Weight) -> Result<EdgeId, GraphError> {
        let n = self.node_count;
        if u >= n {
            return Err(GraphError::NodeOutOfRange { node: u, node_count: n });
        }
        if v >= n {
            return Err(GraphError::NodeOutOfRange { node: v, node_count: n });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        if w > Graph::MAX_WEIGHT {
            return Err(GraphError::WeightOutOfRange { weight: w, max: Graph::MAX_WEIGHT });
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge { u: NodeId(u), v: NodeId(v), w });
        self.max_weight = self.max_weight.max(w);
        Ok(id)
    }

    /// Finishes building and returns the graph, laying the adjacency out in
    /// the CSR layout.
    pub fn build(self) -> Graph {
        Graph::from_valid_edges(self.node_count, self.edges, self.max_weight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, [(0, 1, 1), (1, 2, 2), (0, 2, 10)]).unwrap()
    }

    #[test]
    fn basic_counts_and_degrees() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
        assert_eq!(g.max_weight(), 10);
        assert_eq!(g.distance_upper_bound(), 30);
    }

    #[test]
    fn adjacency_is_symmetric() {
        let g = triangle();
        for e in g.edges() {
            assert!(g.neighbors(e.u).iter().any(|a| a.neighbor == e.v && a.weight == e.w));
            assert!(g.neighbors(e.v).iter().any(|a| a.neighbor == e.u && a.weight == e.w));
        }
    }

    #[test]
    fn rejects_bad_edges() {
        let mut b = Graph::builder(2);
        assert!(matches!(
            b.add_edge(0, 5, 1),
            Err(GraphError::NodeOutOfRange { node: 5, node_count: 2 })
        ));
        assert!(matches!(b.add_edge(1, 1, 1), Err(GraphError::SelfLoop { node: 1 })));
        assert!(matches!(
            b.add_edge(0, 1, Graph::MAX_WEIGHT + 1),
            Err(GraphError::WeightOutOfRange { .. })
        ));
        // The builder remains usable after errors.
        b.add_edge(0, 1, 3).unwrap();
        assert_eq!(b.build().edge_count(), 1);
    }

    #[test]
    fn parallel_edges_are_allowed_and_edge_weight_takes_min() {
        let g = Graph::from_edges(2, [(0, 1, 5), (0, 1, 3)]).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.edge_weight(NodeId(0), NodeId(1)), Some(3));
        assert!(g.has_edge(NodeId(0), NodeId(1)));
    }

    #[test]
    fn zero_weight_edges_are_allowed() {
        let g = Graph::from_edges(2, [(0, 1, 0)]).unwrap();
        assert_eq!(g.edge_weight(NodeId(0), NodeId(1)), Some(0));
        assert_eq!(g.max_weight(), 0);
        // The distance upper bound is still positive.
        assert!(g.distance_upper_bound() >= 1);
    }

    #[test]
    fn edge_other_endpoint() {
        let e = Edge { u: NodeId(3), v: NodeId(7), w: 1 };
        assert_eq!(e.other(NodeId(3)), NodeId(7));
        assert_eq!(e.other(NodeId(7)), NodeId(3));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn edge_other_panics_for_non_endpoint() {
        let e = Edge { u: NodeId(3), v: NodeId(7), w: 1 };
        let _ = e.other(NodeId(0));
    }

    #[test]
    fn induced_subgraph_renumbers_and_keeps_internal_edges() {
        let g =
            Graph::from_edges(5, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4), (0, 4, 5)]).unwrap();
        let keep: BTreeSet<NodeId> = [NodeId(1), NodeId(2), NodeId(3)].into_iter().collect();
        let (sub, map) = g.induced_subgraph(&keep);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edge_count(), 2); // edges (1,2) and (2,3)
        assert_eq!(map, vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert!(sub.has_edge(NodeId(0), NodeId(1)));
        assert!(sub.has_edge(NodeId(1), NodeId(2)));
        assert!(!sub.has_edge(NodeId(0), NodeId(2)));
    }

    /// An edge as `Graph::from_edges` takes it.
    type Triple = (u32, u32, Weight);

    /// Graph construction as it was before the counting pass: one `Vec` of
    /// adjacency entries per node, flattened at the end. The reference
    /// [`Graph::from_valid_edges`] must stay bit-identical to.
    fn graph_via_rows(n: u32, triples: &[Triple]) -> Graph {
        let mut rows: Vec<Vec<Adjacency>> = vec![Vec::new(); n as usize];
        let mut edges = Vec::new();
        for (id, &(u, v, w)) in triples.iter().enumerate() {
            let (u, v, edge) = (NodeId(u), NodeId(v), EdgeId(id as u32));
            edges.push(Edge { u, v, w });
            rows[u.index()].push(Adjacency { neighbor: v, edge, weight: w });
            rows[v.index()].push(Adjacency { neighbor: u, edge, weight: w });
        }
        let mut adj_offsets = vec![0];
        let mut adjacency = Vec::new();
        for row in &rows {
            adjacency.extend_from_slice(row);
            adj_offsets.push(adjacency.len() as u32);
        }
        let max_weight = triples.iter().map(|t| t.2).max().unwrap_or(0);
        Graph { node_count: n, edges, adj_offsets, adjacency, max_weight }
    }

    /// Induced subgraphs as they were built before [`Graph::induced_on`]: a
    /// scan of every edge of the graph through an `n`-sized renumbering.
    fn induced_reference(g: &Graph, keep: &BTreeSet<NodeId>) -> (Graph, Vec<NodeId>, Vec<EdgeId>) {
        let mut old_to_new = vec![u32::MAX; g.node_count() as usize];
        let node_map: Vec<NodeId> = keep.iter().copied().collect();
        for (i, v) in node_map.iter().enumerate() {
            old_to_new[v.index()] = i as u32;
        }
        let (mut triples, mut edge_map) = (Vec::new(), Vec::new());
        for e in g.edge_ids() {
            let Edge { u, v, w } = g.edge(e);
            let (nu, nv) = (old_to_new[u.index()], old_to_new[v.index()]);
            if nu != u32::MAX && nv != u32::MAX {
                triples.push((nu, nv, w));
                edge_map.push(e);
            }
        }
        (graph_via_rows(keep.len() as u32, &triples), node_map, edge_map)
    }

    /// Small graphs with the awkward features: parallel edges, both edge
    /// orientations, isolated nodes, several components, zero weights.
    fn construction_cases() -> Vec<(u32, Vec<Triple>)> {
        let mut cases = vec![
            (0, vec![]),
            (1, vec![]),
            (4, vec![]),
            (3, vec![(0, 1, 9), (1, 2, 1), (0, 1, 2), (2, 0, 5)]),
            (6, vec![(5, 0, 3), (0, 5, 3), (5, 0, 0), (2, 3, 7)]),
        ];
        // A pseudo-random multigraph, deterministic without a generator.
        let mut x = 12345u32;
        let mut next = |bound: u32| {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            (x >> 8) % bound
        };
        let mut random = Vec::new();
        while random.len() < 90 {
            let (u, v) = (next(25), next(25));
            if u != v {
                random.push((u, v, Weight::from(next(20))));
            }
        }
        cases.push((25, random));
        cases
    }

    #[test]
    fn the_counting_pass_builds_what_per_node_rows_built() {
        for (n, triples) in construction_cases() {
            let built = Graph::from_edges(n, triples.iter().copied()).unwrap();
            assert_eq!(built, graph_via_rows(n, &triples), "{n} nodes, {triples:?}");
        }
    }

    #[test]
    fn induced_on_equals_the_whole_graph_scan() {
        for (n, triples) in construction_cases() {
            let g = Graph::from_edges(n, triples.iter().copied()).unwrap();
            let mut marks = SubsetMarks::new(n as usize);
            let everyone: BTreeSet<NodeId> = g.nodes().collect();
            let mut subsets = vec![BTreeSet::new(), everyone.clone()];
            subsets.extend(g.nodes().map(|v| BTreeSet::from([v])));
            for stride in [2, 3] {
                for phase in 0..stride {
                    subsets.push(g.nodes().filter(|v| v.0 % stride == phase).collect());
                }
            }
            subsets.push(g.nodes().filter(|v| v.0 < n / 2).collect());
            let mut volume = 0;
            for keep in &subsets {
                let members: Vec<NodeId> = keep.iter().copied().collect();
                volume += members.iter().map(|&v| g.degree(v) as u64).sum::<u64>();
                let (sub, edge_map) = g.induced_on(&members, &mut marks);
                let expected = induced_reference(&g, keep);
                assert_eq!((sub, members, edge_map), expected, "subset {keep:?} of {triples:?}");
                // The marks are left on the subset, with its local indices.
                for v in g.nodes() {
                    let position = keep.iter().position(|&k| k == v).map(|i| i as u32);
                    assert_eq!(marks.local(v), position);
                }
                let (sub, node_map) = g.induced_subgraph(keep);
                assert_eq!((&sub, &node_map), (&expected.0, &expected.1));
            }
            assert_eq!(
                marks.adjacency_scanned(),
                volume,
                "an induced build reads its members' rows"
            );
        }
    }

    #[test]
    fn subset_marks_survive_an_epoch_wrap() {
        let mut marks = SubsetMarks::new(4);
        marks.mark(&[NodeId(1), NodeId(3)]);
        marks.epoch = u32::MAX;
        marks.stamp[2] = u32::MAX; // a stale stamp that a bare wrap would revive
        marks.mark(&[NodeId(0)]);
        assert!(marks.contains(NodeId(0)));
        assert!(!marks.contains(NodeId(1)) && !marks.contains(NodeId(2)));
        assert_eq!(marks.local(NodeId(0)), Some(0));
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(4);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_weight(), 0);
        assert_eq!(g.nodes().count(), 4);
        assert_eq!(g.edge_ids().count(), 0);
    }

    #[test]
    fn csr_adjacency_preserves_insertion_order_and_is_contiguous() {
        // Parallel edges and interleaved insertion: each node's slice must
        // list its entries in the order its edges were added.
        let g = Graph::from_edges(3, [(0, 1, 9), (1, 2, 1), (0, 1, 2), (2, 0, 5)]).unwrap();
        let order: Vec<EdgeId> = g.neighbors(NodeId(1)).iter().map(|a| a.edge).collect();
        assert_eq!(order, vec![EdgeId(0), EdgeId(1), EdgeId(2)]);
        let order: Vec<EdgeId> = g.neighbors(NodeId(0)).iter().map(|a| a.edge).collect();
        assert_eq!(order, vec![EdgeId(0), EdgeId(2), EdgeId(3)]);
        // The flat array holds exactly 2m entries, grouped by node id.
        let total: usize = g.nodes().map(|v| g.degree(v)).sum();
        assert_eq!(total, 2 * g.edge_count() as usize);
        let flat: Vec<Adjacency> = g.nodes().flat_map(|v| g.neighbors(v).iter().copied()).collect();
        assert_eq!(flat.len(), total);
        // `csr` is that array, and each node's run sits at its offset.
        let (offsets, entries) = g.csr();
        assert_eq!((offsets.len(), entries), (4, &flat[..]));
        for v in g.nodes() {
            let run = offsets[v.index()] as usize..offsets[v.index() + 1] as usize;
            assert_eq!(&entries[run], g.neighbors(v));
        }
    }

    #[test]
    fn display_of_ids() {
        assert_eq!(NodeId(4).to_string(), "v4");
        assert_eq!(EdgeId(2).to_string(), "e2");
    }
}
