//! Sequential reference algorithms used as ground truth for the distributed
//! implementations: Dijkstra, Bellman–Ford, BFS and connected components.
//!
//! Everything in this module is *centralized* — it sees the whole graph at
//! once — and exists so that tests can check the distributed algorithms
//! against an independent implementation.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::radix_heap::RadixHeap;
use crate::{Distance, Graph, NodeId, Weight};

/// The result of a single-source / closest-source shortest-path computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShortestPaths {
    /// `distances[v]` is the distance from the closest source to node `v`.
    pub distances: Vec<Distance>,
    /// `parents[v]` is the predecessor of `v` on a shortest path from the
    /// closest source (or `None` for sources and unreachable nodes).
    pub parents: Vec<Option<NodeId>>,
}

impl ShortestPaths {
    /// The distance to node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn distance(&self, v: NodeId) -> Distance {
        self.distances[v.index()]
    }

    /// Reconstructs a shortest path from a source to `v` by following parent
    /// pointers, returning `None` if `v` is unreachable.
    pub fn path_to(&self, v: NodeId) -> Option<Vec<NodeId>> {
        if self.distances[v.index()].is_infinite() {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while let Some(p) = self.parents[cur.index()] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        Some(path)
    }

    /// Number of nodes with a finite distance.
    pub fn reached_count(&self) -> usize {
        self.distances.iter().filter(|d| d.is_finite()).count()
    }
}

/// Closest-source shortest paths by Dijkstra's algorithm on a monotone radix
/// heap — the workspace's default truth oracle.
///
/// Works for any non-negative integer weights (including zero). With a single
/// source this is ordinary SSSP; with several sources it computes
/// `dist(S, v) = min_{s in S} dist(s, v)` — the CSSP problem of the paper.
/// Pop order (and therefore parent pointers) is bit-identical to the retained
/// binary-heap reference [`dijkstra_binary_heap`]: both settle in
/// lexicographic `(dist, node)` order. The equivalence is pinned across every
/// generator family by `tests/radix_differential.rs`.
///
/// # Panics
///
/// Panics if any source id is out of range.
pub fn dijkstra(g: &Graph, sources: &[NodeId]) -> ShortestPaths {
    let n = g.node_count() as usize;
    let mut dist = vec![Distance::Infinite; n];
    let mut parent = vec![None; n];
    let mut heap = RadixHeap::new();
    dijkstra_into(g, sources, &mut heap, &mut dist, &mut parent);
    ShortestPaths { distances: dist, parents: parent }
}

/// The radix-heap Dijkstra core over caller-owned buffers, so [`all_pairs`]
/// can reuse one heap and one distance/parent workspace across its `n` runs.
/// Expects `dist` all-`Infinite`, `parent` all-`None`, and `heap` empty.
fn dijkstra_into(
    g: &Graph,
    sources: &[NodeId],
    heap: &mut RadixHeap,
    dist: &mut [Distance],
    parent: &mut [Option<NodeId>],
) {
    for &s in sources {
        assert!(g.contains_node(s), "source {s} out of range");
        dist[s.index()] = Distance::ZERO;
        heap.push(0, s.0);
    }
    while let Some((d, v)) = heap.pop() {
        let v = NodeId(v);
        if Distance::Finite(d) > dist[v.index()] {
            continue;
        }
        for adj in g.neighbors(v) {
            // Monotone invariant: nd >= d, the heap's floor after this pop.
            let nd = d.saturating_add(adj.weight);
            if Distance::Finite(nd) < dist[adj.neighbor.index()] {
                dist[adj.neighbor.index()] = Distance::Finite(nd);
                parent[adj.neighbor.index()] = Some(v);
                heap.push(nd, adj.neighbor.0);
            }
        }
    }
}

/// The retained binary-heap Dijkstra reference implementation.
///
/// [`dijkstra`] (the radix-heap default) must stay bit-identical to this —
/// distances *and* parents — on every input; `tests/radix_differential.rs`
/// pins that across all generator families, including zero weights and
/// disconnected graphs.
///
/// # Panics
///
/// Panics if any source id is out of range.
pub fn dijkstra_binary_heap(g: &Graph, sources: &[NodeId]) -> ShortestPaths {
    let n = g.node_count() as usize;
    let mut dist = vec![Distance::Infinite; n];
    let mut parent = vec![None; n];
    let mut heap: BinaryHeap<Reverse<(Weight, u32)>> = BinaryHeap::new();
    for &s in sources {
        assert!(g.contains_node(s), "source {s} out of range");
        dist[s.index()] = Distance::ZERO;
        heap.push(Reverse((0, s.0)));
    }
    while let Some(Reverse((d, v))) = heap.pop() {
        let v = NodeId(v);
        if Distance::Finite(d) > dist[v.index()] {
            continue;
        }
        for adj in g.neighbors(v) {
            let nd = d.saturating_add(adj.weight);
            if Distance::Finite(nd) < dist[adj.neighbor.index()] {
                dist[adj.neighbor.index()] = Distance::Finite(nd);
                parent[adj.neighbor.index()] = Some(v);
                heap.push(Reverse((nd, adj.neighbor.0)));
            }
        }
    }
    ShortestPaths { distances: dist, parents: parent }
}

/// Closest-source shortest paths by Bellman–Ford (`n - 1` relaxation sweeps).
///
/// Provided as an *independent* reference implementation so tests can
/// cross-check Dijkstra; also mirrors the distributed Bellman–Ford baseline.
///
/// # Panics
///
/// Panics if any source id is out of range.
pub fn bellman_ford(g: &Graph, sources: &[NodeId]) -> ShortestPaths {
    let n = g.node_count() as usize;
    let mut dist = vec![Distance::Infinite; n];
    let mut parent = vec![None; n];
    for &s in sources {
        assert!(g.contains_node(s), "source {s} out of range");
        dist[s.index()] = Distance::ZERO;
    }
    for _ in 0..n.saturating_sub(1).max(1) {
        let mut changed = false;
        for e in g.edges() {
            let du = dist[e.u.index()];
            let dv = dist[e.v.index()];
            if du.saturating_add(e.w) < dv {
                dist[e.v.index()] = du.saturating_add(e.w);
                parent[e.v.index()] = Some(e.u);
                changed = true;
            }
            let du = dist[e.u.index()];
            let dv = dist[e.v.index()];
            if dv.saturating_add(e.w) < du {
                dist[e.u.index()] = dv.saturating_add(e.w);
                parent[e.u.index()] = Some(e.v);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    ShortestPaths { distances: dist, parents: parent }
}

/// Multi-source BFS: hop distances, ignoring edge weights.
///
/// # Panics
///
/// Panics if any source id is out of range.
pub fn bfs(g: &Graph, sources: &[NodeId]) -> ShortestPaths {
    let n = g.node_count() as usize;
    let mut dist = vec![Distance::Infinite; n];
    let mut parent = vec![None; n];
    // The FIFO queue as a visit list with a head index: a node is pushed at
    // most once, so nothing is ever popped from storage.
    let mut visited = Vec::with_capacity(n);
    for &s in sources {
        assert!(g.contains_node(s), "source {s} out of range");
        if dist[s.index()].is_infinite() {
            dist[s.index()] = Distance::ZERO;
            visited.push(s);
        }
    }
    let mut head = 0;
    while head < visited.len() {
        let v = visited[head];
        head += 1;
        let dv = dist[v.index()].expect_finite();
        for adj in g.neighbors(v) {
            if dist[adj.neighbor.index()].is_infinite() {
                dist[adj.neighbor.index()] = Distance::Finite(dv + 1);
                parent[adj.neighbor.index()] = Some(v);
                visited.push(adj.neighbor);
            }
        }
    }
    ShortestPaths { distances: dist, parents: parent }
}

/// [`bfs`] as it was written over a `VecDeque`: the reference for its FIFO
/// order, which fixes the parents as well as the distances.
#[cfg(test)]
fn bfs_deque(g: &Graph, sources: &[NodeId]) -> ShortestPaths {
    let n = g.node_count() as usize;
    let mut dist = vec![Distance::Infinite; n];
    let mut parent = vec![None; n];
    let mut queue = std::collections::VecDeque::new();
    for &s in sources {
        if dist[s.index()].is_infinite() {
            dist[s.index()] = Distance::ZERO;
            queue.push_back(s);
        }
    }
    while let Some(v) = queue.pop_front() {
        let dv = dist[v.index()].expect_finite();
        for adj in g.neighbors(v) {
            if dist[adj.neighbor.index()].is_infinite() {
                dist[adj.neighbor.index()] = Distance::Finite(dv + 1);
                parent[adj.neighbor.index()] = Some(v);
                queue.push_back(adj.neighbor);
            }
        }
    }
    ShortestPaths { distances: dist, parents: parent }
}

/// All-pairs shortest paths: `result[u][v]` is `dist(u, v)`. Runs one
/// radix-heap Dijkstra per node — reusing a single heap and distance/parent
/// workspace across all `n` runs — so it is the reference for the distributed
/// APSP experiments.
pub fn all_pairs(g: &Graph) -> Vec<Vec<Distance>> {
    let n = g.node_count() as usize;
    let mut heap = RadixHeap::new();
    let mut dist = vec![Distance::Infinite; n];
    let mut parent = vec![None; n];
    let mut rows = Vec::with_capacity(n);
    for s in g.nodes() {
        heap.clear();
        dist.fill(Distance::Infinite);
        parent.fill(None);
        dijkstra_into(g, &[s], &mut heap, &mut dist, &mut parent);
        rows.push(dist.clone());
    }
    rows
}

/// The result of a connected-components computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    /// `label[v]` is the component index of node `v`, in `0..component_count`.
    pub labels: Vec<usize>,
    /// Number of connected components.
    pub component_count: usize,
}

impl Components {
    /// Returns the nodes of component `c`.
    pub fn members(&self, c: usize) -> Vec<NodeId> {
        self.labels
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l == c)
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Returns `true` if `u` and `v` are in the same component.
    pub fn same_component(&self, u: NodeId, v: NodeId) -> bool {
        self.labels[u.index()] == self.labels[v.index()]
    }
}

/// Connected components by repeated BFS.
pub fn connected_components(g: &Graph) -> Components {
    let n = g.node_count() as usize;
    let mut labels = vec![usize::MAX; n];
    let mut count = 0;
    for start in g.nodes() {
        if labels[start.index()] != usize::MAX {
            continue;
        }
        let mut queue = std::collections::VecDeque::from([start]);
        labels[start.index()] = count;
        while let Some(v) = queue.pop_front() {
            for adj in g.neighbors(v) {
                if labels[adj.neighbor.index()] == usize::MAX {
                    labels[adj.neighbor.index()] = count;
                    queue.push_back(adj.neighbor);
                }
            }
        }
        count += 1;
    }
    Components { labels, component_count: count }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn dijkstra_on_weighted_triangle() {
        let g = Graph::from_edges(3, [(0, 1, 1), (1, 2, 2), (0, 2, 10)]).unwrap();
        let sp = dijkstra(&g, &[NodeId(0)]);
        assert_eq!(sp.distance(NodeId(0)), Distance::ZERO);
        assert_eq!(sp.distance(NodeId(1)).finite(), Some(1));
        assert_eq!(sp.distance(NodeId(2)).finite(), Some(3), "goes via node 1, not the heavy edge");
        assert_eq!(sp.path_to(NodeId(2)), Some(vec![NodeId(0), NodeId(1), NodeId(2)]));
    }

    #[test]
    fn dijkstra_handles_zero_weights() {
        let g = Graph::from_edges(4, [(0, 1, 0), (1, 2, 0), (2, 3, 5)]).unwrap();
        let sp = dijkstra(&g, &[NodeId(0)]);
        assert_eq!(sp.distance(NodeId(2)).finite(), Some(0));
        assert_eq!(sp.distance(NodeId(3)).finite(), Some(5));
    }

    #[test]
    fn dijkstra_multi_source_is_min_over_sources() {
        let g = generators::path(10, 3);
        let sp = dijkstra(&g, &[NodeId(0), NodeId(9)]);
        assert_eq!(sp.distance(NodeId(4)).finite(), Some(12)); // 4 hops from 0
        assert_eq!(sp.distance(NodeId(6)).finite(), Some(9)); // 3 hops from 9
    }

    #[test]
    fn dijkstra_disconnected_nodes_are_infinite() {
        let g = generators::disjoint_copies(&generators::path(3, 1), 2);
        let sp = dijkstra(&g, &[NodeId(0)]);
        assert!(sp.distance(NodeId(5)).is_infinite());
        assert_eq!(sp.path_to(NodeId(5)), None);
        assert_eq!(sp.reached_count(), 3);
    }

    #[test]
    fn radix_and_binary_heap_dijkstra_are_bit_identical() {
        for seed in 0..4 {
            let g = generators::with_random_weights_zero(
                &generators::random_connected(50, 90, seed),
                40,
                seed,
            );
            let a = dijkstra(&g, &[NodeId(0)]);
            let b = dijkstra_binary_heap(&g, &[NodeId(0)]);
            assert_eq!(a, b, "seed {seed}: distances and parents must match bit-for-bit");
        }
    }

    #[test]
    fn bellman_ford_matches_dijkstra_on_random_graphs() {
        for seed in 0..6 {
            let g = generators::with_random_weights(
                &generators::random_connected(40, 60, seed),
                50,
                seed,
            );
            let a = dijkstra(&g, &[NodeId(0)]);
            let b = bellman_ford(&g, &[NodeId(0)]);
            assert_eq!(a.distances, b.distances, "seed {seed}");
        }
    }

    #[test]
    fn bellman_ford_multi_source_matches_dijkstra() {
        let g = generators::with_random_weights(&generators::grid(6, 6, 1), 9, 2);
        let sources = [NodeId(0), NodeId(20), NodeId(35)];
        assert_eq!(dijkstra(&g, &sources).distances, bellman_ford(&g, &sources).distances);
    }

    #[test]
    fn bfs_counts_hops_not_weights() {
        let g = Graph::from_edges(3, [(0, 1, 100), (1, 2, 100)]).unwrap();
        let sp = bfs(&g, &[NodeId(0)]);
        assert_eq!(sp.distance(NodeId(2)).finite(), Some(2));
    }

    #[test]
    fn bfs_on_unit_weights_equals_dijkstra() {
        let g = generators::erdos_renyi_gnp(40, 0.15, 5);
        assert_eq!(bfs(&g, &[NodeId(0)]).distances, dijkstra(&g, &[NodeId(0)]).distances);
    }

    #[test]
    fn bfs_keeps_the_deque_order_distances_and_parents() {
        let families = [
            generators::path(40, 1),
            generators::grid(9, 13, 1),
            generators::cycle(31, 1),
            generators::star(20, 1),
            generators::disjoint_copies(&generators::cycle(7, 1), 3),
            Graph::empty(5),
            generators::random_connected(60, 30, 1),
            generators::random_connected(64, 200, 2),
            generators::random_tree(50, 3),
            generators::erdos_renyi_gnp(40, 0.05, 5),
            generators::grid_swirl(6),
            generators::almost_line(30, 5),
            generators::broom(9, 9, 1),
            generators::barbell(8, 3, 1),
        ];
        for g in &families {
            let n = g.node_count();
            // One source, several (one of them twice), every node, none.
            let some = [NodeId(n / 2), NodeId(0), NodeId(n - 1), NodeId(n / 2)];
            let all: Vec<NodeId> = g.nodes().collect();
            for sources in [&some[..1], &some[..], &all[..], &[]] {
                assert_eq!(bfs(g, sources), bfs_deque(g, sources), "n = {n}, {sources:?}");
            }
        }
    }

    #[test]
    fn all_pairs_is_symmetric() {
        let g = generators::with_random_weights(&generators::random_connected(20, 30, 1), 20, 1);
        let apsp = all_pairs(&g);
        for (u, row) in apsp.iter().enumerate() {
            assert_eq!(row[u], Distance::ZERO);
            for (v, &d) in row.iter().enumerate() {
                assert_eq!(d, apsp[v][u], "undirected distances are symmetric");
            }
        }
    }

    #[test]
    fn components_of_disjoint_union() {
        let g = generators::disjoint_copies(&generators::cycle(4, 1), 3);
        let cc = connected_components(&g);
        assert_eq!(cc.component_count, 3);
        assert_eq!(cc.members(0).len(), 4);
        assert!(cc.same_component(NodeId(0), NodeId(3)));
        assert!(!cc.same_component(NodeId(0), NodeId(4)));
    }

    #[test]
    fn path_to_source_is_trivial() {
        let g = generators::path(4, 1);
        let sp = dijkstra(&g, &[NodeId(2)]);
        assert_eq!(sp.path_to(NodeId(2)), Some(vec![NodeId(2)]));
    }

    #[test]
    fn path_reconstruction_has_correct_length() {
        for seed in 0..4 {
            let g = generators::with_random_weights(
                &generators::random_connected(30, 50, seed),
                9,
                seed,
            );
            let sp = dijkstra(&g, &[NodeId(0)]);
            for v in g.nodes() {
                let path = sp.path_to(v).expect("connected graph");
                let mut total = 0;
                for w in path.windows(2) {
                    total += g.edge_weight(w[0], w[1]).expect("path edges exist");
                }
                // The reconstructed path weight can only match the distance
                // (parent pointers follow relaxed edges).
                assert_eq!(Distance::Finite(total), sp.distance(v));
            }
        }
    }
}
