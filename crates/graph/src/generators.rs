//! Workload generators: deterministic topologies and seeded random graphs.
//!
//! All random generators take an explicit `seed` and use a counter-mode PRNG
//! ([`rand_chacha::ChaCha8Rng`]), so every workload in the test and benchmark
//! suites is reproducible bit-for-bit.

use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::{Graph, Weight};

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// A path `0 - 1 - ... - (n-1)` with uniform edge weight `w`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn path(n: u32, w: Weight) -> Graph {
    assert!(n > 0, "a path needs at least one node");
    let mut b = Graph::builder(n);
    for i in 0..n.saturating_sub(1) {
        b.add_edge(i, i + 1, w).expect("path edges are always valid");
    }
    b.build()
}

/// A cycle on `n >= 3` nodes with uniform edge weight `w`.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: u32, w: Weight) -> Graph {
    assert!(n >= 3, "a cycle needs at least three nodes");
    let mut b = Graph::builder(n);
    for i in 0..n {
        b.add_edge(i, (i + 1) % n, w).expect("cycle edges are always valid");
    }
    b.build()
}

/// A star: node 0 connected to nodes `1..n`, uniform weight `w`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn star(n: u32, w: Weight) -> Graph {
    assert!(n > 0, "a star needs at least one node");
    let mut b = Graph::builder(n);
    for i in 1..n {
        b.add_edge(0, i, w).expect("star edges are always valid");
    }
    b.build()
}

/// The complete graph `K_n` with uniform weight `w`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn complete(n: u32, w: Weight) -> Graph {
    assert!(n > 0, "a complete graph needs at least one node");
    let mut b = Graph::builder(n);
    for i in 0..n {
        for j in (i + 1)..n {
            b.add_edge(i, j, w).expect("complete-graph edges are always valid");
        }
    }
    b.build()
}

/// A `rows x cols` 2-D grid with uniform weight `w`. Node `(r, c)` has id
/// `r * cols + c`.
///
/// # Panics
///
/// Panics if `rows == 0` or `cols == 0`.
pub fn grid(rows: u32, cols: u32, w: Weight) -> Graph {
    assert!(rows > 0 && cols > 0, "a grid needs positive dimensions");
    let mut b = Graph::builder(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let id = r * cols + c;
            if c + 1 < cols {
                b.add_edge(id, id + 1, w).expect("grid edges are always valid");
            }
            if r + 1 < rows {
                b.add_edge(id, id + cols, w).expect("grid edges are always valid");
            }
        }
    }
    b.build()
}

/// A complete binary tree with `n` nodes (node `i` has children `2i+1`,
/// `2i+2`), uniform weight `w`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn binary_tree(n: u32, w: Weight) -> Graph {
    assert!(n > 0, "a tree needs at least one node");
    let mut b = Graph::builder(n);
    for i in 1..n {
        b.add_edge(i, (i - 1) / 2, w).expect("tree edges are always valid");
    }
    b.build()
}

/// A uniformly random labelled tree on `n` nodes (random Prüfer-like
/// attachment), unit weights, seeded.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_tree(n: u32, seed: u64) -> Graph {
    assert!(n > 0, "a tree needs at least one node");
    let mut r = rng(seed);
    let mut b = Graph::builder(n);
    // Random attachment: node i attaches to a uniformly random earlier node.
    for i in 1..n {
        let parent = r.gen_range(0..i);
        b.add_edge(i, parent, 1).expect("tree edges are always valid");
    }
    b.build()
}

/// Erdős–Rényi `G(n, p)`: each of the `n(n-1)/2` possible edges is present
/// independently with probability `p`, unit weights, seeded.
///
/// # Panics
///
/// Panics if `n == 0` or `p` is not in `[0, 1]`.
pub fn erdos_renyi_gnp(n: u32, p: f64, seed: u64) -> Graph {
    assert!(n > 0, "G(n, p) needs at least one node");
    assert!((0.0..=1.0).contains(&p), "p must be in [0, 1]");
    let mut r = rng(seed);
    let mut b = Graph::builder(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if r.gen_bool(p) {
                b.add_edge(i, j, 1).expect("G(n, p) edges are always valid");
            }
        }
    }
    b.build()
}

/// Erdős–Rényi `G(n, m)`: exactly `m` distinct edges chosen uniformly at
/// random (capped at `n(n-1)/2`), unit weights, seeded.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn erdos_renyi_gnm(n: u32, m: u64, seed: u64) -> Graph {
    assert!(n > 0, "G(n, m) needs at least one node");
    let mut r = rng(seed);
    let all_pairs = (n as u64) * (n as u64 - 1) / 2;
    let m = m.min(all_pairs);
    let mut chosen = std::collections::BTreeSet::new();
    let mut b = Graph::builder(n);
    while (chosen.len() as u64) < m {
        let u = r.gen_range(0..n);
        let v = r.gen_range(0..n);
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if chosen.insert(key) {
            b.add_edge(key.0, key.1, 1).expect("G(n, m) edges are always valid");
        }
    }
    b.build()
}

/// A connected random graph: a random spanning tree plus `extra_edges`
/// additional uniformly random non-duplicate edges, unit weights, seeded.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_connected(n: u32, extra_edges: u64, seed: u64) -> Graph {
    assert!(n > 0, "a connected graph needs at least one node");
    let mut r = rng(seed);
    let mut b = Graph::builder(n);
    let mut present = std::collections::BTreeSet::new();
    // Spanning tree by random attachment over a random permutation of labels,
    // so that the tree is not biased toward small ids.
    let mut order: Vec<u32> = (0..n).collect();
    order.shuffle(&mut r);
    for i in 1..n as usize {
        let parent = order[r.gen_range(0..i)];
        let child = order[i];
        let key = (parent.min(child), parent.max(child));
        present.insert(key);
        b.add_edge(key.0, key.1, 1).expect("tree edges are always valid");
    }
    let all_pairs = (n as u64) * (n as u64 - 1) / 2;
    let target = (present.len() as u64).saturating_add(extra_edges).min(all_pairs);
    let mut guard = 0u64;
    while (present.len() as u64) < target && guard < target.saturating_mul(100).saturating_add(1000)
    {
        guard += 1;
        let u = r.gen_range(0..n);
        let v = r.gen_range(0..n);
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if present.insert(key) {
            b.add_edge(key.0, key.1, 1).expect("extra edges are always valid");
        }
    }
    b.build()
}

/// A barbell: two cliques `K_k` joined through a path of `bridge_nodes`
/// intermediate nodes (a direct edge if `bridge_nodes == 0`), uniform weight
/// `w`. A classic high-congestion / bottleneck topology.
///
/// Nodes `0..k` form the left clique, nodes `k..k+bridge_nodes` form the
/// bridge, and the remaining `k` nodes form the right clique.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn barbell(k: u32, bridge_nodes: u32, w: Weight) -> Graph {
    assert!(k > 0, "a barbell needs non-empty cliques");
    let n = 2 * k + bridge_nodes;
    let right_start = k + bridge_nodes;
    let mut b = Graph::builder(n);
    for i in 0..k {
        for j in (i + 1)..k {
            b.add_edge(i, j, w).expect("clique edges are always valid");
            b.add_edge(right_start + i, right_start + j, w).expect("clique edges are always valid");
        }
    }
    // Bridge path from the last left-clique node to the first right-clique node.
    let mut prev = k - 1;
    for x in k..=right_start {
        if x != prev {
            b.add_edge(prev, x, w).expect("bridge edges are always valid");
            prev = x;
        }
    }
    b.build()
}

/// A "broom": a path of length `handle_len` whose last node fans out to
/// `bristles` leaves. Useful as a high-diameter, uneven-degree workload.
///
/// # Panics
///
/// Panics if `handle_len == 0`.
pub fn broom(handle_len: u32, bristles: u32, w: Weight) -> Graph {
    assert!(handle_len > 0, "a broom needs a handle");
    let n = handle_len + bristles;
    let mut b = Graph::builder(n);
    for i in 0..handle_len - 1 {
        b.add_edge(i, i + 1, w).expect("handle edges are always valid");
    }
    for j in 0..bristles {
        b.add_edge(handle_len - 1, handle_len + j, w).expect("bristle edges are always valid");
    }
    b.build()
}

/// Replaces every edge weight with a uniform random integer in
/// `[1, max_weight]`, seeded. Topology is preserved.
///
/// # Panics
///
/// Panics if `max_weight == 0`.
pub fn with_random_weights(g: &Graph, max_weight: Weight, seed: u64) -> Graph {
    assert!(max_weight >= 1, "max_weight must be at least 1");
    let mut r = rng(seed);
    let mut b = Graph::builder(g.node_count());
    for e in g.edges() {
        let w = r.gen_range(1..=max_weight);
        b.add_edge(e.u.0, e.v.0, w).expect("re-weighted edges are always valid");
    }
    b.build()
}

/// Replaces every edge weight with a uniform random integer in
/// `[0, max_weight]` (zero allowed), seeded. Topology is preserved.
pub fn with_random_weights_zero(g: &Graph, max_weight: Weight, seed: u64) -> Graph {
    let mut r = rng(seed);
    let mut b = Graph::builder(g.node_count());
    for e in g.edges() {
        let w = r.gen_range(0..=max_weight);
        b.add_edge(e.u.0, e.v.0, w).expect("re-weighted edges are always valid");
    }
    b.build()
}

// ---------------------------------------------------------------------------
// Killer families: adversarial topologies engineered to punish specific
// shortest-path strategies. Used by the differential proptests and the chaos
// campaign — see `docs/SEQ_BASELINES.md` for the gallery and the attack each
// family mounts.
// ---------------------------------------------------------------------------

/// A decrease-key storm: the complete graph on `n` nodes with
/// `w(i, j) = n·(j-i) - i` for `i < j` (all weights positive and pairwise
/// distinct). From source 0 the settle order is `0, 1, 2, …`, and every
/// settled node `i` improves the tentative distance of *every* later node by
/// exactly `i` — so a Dijkstra run performs `Θ(n²)` distance improvements and
/// queues `Θ(n²)` entries. This is the dense family on which the radix heap
/// beats the binary heap by the widest margin, and the classic counterexample
/// to "greedy without a priority queue" (hence the name).
///
/// # Panics
///
/// Panics if `n < 2` or the largest weight `n·(n-1)` exceeds
/// [`Graph::MAX_WEIGHT`].
pub fn wrong_dijkstra_killer(n: u32) -> Graph {
    assert!(n >= 2, "the killer needs at least two nodes");
    let c = n as Weight;
    assert!(
        c * (c - 1) <= Graph::MAX_WEIGHT,
        "n too large: weights would exceed Graph::MAX_WEIGHT"
    );
    let mut b = Graph::builder(n);
    for i in 0..n {
        for j in (i + 1)..n {
            let w = c * (j - i) as Weight - i as Weight;
            b.add_edge(i, j, w).expect("killer edges are always valid");
        }
    }
    b.build()
}

/// A Bellman–Ford / SPFA worst case on `2k` nodes: a unit-weight path
/// `0 - 1 - … - (2k-1)` whose edges are *inserted in reverse order*, so each
/// relaxation sweep over the edge list advances the frontier by exactly one
/// hop (`Θ(n)` sweeps, `Θ(n·m)` work, defeating the early-exit), plus one
/// shortcut `(0, i)` of weight `i + k` for every node `i` in the far half —
/// finite overestimates that arrive instantly and then must be improved hop
/// by hop, sweep after sweep.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn spfa_killer(k: u32) -> Graph {
    assert!(k > 0, "the SPFA killer needs a positive half-length");
    let n = 2 * k;
    let mut b = Graph::builder(n);
    for i in (0..n - 1).rev() {
        b.add_edge(i, i + 1, 1).expect("path edges are always valid");
    }
    for i in k..n {
        b.add_edge(0, i, (i + k) as Weight).expect("shortcut edges are always valid");
    }
    b.build()
}

/// A `side × side` grid whose shortest paths spiral: edges between two nodes
/// of the same ring (ring = distance to the nearest border) cost 1, edges
/// that cross rings cost `side²`. Geometrically adjacent nodes can be very
/// far apart distance-wise, so any heuristic that trusts grid locality (or a
/// heap that likes shallow keys) is punished; node `(r, c)` has id
/// `r·side + c` as in [`grid`].
///
/// # Panics
///
/// Panics if `side == 0`.
pub fn grid_swirl(side: u32) -> Graph {
    assert!(side > 0, "a grid needs a positive side");
    let ring = |r: u32, c: u32| r.min(c).min(side - 1 - r).min(side - 1 - c);
    let cross = (side as Weight) * (side as Weight);
    let mut b = Graph::builder(side * side);
    for r in 0..side {
        for c in 0..side {
            let id = r * side + c;
            if c + 1 < side {
                let w = if ring(r, c) == ring(r, c + 1) { 1 } else { cross };
                b.add_edge(id, id + 1, w).expect("grid edges are always valid");
            }
            if r + 1 < side {
                let w = if ring(r, c) == ring(r + 1, c) { 1 } else { cross };
                b.add_edge(id, id + side, w).expect("grid edges are always valid");
            }
        }
    }
    b.build()
}

/// An almost-line: a path `0 - 1 - … - (n-1)` with seeded random weights in
/// `[1, 16]`, plus `n/32 + 1` seeded random long-range chords of weight in
/// `[1, 1024]` (possibly parallel to existing edges — this is a multigraph).
/// Maximal diameter with just enough shortcuts that tentative distances keep
/// being revised long after the frontier passed by.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn almost_line(n: u32, seed: u64) -> Graph {
    assert!(n >= 2, "an almost-line needs at least two nodes");
    let mut r = rng(seed);
    let mut b = Graph::builder(n);
    for i in 0..n - 1 {
        let w = r.gen_range(1..=16);
        b.add_edge(i, i + 1, w).expect("path edges are always valid");
    }
    for _ in 0..(n / 32 + 1) {
        let u = r.gen_range(0..n);
        let v = loop {
            let v = r.gen_range(0..n);
            if v != u {
                break v;
            }
        };
        let w = r.gen_range(1..=1024);
        b.add_edge(u, v, w).expect("chord edges are always valid");
    }
    b.build()
}

/// Max-dense: the complete graph on `n` nodes with seeded random weights in
/// `[1, Graph::MAX_WEIGHT]`. The near-max weight range spreads keys across
/// the full 41-bit distance spectrum, stressing every level of the radix
/// heap's bucket hierarchy.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn max_dense(n: u32, seed: u64) -> Graph {
    assert!(n > 0, "a complete graph needs at least one node");
    let mut r = rng(seed);
    let mut b = Graph::builder(n);
    for i in 0..n {
        for j in (i + 1)..n {
            let w = r.gen_range(1..=Graph::MAX_WEIGHT);
            b.add_edge(i, j, w).expect("complete-graph edges are always valid");
        }
    }
    b.build()
}

/// Max-dense with zeros: the complete graph on `n` nodes with seeded random
/// weights in `[0, 3]`. Almost every relaxation ties or near-ties, so the
/// `(dist, node)` tie-break rule carries the entire determinism burden —
/// the sharpest test that the radix heap's bucket-0 scan reproduces the
/// binary heap's pop order.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn max_dense_zero(n: u32, seed: u64) -> Graph {
    assert!(n > 0, "a complete graph needs at least one node");
    let mut r = rng(seed);
    let mut b = Graph::builder(n);
    for i in 0..n {
        for j in (i + 1)..n {
            let w = r.gen_range(0..=3);
            b.add_edge(i, j, w).expect("complete-graph edges are always valid");
        }
    }
    b.build()
}

/// A disjoint union of `parts` copies of `g` (no edges between copies); useful
/// for exercising multi-component behaviour (maximal *forests*, per-component
/// coordination).
///
/// # Panics
///
/// Panics if `parts == 0`.
pub fn disjoint_copies(g: &Graph, parts: u32) -> Graph {
    assert!(parts > 0, "need at least one copy");
    let n = g.node_count();
    let mut b = Graph::builder(n * parts);
    for p in 0..parts {
        let off = p * n;
        for e in g.edges() {
            b.add_edge(e.u.0 + off, e.v.0 + off, e.w).expect("copied edges are always valid");
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential;

    #[test]
    fn path_shape() {
        let g = path(5, 2);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(crate::NodeId(0)), 1);
        assert_eq!(g.degree(crate::NodeId(2)), 2);
    }

    #[test]
    fn single_node_path() {
        let g = path(1, 1);
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(6, 1);
        assert_eq!(g.edge_count(), 6);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
    }

    #[test]
    fn star_shape() {
        let g = star(7, 1);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.degree(crate::NodeId(0)), 6);
        assert_eq!(g.degree(crate::NodeId(3)), 1);
    }

    #[test]
    fn complete_shape() {
        let g = complete(5, 1);
        assert_eq!(g.edge_count(), 10);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 4);
        }
    }

    #[test]
    fn grid_shape_and_distances() {
        let g = grid(3, 4, 1);
        assert_eq!(g.node_count(), 12);
        // 3*(4-1) horizontal + (3-1)*4 vertical = 9 + 8 = 17
        assert_eq!(g.edge_count(), 17);
        let d = sequential::bfs(&g, &[crate::NodeId(0)]);
        assert_eq!(d.distances[11].finite(), Some(5)); // (2,3): 2 + 3
    }

    #[test]
    fn binary_tree_is_a_tree() {
        let g = binary_tree(15, 1);
        assert_eq!(g.edge_count(), 14);
        assert_eq!(sequential::connected_components(&g).component_count, 1);
    }

    #[test]
    fn random_tree_is_connected_tree() {
        for seed in 0..5 {
            let g = random_tree(40, seed);
            assert_eq!(g.edge_count(), 39);
            assert_eq!(sequential::connected_components(&g).component_count, 1);
        }
    }

    #[test]
    fn gnp_edge_count_reasonable_and_reproducible() {
        let a = erdos_renyi_gnp(50, 0.2, 7);
        let b = erdos_renyi_gnp(50, 0.2, 7);
        assert_eq!(a, b, "same seed gives identical graph");
        let c = erdos_renyi_gnp(50, 0.2, 8);
        assert_ne!(a, c, "different seeds differ (overwhelmingly likely)");
        // Expected 0.2 * 1225 = 245; allow wide tolerance.
        assert!(a.edge_count() > 120 && a.edge_count() < 400);
    }

    #[test]
    fn gnp_extremes() {
        assert_eq!(erdos_renyi_gnp(10, 0.0, 1).edge_count(), 0);
        assert_eq!(erdos_renyi_gnp(10, 1.0, 1).edge_count(), 45);
    }

    #[test]
    fn gnm_has_exactly_m_edges() {
        let g = erdos_renyi_gnm(30, 100, 3);
        assert_eq!(g.edge_count(), 100);
        // Requesting more than the max is capped.
        let g = erdos_renyi_gnm(5, 1000, 3);
        assert_eq!(g.edge_count(), 10);
    }

    #[test]
    fn random_connected_is_connected() {
        for seed in 0..5 {
            let g = random_connected(64, 100, seed);
            assert_eq!(sequential::connected_components(&g).component_count, 1);
            assert!(g.edge_count() >= 63);
        }
    }

    #[test]
    fn random_connected_caps_a_huge_edge_request_at_the_complete_graph() {
        // `tree edges + extra_edges` used to overflow: a panic in debug
        // builds, the bare spanning tree in release.
        for seed in 0..4 {
            let g = random_connected(8, u64::MAX, seed);
            assert_eq!(g.edge_count(), 28);
            assert_eq!(g, random_connected(8, 28, seed), "seed {seed}");
        }
    }

    #[test]
    fn barbell_is_connected_with_bottleneck() {
        let g = barbell(5, 4, 1);
        assert_eq!(sequential::connected_components(&g).component_count, 1);
        // Two K_5s => 2 * 10 clique edges, plus a bridge.
        assert!(g.edge_count() >= 21);
    }

    #[test]
    fn broom_shape() {
        let g = broom(10, 6, 1);
        assert_eq!(g.node_count(), 16);
        assert_eq!(g.edge_count(), 15);
        assert_eq!(g.degree(crate::NodeId(9)), 7); // end of handle + 6 bristles
    }

    #[test]
    fn random_weights_preserve_topology() {
        let g = grid(4, 4, 1);
        let w = with_random_weights(&g, 100, 11);
        assert_eq!(g.node_count(), w.node_count());
        assert_eq!(g.edge_count(), w.edge_count());
        assert!(w.max_weight() <= 100);
        assert!(w.edges().iter().all(|e| e.w >= 1));
        let wz = with_random_weights_zero(&g, 10, 11);
        assert_eq!(wz.edge_count(), g.edge_count());
    }

    #[test]
    fn disjoint_copies_multiplies_components() {
        let g = cycle(5, 1);
        let h = disjoint_copies(&g, 3);
        assert_eq!(h.node_count(), 15);
        assert_eq!(h.edge_count(), 15);
        assert_eq!(sequential::connected_components(&h).component_count, 3);
    }

    #[test]
    #[should_panic(expected = "p must be in [0, 1]")]
    fn gnp_rejects_bad_probability() {
        let _ = erdos_renyi_gnp(10, 1.5, 0);
    }

    // --- killer-family self-checks ------------------------------------------

    #[test]
    fn wrong_dijkstra_killer_shape_and_storm() {
        let n = 32;
        let g = wrong_dijkstra_killer(n);
        assert_eq!(g.node_count(), n);
        assert_eq!(g.edge_count(), n * (n - 1) / 2);
        assert_eq!(sequential::connected_components(&g).component_count, 1);
        assert_eq!(g, wrong_dijkstra_killer(n), "deterministic construction");
        // All weights positive; settle order from 0 is 0, 1, 2, … with the
        // shortest path to i being the chain 0 → 1 → … → i.
        assert!(g.edges().iter().all(|e| e.w >= 1));
        let sp = sequential::dijkstra(&g, &[crate::NodeId(0)]);
        let c = n as Weight;
        let mut expected = 0;
        for i in 1..n as usize {
            expected += c - (i as Weight - 1); // w(i-1, i) = c·1 - (i-1)
            assert_eq!(sp.distances[i].finite(), Some(expected), "chain distance to {i}");
            assert_eq!(sp.parents[i], Some(crate::NodeId(i as u32 - 1)), "chain parent of {i}");
        }
    }

    #[test]
    fn spfa_killer_shape_and_sweep_blowup() {
        let k = 16;
        let g = spfa_killer(k);
        assert_eq!(g.node_count(), 2 * k);
        assert_eq!(g.edge_count(), (2 * k - 1) + k);
        assert_eq!(sequential::connected_components(&g).component_count, 1);
        assert_eq!(g, spfa_killer(k), "deterministic construction");
        // True distances are the unit path; shortcuts are always overestimates.
        let sp = sequential::dijkstra(&g, &[crate::NodeId(0)]);
        for i in 0..2 * k as usize {
            assert_eq!(sp.distances[i].finite(), Some(i as Weight));
        }
        assert_eq!(sequential::bellman_ford(&g, &[crate::NodeId(0)]).distances, sp.distances);
    }

    #[test]
    fn grid_swirl_shape_and_spiraling_paths() {
        let side = 8;
        let g = grid_swirl(side);
        assert_eq!(g.node_count(), side * side);
        assert_eq!(g.edge_count(), 2 * side * (side - 1));
        assert_eq!(sequential::connected_components(&g).component_count, 1);
        assert_eq!(g, grid_swirl(side), "deterministic construction");
        // Crossing from the outer ring inward costs side², so the geometric
        // neighbor (1, 1) is far while the whole outer ring is near.
        let sp = sequential::dijkstra(&g, &[crate::NodeId(0)]);
        let far_corner = side * side - 1;
        let inner = side + 1; // (1, 1), one ring in
        assert!(sp.distances[far_corner as usize] < sp.distances[inner as usize]);
    }

    #[test]
    fn almost_line_shape_and_determinism() {
        let n = 100;
        let g = almost_line(n, 5);
        assert_eq!(g.node_count(), n);
        assert_eq!(g.edge_count(), (n - 1) + (n / 32 + 1));
        assert_eq!(sequential::connected_components(&g).component_count, 1);
        assert_eq!(g, almost_line(n, 5), "same seed gives identical graph");
        assert_ne!(g, almost_line(n, 6), "different seeds differ");
    }

    #[test]
    fn max_dense_variants_shape_and_determinism() {
        let n = 20;
        let g = max_dense(n, 3);
        assert_eq!(g.node_count(), n);
        assert_eq!(g.edge_count(), n * (n - 1) / 2);
        assert_eq!(sequential::connected_components(&g).component_count, 1);
        assert_eq!(g, max_dense(n, 3), "same seed gives identical graph");
        assert_ne!(g, max_dense(n, 4), "different seeds differ");
        assert!(g.edges().iter().all(|e| e.w >= 1 && e.w <= Graph::MAX_WEIGHT));

        let z = max_dense_zero(n, 3);
        assert_eq!(z.edge_count(), n * (n - 1) / 2);
        assert_eq!(z, max_dense_zero(n, 3), "same seed gives identical graph");
        assert!(z.edges().iter().all(|e| e.w <= 3));
        assert!(z.edges().iter().any(|e| e.w == 0), "zero weights present");
    }
}
