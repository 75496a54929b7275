//! Deterministic `k`-separated weak-diameter network decomposition.
//!
//! This plays the role of the Rozhon–Ghaffari decomposition \[RG20\] in the
//! paper (Theorem 3.10). We use deterministic *ball carving*: repeatedly grow
//! a hop-distance ball from the smallest-id unassigned node in steps of `k`
//! hops until the next `k`-hop shell would not double the ball, claim the
//! interior as a cluster of the current color, and defer the shell to later
//! colors. This yields:
//!
//! * `O(log n)` colors (each color clusters at least half of the nodes that
//!   reach it),
//! * clusters of the same color at hop distance `> k` from each other in `G`,
//! * weak diameter `O(k log n)` per cluster, witnessed by a rooted BFS
//!   (Steiner) tree of depth `O(k log n)`.
//!
//! These are exactly the output properties the paper's sparse-cover and
//! low-energy constructions rely on; the substitution (a different
//! deterministic construction with the same guarantees, measured and
//! validated rather than cited) is documented in `docs/COVERS.md`, together
//! with the bounded search that makes a cluster cost the ball it explores.
//!
//! simlint: hot-path

use congest_graph::{Graph, NodeId};

use crate::cluster::{Cluster, ClusterId, ClusterTree, TreeRow};
use crate::workspace::BfsWorkspace;

/// A `k`-separated weak-diameter network decomposition: a partition of the
/// nodes into clusters, grouped into color classes, such that same-color
/// clusters are more than `k` hops apart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Decomposition {
    /// The separation parameter `k` the decomposition was built for.
    pub(crate) separation: u64,
    /// All clusters, indexed by [`ClusterId`].
    pub(crate) clusters: Vec<Cluster>,
    /// `colors[c]` lists the clusters of color `c`.
    pub(crate) colors: Vec<Vec<ClusterId>>,
    /// `home[v]` is the cluster node `v` was assigned to (the decomposition
    /// is a partition, so every node has exactly one home cluster).
    pub(crate) home: Vec<ClusterId>,
}

impl Decomposition {
    /// Number of colors used.
    pub(crate) fn color_count(&self) -> u32 {
        self.colors.len() as u32
    }
}

/// A ball [`carve`] has just claimed, on its way to becoming a [`Cluster`].
pub(crate) struct Claim<'a> {
    pub(crate) id: ClusterId,
    pub(crate) color: u32,
    pub(crate) center: NodeId,
    /// The claimed nodes, sorted by id.
    pub(crate) members: &'a [NodeId],
    /// One row per node of the Steiner tree (the BFS-tree paths from the
    /// center to every member), in no particular order. The finisher may add
    /// rows; the buffer is `carve`'s and comes back empty.
    pub(crate) rows: &'a mut Vec<TreeRow>,
}

impl Claim<'_> {
    /// The cluster of `members` spanned by the tree of the rows.
    pub(crate) fn into_cluster(self, members: Vec<NodeId>) -> Cluster {
        let tree = ClusterTree::from_rows(self.center, self.rows);
        self.rows.clear();
        Cluster { id: self.id, color: self.color, center: self.center, members, tree }
    }
}

/// Computes a deterministic `k`-separated weak-diameter network decomposition
/// of `g` (hop distances) over a caller-owned workspace, every claimed ball
/// turned into its cluster by `finish` — which gets the workspace too: the
/// carving is done with its search by then, so a cover can run the expansion
/// there and build each cluster once.
///
/// Each ball is grown by one depth-bounded BFS that is *extended*, never
/// restarted: explore to `radius + k`, count the claimable nodes of the ball
/// and of its next shell off the visit list, and explore `k` hops further
/// whenever the shell more than doubles the ball. The cost of a cluster is
/// the size of the last ball explored, not `n` (`docs/COVERS.md`).
///
/// # Panics
///
/// Panics if `k == 0`.
pub(crate) fn carve(
    g: &Graph,
    k: u64,
    ws: &mut BfsWorkspace,
    mut finish: impl FnMut(&mut BfsWorkspace, Claim<'_>) -> Cluster,
) -> Decomposition {
    assert!(k > 0, "the separation parameter must be positive");
    let n = g.node_count() as usize;
    // `free_from[v]` is the first color at which `v` is claimable: 0 at the
    // start, `color + 1` once `v` falls into a shell of `color` (deferred to a
    // later color), `ASSIGNED` once a cluster claims it.
    const ASSIGNED: u32 = u32::MAX;
    let mut free_from = vec![0u32; n]; // simlint::allow(hot-path-alloc: per-carving state, shared by every cluster)
    let mut home = vec![ClusterId(0); n]; // simlint::allow(hot-path-alloc: output column, one per decomposition)
    let mut clusters: Vec<Cluster> = Vec::new(); // simlint::allow(hot-path-alloc: output, one per decomposition)
    let mut colors: Vec<Vec<ClusterId>> = Vec::new(); // simlint::allow(hot-path-alloc: output, one per decomposition)
    let mut members: Vec<NodeId> = Vec::new(); // simlint::allow(hot-path-alloc: claimed-ball scratch, one per carving, refilled by every cluster)
    let mut rows = Vec::new(); // simlint::allow(hot-path-alloc: tree-row scratch, one per carving, drained by every cluster)
    let mut remaining = n;

    while remaining > 0 {
        let color = colors.len() as u32;
        let mut this_color: Vec<ClusterId> = Vec::new(); // simlint::allow(hot-path-alloc: output, one per color)
        for center_idx in 0..n {
            if free_from[center_idx] > color {
                continue;
            }
            let center = NodeId(center_idx as u32);
            ws.begin();
            ws.seed(center);
            // Grow the ball in steps of k until the next shell does not double
            // its claimable nodes. The visit list is sorted by hop distance
            // and ends at the explored bound, so the ball is its prefix of
            // length `ball` (`inside` of them claimable) and the shell is
            // everything after it.
            let mut explored = 0u64;
            let (mut ball, mut inside) = (1, 1); // the center
            loop {
                explored = explored.saturating_add(k);
                ws.explore_to(g, explored);
                let shell = &ws.visited()[ball..];
                let expanded =
                    inside + shell.iter().filter(|v| free_from[v.index()] <= color).count();
                if expanded <= 2 * inside {
                    break;
                }
                (ball, inside) = (ws.visited().len(), expanded);
            }
            // Claim the interior, defer the shell.
            let id = ClusterId(clusters.len() as u32);
            members.clear();
            for (i, &v) in ws.visited().iter().enumerate() {
                if free_from[v.index()] > color {
                    continue;
                }
                if i < ball {
                    members.push(v);
                } else {
                    free_from[v.index()] = color + 1;
                }
            }
            debug_assert!(!members.is_empty(), "the center itself is always claimable");
            members.sort_unstable();
            // The Steiner tree: the union of the BFS-tree paths from the
            // center to every member, through whatever intermediate
            // (Steiner) nodes the BFS went through.
            ws.mark(center, 0);
            rows.push((center, None, 0));
            for &member in &members {
                let mut v = member;
                while ws.marked(v).is_none() {
                    let depth = ws.dist(v);
                    ws.mark(v, depth);
                    rows.push((v, Some(ws.parent(v)), depth));
                    v = ws.parent(v);
                }
                free_from[member.index()] = ASSIGNED;
                home[member.index()] = id;
            }
            remaining -= members.len();
            clusters
                .push(finish(ws, Claim { id, color, center, members: &members, rows: &mut rows }));
            this_color.push(id);
        }
        // Each color clusters at least the smallest-id remaining node, so
        // this loop terminates.
        colors.push(this_color);
    }

    Decomposition { separation: k, clusters, colors, home }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{multi_source_hops, separated_decomposition_reference};
    use crate::test_graphs::{families, radii};
    use congest_graph::generators;

    /// The decomposition alone: every cluster is the ball it claimed.
    fn separated_decomposition(g: &Graph, k: u64) -> Decomposition {
        carve(g, k, &mut BfsWorkspace::new(g.node_count() as usize), as_claimed)
    }

    /// The finisher of a plain decomposition: the cluster is the claimed ball.
    fn as_claimed(_: &mut BfsWorkspace, claim: Claim<'_>) -> Cluster {
        let members = claim.members.to_vec();
        claim.into_cluster(members)
    }

    /// Checks the three defining properties of the decomposition.
    fn check_decomposition(g: &Graph, k: u64, d: &Decomposition) {
        let n = g.node_count() as usize;
        // 1. It is a partition.
        let mut seen = vec![false; n];
        for c in &d.clusters {
            for &v in &c.members {
                assert!(!seen[v.index()], "node {v} in two clusters");
                seen[v.index()] = true;
                assert_eq!(d.home[v.index()], c.id);
            }
        }
        assert!(seen.iter().all(|&s| s), "every node must be clustered");
        // 2. Same-color clusters are more than k apart (hop distance in G).
        for color in &d.colors {
            for (i, &a) in color.iter().enumerate() {
                for &b in &color[i + 1..] {
                    let ca = &d.clusters[a.index()];
                    let cb = &d.clusters[b.index()];
                    let dist = multi_source_hops(g, &ca.members);
                    let min_gap =
                        cb.members.iter().filter_map(|v| dist[v.index()]).min().unwrap_or(u64::MAX);
                    assert!(
                        min_gap > k,
                        "same-color clusters {a} and {b} are only {min_gap} <= {k} apart"
                    );
                }
            }
        }
        // 3. Cluster trees are consistent, rooted at the center, span the
        //    members, and have depth O(k log n).
        let bound = 2 * k * ((n as f64).log2().ceil() as u64 + 2);
        for c in &d.clusters {
            assert!(c.tree.is_consistent());
            assert_eq!(c.tree.root, c.center);
            for &v in &c.members {
                assert!(c.tree.contains(v));
            }
            assert!(
                c.tree.max_depth() <= bound,
                "tree depth {} exceeds O(k log n) bound {}",
                c.tree.max_depth(),
                bound
            );
        }
        // 4. O(log n) colors.
        assert!(
            (d.color_count() as u64) <= ((n as f64).log2().ceil() as u64 + 2),
            "too many colors: {}",
            d.color_count()
        );
    }

    #[test]
    fn decomposition_of_path() {
        let g = generators::path(40, 1);
        let d = separated_decomposition(&g, 3);
        check_decomposition(&g, 3, &d);
    }

    #[test]
    fn decomposition_of_grid() {
        let g = generators::grid(8, 8, 1);
        for k in [1, 2, 5] {
            let d = separated_decomposition(&g, k);
            check_decomposition(&g, k, &d);
        }
    }

    #[test]
    fn decomposition_of_random_graphs() {
        for seed in 0..4 {
            let g = generators::random_connected(60, 90, seed);
            let d = separated_decomposition(&g, 3);
            check_decomposition(&g, 3, &d);
        }
    }

    #[test]
    fn decomposition_of_disconnected_graph() {
        let g = generators::disjoint_copies(&generators::cycle(7, 1), 3);
        let d = separated_decomposition(&g, 2);
        check_decomposition(&g, 2, &d);
    }

    #[test]
    fn decomposition_is_deterministic() {
        let g = generators::random_connected(50, 80, 9);
        let a = separated_decomposition(&g, 4);
        let b = separated_decomposition(&g, 4);
        assert_eq!(a, b, "the construction uses no randomness");
    }

    #[test]
    fn bounded_carving_equals_the_whole_graph_reference() {
        for (name, g) in families() {
            for d in radii(&g) {
                let k = 2 * d + 1;
                assert_eq!(
                    separated_decomposition(&g, k),
                    separated_decomposition_reference(&g, k),
                    "{name}, k = {k}"
                );
            }
        }
        let g = generators::grid(64, 64, 1);
        assert_eq!(separated_decomposition(&g, 3), separated_decomposition_reference(&g, 3));
    }

    #[test]
    fn a_separation_of_u64_max_does_not_overflow() {
        let g = generators::path(9, 1);
        let d = separated_decomposition(&g, u64::MAX);
        assert_eq!(d, separated_decomposition_reference(&g, u64::MAX));
        assert_eq!(d.clusters.len(), 1);
    }

    #[test]
    fn carving_visits_balls_not_the_graph() {
        // Host cost without a clock: the reference visits every node once per
        // cluster (331 × n here); the bounded search visits Σ|ball(radius+k)|.
        let g = generators::grid(64, 64, 1);
        let n = g.node_count() as usize;
        let mut ws = BfsWorkspace::new(n);
        let d = carve(&g, 3, &mut ws, as_claimed);
        assert!(d.clusters.len() > 100);
        assert!(ws.visited_total <= 16 * n, "visited {} nodes for n = {n}", ws.visited_total);
    }

    #[test]
    fn single_node_graph() {
        let g = Graph::empty(1);
        let d = separated_decomposition(&g, 5);
        assert_eq!(d.clusters.len(), 1);
        assert_eq!(d.color_count(), 1);
        assert_eq!(d.clusters[0].members, vec![NodeId(0)]);
    }

    #[test]
    fn large_separation_gives_whole_component_clusters() {
        let g = generators::cycle(12, 1);
        // With k larger than the diameter, the ball swallows the whole cycle.
        let d = separated_decomposition(&g, 50);
        assert_eq!(d.clusters.len(), 1);
        assert_eq!(d.clusters[0].len(), 12);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_separation_is_rejected() {
        let g = generators::path(3, 1);
        let _ = separated_decomposition(&g, 0);
    }
}
