//! Sparse neighborhood `d`-covers (Definition 3.2 / Theorem 3.11 of the
//! paper), built by expanding every cluster of a separated decomposition by
//! its `d`-neighborhood.
//!
//! Construction shares one `BfsWorkspace` between the carving and every
//! cluster's expansion, so its cost follows the balls it explores
//! (`docs/COVERS.md`); the lint header below keeps per-cluster `O(n)`
//! allocations from coming back.
//!
//! simlint: hot-path

use std::error::Error;
use std::fmt;

use congest_graph::{Graph, NodeId};
use serde::{Deserialize, Serialize};

use crate::cluster::{Cluster, ClusterId};
use crate::decomposition::{carve, Claim, Decomposition};
use crate::workspace::BfsWorkspace;

/// A sparse `d`-cover of a graph (Definition 3.2):
///
/// * each cluster has a rooted tree of depth `O(d log n)` spanning it,
/// * each node is in `O(log n)` clusters (at most one per color),
/// * for every node `v`, some cluster contains the whole ball `B_d(v)` —
///   namely the expansion of `v`'s *home* cluster.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SparseCover {
    /// The cover radius `d`.
    pub d: u64,
    /// All clusters of the cover, indexed by [`ClusterId`].
    pub clusters: Vec<Cluster>,
    /// Membership index in CSR form: the clusters containing node `v` are
    /// `member_clusters[member_offsets[v]..member_offsets[v + 1]]`, ascending.
    pub(crate) member_offsets: Vec<usize>,
    pub(crate) member_clusters: Vec<ClusterId>,
    /// `home[v]` is the cluster guaranteed to contain `B_d(v)`.
    pub home: Vec<ClusterId>,
    /// Number of colors of the underlying decomposition.
    pub(crate) colors: u32,
}

/// Validation failures of a claimed sparse cover.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoverError {
    /// Some node's `d`-ball is not contained in its home cluster.
    BallNotCovered {
        /// The node whose ball is not covered.
        node: NodeId,
        /// A ball node missing from the home cluster.
        missing: NodeId,
    },
    /// A node appears in more than one cluster of the same color.
    DuplicateColorMembership {
        /// The offending node.
        node: NodeId,
        /// The color with duplicate membership.
        color: u32,
    },
    /// A cluster tree is structurally inconsistent or does not span the
    /// cluster members.
    BrokenTree {
        /// The offending cluster.
        cluster: ClusterId,
    },
    /// The membership index disagrees with the cluster member lists.
    InconsistentMembership {
        /// The offending node.
        node: NodeId,
    },
}

impl fmt::Display for CoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoverError::BallNotCovered { node, missing } => {
                write!(f, "the d-ball of {node} is not covered: {missing} is missing from its home cluster")
            }
            CoverError::DuplicateColorMembership { node, color } => {
                write!(f, "node {node} appears in two clusters of color {color}")
            }
            CoverError::BrokenTree { cluster } => write!(f, "cluster {cluster} has a broken tree"),
            CoverError::InconsistentMembership { node } => {
                write!(f, "membership index of node {node} disagrees with cluster members")
            }
        }
    }
}

impl Error for CoverError {}

/// Measured quality statistics of a sparse cover (reported by experiment E8).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoverStats {
    /// The cover radius `d`.
    pub d: u64,
    /// Number of clusters.
    pub cluster_count: usize,
    /// Number of colors.
    pub colors: u32,
    /// Maximum number of clusters any node belongs to.
    pub max_membership: usize,
    /// Mean number of clusters per node.
    pub mean_membership: f64,
    /// Maximum cluster-tree depth (the realized stretch is `max_depth / d`).
    pub max_tree_depth: u64,
    /// Maximum number of cluster trees any single edge participates in.
    pub max_edge_tree_load: usize,
}

impl SparseCover {
    /// Builds a sparse `d`-cover of `g` deterministically: a `(2d+1)`-separated
    /// decomposition followed by `d`-neighborhood expansion of every cluster
    /// (the construction of Theorem 3.11). `d = 0` is allowed: the clusters
    /// are the decomposition clusters themselves.
    pub fn construct(g: &Graph, d: u64) -> SparseCover {
        let n = g.node_count() as usize;
        let mut ws = BfsWorkspace::new(n);
        // Every claimed ball is expanded before it is built, so a cover
        // cluster's member list and tree are laid out once.
        let expanded = |ws: &mut BfsWorkspace, mut claim: Claim<'_>| {
            expand(g, d, ws, &mut claim);
            let mut members = ws.visited().to_vec(); // simlint::allow(hot-path-alloc: the cluster's member list is output)
            members.sort_unstable();
            claim.into_cluster(members)
        };
        let decomposition = carve(g, d.saturating_mul(2).saturating_add(1), &mut ws, expanded);
        let colors = decomposition.color_count();
        let Decomposition { clusters, home, .. } = decomposition;

        let mut member_offsets = vec![0; n + 1]; // simlint::allow(hot-path-alloc: membership index, one per construct)
        for v in clusters.iter().flat_map(|c| &c.members) {
            member_offsets[v.index() + 1] += 1;
        }
        for v in 0..n {
            member_offsets[v + 1] += member_offsets[v];
        }
        let mut member_clusters = vec![ClusterId(0); member_offsets[n]]; // simlint::allow(hot-path-alloc: membership index, one per construct)
        let mut next = member_offsets.clone();
        for c in &clusters {
            for &v in &c.members {
                member_clusters[next[v.index()]] = c.id;
                next[v.index()] += 1;
            }
        }
        SparseCover { d, clusters, member_offsets, member_clusters, home, colors }
    }

    /// Number of colors of the underlying decomposition (the upper bound on
    /// any node's membership count).
    pub fn color_count(&self) -> u32 {
        self.colors
    }

    /// The cluster with the given id.
    pub fn cluster(&self, id: ClusterId) -> &Cluster {
        &self.clusters[id.index()]
    }

    /// The cluster guaranteed to contain the `d`-ball of `v`.
    pub fn home_of(&self, v: NodeId) -> &Cluster {
        self.cluster(self.home[v.index()])
    }

    /// The clusters containing `v`.
    pub fn clusters_of(&self, v: NodeId) -> &[ClusterId] {
        &self.member_clusters[self.member_offsets[v.index()]..self.member_offsets[v.index() + 1]]
    }

    /// The maximum cluster-tree depth.
    pub fn max_tree_depth(&self) -> u64 {
        self.clusters.iter().map(|c| c.tree.max_depth()).max().unwrap_or(0)
    }

    /// The maximum number of cluster trees any single (undirected) edge
    /// participates in — the megaround width this cover contributes
    /// (Section 3.1.3).
    pub fn max_edge_tree_load(&self) -> usize {
        let mut keys = Vec::with_capacity(self.clusters.iter().map(|c| c.tree.node_count()).sum());
        for c in &self.clusters {
            keys.extend(
                c.tree.edges().map(|(child, parent)| (child.min(parent), child.max(parent))),
            );
        }
        keys.sort_unstable();
        // The longest run of equal keys.
        let (mut longest, mut run) = (0, 0);
        for (i, key) in keys.iter().enumerate() {
            run = if i > 0 && keys[i - 1] == *key { run + 1 } else { 1 };
            longest = longest.max(run);
        }
        longest
    }

    /// Computes quality statistics (used by experiment E8 and the validation
    /// tests).
    pub fn stats(&self) -> CoverStats {
        let n = self.home.len();
        let memberships = self.member_offsets.windows(2).map(|w| w[1] - w[0]);
        CoverStats {
            d: self.d,
            cluster_count: self.clusters.len(),
            colors: self.colors,
            max_membership: memberships.max().unwrap_or(0),
            mean_membership: self.member_clusters.len() as f64 / n.max(1) as f64,
            max_tree_depth: self.max_tree_depth(),
            max_edge_tree_load: self.max_edge_tree_load(),
        }
    }

    /// Validates the defining sparse-cover properties against the graph.
    ///
    /// # Errors
    ///
    /// Returns the first violated property, or the cover's [`CoverStats`] if
    /// everything holds.
    pub fn validate(&self, g: &Graph) -> Result<CoverStats, CoverError> {
        self.validate_in(g, &mut BfsWorkspace::new(g.node_count() as usize))
    }

    /// [`validate`](Self::validate) over a caller-owned workspace.
    pub(crate) fn validate_in(
        &self,
        g: &Graph,
        ws: &mut BfsWorkspace,
    ) -> Result<CoverStats, CoverError> {
        // Membership index agrees with cluster member lists.
        for c in &self.clusters {
            if !c.tree.is_consistent() {
                return Err(CoverError::BrokenTree { cluster: c.id });
            }
            for &v in &c.members {
                if !c.tree.contains(v) {
                    return Err(CoverError::BrokenTree { cluster: c.id });
                }
                if !self.clusters_of(v).contains(&c.id) {
                    return Err(CoverError::InconsistentMembership { node: v });
                }
            }
        }
        // At most one cluster per color per node.
        for node in g.nodes() {
            let ids = self.clusters_of(node);
            for (i, &id) in ids.iter().enumerate() {
                let color = self.cluster(id).color;
                if ids[..i].iter().any(|&earlier| self.cluster(earlier).color == color) {
                    return Err(CoverError::DuplicateColorMembership { node, color });
                }
            }
        }
        // d-ball coverage by the home cluster. The d-balls of the nodes at
        // home in C lie in C iff the d-ball of their union does, so one
        // search per cluster, seeded with all of them, decides it.
        let mut group_start = vec![0; self.clusters.len() + 1]; // simlint::allow(hot-path-alloc: nodes grouped by home cluster, one index per validation)
        for home in &self.home {
            group_start[home.index() + 1] += 1;
        }
        for c in 0..self.clusters.len() {
            group_start[c + 1] += group_start[c];
        }
        let mut at_home = vec![NodeId(0); self.home.len()]; // simlint::allow(hot-path-alloc: nodes grouped by home cluster, one column per validation)
        let mut next = group_start.clone();
        for (v, home) in g.nodes().zip(&self.home) {
            at_home[next[home.index()]] = v;
            next[home.index()] += 1;
        }
        let covered = self.clusters.iter().all(|c| {
            let seeds = &at_home[group_start[c.id.index()]..group_start[c.id.index() + 1]];
            first_uncovered(g, ws, seeds, self.d, c).is_none()
        });
        if !covered {
            // Name the first node whose own ball sticks out, and the first
            // node of that ball its home cluster lacks.
            for node in g.nodes() {
                if let Some(missing) = first_uncovered(g, ws, &[node], self.d, self.home_of(node)) {
                    return Err(CoverError::BallNotCovered { node, missing });
                }
            }
        }
        Ok(self.stats())
    }

    /// `true` when every cluster spans a whole connected component of `g`
    /// (no graph edge leaves any cluster's member set). From such a cover
    /// on, a larger radius cannot change the clustering — the distance
    /// oracle's geometric level construction stops at the first component
    /// cover (see `congest_oracle`).
    pub fn is_component_cover(&self, g: &Graph) -> bool {
        self.clusters.iter().all(|c| {
            c.members.iter().all(|&v| g.neighbors(v).iter().all(|a| c.contains(a.neighbor)))
        })
    }
}

/// The geometric radius sequence `d = 1, 2, 4, …` used by distance-oracle
/// level construction: doubles until it reaches `limit` (the final radius is
/// `>= limit`, so a ball of `limit` hops fits inside the last level). A
/// `limit` of 0 still yields `[1]` — an oracle always has at least one level.
pub fn geometric_levels(limit: u64) -> Vec<u64> {
    let mut ds = vec![1u64]; // simlint::allow(hot-path-alloc: the level list, one per oracle build)
    while *ds.last().expect("non-empty by construction") < limit {
        let next = ds.last().expect("non-empty by construction").saturating_mul(2);
        ds.push(next);
    }
    ds
}

/// The smallest-id node within `reach` hops of `seeds` that `cluster` does
/// not contain, if any. Searches no further than `reach` hops.
pub(crate) fn first_uncovered(
    g: &Graph,
    ws: &mut BfsWorkspace,
    seeds: &[NodeId],
    reach: u64,
    cluster: &Cluster,
) -> Option<NodeId> {
    ws.begin();
    for &s in seeds {
        ws.seed(s);
    }
    ws.explore_to(g, reach);
    ws.visited().iter().copied().filter(|&u| !cluster.contains(u)).min()
}

/// Expands a claimed ball by its `d`-neighborhood: leaves the expanded member
/// set as the workspace's visit list and extends the claim's tree rows along
/// the expansion BFS — a new node hangs below the node it was discovered
/// from, one level deeper than that node's tree depth.
fn expand(g: &Graph, d: u64, ws: &mut BfsWorkspace, claim: &mut Claim<'_>) {
    ws.begin();
    for &(v, _, depth) in claim.rows.iter() {
        ws.mark(v, depth);
    }
    for &s in claim.members {
        ws.seed(s);
    }
    ws.explore_to(g, d);
    // In discovery order a node's BFS parent is a seed (a tree node) or an
    // earlier visit, so its depth mark is always in place.
    for i in 0..ws.visited().len() {
        let v = ws.visited()[i];
        if ws.marked(v).is_none() {
            let parent = ws.parent(v);
            let depth = ws.marked(parent).expect("parents are marked before their children") + 1;
            ws.mark(v, depth);
            claim.rows.push((v, Some(parent), depth));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{
        construct_reference, first_uncovered_ball_reference, max_edge_tree_load_reference,
        multi_source_hops,
    };
    use crate::test_graphs::{families, radii};
    use congest_graph::generators;

    #[test]
    fn construction_equals_the_whole_graph_reference() {
        for (name, g) in families() {
            for d in radii(&g) {
                let cover = SparseCover::construct(&g, d);
                assert_eq!(cover, construct_reference(&g, d), "{name}, d = {d}");
                assert_eq!(
                    cover.max_edge_tree_load(),
                    max_edge_tree_load_reference(&cover),
                    "{name}, d = {d}"
                );
                for v in g.nodes() {
                    let of_v: Vec<ClusterId> =
                        cover.clusters.iter().filter(|c| c.contains(v)).map(|c| c.id).collect();
                    assert_eq!(cover.clusters_of(v), of_v, "{name}, d = {d}, {v}");
                }
            }
        }
        let g = generators::grid(64, 64, 1);
        assert_eq!(SparseCover::construct(&g, 1), construct_reference(&g, 1));
    }

    #[test]
    fn a_radius_of_u64_max_does_not_overflow() {
        let g = generators::disjoint_copies(&generators::path(5, 1), 2);
        let cover = SparseCover::construct(&g, u64::MAX);
        assert_eq!(cover, construct_reference(&g, u64::MAX));
        assert!(cover.is_component_cover(&g));
        cover.validate(&g).unwrap();
    }

    #[test]
    fn bounded_validation_reports_the_first_violation_of_the_sweep() {
        for (name, g) in families() {
            for d in [1, 2, 5] {
                let mut cover = SparseCover::construct(&g, d);
                assert_eq!(first_uncovered_ball_reference(&g, &cover), None, "{name}, d = {d}");
                // Corrupt: the largest cluster loses its last two members.
                let big = cover.clusters.iter_mut().max_by_key(|c| c.len()).unwrap();
                big.members.truncate(big.members.len().saturating_sub(2));
                let expected = first_uncovered_ball_reference(&g, &cover)
                    .map(|(node, missing)| CoverError::BallNotCovered { node, missing });
                assert_eq!(cover.validate(&g).err(), expected, "{name}, d = {d}");
            }
        }
    }

    #[test]
    fn per_cluster_validation_names_the_node_the_per_node_search_names() {
        let reported = |g: &Graph, cover: &SparseCover| {
            first_uncovered_ball_reference(g, cover)
                .map(|(node, missing)| CoverError::BallNotCovered { node, missing })
        };
        let mut wrong_homes_caught = 0;
        for (name, g) in families() {
            for d in [1, 2, 5] {
                let cover = SparseCover::construct(&g, d);
                // A shell node — in the expansion, at home elsewhere — goes
                // missing from the last cluster that has one.
                let shell = cover.clusters.iter().rev().find_map(|c| {
                    let v = c.members.iter().rev().find(|v| cover.home[v.index()] != c.id)?;
                    Some((c.id, *v))
                });
                if let Some((id, v)) = shell {
                    let mut broken = cover.clone();
                    broken.clusters[id.index()].members.retain(|&u| u != v);
                    assert!(reported(&g, &broken).is_some(), "{name}, d = {d}");
                    assert_eq!(broken.validate(&g).err(), reported(&g, &broken), "{name}, d = {d}");
                }
                // A wrong home: the last node claims the first cluster.
                let mut broken = cover.clone();
                *broken.home.last_mut().unwrap() = ClusterId(0);
                assert_eq!(broken.validate(&g).err(), reported(&g, &broken), "{name}, d = {d}");
                wrong_homes_caught += usize::from(reported(&g, &broken).is_some());
            }
        }
        assert!(wrong_homes_caught > 10, "only {wrong_homes_caught} wrong homes left a ball out");
    }

    #[test]
    fn validation_visits_clusters_not_balls() {
        // Host cost without a clock, on the oracle's levels of the ledger's
        // grid: one search per node visits Σ_v |ball(v, d)| nodes — n² from
        // d = 16 on — and one per cluster Σ_C |ball(H_C, d)| ≤ Σ_C |C|.
        let g = generators::grid(16, 16, 1);
        let mut ws = BfsWorkspace::new(g.node_count() as usize);
        let (mut levels, mut membership) = (0, 0);
        for d in geometric_levels(255) {
            let cover = SparseCover::construct(&g, d);
            cover.validate_in(&g, &mut ws).expect("constructed covers are valid");
            levels += 1;
            membership += cover.member_clusters.len();
            if cover.is_component_cover(&g) {
                break;
            }
        }
        assert_eq!(levels, 5);
        assert!(ws.visited_total <= 4 * membership, "{} of {membership}", ws.visited_total);
    }

    fn check(g: &Graph, d: u64) -> CoverStats {
        let cover = SparseCover::construct(g, d);
        let stats = cover.validate(g).expect("constructed covers are valid");
        assert!(stats.max_membership as u32 <= cover.color_count());
        stats
    }

    #[test]
    fn cover_of_path() {
        let g = generators::path(30, 1);
        for d in [1, 2, 4] {
            check(&g, d);
        }
    }

    #[test]
    fn cover_of_grid() {
        let g = generators::grid(7, 7, 1);
        let stats = check(&g, 2);
        assert!(stats.cluster_count >= 1);
        assert!(stats.max_tree_depth >= 2);
    }

    #[test]
    fn cover_of_random_graphs() {
        for seed in 0..3 {
            let g = generators::random_connected(50, 70, seed);
            check(&g, 2);
        }
    }

    #[test]
    fn cover_of_disconnected_graph() {
        let g = generators::disjoint_copies(&generators::path(8, 1), 3);
        check(&g, 2);
    }

    #[test]
    fn cover_with_d_zero_is_the_decomposition() {
        let g = generators::cycle(12, 1);
        let cover = SparseCover::construct(&g, 0);
        cover.validate(&g).unwrap();
        // With d = 0, clusters partition the nodes (each node in exactly one).
        assert!(g.nodes().all(|v| cover.clusters_of(v).len() == 1));
    }

    #[test]
    fn cover_radius_larger_than_diameter_gives_single_cluster_membership() {
        let g = generators::cycle(10, 1);
        let cover = SparseCover::construct(&g, 20);
        cover.validate(&g).unwrap();
        // Every cluster expands to the whole cycle; home cluster covers all.
        assert!(cover.home_of(NodeId(0)).len() == 10);
    }

    #[test]
    fn home_cluster_contains_ball() {
        let g = generators::grid(6, 6, 1);
        let cover = SparseCover::construct(&g, 3);
        for v in g.nodes() {
            let home = cover.home_of(v);
            let dist = multi_source_hops(&g, &[v]);
            for u in g.nodes() {
                if dist[u.index()].is_some_and(|x| x <= 3) {
                    assert!(home.contains(u));
                }
            }
        }
    }

    #[test]
    fn stats_are_plausible() {
        let g = generators::random_connected(60, 120, 5);
        let cover = SparseCover::construct(&g, 2);
        let stats = cover.stats();
        assert_eq!(stats.d, 2);
        assert_eq!(stats.cluster_count, cover.clusters.len());
        assert!(stats.mean_membership >= 1.0);
        assert!(stats.max_membership >= 1);
        assert!(stats.max_edge_tree_load >= 1);
    }

    #[test]
    fn construction_is_deterministic() {
        let g = generators::random_connected(40, 60, 2);
        assert_eq!(SparseCover::construct(&g, 3), SparseCover::construct(&g, 3));
    }

    #[test]
    fn validation_detects_corruption() {
        let g = generators::path(12, 1);
        let mut cover = SparseCover::construct(&g, 2);
        // Corrupt: drop a member from some node's home cluster.
        let home = cover.home[0].index();
        cover.clusters[home].members.retain(|&v| v != NodeId(1));
        assert!(cover.validate(&g).is_err());
    }

    #[test]
    fn cover_error_display() {
        let e = CoverError::BallNotCovered { node: NodeId(1), missing: NodeId(2) };
        assert!(e.to_string().contains("v1"));
        let e = CoverError::DuplicateColorMembership { node: NodeId(1), color: 3 };
        assert!(e.to_string().contains("color 3"));
        let e = CoverError::BrokenTree { cluster: ClusterId(5) };
        assert!(e.to_string().contains("C5"));
        let e = CoverError::InconsistentMembership { node: NodeId(7) };
        assert!(e.to_string().contains("v7"));
    }

    #[test]
    fn geometric_levels_double_to_the_limit() {
        assert_eq!(geometric_levels(0), [1]);
        assert_eq!(geometric_levels(1), [1]);
        assert_eq!(geometric_levels(5), [1, 2, 4, 8]);
        assert_eq!(geometric_levels(8), [1, 2, 4, 8]);
        let ds = geometric_levels(u64::MAX);
        assert_eq!(*ds.last().unwrap(), u64::MAX, "saturates instead of overflowing");
    }

    #[test]
    fn component_cover_detection() {
        let g = generators::path(8, 1);
        // Radius 1 on a path: clusters are small balls, edges leave them.
        let small = SparseCover::construct(&g, 1);
        assert!(!small.is_component_cover(&g));
        // A radius covering the whole path: one cluster per component.
        let full = SparseCover::construct(&g, 8);
        assert!(full.is_component_cover(&g));
        full.validate(&g).expect("component covers are valid covers");
    }
}
