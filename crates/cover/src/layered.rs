//! Layered sparse covers (Definition 3.4 of the paper): a hierarchy of sparse
//! `B^j`-covers in which every cluster has a *parent* cluster one level up
//! that contains it together with a `B^{j+1}/2`-neighborhood.
//!
//! The base `B` must exceed twice the realized stretch of the level-`j`
//! covers so that Observation 3.3 applies; [`LayeredCover::recommended_base`]
//! computes a suitable value from `n`.

use congest_graph::sequential::{connected_components, Components};
use congest_graph::{Graph, NodeId};
use serde::{Deserialize, Serialize};

use crate::cluster::ClusterId;
use crate::sparse_cover::{first_uncovered, CoverError, SparseCover};
use crate::workspace::BfsWorkspace;

/// A layered sparse `D`-cover: sparse `B^j`-covers for `j = 0..levels`, with
/// parent links from every level-`j` cluster to a level-`j+1` cluster that
/// contains it and its `B^{j+1}/2`-neighborhood.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayeredCover {
    /// The base `B` of the hierarchy.
    pub base: u64,
    /// The target distance `D` the hierarchy must reach (`B^top >= 2D`, or the
    /// top level has a cluster spanning each connected component).
    pub target: u64,
    /// The sparse covers, `levels[j]` having radius `B^j`.
    pub levels: Vec<SparseCover>,
    /// `parents[j][c]` is the parent (level `j+1`) cluster of cluster `c` at
    /// level `j`; the last level has no parent entries.
    pub parents: Vec<Vec<ClusterId>>,
}

impl LayeredCover {
    /// A base `B` large enough for the parent-containment property with the
    /// ball-carving construction of this crate. A `d`-cover cluster reaches at
    /// most `(2d+1)·⌈log₂ n⌉ + d` hops from its center, so requiring
    /// `(2B^j+1)·⌈log₂ n⌉ + B^j + B^{j+1}/2 ≤ B^{j+1}` for all `j ≥ 0` is
    /// satisfied by `B = 6·⌈log₂ n⌉ + 6`. (The paper uses `B = Θ(log³ n)` to
    /// accommodate the Rozhon–Ghaffari stretch; the smaller value here
    /// reflects the smaller realized stretch and is recorded per experiment.)
    pub fn recommended_base(n: u32) -> u64 {
        let log = (n.max(2) as f64).log2().ceil() as u64;
        6 * log + 6
    }

    /// The radius of level `j` (`B^j`, saturating at `u64::MAX`).
    pub fn radius(&self, level: usize) -> u64 {
        self.base.saturating_pow(level as u32)
    }

    /// The number of levels.
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// The parent cluster of `(level, cluster)`, if the level is not the top.
    pub fn parent_of(&self, level: usize, cluster: ClusterId) -> Option<ClusterId> {
        self.parents.get(level).and_then(|p| p.get(cluster.index()).copied())
    }

    /// Constructs a layered sparse `target`-cover of `g` with the given base.
    ///
    /// Levels are built until `B^j >= 2 * target` (saturating) or until every
    /// connected component is fully contained in single clusters of the
    /// current level (the stopping rule of Theorem 3.13).
    ///
    /// # Panics
    ///
    /// Panics if `base < 2` or `target == 0`.
    pub fn construct(g: &Graph, target: u64, base: u64) -> LayeredCover {
        assert!(base >= 2, "the base must be at least 2");
        assert!(target >= 1, "the target distance must be positive");
        let components = connected_components(g);
        let mut levels = Vec::new();
        let mut radius: u64 = 1;
        loop {
            let cover = SparseCover::construct(g, radius);
            let spanned = spans_components(&components, &cover);
            levels.push(cover);
            if radius >= target.saturating_mul(2) || spanned {
                break;
            }
            radius = radius.saturating_mul(base);
        }
        // Parent links: the parent of a level-j cluster C is the level-(j+1)
        // home cluster of C's center; by the cover property that home cluster
        // contains the whole B^{j+1}-ball of the center, which contains C and
        // its B^{j+1}/2-neighborhood whenever the base is large enough.
        let mut parents = Vec::new();
        for j in 0..levels.len().saturating_sub(1) {
            let upper = &levels[j + 1];
            let links: Vec<ClusterId> =
                levels[j].clusters.iter().map(|c| upper.home[c.center.index()]).collect();
            parents.push(links);
        }
        LayeredCover { base, target, levels, parents }
    }

    /// Constructs a layered cover with [`LayeredCover::recommended_base`].
    pub fn construct_default(g: &Graph, target: u64) -> LayeredCover {
        Self::construct(g, target, Self::recommended_base(g.node_count()))
    }

    /// Validates every level plus the parent-containment property
    /// (Observation 3.3 / Definition 3.4): each cluster's parent contains the
    /// cluster and its `B^{j+1}/2`-neighborhood.
    ///
    /// # Errors
    ///
    /// Returns the first violated property.
    pub fn validate(&self, g: &Graph) -> Result<(), CoverError> {
        let mut ws = BfsWorkspace::new(g.node_count() as usize);
        for level in &self.levels {
            level.validate_in(g, &mut ws)?;
        }
        for (j, links) in self.parents.iter().enumerate() {
            let upper = &self.levels[j + 1];
            let reach = self.radius(j + 1) / 2;
            for (c, &pid) in self.levels[j].clusters.iter().zip(links) {
                let parent = upper.cluster(pid);
                if let Some(missing) = first_uncovered(g, &mut ws, &c.members, reach, parent) {
                    return Err(CoverError::BallNotCovered { node: c.center, missing });
                }
            }
        }
        Ok(())
    }
}

/// Returns `true` if every one of the `components` of the graph is fully
/// contained in a single cluster of `cover` (so no further levels are needed).
fn spans_components(components: &Components, cover: &SparseCover) -> bool {
    // The cluster that has to span component `c`: the home of its first node.
    let mut spanning = vec![None; components.component_count];
    components.labels.iter().enumerate().all(|(v, &c)| {
        let home = *spanning[c].get_or_insert(cover.home[v]);
        cover.cluster(home).contains(NodeId(v as u32))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{components_spanned_reference, layered_reference, stats_reference};
    use crate::test_graphs::families;
    use congest_graph::generators;

    /// The stopping rule on a graph whose components are not labelled yet.
    fn components_spanned(g: &Graph, cover: &SparseCover) -> bool {
        spans_components(&connected_components(g), cover)
    }

    #[test]
    fn layered_covers_and_their_stats_equal_the_reference() {
        for (name, g) in families() {
            let n = u64::from(g.node_count());
            let base = LayeredCover::recommended_base(g.node_count());
            let lc = LayeredCover::construct_default(&g, n);
            assert_eq!(lc, layered_reference(&g, n, base), "{name}");
            lc.validate(&g).expect("layered cover is valid");
            for (j, level) in lc.levels.iter().enumerate() {
                assert_eq!(level.stats(), stats_reference(level), "{name}, level {j}");
                assert_eq!(
                    components_spanned(&g, level),
                    components_spanned_reference(&g, level),
                    "{name}, level {j}"
                );
            }
        }
    }

    #[test]
    fn many_tiny_components_leave_the_layered_cover_unchanged() {
        // Some 1950 isolated nodes, a few small components and one path long
        // enough to need a second level: the stopping rule used to rescan
        // all labels once per component.
        let path = (100..140).map(|v| (v, v + 1, 1));
        let edges = [(0, 1, 1), (1, 2, 1), (7, 1999, 1), (40, 41, 1)].into_iter().chain(path);
        let g = Graph::from_edges(2000, edges).unwrap();
        let lc = LayeredCover::construct(&g, 2000, 4);
        assert_eq!(lc, layered_reference(&g, 2000, 4));
        assert!(components_spanned(&g, lc.levels.last().unwrap()));
        assert!(!components_spanned(&g, &lc.levels[0]));
    }

    #[test]
    fn huge_targets_and_levels_saturate() {
        let g = generators::path(12, 1);
        let lc = LayeredCover::construct(&g, u64::MAX, 8);
        assert_eq!(lc.levels, layered_reference(&g, 1 << 40, 8).levels);
        assert_eq!(lc.radius(64), u64::MAX);
    }

    #[test]
    fn layered_cover_of_path() {
        let g = generators::path(40, 1);
        let lc = LayeredCover::construct_default(&g, 39);
        lc.validate(&g).expect("layered cover is valid");
        assert!(lc.level_count() >= 1);
        assert_eq!(lc.radius(0), 1);
        // Parent links exist for every non-top level.
        assert_eq!(lc.parents.len(), lc.level_count() - 1);
    }

    #[test]
    fn layered_cover_of_grid() {
        let g = generators::grid(6, 6, 1);
        let lc = LayeredCover::construct_default(&g, 10);
        lc.validate(&g).expect("layered cover is valid");
        for j in 0..lc.level_count().saturating_sub(1) {
            for c in &lc.levels[j].clusters {
                assert!(lc.parent_of(j, c.id).is_some());
            }
        }
    }

    #[test]
    fn layered_cover_of_random_graph() {
        let g = generators::random_connected(50, 70, 3);
        let lc = LayeredCover::construct_default(&g, 20);
        lc.validate(&g).expect("layered cover is valid");
    }

    #[test]
    fn layered_cover_of_disconnected_graph() {
        let g = generators::disjoint_copies(&generators::path(10, 1), 2);
        let lc = LayeredCover::construct_default(&g, 9);
        lc.validate(&g).expect("layered cover is valid");
    }

    #[test]
    fn stops_when_a_cluster_spans_each_component() {
        // A small cycle is swallowed by level 0 or 1 long before B^j >= 2D.
        let g = generators::cycle(6, 1);
        let lc = LayeredCover::construct(&g, 1_000_000, 16);
        let top = lc.levels.last().unwrap();
        assert!(components_spanned(&g, top));
        assert!(lc.level_count() <= 3);
    }

    #[test]
    fn recommended_base_grows_with_n() {
        assert!(LayeredCover::recommended_base(16) < LayeredCover::recommended_base(1 << 20));
        assert!(LayeredCover::recommended_base(2) >= 2);
    }

    #[test]
    fn radii_are_powers_of_the_base() {
        let g = generators::path(20, 1);
        let lc = LayeredCover::construct(&g, 19, 8);
        for j in 0..lc.level_count() {
            assert_eq!(lc.radius(j), 8u64.pow(j as u32));
        }
    }

    #[test]
    #[should_panic(expected = "base must be at least 2")]
    fn tiny_base_is_rejected() {
        let g = generators::path(4, 1);
        let _ = LayeredCover::construct(&g, 3, 1);
    }
}
