//! Clusters and their (Steiner) trees.

use congest_graph::NodeId;
use serde::{Deserialize, Serialize};

/// A handle to a cluster within a decomposition, cover, or layered cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ClusterId(pub u32);

impl ClusterId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ClusterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// One node of a [`ClusterTree`]: `(node, parent, depth)`, the parent being
/// `None` for the root.
pub type TreeRow = (NodeId, Option<NodeId>, u64);

/// A rooted tree spanning a cluster's members, possibly through *Steiner*
/// nodes that are not members themselves (Theorem 3.10 of the paper: each
/// cluster has a Steiner tree whose terminal set is the cluster).
///
/// The tree is stored flat: its nodes sorted by id, with the parent (`None`
/// for the root) and the depth of each node in parallel columns. Lookups are
/// binary searches, iteration is a slice walk (`docs/COVERS.md`, "Flat tree
/// layout").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterTree {
    /// The root node of the tree.
    pub root: NodeId,
    /// The tree nodes, strictly increasing.
    nodes: Vec<NodeId>,
    /// `parents[i]` is the parent of `nodes[i]`.
    parents: Vec<Option<NodeId>>,
    /// `depths[i]` is the depth of `nodes[i]` (the root has depth 0).
    depths: Vec<u64>,
    max_depth: u64,
}

impl ClusterTree {
    /// Creates a single-node tree.
    pub fn singleton(root: NodeId) -> Self {
        ClusterTree { root, nodes: vec![root], parents: vec![None], depths: vec![0], max_depth: 0 }
    }

    /// Builds a tree from `(node, parent, depth)` rows in any order, one row
    /// per tree node; sorts `rows` by node in place (so a caller building
    /// many trees can reuse one row buffer). The rows are taken as given:
    /// [`is_consistent`](Self::is_consistent) checks them.
    pub fn from_rows(root: NodeId, rows: &mut [TreeRow]) -> Self {
        rows.sort_unstable_by_key(|&(v, _, _)| v);
        let mut tree = ClusterTree {
            root,
            nodes: Vec::with_capacity(rows.len()),
            parents: Vec::with_capacity(rows.len()),
            depths: Vec::with_capacity(rows.len()),
            max_depth: 0,
        };
        for &(v, parent, depth) in rows.iter() {
            tree.nodes.push(v);
            tree.parents.push(parent);
            tree.depths.push(depth);
            tree.max_depth = tree.max_depth.max(depth);
        }
        tree
    }

    /// The maximum depth of any tree node.
    pub fn max_depth(&self) -> u64 {
        self.max_depth
    }

    /// Number of nodes touched by the tree (members plus Steiner nodes).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The nodes touched by the tree (members plus Steiner nodes), sorted by
    /// id.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Iterates over `(node, parent, depth)` in node-id order.
    pub fn entries(&self) -> impl Iterator<Item = TreeRow> + '_ {
        self.nodes.iter().zip(&self.parents).zip(&self.depths).map(|((&v, &p), &d)| (v, p, d))
    }

    /// Returns `true` if `v` is part of the tree (as member or Steiner node).
    pub fn contains(&self, v: NodeId) -> bool {
        self.nodes.binary_search(&v).is_ok()
    }

    /// The depth of `v` in the tree, if it is a tree node.
    pub fn depth_of(&self, v: NodeId) -> Option<u64> {
        self.nodes.binary_search(&v).ok().map(|i| self.depths[i])
    }

    /// Iterates over the undirected edges `(child, parent)` of the tree.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes.iter().zip(&self.parents).filter_map(|(&v, &p)| p.map(|p| (v, p)))
    }

    /// Checks structural sanity: every node has exactly one row, the root has
    /// depth 0 and is the only node without a parent, every other node's
    /// depth is its parent's depth plus one, every parent is a tree node, and
    /// the cached maximum depth is the real one.
    pub fn is_consistent(&self) -> bool {
        self.nodes.windows(2).all(|w| w[0] < w[1])
            && self.depth_of(self.root) == Some(0)
            && self.max_depth == self.depths.iter().copied().max().unwrap_or(0)
            && self.entries().all(|(v, p, dv)| match p {
                None => v == self.root,
                Some(p) => self.depth_of(p).is_some_and(|dp| dv == dp + 1),
            })
    }
}

/// A cluster: a set of member nodes plus a rooted Steiner tree spanning them.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cluster {
    /// The cluster's id within its owning structure.
    pub id: ClusterId,
    /// The color class this cluster belongs to (same-color clusters are
    /// well separated in the decomposition).
    pub color: u32,
    /// The node the cluster was grown from.
    pub center: NodeId,
    /// The member (terminal) nodes, sorted by id.
    pub members: Vec<NodeId>,
    /// The rooted Steiner tree spanning the members.
    pub tree: ClusterTree,
}

impl Cluster {
    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` if the cluster has no members (never produced by the
    /// constructions in this crate, but part of the API contract).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Returns `true` if `v` is a member (terminal) of this cluster.
    pub fn contains(&self, v: NodeId) -> bool {
        self.members.binary_search(&v).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_rows() -> Vec<TreeRow> {
        vec![(NodeId(2), Some(NodeId(1)), 2), (NodeId(0), None, 0), (NodeId(1), Some(NodeId(0)), 1)]
    }

    #[test]
    fn singleton_tree_is_consistent() {
        let t = ClusterTree::singleton(NodeId(5));
        assert!(t.is_consistent());
        assert_eq!(t.max_depth(), 0);
        assert_eq!(t.node_count(), 1);
        assert!(t.contains(NodeId(5)));
        assert_eq!(t.depth_of(NodeId(5)), Some(0));
        assert_eq!(t.edges().count(), 0);
    }

    #[test]
    fn chain_tree_depths_and_edges() {
        let t = ClusterTree::from_rows(NodeId(0), &mut chain_rows());
        assert!(t.is_consistent());
        assert_eq!(t.max_depth(), 2);
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.nodes(), [NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(t.edges().collect::<Vec<_>>(), [(NodeId(1), NodeId(0)), (NodeId(2), NodeId(1))]);
        assert_eq!(t.entries().nth(2), Some((NodeId(2), Some(NodeId(1)), 2)));
        assert_eq!(t.depth_of(NodeId(2)), Some(2));
        assert!(!t.contains(NodeId(9)));
        assert_eq!(t.depth_of(NodeId(9)), None);
    }

    #[test]
    fn inconsistent_tree_is_detected() {
        let broken = |edit: fn(&mut Vec<TreeRow>)| {
            let mut rows = chain_rows();
            edit(&mut rows);
            !ClusterTree::from_rows(NodeId(0), &mut rows).is_consistent()
        };
        assert!(broken(|rows| rows[0].2 = 5), "wrong depth");
        assert!(broken(|rows| rows.push((NodeId(3), Some(NodeId(9)), 1))), "parent not in tree");
        assert!(broken(|rows| rows.push((NodeId(3), None, 0))), "a second root");
        assert!(broken(|rows| rows.push((NodeId(1), Some(NodeId(0)), 1))), "a duplicate row");
        assert!(broken(|rows| rows[1].2 = 1), "root below depth 0");
    }

    #[test]
    fn cluster_membership_queries() {
        let c = Cluster {
            id: ClusterId(3),
            color: 1,
            center: NodeId(0),
            members: vec![NodeId(0), NodeId(2), NodeId(4)],
            tree: ClusterTree::singleton(NodeId(0)),
        };
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert!(c.contains(NodeId(2)));
        assert!(!c.contains(NodeId(3)));
        assert_eq!(c.id.to_string(), "C3");
        assert_eq!(c.id.index(), 3);
    }
}
