//! Structural graph properties: hop diameters, eccentricities, degree
//! statistics.
//!
//! These are used by the experiment harness (e.g. to report `D`, the hop
//! diameter that appears in the paper's `Õ(D)` BFS bounds) and by tests.

use crate::{sequential, Distance, Graph, NodeId};

/// Returns `true` if the graph is connected (or has at most one node).
pub fn is_connected(g: &Graph) -> bool {
    sequential::connected_components(g).component_count <= 1
}

/// The hop eccentricity of `v`: the maximum hop distance from `v` to any node
/// reachable from it.
pub fn hop_eccentricity(g: &Graph, v: NodeId) -> u64 {
    sequential::bfs(g, &[v]).distances.iter().filter_map(|d| d.finite()).max().unwrap_or(0)
}

/// The hop diameter `D` of the graph: the maximum hop eccentricity over all
/// nodes. For a disconnected graph this is the maximum over components.
///
/// This is the `D` of the paper's `Õ(D)`-time BFS bounds.
pub fn hop_diameter(g: &Graph) -> u64 {
    g.nodes().map(|v| hop_eccentricity(g, v)).max().unwrap_or(0)
}

/// The maximum finite weighted distance from any node in `sources` (the
/// quantity the thresholded recursion must cover).
pub fn weighted_radius_from(g: &Graph, sources: &[NodeId]) -> Distance {
    sequential::dijkstra(g, sources)
        .distances
        .iter()
        .copied()
        .filter(|d| d.is_finite())
        .max()
        .unwrap_or(Distance::ZERO)
}

/// Summary statistics of the degree distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegreeStats {
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Sum of all degrees (`2m`).
    pub total: usize,
}

/// Computes [`DegreeStats`] for the graph.
pub fn degree_stats(g: &Graph) -> DegreeStats {
    let degrees: Vec<usize> = g.nodes().map(|v| g.degree(v)).collect();
    DegreeStats {
        min: degrees.iter().copied().min().unwrap_or(0),
        max: degrees.iter().copied().max().unwrap_or(0),
        total: degrees.iter().sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn path_diameters() {
        let g = generators::path(10, 3);
        assert!(is_connected(&g));
        assert_eq!(hop_diameter(&g), 9);
        assert_eq!(hop_eccentricity(&g, NodeId(5)), 5);
    }

    #[test]
    fn cycle_diameter_is_half() {
        let g = generators::cycle(10, 1);
        assert_eq!(hop_diameter(&g), 5);
    }

    #[test]
    fn star_diameter_is_two() {
        let g = generators::star(20, 4);
        assert_eq!(hop_diameter(&g), 2);
    }

    #[test]
    fn disconnected_graph_reports_per_component_diameter() {
        let g = generators::disjoint_copies(&generators::path(4, 1), 2);
        assert!(!is_connected(&g));
        assert_eq!(hop_diameter(&g), 3);
    }

    #[test]
    fn degree_stats_of_grid() {
        let g = generators::grid(3, 3, 1);
        let s = degree_stats(&g);
        assert_eq!(s.min, 2); // corners
        assert_eq!(s.max, 4); // center
        assert_eq!(s.total, 2 * g.edge_count() as usize);
    }

    #[test]
    fn weighted_radius_from_sources() {
        let g = generators::path(8, 2);
        let r = weighted_radius_from(&g, &[NodeId(0)]);
        assert_eq!(r.finite(), Some(14));
        let r = weighted_radius_from(&g, &[NodeId(0), NodeId(7)]);
        assert_eq!(r.finite(), Some(6)); // middle nodes are 3 hops * 2 from the nearer end
    }

    #[test]
    fn single_node_graph_properties() {
        let g = Graph::empty(1);
        assert!(is_connected(&g));
        assert_eq!(hop_diameter(&g), 0);
        let s = degree_stats(&g);
        assert_eq!((s.min, s.max, s.total), (0, 0, 0));
    }
}
