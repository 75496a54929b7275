//! The graph families the bounded-BFS carving, expansion and validation are
//! compared on against their whole-graph references.

use congest_graph::{generators, Graph};

/// Structured, random and disconnected graphs plus the killer families of
/// `docs/SEQ_BASELINES.md` (hop structure only — weights play no part here).
pub(crate) fn families() -> Vec<(&'static str, Graph)> {
    vec![
        ("path", generators::path(40, 1)),
        ("grid", generators::grid(9, 13, 1)),
        ("cycle", generators::cycle(31, 1)),
        ("star", generators::star(20, 1)),
        ("disconnected", generators::disjoint_copies(&generators::cycle(7, 1), 3)),
        ("isolated", Graph::empty(5)),
        ("random-sparse", generators::random_connected(60, 30, 1)),
        ("random-dense", generators::random_connected(64, 200, 2)),
        ("random-tree", generators::random_tree(50, 3)),
        ("wrong-dijkstra-killer", generators::wrong_dijkstra_killer(24)),
        ("spfa-killer", generators::spfa_killer(12)),
        ("grid-swirl", generators::grid_swirl(6)),
        ("almost-line", generators::almost_line(30, 5)),
        ("max-dense", generators::max_dense(16, 6)),
    ]
}

/// The cover radii every family is tried at: degenerate, small, and at least
/// the diameter.
pub(crate) fn radii(g: &Graph) -> [u64; 5] {
    [0, 1, 2, 5, u64::from(g.node_count())]
}
