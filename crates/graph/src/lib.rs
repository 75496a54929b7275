//! Graph substrate for the `congest-sssp` workspace.
//!
//! This crate provides the data structures shared by every other crate in the
//! workspace:
//!
//! * [`Graph`] — an undirected, weighted multigraph with stable [`NodeId`] and
//!   [`EdgeId`] handles, the network topology over which the distributed
//!   algorithms run.
//! * [`Distance`] — a saturating "finite or infinite" distance value.
//! * [`generators`] — deterministic and seeded-random workload generators
//!   (paths, grids, Erdős–Rényi graphs, trees, barbells, …).
//! * [`sequential`] — classical *sequential* shortest-path algorithms
//!   (Dijkstra, Bellman–Ford, BFS, connected components)
//!   used as ground truth when testing the distributed algorithms. The
//!   default Dijkstra runs on a crate-private monotone radix heap; the
//!   binary-heap implementation is retained as `dijkstra_binary_heap` and
//!   pinned bit-identical by `tests/radix_differential.rs`.
//! * [`properties`] — structural queries (diameter, eccentricities, degrees).
//!
//! # Example
//!
//! ```
//! use congest_graph::{generators, sequential, NodeId};
//!
//! let g = generators::grid(4, 4, 1);
//! let sp = sequential::dijkstra(&g, &[NodeId(0)]);
//! // Manhattan distance to the opposite corner of a 4x4 unit grid.
//! assert_eq!(sp.distances[15].finite(), Some(6));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod distance;
mod error;
mod graph;
mod radix_heap;

pub mod generators;
pub mod properties;
pub mod sequential;

pub use distance::Distance;
pub use error::GraphError;
pub use graph::{Adjacency, Edge, EdgeId, Graph, GraphBuilder, NodeId, SubsetMarks, Weight};
