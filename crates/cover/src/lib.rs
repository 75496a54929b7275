//! Deterministic clustering machinery of Section 3 of the paper: separated
//! weak-diameter network decompositions, sparse neighborhood `d`-covers,
//! layered sparse covers, and the periodic convergecast/broadcast wake
//! schedules that the low-energy algorithms coordinate with.
//!
//! # Contents
//!
//! * [`sparse_cover`] — sparse `d`-covers obtained by expanding every
//!   cluster of a deterministic `(2d+1)`-separated weak-diameter network
//!   decomposition with `O(log n)` colors by its `d`-neighborhood
//!   (Theorem 3.11), together with property validation. The decomposition
//!   (the role played by Rozhon–Ghaffari \[RG20\] in the paper,
//!   Theorem 3.10) is the crate-private `decomposition` module's
//!   deterministic ball carving, which the cover construction runs directly;
//!   all output properties required downstream are validated by
//!   [`sparse_cover::CoverStats`].
//! * [`layered`] — layered sparse `D`-covers (Definition 3.4): a hierarchy of
//!   sparse `B^j`-covers with parent links such that a parent cluster contains
//!   its child cluster plus a `B^{j+1}/2`-neighborhood (Observation 3.3).
//! * [`schedule`] — the periodic convergecast/broadcast wake schedule of
//!   Section 3.1.1, with its latency and energy accounting.
//!
//! # Example
//!
//! ```
//! use congest_graph::generators;
//! use congest_cover::sparse_cover::SparseCover;
//!
//! let g = generators::grid(8, 8, 1);
//! let cover = SparseCover::construct(&g, 2);
//! let stats = cover.validate(&g).expect("a freshly built cover is valid");
//! // Every node's 2-neighborhood is fully inside some cluster, and no node
//! // is in more clusters than there are colors.
//! assert!(stats.max_membership as u32 <= cover.color_count());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
mod decomposition;
pub mod layered;
#[cfg(test)]
mod reference;
pub mod schedule;
pub mod sparse_cover;
#[cfg(test)]
mod test_graphs;
mod workspace;

pub use cluster::{Cluster, ClusterId, ClusterTree, TreeRow};
pub use layered::LayeredCover;
pub use schedule::ClusterSchedule;
pub use sparse_cover::{geometric_levels, CoverError, CoverStats, SparseCover};
