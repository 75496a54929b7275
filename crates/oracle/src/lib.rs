//! Approximate distance oracle with sublinear space, built on sparse covers.
//!
//! The paper's APSP ramification gives every node its full routing table, but
//! a *query service* cannot afford the `O(n²)` matrix. This crate is the
//! long-lived query layer: it is constructed **once** from a geometric
//! sequence of sparse `d`-covers (d = 1, 2, 4, … — see
//! `congest_cover::sparse_cover`), stores only each node's distances to the
//! centers of the `O(log n)`-ish clusters it belongs to per level, and then
//! answers point-to-point distance queries by comparing the two nodes' rows of
//! one fixed-width table.
//!
//! # Structure and guarantee
//!
//! A level with radius `d` stores, for every node `u` and every cover cluster
//! `C ∋ u`, the exact weighted distance `dist_C(center(C), u)` *inside the
//! cluster's induced subgraph*. A query `(u, v)` returns
//!
//! ```text
//! est(u, v) = min over levels ℓ, min over clusters C with u, v ∈ C of
//!             dist_C(center(C), u) + dist_C(center(C), v)
//! ```
//!
//! * **Never an underestimate**: `dist_C(c, ·) ≥ dist_G(c, ·)`, so by the
//!   triangle inequality every candidate is `≥ dist_G(u, v)`.
//! * **Bounded stretch**: with edge weights `≥ 1`, a pair at true distance
//!   `t` whose shortest path has `h ≤ t` hops is covered by the first level
//!   with `d_ℓ ≥ h` (the cover property puts the whole `d_ℓ`-ball of `u`,
//!   hence `v`, inside `u`'s home cluster), where the estimate is at most
//!   twice the level's largest stored center distance. Chasing this through
//!   the geometric sequence yields the per-oracle bound computed by
//!   [`DistanceOracle::from_levels`] and reported as
//!   [`OracleStats::stretch_bound`]; [`DistanceOracle::query`] never returns
//!   more than `stretch_bound × dist_G(u, v)`.
//!
//! # Layout: colour-slotted rows
//!
//! A sparse cover puts every node in at most one cluster per colour of the
//! separated decomposition, so a cluster can be given a *slot* — a position
//! that is the same in the row of every one of its members. [`LevelBuilder`]
//! assigns slots first-fit: the lowest position still free in every member's
//! row. Clusters arrive colour-major from `SparseCover::clusters` and
//! same-colour clusters are disjoint, so by induction a cluster's slot is at
//! most its colour and a level is at most `colours = O(log n)` slots wide.
//! Any other push order stays exact; it can only make a level wider.
//! [`DistanceOracle::from_levels`] concatenates the levels into one row-major
//! table of `n` rows and `W = Σ W_ℓ` slots — a `u32` id column (cluster id
//! plus the level's key base) and a `u64` distance column. A slot holding no
//! answer carries an id no other row has and distance 0, so `u` and `v` share
//! a cluster exactly where their rows hold equal ids, and a query is one
//! fixed-trip compare-and-min loop over the two rows ([`batch`]). The price
//! is space: `12·n·W` bytes, empty slots included ([`OracleStats::bytes`],
//! [`OracleStats::row_width`]).
//!
//! The construction driver lives in `congest_sssp::oracle`: it runs one
//! facade SSSP per cluster (reusing the registry's solvers rather than a
//! private shortest-path implementation) and feeds this crate's
//! [`LevelBuilder`]. Below a configurable node count
//! ([`OracleConfig::fallback_threshold`]) the driver materializes exact APSP
//! instead ([`DistanceOracle::exact`]) — at small `n` the matrix is cheap and
//! the answers become exact (`stretch_bound == 1`).
//!
//! Batch queries ([`DistanceOracle::query_into`]) are slice-in/slice-out with
//! zero per-query allocation (lint-enforced by the `simlint: hot-path` header
//! on the [`batch`] kernel and pinned by `tests/alloc_regression.rs`), and
//! shard a batch across threads by contiguous ranges — results are
//! bit-identical at every thread count because each query is a pure read.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
#[cfg(test)]
mod reference;

use congest_graph::{Distance, NodeId};
use serde::{Deserialize, Serialize};

/// Internal sentinel for "no stored distance" (center unreachable inside the
/// cluster subgraph — defensive; covers built from connected expansions never
/// produce it).
pub(crate) const UNREACHED: u64 = u64::MAX;

/// Largest finite distance an oracle stores: the sum of two stored distances
/// stays below [`UNREACHED`], so the query kernel adds them with a plain `+`.
const MAX_STORED: u64 = (u64::MAX - 1) / 2;

/// Set in the id of a slot that holds no answer. The other 31 bits are the
/// row's node, so no two rows agree on such an id.
const EMPTY: u32 = 0x8000_0000;

/// Construction policy for a [`DistanceOracle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OracleConfig {
    /// Graphs with at most this many nodes skip the cover hierarchy and
    /// materialize exact APSP instead ([`DistanceOracle::exact`]): below this
    /// size the `n²` matrix is smaller than the bookkeeping it replaces, and
    /// queries become exact.
    pub fallback_threshold: u32,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig { fallback_threshold: 64 }
    }
}

impl OracleConfig {
    /// Sets the exact-APSP fallback threshold.
    pub fn with_fallback_threshold(mut self, threshold: u32) -> Self {
        self.fallback_threshold = threshold;
        self
    }
}

/// Space and quality accounting of a built oracle, reported by
/// [`DistanceOracle::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OracleStats {
    /// Number of nodes the oracle serves.
    pub n: u32,
    /// `true` when the oracle is an exact APSP matrix (small-`n` fallback).
    pub fallback: bool,
    /// Number of cover levels (0 for the exact fallback).
    pub levels: u32,
    /// Total clusters across all levels.
    pub clusters: u64,
    /// Total stored `(cluster, center-distance)` entries across all levels.
    pub entries: u64,
    /// Resident bytes of the query structure (`12·n·row_width`: every slot
    /// of the table, free ones included — or `n²·8` for the exact fallback).
    pub bytes: u64,
    /// Bytes an exact all-pairs matrix would take (`n²·8`), for comparison.
    pub exact_matrix_bytes: u64,
    /// Proven multiplicative stretch bound: every finite
    /// [`DistanceOracle::query`] answer is within `stretch_bound ×` the true
    /// distance (`1` for the exact fallback).
    pub stretch_bound: u64,
    /// Maximum number of clusters any single node belongs to on one level.
    pub max_membership: u32,
    /// Slots per row of the table, `W = Σ W_ℓ` over the levels: what one
    /// query scans of each of its two nodes (0 for the exact fallback).
    pub row_width: u32,
}

/// One cover level of the oracle: for every node, its clusters on this level
/// and the exact in-cluster distance to each cluster's center, stored as a
/// row-major table of `n` rows and [`OracleLevel::width`] slots. A cluster
/// sits in the same slot of every member's row (see the crate docs).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OracleLevel {
    /// The cover radius `d` of this level.
    pub d: u64,
    /// Number of clusters on this level.
    pub clusters: u32,
    /// Largest finite stored center distance on this level (enters the
    /// stretch bound as the level's worst-case estimate `2 × max_center_dist`).
    pub max_center_dist: u64,
    n: u32,
    width: u32,
    /// Cluster id of an occupied slot, `EMPTY | node` of a free one.
    ids: Vec<u32>,
    /// Center distance of an occupied slot (`UNREACHED` for a stored
    /// [`Distance::Infinite`]), 0 in a free one.
    center_dist: Vec<u64>,
}

impl OracleLevel {
    /// Slots per row: the number of distinct first-fit positions the level's
    /// clusters needed. At least [`OracleLevel::max_membership`], and at most
    /// the cover's colour count for clusters pushed colour-major.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Appends one free slot to every row, in place: rows move back to front,
    /// so no row is overwritten before it has moved. A level widens at most
    /// `colours` times, so a build allocates `O(levels · colours)` buffers
    /// whatever `n` is.
    fn widen(&mut self) {
        let (n, w) = (self.n as usize, self.width as usize);
        self.ids.resize(n * (w + 1), 0);
        self.center_dist.resize(n * (w + 1), 0);
        for v in (0..n).rev() {
            self.ids.copy_within(v * w..(v + 1) * w, v * (w + 1));
            self.center_dist.copy_within(v * w..(v + 1) * w, v * (w + 1));
            self.ids[v * (w + 1) + w] = EMPTY | v as u32;
            self.center_dist[v * (w + 1) + w] = 0;
        }
        self.width += 1;
    }

    /// Stored `(cluster, distance)` entries on this level: its occupied slots.
    pub fn entries(&self) -> u64 {
        self.ids.iter().filter(|&&id| id & EMPTY == 0).count() as u64
    }

    /// Resident bytes of this level's slots, free ones included.
    pub fn bytes(&self) -> u64 {
        self.ids.len() as u64 * 12
    }

    /// Maximum entries of any single node on this level.
    pub fn max_membership(&self) -> u32 {
        // `chunks_exact(0)` panics; a level nobody pushed to has no slots.
        self.ids
            .chunks_exact(self.width.max(1) as usize)
            .map(|row| row.iter().filter(|&&id| id & EMPTY == 0).count() as u32)
            .max()
            .unwrap_or(0)
    }
}

/// Accumulates one [`OracleLevel`] cluster by cluster.
///
/// Each cluster takes the lowest slot free in every member's row. Pushing in
/// increasing id order (the natural iteration order of
/// `SparseCover::clusters`, which is colour-major) keeps the level as narrow
/// as its colour count; any order gives the same query answers.
#[derive(Debug)]
pub struct LevelBuilder {
    level: OracleLevel,
}

impl LevelBuilder {
    /// Starts an empty level with radius `d` over `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n` does not fit in 31 bits.
    pub fn new(n: u32, d: u64) -> Self {
        assert!(n < EMPTY, "node ids fit in 31 bits");
        let level = OracleLevel {
            d,
            clusters: 0,
            max_center_dist: 0,
            n,
            width: 0,
            ids: Vec::new(),
            center_dist: Vec::new(),
        };
        LevelBuilder { level }
    }

    /// Adds the next cluster: `members[i]` is a member node and `dist[i]` its
    /// exact distance from the cluster center inside the cluster's induced
    /// subgraph ([`Distance::Infinite`] is stored as a sentinel and skipped
    /// by queries). Members are distinct.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or a member is out of range.
    pub fn push_cluster(&mut self, members: &[NodeId], dist: &[Distance]) {
        assert_eq!(members.len(), dist.len(), "one distance per member");
        let lvl = &mut self.level;
        assert!(members.iter().all(|v| v.0 < lvl.n), "member out of range");
        let id = lvl.clusters;
        lvl.clusters += 1;
        let w = lvl.width as usize;
        let free =
            (0..w).find(|&k| members.iter().all(|v| lvl.ids[v.index() * w + k] & EMPTY != 0));
        let slot = free.unwrap_or_else(|| {
            lvl.widen();
            w
        });
        let w = lvl.width as usize;
        for (&v, &dd) in members.iter().zip(dist.iter()) {
            let stored = match dd.finite() {
                Some(f) => {
                    lvl.max_center_dist = lvl.max_center_dist.max(f);
                    f
                }
                None => UNREACHED,
            };
            lvl.ids[v.index() * w + slot] = id;
            lvl.center_dist[v.index() * w + slot] = stored;
        }
    }

    /// The finished level; the builder's table is the level's, nothing is
    /// copied.
    pub fn finish(self) -> OracleLevel {
        self.level
    }
}

/// The cover backend: every level's slots side by side, one row per node.
/// `u` and `v` share a cluster exactly where `ids` agree on their two rows
/// (a slot without an answer holds `EMPTY | node` and distance 0).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct SlotTable {
    /// Slots per row, `W = Σ W_ℓ`.
    pub(crate) width: usize,
    /// Cluster id plus the level's key base.
    pub(crate) ids: Vec<u32>,
    /// Center distances, each at most `MAX_STORED`.
    pub(crate) center_dist: Vec<u64>,
}

/// The oracle's two storage backends.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum Backend {
    /// The sparse-cover hierarchy.
    Slots(SlotTable),
    /// Row-major exact `n × n` matrix (`u64::MAX` = unreachable), used below
    /// the fallback threshold.
    Exact(Vec<u64>),
}

/// A built distance oracle: answers point-to-point (and batch) distance
/// queries forever after a one-time construction. See the crate docs for the
/// guarantee and `congest_sssp::oracle` for the construction driver.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistanceOracle {
    pub(crate) n: u32,
    pub(crate) backend: Backend,
    stats: OracleStats,
}

impl DistanceOracle {
    /// Assembles an oracle from finished cover levels and computes the proven
    /// stretch bound.
    ///
    /// The levels must have strictly increasing radii and must be *complete*:
    /// the last level's clusters each span a whole connected component (or
    /// its radius is at least `n − 1`), so that every connected pair shares a
    /// cluster somewhere. The construction driver guarantees this by doubling
    /// `d` until `SparseCover::is_component_cover` holds.
    ///
    /// The bound: a pair whose shortest path has `h` hops is covered by the
    /// first level with `d_ℓ ≥ h`, where the estimate is at most
    /// `2 × max_center_dist(ℓ)`; with weights `≥ 1` the true distance exceeds
    /// the previous level's radius, so level `ℓ` contributes stretch at most
    /// `⌈2 × max_center_dist(ℓ) / (d_{ℓ−1} + 1)⌉`, and the oracle's bound is
    /// the maximum over levels.
    ///
    /// The finite stored distances are bounded here, once, so that the query
    /// kernel's sum of two of them cannot wrap.
    ///
    /// # Panics
    ///
    /// Panics if the level radii are not strictly increasing, if a level was
    /// built over a node count other than `n`, if the levels hold `2³¹` or
    /// more clusters, or if a finite stored distance exceeds
    /// `(u64::MAX − 1) / 2`.
    pub fn from_levels(n: u32, levels: Vec<OracleLevel>) -> Self {
        let mut stretch_bound: u64 = 1;
        let mut prev_d: u64 = 0;
        for lvl in &levels {
            assert!(lvl.d > prev_d, "strictly increasing radii");
            assert_eq!(lvl.n, n, "every level is built over the oracle's nodes");
            let worst_estimate = lvl.max_center_dist.saturating_mul(2);
            stretch_bound = stretch_bound.max(worst_estimate.div_ceil(prev_d + 1));
            prev_d = lvl.d;
        }
        let clusters: u64 = levels.iter().map(|l| l.clusters as u64).sum();
        assert!(clusters < u64::from(EMPTY), "cluster keys fit in 31 bits");
        let width: usize = levels.iter().map(|l| l.width as usize).sum();
        let stats = OracleStats {
            n,
            fallback: false,
            levels: levels.len() as u32,
            clusters,
            entries: levels.iter().map(OracleLevel::entries).sum(),
            bytes: levels.iter().map(OracleLevel::bytes).sum(),
            exact_matrix_bytes: n as u64 * n as u64 * 8,
            stretch_bound,
            max_membership: levels.iter().map(OracleLevel::max_membership).max().unwrap_or(0),
            row_width: width as u32,
        };

        let mut ids = Vec::with_capacity(n as usize * width);
        let mut center_dist = Vec::with_capacity(n as usize * width);
        for v in 0..n as usize {
            let mut key_base = 0u32;
            for lvl in &levels {
                let w = lvl.width as usize;
                let row = v * w..(v + 1) * w;
                for (&id, &dd) in lvl.ids[row.clone()].iter().zip(&lvl.center_dist[row]) {
                    if id & EMPTY != 0 || dd == UNREACHED {
                        ids.push(EMPTY | v as u32);
                        center_dist.push(0);
                    } else {
                        assert!(
                            dd <= MAX_STORED,
                            "stored distances are at most (u64::MAX - 1) / 2"
                        );
                        ids.push(key_base + id);
                        center_dist.push(dd);
                    }
                }
                key_base += lvl.clusters;
            }
        }
        DistanceOracle { n, backend: Backend::Slots(SlotTable { width, ids, center_dist }), stats }
    }

    /// Wraps an exact all-pairs matrix (the small-`n` fallback): queries are
    /// plain lookups and the stretch bound is 1.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not `n × n`.
    pub fn exact(n: u32, matrix: Vec<Vec<Distance>>) -> Self {
        assert_eq!(matrix.len(), n as usize, "one row per node");
        let mut flat = Vec::with_capacity(n as usize * n as usize);
        for row in &matrix {
            assert_eq!(row.len(), n as usize, "square matrix");
            flat.extend(row.iter().map(|d| d.finite().unwrap_or(UNREACHED)));
        }
        let bytes = flat.len() as u64 * 8;
        let stats = OracleStats {
            n,
            fallback: true,
            levels: 0,
            clusters: 0,
            entries: 0,
            bytes,
            exact_matrix_bytes: bytes,
            stretch_bound: 1,
            max_membership: 0,
            row_width: 0,
        };
        DistanceOracle { n, backend: Backend::Exact(flat), stats }
    }

    /// Number of nodes the oracle serves.
    pub fn node_count(&self) -> u32 {
        self.n
    }

    /// `true` when answers are exact (the APSP fallback backend).
    pub fn is_exact(&self) -> bool {
        matches!(self.backend, Backend::Exact(_))
    }

    /// Space and quality accounting of the built structure.
    pub fn stats(&self) -> &OracleStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_level_oracle() -> DistanceOracle {
        // Path 0-1-2-3, unit weights. Level d=1: clusters {0,1}, {1,2}, {2,3}
        // centered at 0, 1, 2 (radius-1 balls, simplified). Level d=4: one
        // cluster, whole path, centered at 0.
        let mut l1 = LevelBuilder::new(4, 1);
        l1.push_cluster(&[NodeId(0), NodeId(1)], &[Distance::ZERO, Distance::Finite(1)]);
        l1.push_cluster(
            &[NodeId(0), NodeId(1), NodeId(2)],
            &[Distance::Finite(1), Distance::ZERO, Distance::Finite(1)],
        );
        l1.push_cluster(
            &[NodeId(1), NodeId(2), NodeId(3)],
            &[Distance::Finite(1), Distance::ZERO, Distance::Finite(1)],
        );
        let mut l2 = LevelBuilder::new(4, 4);
        l2.push_cluster(
            &[NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
            &[Distance::ZERO, Distance::Finite(1), Distance::Finite(2), Distance::Finite(3)],
        );
        DistanceOracle::from_levels(4, vec![l1.finish(), l2.finish()])
    }

    #[test]
    fn builder_flattens_sorted_and_counts() {
        let o = two_level_oracle();
        let s = o.stats();
        assert_eq!(s.n, 4);
        assert!(!s.fallback);
        assert_eq!(s.levels, 2);
        assert_eq!(s.clusters, 4);
        assert_eq!(s.entries, 8 + 4);
        assert_eq!(s.max_membership, 3);
        assert_eq!(s.exact_matrix_bytes, 4 * 4 * 8);
        assert_eq!(s.row_width, 3 + 1);
        assert_eq!(s.bytes, 12 * 4 * 4);
        // Node 1's row: clusters 0, 1, 2 of level one in slots 0, 1, 2, then
        // level two's cluster under its key base 3. Node 3 is in cluster 2
        // alone, in that cluster's slot, between two free ones.
        let Backend::Slots(table) = &o.backend else { panic!("cover backend") };
        assert_eq!(table.width, 4);
        assert_eq!(table.ids[4..8], [0, 1, 2, 3]);
        assert_eq!(table.center_dist[4..8], [1, 0, 1, 1]);
        assert_eq!(table.ids[12..16], [EMPTY | 3, EMPTY | 3, 2, 3]);
        assert_eq!(table.center_dist[12..16], [0, 0, 1, 3]);
    }

    #[test]
    fn a_cluster_takes_the_lowest_slot_free_in_every_members_row() {
        let mut b = LevelBuilder::new(5, 1);
        b.push_cluster(&[NodeId(0), NodeId(1)], &[Distance::ZERO, Distance::Finite(1)]);
        b.push_cluster(&[NodeId(2), NodeId(3)], &[Distance::ZERO, Distance::Finite(1)]);
        b.push_cluster(&[NodeId(1), NodeId(2)], &[Distance::ZERO, Distance::Finite(1)]);
        b.push_cluster(&[NodeId(3), NodeId(4)], &[Distance::ZERO, Distance::Finite(1)]);
        let lvl = b.finish();
        assert_eq!(lvl.width(), 2);
        assert_eq!(lvl.ids, [0, EMPTY, 0, 2, 1, 2, 1, 3, EMPTY | 4, 3]);
        assert_eq!((lvl.entries(), lvl.max_membership(), lvl.bytes()), (8, 2, 12 * 5 * 2));
    }

    #[test]
    fn stretch_bound_tracks_the_worst_level_ratio() {
        let o = two_level_oracle();
        // Level 1 (prev_d = 0): 2·1 / 1 = 2. Level 2 (prev_d = 1): 2·3 / 2 = 3.
        assert_eq!(o.stats().stretch_bound, 3);
    }

    #[test]
    fn exact_backend_reports_fallback_stats() {
        let matrix = vec![
            vec![Distance::ZERO, Distance::Finite(2)],
            vec![Distance::Finite(2), Distance::ZERO],
        ];
        let o = DistanceOracle::exact(2, matrix);
        assert!(o.is_exact());
        let s = o.stats();
        assert!(s.fallback);
        assert_eq!(s.stretch_bound, 1);
        assert_eq!(s.bytes, s.exact_matrix_bytes);
        assert_eq!(o.node_count(), 2);
    }

    #[test]
    #[should_panic(expected = "strictly increasing radii")]
    fn non_increasing_radii_rejected() {
        let l1 = LevelBuilder::new(2, 2).finish();
        let l2 = LevelBuilder::new(2, 2).finish();
        let _ = DistanceOracle::from_levels(2, vec![l1, l2]);
    }

    #[test]
    #[should_panic(expected = "one distance per member")]
    fn mismatched_cluster_slices_rejected() {
        let mut b = LevelBuilder::new(2, 1);
        b.push_cluster(&[NodeId(0)], &[]);
    }

    #[test]
    fn infinite_center_distances_are_sentineled() {
        let mut b = LevelBuilder::new(2, 1);
        b.push_cluster(&[NodeId(0), NodeId(1)], &[Distance::ZERO, Distance::Infinite]);
        let lvl = b.finish();
        assert_eq!(lvl.max_center_dist, 0);
        assert_eq!(lvl.center_dist, [0, UNREACHED]);
        assert_eq!(lvl.entries(), 2);
        // In the oracle's table the sentinel's slot is a free one.
        let o = DistanceOracle::from_levels(2, vec![lvl]);
        let Backend::Slots(table) = &o.backend else { panic!("cover backend") };
        assert_eq!((&table.ids[..], &table.center_dist[..]), (&[0, EMPTY | 1][..], &[0, 0][..]));
        assert!(o.query(NodeId(0), NodeId(1)).is_infinite());
    }

    #[test]
    #[should_panic(expected = "every level is built over the oracle's nodes")]
    fn a_level_over_another_node_count_is_rejected() {
        let _ = DistanceOracle::from_levels(3, vec![LevelBuilder::new(2, 1).finish()]);
    }

    #[test]
    #[should_panic(expected = "member out of range")]
    fn out_of_range_member_rejected() {
        let mut b = LevelBuilder::new(2, 1);
        b.push_cluster(&[NodeId(2)], &[Distance::ZERO]);
    }

    /// Two stored distances at the bound sum to `u64::MAX − 1`: still finite.
    /// One above it, a plain `+` would wrap to a small number — an
    /// underestimate — so `from_levels` refuses the level.
    #[test]
    fn stored_distances_at_the_bound_do_not_wrap() {
        let bound = (u64::MAX - 1) / 2;
        let mut b = LevelBuilder::new(2, 1);
        b.push_cluster(
            &[NodeId(0), NodeId(1)],
            &[Distance::Finite(bound), Distance::Finite(bound)],
        );
        let o = DistanceOracle::from_levels(2, vec![b.finish()]);
        assert_eq!(o.query(NodeId(0), NodeId(1)), Distance::Finite(u64::MAX - 1));
    }

    #[test]
    #[should_panic(expected = "stored distances are at most (u64::MAX - 1) / 2")]
    fn a_stored_distance_above_the_bound_is_rejected() {
        let above = (u64::MAX - 1) / 2 + 1;
        let mut b = LevelBuilder::new(2, 1);
        b.push_cluster(
            &[NodeId(0), NodeId(1)],
            &[Distance::Finite(above), Distance::Finite(above)],
        );
        let _ = DistanceOracle::from_levels(2, vec![b.finish()]);
    }
}
