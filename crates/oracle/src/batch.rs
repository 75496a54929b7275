//! simlint: hot-path
//!
//! The query kernel: point-to-point and batch distance queries.
//!
//! This module is the oracle's steady state — a service answering millions of
//! queries against an immutable structure — so it must not allocate per
//! query (enforced statically by the `simlint: hot-path` header above and
//! dynamically by `tests/alloc_regression.rs`). A cluster sits in the same
//! slot of every member's row (see the crate docs), so the shared clusters of
//! two nodes are the positions where their rows hold equal ids: a query is one
//! fixed-trip compare-and-min loop, the same cost for every pair, with no
//! data-dependent control flow. Batch queries split the input across threads
//! by contiguous ranges, and because every query is a pure read of the
//! immutable oracle the results are bit-identical at any thread count by
//! construction.

use congest_graph::{Distance, NodeId};

use crate::{Backend, DistanceOracle, SlotTable, UNREACHED};

/// The best estimate for `u ≠ v` over every level: minimum of
/// `dist(c, u) + dist(c, v)` over the slots where both rows name the same
/// cluster `c`. The sum cannot wrap: [`DistanceOracle::from_levels`] bounds
/// every stored distance by `(u64::MAX − 1) / 2`. Only for `u ≠ v` — a row's
/// free slots equal themselves.
fn slot_estimate(table: &SlotTable, u: usize, v: usize) -> u64 {
    let w = table.width;
    let (ids_u, ids_v) = (&table.ids[u * w..][..w], &table.ids[v * w..][..w]);
    let (dist_u, dist_v) = (&table.center_dist[u * w..][..w], &table.center_dist[v * w..][..w]);
    let mut best = UNREACHED;
    for k in 0..w {
        // All ones where the ids differ: the sum, at most `UNREACHED − 1`,
        // becomes `UNREACHED`. A mask and not an `if`, which compiles to a
        // branch on the comparison.
        let miss = u64::from(ids_u[k] != ids_v[k]).wrapping_neg();
        best = best.min((dist_u[k] + dist_v[k]) | miss);
    }
    best
}

/// The raw estimate for `(u, v)` as a `u64` (`UNREACHED` = no shared cluster
/// on any level, i.e. different components for complete level sets).
fn raw_query(oracle: &DistanceOracle, u: usize, v: usize) -> u64 {
    if u == v {
        return 0;
    }
    match &oracle.backend {
        Backend::Slots(table) => slot_estimate(table, u, v),
        Backend::Exact(matrix) => matrix[u * oracle.n as usize + v],
    }
}

fn to_distance(raw: u64) -> Distance {
    if raw == UNREACHED {
        Distance::Infinite
    } else {
        Distance::Finite(raw)
    }
}

impl DistanceOracle {
    /// The oracle's distance estimate for the pair `(u, v)`: exact on the
    /// fallback backend, otherwise within [`crate::OracleStats::stretch_bound`]
    /// times the true distance and never below it. [`Distance::Infinite`]
    /// means `u` and `v` share no cluster (different connected components).
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn query(&self, u: NodeId, v: NodeId) -> Distance {
        assert!(u.index() < self.n as usize, "u out of range");
        assert!(v.index() < self.n as usize, "v out of range");
        to_distance(raw_query(self, u.index(), v.index()))
    }

    /// Batch queries, slice-in/slice-out: `out[i] = query(pairs[i])` with
    /// zero per-query allocation. `threads > 1` shards the batch into
    /// contiguous ranges answered concurrently (allocating only the `O(threads)`
    /// scoped-thread handles, independent of the batch size); results are
    /// bit-identical at every thread count.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != pairs.len()` or any node is out of range.
    pub fn query_into(&self, pairs: &[(NodeId, NodeId)], out: &mut [Distance], threads: usize) {
        assert_eq!(pairs.len(), out.len(), "one output slot per pair");
        for &(u, v) in pairs {
            assert!(u.index() < self.n as usize, "u out of range");
            assert!(v.index() < self.n as usize, "v out of range");
        }
        let threads = threads.max(1).min(pairs.len().max(1));
        if threads == 1 {
            for (slot, &(u, v)) in out.iter_mut().zip(pairs.iter()) {
                *slot = to_distance(raw_query(self, u.index(), v.index()));
            }
            return;
        }
        let chunk = pairs.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for (pair_chunk, out_chunk) in pairs.chunks(chunk).zip(out.chunks_mut(chunk)) {
                scope.spawn(move || {
                    for (slot, &(u, v)) in out_chunk.iter_mut().zip(pair_chunk.iter()) {
                        *slot = to_distance(raw_query(self, u.index(), v.index()));
                    }
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LevelBuilder;

    /// The two-level oracle over the unit path 0-1-2-3 from the lib tests.
    fn path_oracle() -> DistanceOracle {
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
    fn queries_never_underestimate_and_respect_the_bound() {
        let o = path_oracle();
        let truth = |u: u32, v: u32| u.abs_diff(v) as u64;
        let bound = o.stats().stretch_bound;
        for u in 0..4u32 {
            for v in 0..4u32 {
                let est = o.query(NodeId(u), NodeId(v)).expect_finite();
                let t = truth(u, v);
                assert!(est >= t, "({u},{v}): est {est} < truth {t}");
                assert!(est <= bound * t.max(1), "({u},{v}): est {est} > {bound}·{t}");
            }
        }
        // Adjacent pairs share a d=1 cluster whose center is one endpoint.
        assert_eq!(o.query(NodeId(0), NodeId(1)), Distance::Finite(1));
        // The far pair is only covered by the top level: 3 + 0 via center 0
        // is not available (0 and 3 share only the top cluster): 0 + 3.
        assert_eq!(o.query(NodeId(0), NodeId(3)), Distance::Finite(3));
        assert_eq!(o.query(NodeId(2), NodeId(2)), Distance::ZERO);
    }

    #[test]
    fn exact_backend_answers_are_lookups() {
        let matrix = vec![
            vec![Distance::ZERO, Distance::Finite(5), Distance::Infinite],
            vec![Distance::Finite(5), Distance::ZERO, Distance::Infinite],
            vec![Distance::Infinite, Distance::Infinite, Distance::ZERO],
        ];
        let o = DistanceOracle::exact(3, matrix);
        assert_eq!(o.query(NodeId(0), NodeId(1)), Distance::Finite(5));
        assert_eq!(o.query(NodeId(0), NodeId(2)), Distance::Infinite);
        assert_eq!(o.query(NodeId(2), NodeId(2)), Distance::ZERO);
    }

    #[test]
    fn batch_matches_single_queries_at_every_thread_count() {
        let o = path_oracle();
        let mut pairs = Vec::new();
        for u in 0..4u32 {
            for v in 0..4u32 {
                pairs.push((NodeId(u), NodeId(v)));
            }
        }
        let mut seq = vec![Distance::Infinite; pairs.len()];
        o.query_into(&pairs, &mut seq, 1);
        for (i, &(u, v)) in pairs.iter().enumerate() {
            assert_eq!(seq[i], o.query(u, v));
        }
        for threads in [2, 4, 7, 64] {
            let mut out = vec![Distance::Infinite; pairs.len()];
            o.query_into(&pairs, &mut out, threads);
            assert_eq!(out, seq, "threads = {threads}");
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let o = path_oracle();
        o.query_into(&[], &mut [], 4);
    }

    #[test]
    #[should_panic(expected = "one output slot per pair")]
    fn mismatched_batch_slices_rejected() {
        let o = path_oracle();
        let mut out = [Distance::Infinite];
        o.query_into(&[], &mut out, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_query_rejected() {
        let o = path_oracle();
        let _ = o.query(NodeId(9), NodeId(0));
    }
}
