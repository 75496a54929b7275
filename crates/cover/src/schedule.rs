//! Periodic convergecast/broadcast wake schedules on cluster trees
//! (Section 3.1.1 of the paper).
//!
//! A cluster tree of depth `d` with period `p` lets its nodes collect
//! information at the root (convergecast) and push information back down
//! (broadcast) while every node is awake in only a `Θ(1/p)` fraction of
//! rounds:
//!
//! * **convergecast:** node `v` is awake at rounds `k·p − depth(v) − 1` and
//!   `k·p − depth(v)` for `k = 1, 2, …`,
//! * **broadcast:** node `v` is awake at rounds `k·p + depth(v)` and
//!   `k·p + depth(v) + 1` for `k = 0, 1, …`.
//!
//! Once all nodes of the cluster follow both schedules, any signal entering
//! the tree at time `t` is known to every node by time `t + O(d + p)`
//! (the latency bound used by Lemma 3.7).

use serde::{Deserialize, Serialize};

/// The periodic wake schedule of one cluster tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ClusterSchedule {
    /// The period `p` (for a level-`j` cluster of a layered cover the paper
    /// uses `p = B^j`).
    pub period: u64,
    /// The depth of the cluster tree.
    pub depth: u64,
}

impl ClusterSchedule {
    /// Creates a schedule with the given period and tree depth.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn new(period: u64, depth: u64) -> Self {
        assert!(period > 0, "the period must be positive");
        ClusterSchedule { period, depth }
    }

    /// Returns `true` if a node at `node_depth` is awake for the
    /// *convergecast* process at `round`.
    pub fn convergecast_awake(&self, node_depth: u64, round: u64) -> bool {
        // Awake at rounds k*p - node_depth - 1 and k*p - node_depth, k >= 1.
        let p = self.period;
        let a = round + node_depth + 1; // equals k*p in the first case
        let b = round + node_depth; // equals k*p in the second case
        (a >= p && a % p == 0) || (b >= p && b % p == 0)
    }

    /// Returns `true` if a node at `node_depth` is awake for the *broadcast*
    /// process at `round`.
    pub fn broadcast_awake(&self, node_depth: u64, round: u64) -> bool {
        // Awake at rounds k*p + node_depth and k*p + node_depth + 1, k >= 0.
        if round < node_depth {
            return false;
        }
        let r = round - node_depth;
        r % self.period == 0 || (r > 0 && (r - 1) % self.period == 0)
    }

    /// Returns `true` if a node at `node_depth` is awake for either process.
    pub fn is_awake(&self, node_depth: u64, round: u64) -> bool {
        self.convergecast_awake(node_depth, round) || self.broadcast_awake(node_depth, round)
    }

    /// An upper bound on the number of rounds from the moment any active node
    /// receives a signal until all active nodes of the cluster know it:
    /// one convergecast up (≤ depth + period rounds to start moving plus depth
    /// to reach the root) plus one broadcast down. Saturates at `u64::MAX`.
    pub fn propagation_latency(&self) -> u64 {
        self.depth.saturating_mul(2).saturating_add(self.period.saturating_mul(2)).saturating_add(2)
    }

    /// The number of rounds a node at `node_depth` is awake within the
    /// half-open round interval `[from, to)`.
    pub fn awake_rounds_in(&self, node_depth: u64, from: u64, to: u64) -> u64 {
        if to <= from {
            return 0;
        }
        // 4 awake rounds per period window (2 for convergecast, 2 for
        // broadcast), counted exactly.
        (from..to).filter(|&r| self.is_awake(node_depth, r)).count() as u64
    }

    /// A closed-form upper bound on [`ClusterSchedule::awake_rounds_in`]:
    /// at most `4 ⌈(to - from) / period⌉ + 4` awake rounds, and never more
    /// than the window length itself. Saturates at `u64::MAX`.
    pub fn awake_rounds_bound(&self, from: u64, to: u64) -> u64 {
        if to <= from {
            return 0;
        }
        let window = to - from;
        (window / self.period).saturating_add(1).saturating_mul(4).saturating_add(4).min(window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn awake_fraction_is_about_four_per_period() {
        let s = ClusterSchedule::new(32, 5);
        for depth in [0, 3, 5] {
            let awake = s.awake_rounds_in(depth, 0, 3200);
            // 3200 rounds = 100 periods, 4 awake rounds each (2 convergecast +
            // 2 broadcast), possibly overlapping, so between 2 and 4 per period.
            assert!(awake <= 4 * 100 + 4, "awake {awake}");
            assert!(awake >= 2 * 100 - 4, "awake {awake}");
            assert!(awake <= s.awake_rounds_bound(0, 3200));
        }
    }

    #[test]
    fn convergecast_rounds_match_definition() {
        let s = ClusterSchedule::new(10, 4);
        // Node at depth 2: awake at k*10 - 3 and k*10 - 2 => rounds 7, 8, 17, 18, ...
        assert!(s.convergecast_awake(2, 7));
        assert!(s.convergecast_awake(2, 8));
        assert!(!s.convergecast_awake(2, 9));
        assert!(s.convergecast_awake(2, 17));
        assert!(!s.convergecast_awake(2, 6));
    }

    #[test]
    fn broadcast_rounds_match_definition() {
        let s = ClusterSchedule::new(10, 4);
        // Node at depth 3: awake at k*10 + 3 and k*10 + 4 => rounds 3, 4, 13, 14, ...
        assert!(s.broadcast_awake(3, 3));
        assert!(s.broadcast_awake(3, 4));
        assert!(!s.broadcast_awake(3, 5));
        assert!(s.broadcast_awake(3, 13));
        assert!(!s.broadcast_awake(3, 2));
    }

    #[test]
    fn adjacent_depths_overlap_for_relaying() {
        // For convergecast, a node at depth d must be awake in a round in
        // which its child (depth d+1) was awake the round before, so that the
        // child's message can be passed on: child awake at k*p - d - 2, parent
        // awake at k*p - d - 1.
        let s = ClusterSchedule::new(16, 6);
        for k in 1..5u64 {
            for d in 0..5u64 {
                let child_round = k * 16 - d - 2;
                let parent_round = child_round + 1;
                assert!(s.convergecast_awake(d + 1, child_round));
                assert!(s.convergecast_awake(d, parent_round));
            }
        }
        // Same for broadcast downward: parent (depth d) awake at k*p + d,
        // child (depth d+1) awake at k*p + d + 1.
        for k in 0..4u64 {
            for d in 0..5u64 {
                let parent_round = k * 16 + d;
                let child_round = parent_round + 1;
                assert!(s.broadcast_awake(d, parent_round));
                assert!(s.broadcast_awake(d + 1, child_round));
            }
        }
    }

    #[test]
    fn latency_bound_is_positive_and_monotone() {
        let a = ClusterSchedule::new(4, 2);
        let b = ClusterSchedule::new(4, 10);
        let c = ClusterSchedule::new(64, 10);
        assert!(a.propagation_latency() < b.propagation_latency());
        assert!(b.propagation_latency() < c.propagation_latency());
    }

    #[test]
    fn empty_interval_has_zero_awake_rounds() {
        let s = ClusterSchedule::new(8, 3);
        assert_eq!(s.awake_rounds_in(2, 100, 100), 0);
        assert_eq!(s.awake_rounds_in(2, 100, 50), 0);
        assert_eq!(s.awake_rounds_bound(100, 100), 0);
    }

    #[test]
    fn extreme_windows_and_depths_saturate() {
        let s = ClusterSchedule::new(1, u64::MAX);
        assert_eq!(s.propagation_latency(), u64::MAX);
        assert_eq!(s.awake_rounds_bound(0, u64::MAX), u64::MAX);
        assert_eq!(ClusterSchedule::new(u64::MAX, 0).propagation_latency(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_is_rejected() {
        let _ = ClusterSchedule::new(0, 3);
    }
}
