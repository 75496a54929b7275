//! The retained reference oracle: the layout and kernel the slot table
//! replaced — per level a CSR of every node's `(cluster id, center distance)`
//! entries sorted by cluster id, and a query that finds two nodes' shared
//! clusters by a linear merge of their sorted slices, level by level. It is
//! built from the plain cluster lists, never from the slot table, so it
//! shares nothing with [`crate::LevelBuilder`], [`DistanceOracle::from_levels`]
//! or the compare-and-min kernel, and the differential below pins
//! `query == reference` on every ordered pair.

use congest_graph::{Distance, NodeId};

use crate::{DistanceOracle, LevelBuilder, MAX_STORED, UNREACHED};

/// One level as its input: the radius and, in push order, every cluster's
/// members with their center distances.
pub(crate) struct LevelSpec {
    pub(crate) d: u64,
    pub(crate) clusters: Vec<(Vec<NodeId>, Vec<Distance>)>,
}

/// The shipped oracle over `specs`.
pub(crate) fn build(n: u32, specs: &[LevelSpec]) -> DistanceOracle {
    let levels = specs.iter().map(|spec| {
        let mut builder = LevelBuilder::new(n, spec.d);
        for (members, dist) in &spec.clusters {
            builder.push_cluster(members, dist);
        }
        builder.finish()
    });
    DistanceOracle::from_levels(n, levels.collect())
}

struct ReferenceLevel {
    offsets: Vec<u32>,
    cluster_ids: Vec<u32>,
    center_dist: Vec<u64>,
}

impl ReferenceLevel {
    fn new(n: u32, spec: &LevelSpec) -> Self {
        let mut per_node: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n as usize];
        for (id, (members, dist)) in spec.clusters.iter().enumerate() {
            for (&v, &dd) in members.iter().zip(dist) {
                per_node[v.index()].push((id as u32, dd.finite().unwrap_or(UNREACHED)));
            }
        }
        let mut level =
            ReferenceLevel { offsets: vec![0], cluster_ids: Vec::new(), center_dist: Vec::new() };
        for list in &per_node {
            assert!(list.windows(2).all(|w| w[0].0 < w[1].0), "sorted by cluster id");
            for &(c, dd) in list {
                level.cluster_ids.push(c);
                level.center_dist.push(dd);
            }
            level.offsets.push(level.cluster_ids.len() as u32);
        }
        level
    }

    fn of(&self, v: usize) -> (&[u32], &[u64]) {
        let lo = self.offsets[v] as usize;
        let hi = self.offsets[v + 1] as usize;
        (&self.cluster_ids[lo..hi], &self.center_dist[lo..hi])
    }

    /// The best estimate for `(u, v)` on this level, by merging the two
    /// sorted membership slices.
    fn estimate(&self, u: usize, v: usize) -> u64 {
        let (cu, du) = self.of(u);
        let (cv, dv) = self.of(v);
        let mut best = UNREACHED;
        let (mut i, mut j) = (0usize, 0usize);
        while i < cu.len() && j < cv.len() {
            match cu[i].cmp(&cv[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if du[i] != UNREACHED && dv[j] != UNREACHED {
                        best = best.min(du[i] + dv[j]);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        best
    }
}

pub(crate) struct ReferenceOracle {
    levels: Vec<ReferenceLevel>,
}

impl ReferenceOracle {
    pub(crate) fn new(n: u32, specs: &[LevelSpec]) -> Self {
        ReferenceOracle { levels: specs.iter().map(|s| ReferenceLevel::new(n, s)).collect() }
    }

    pub(crate) fn query(&self, u: NodeId, v: NodeId) -> Distance {
        if u == v {
            return Distance::ZERO;
        }
        let best = self.levels.iter().map(|l| l.estimate(u.index(), v.index())).min();
        match best {
            Some(raw) if raw != UNREACHED => Distance::Finite(raw),
            _ => Distance::Infinite,
        }
    }
}

/// `query`, and `query_into` at every thread count, against the reference on
/// every ordered pair.
fn assert_matches_reference(n: u32, specs: &[LevelSpec], what: &str) -> DistanceOracle {
    let oracle = build(n, specs);
    let reference = ReferenceOracle::new(n, specs);
    let pairs: Vec<(NodeId, NodeId)> =
        (0..n).flat_map(|u| (0..n).map(move |v| (NodeId(u), NodeId(v)))).collect();
    let expected: Vec<Distance> = pairs.iter().map(|&(u, v)| reference.query(u, v)).collect();
    for (&(u, v), &want) in pairs.iter().zip(&expected) {
        assert_eq!(oracle.query(u, v), want, "{what}: ({u},{v})");
    }
    for threads in [1, 2, 4, 7] {
        let mut out = vec![Distance::ZERO; pairs.len()];
        oracle.query_into(&pairs, &mut out, threads);
        assert_eq!(out, expected, "{what}: query_into at {threads} threads");
    }
    oracle
}

fn nodes(ids: &[u32]) -> Vec<NodeId> {
    ids.iter().map(|&v| NodeId(v)).collect()
}

fn finite(dist: &[u64]) -> Vec<Distance> {
    dist.iter().map(|&d| Distance::Finite(d)).collect()
}

/// A seeded cluster system with none of a cover's structure: `levels` levels
/// of random subsets in random order, distances up to `max_dist`, one entry
/// in eight [`Distance::Infinite`].
fn random_specs(n: u32, levels: u64, max_dist: u64, seed: u64) -> Vec<LevelSpec> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    (1..=levels)
        .map(|d| {
            let clusters = (0..1 + next() % u64::from(2 * n))
                .map(|_| {
                    let keep_one_in = 1 + next() % 6;
                    let members: Vec<NodeId> =
                        (0..n).filter(|_| next() % keep_one_in == 0).map(NodeId).collect();
                    let dist = members
                        .iter()
                        .map(|_| match next() % 8 {
                            0 => Distance::Infinite,
                            _ => Distance::Finite(next() % (max_dist + 1)),
                        })
                        .collect();
                    (members, dist)
                })
                .collect();
            LevelSpec { d, clusters }
        })
        .collect()
}

#[test]
fn a_push_order_that_is_not_colour_major_widens_the_level_and_stays_exact() {
    // First-fit: {0} and {2} take slot 0, {1,2} slot 1, and {0,1} finds slot 0
    // taken in 0's row and slot 1 in 1's — a third slot, for nodes that each
    // belong to two clusters.
    let clusters = vec![
        (nodes(&[0]), finite(&[0])),
        (nodes(&[2]), finite(&[0])),
        (nodes(&[1, 2]), finite(&[3, 0])),
        (nodes(&[0, 1]), finite(&[0, 5])),
    ];
    let specs = [
        LevelSpec { d: 1, clusters },
        LevelSpec { d: 2, clusters: vec![(nodes(&[0, 1, 2]), finite(&[7, 0, 4]))] },
    ];
    let oracle = assert_matches_reference(3, &specs, "out of order");
    assert_eq!(oracle.stats().max_membership, 2);
    assert_eq!(oracle.stats().row_width, 3 + 1);
    assert_eq!(oracle.stats().entries, 6 + 3);
    assert_eq!(oracle.stats().bytes, 12 * 3 * 4);
    assert_eq!(oracle.query(NodeId(0), NodeId(1)), Distance::Finite(5));
    assert_eq!(oracle.query(NodeId(0), NodeId(2)), Distance::Finite(11));
}

#[test]
fn infinite_entries_answer_nothing() {
    let specs = [LevelSpec {
        d: 1,
        clusters: vec![
            (nodes(&[0, 1, 2]), vec![Distance::ZERO, Distance::Infinite, Distance::Finite(2)]),
            (nodes(&[1, 2]), vec![Distance::Infinite, Distance::Infinite]),
        ],
    }];
    let oracle = assert_matches_reference(3, &specs, "infinite entries");
    assert_eq!(oracle.query(NodeId(0), NodeId(2)), Distance::Finite(2));
    assert!(oracle.query(NodeId(0), NodeId(1)).is_infinite());
    assert!(oracle.query(NodeId(1), NodeId(2)).is_infinite());
    // The sentinel is an entry: it is counted, it only never answers.
    assert_eq!(oracle.stats().entries, 5);
}

#[test]
fn random_cluster_systems_match_the_reference() {
    for (n, levels) in [(1, 1), (2, 1), (2, 3), (5, 2), (17, 3), (40, 4)] {
        for seed in 0..6 {
            for max_dist in [9, MAX_STORED] {
                let specs = random_specs(n, levels, max_dist, seed);
                assert_matches_reference(n, &specs, &format!("n {n}, seed {seed}, ≤ {max_dist}"));
            }
        }
    }
}

#[test]
fn empty_levels_and_empty_oracles_answer_only_the_diagonal() {
    assert_matches_reference(0, &[], "no nodes");
    assert_matches_reference(3, &[], "no levels");
    assert_matches_reference(3, &[LevelSpec { d: 1, clusters: Vec::new() }], "no clusters");
}
