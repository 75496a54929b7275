//! Builds the sparse-cover distance oracle of `congest_oracle` on top of this
//! crate's solver facade.
//!
//! Preprocessing runs a geometric sequence of sparse covers (radius `d = 1,
//! 2, 4, …`) and, for every cluster, one ordinary [`Algorithm::Cssp`] run
//! from the cluster center on the cluster's induced subgraph — the oracle
//! reuses the registry's solvers rather than carrying a private shortest-path
//! implementation, so its preprocessing cost is measured in the same
//! rounds/messages/congestion currency as every other algorithm. Graphs at or
//! below [`OracleConfig::fallback_threshold`] nodes skip the hierarchy and
//! materialize exact APSP through the registry's own random-delay
//! composition.
//!
//! The level loop stops as soon as one cover's clusters contain whole
//! connected components ([`SparseCover::is_component_cover`]): at that level
//! every connected pair already shares a cluster, so larger radii add space
//! without adding answers.

use std::collections::BTreeSet;

use congest_cover::{geometric_levels, CoverStats, SparseCover};
use congest_graph::{Distance, Graph, NodeId};

pub use congest_oracle::{DistanceOracle, LevelBuilder, OracleConfig, OracleLevel, OracleStats};

use crate::apsp::{apsp, ApspConfig};
use crate::result::OracleReport;
use crate::solver::{Algorithm, Solver};
use crate::{AlgoConfig, AlgoError};

/// A built [`DistanceOracle`] together with the measured cost of building it
/// and the construction report the facade embeds into its
/// [`crate::RunReport`].
#[derive(Debug, Clone)]
pub struct OracleBuild {
    /// The query-ready oracle.
    pub oracle: DistanceOracle,
    /// Total simulated rounds of preprocessing (summed over the per-cluster
    /// SSSP runs, or the APSP schedule's model rounds on the fallback).
    pub rounds: u64,
    /// Total messages of preprocessing.
    pub messages: u64,
    /// Maximum per-edge congestion of any single preprocessing run.
    pub max_congestion: u64,
    /// Space/stretch accounting plus validated per-level cover statistics.
    pub report: OracleReport,
}

/// Builds a [`DistanceOracle`] for `g`.
///
/// # Errors
///
/// Whatever the underlying [`Algorithm::Cssp`] / APSP runs report (zero
/// weights, simulation failures); the cover construction itself is
/// deterministic and infallible.
pub fn build_oracle(
    g: &Graph,
    config: &AlgoConfig,
    oracle_config: &OracleConfig,
    apsp_config: &ApspConfig,
) -> Result<OracleBuild, AlgoError> {
    let n = g.node_count();
    if n <= oracle_config.fallback_threshold {
        let run = apsp(g, config, apsp_config)?;
        let rounds = run.schedule.model_rounds;
        let max_congestion = run.schedule.congestion;
        let messages = run.schedule.total_messages;
        let oracle = DistanceOracle::exact(n, run.distances);
        let report = report_of(&oracle, Vec::new(), Vec::new());
        return Ok(OracleBuild { oracle, rounds, messages, max_congestion, report });
    }

    let mut levels = Vec::new();
    let mut level_stats = Vec::new();
    let mut rounds = 0u64;
    let mut messages = 0u64;
    let mut max_congestion = 0u64;
    for d in geometric_levels(u64::from(n.saturating_sub(1)).max(1)) {
        let cover = SparseCover::construct(g, d);
        let stats = cover.validate(g).expect("constructed cover validates");
        let mut builder = LevelBuilder::new(n, d);
        for cluster in &cover.clusters {
            if cluster.members.len() == 1 {
                builder.push_cluster(&cluster.members, &[Distance::ZERO]);
                continue;
            }
            let keep: BTreeSet<NodeId> = cluster.members.iter().copied().collect();
            let (sub, new_to_old) = g.induced_subgraph(&keep);
            let center =
                new_to_old.binary_search(&cluster.center).expect("cluster center is a member");
            let run = Solver::on(&sub)
                .algorithm(Algorithm::Cssp)
                .source(NodeId(center as u32))
                .config(config.clone())
                .run()?;
            // Saturating, as every `Metrics` sum is: a cluster's run may
            // already report `u64::MAX`.
            rounds = rounds.saturating_add(run.report.rounds);
            messages = messages.saturating_add(run.report.messages);
            max_congestion = max_congestion.max(run.report.max_congestion);
            builder.push_cluster(&new_to_old, &run.output.distances);
        }
        levels.push(builder.finish());
        level_stats.push(stats);
        if cover.is_component_cover(g) {
            break;
        }
    }

    let level_widths = levels.iter().map(OracleLevel::width).collect();
    let oracle = DistanceOracle::from_levels(n, levels);
    let report = report_of(&oracle, level_stats, level_widths);
    Ok(OracleBuild { oracle, rounds, messages, max_congestion, report })
}

fn report_of(
    oracle: &DistanceOracle,
    level_stats: Vec<CoverStats>,
    level_widths: Vec<u32>,
) -> OracleReport {
    let stats = oracle.stats();
    OracleReport {
        fallback: stats.fallback,
        levels: stats.levels,
        clusters: stats.clusters,
        bytes: stats.bytes,
        row_width: stats.row_width,
        exact_matrix_bytes: stats.exact_matrix_bytes,
        stretch_bound: stats.stretch_bound,
        max_membership: stats.max_membership,
        max_tree_depth: level_stats.iter().map(|s| s.max_tree_depth).max().unwrap_or(0),
        level_stats,
        level_widths,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::{generators, sequential};

    fn weighted(n: u32, seed: u64) -> Graph {
        generators::with_random_weights(
            &generators::random_connected(n, 2 * n as u64, seed),
            9,
            seed,
        )
    }

    #[test]
    fn fallback_oracle_is_exact() {
        let g = weighted(20, 3);
        let build = build_oracle(
            &g,
            &AlgoConfig::default(),
            &OracleConfig::default(),
            &ApspConfig::default(),
        )
        .unwrap();
        assert!(build.oracle.is_exact());
        assert!(build.report.fallback && build.report.level_stats.is_empty());
        assert!(build.rounds > 0 && build.messages > 0);
        let truth = sequential::all_pairs(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(build.oracle.query(u, v), truth[u.index()][v.index()]);
            }
        }
    }

    #[test]
    fn cover_oracle_respects_its_stretch_bound() {
        let g = weighted(30, 7);
        let build = cover_build(&g);
        assert!(!build.oracle.is_exact());
        let report = &build.report;
        assert!(report.levels > 0 && report.levels as usize == report.level_stats.len());
        assert!(report.stretch_bound >= 1);
        assert!(build.rounds > 0 && build.messages > 0 && build.max_congestion > 0);
        let truth = sequential::all_pairs(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                let est = build.oracle.query(u, v).expect_finite();
                let t = truth[u.index()][v.index()].expect_finite();
                assert!(t <= est, "({u},{v}): underestimate {est} < {t}");
                assert!(
                    est <= t * report.stretch_bound,
                    "({u},{v}): {est} > {t} × {}",
                    report.stretch_bound
                );
            }
        }
    }

    #[test]
    fn default_config_above_the_threshold_builds_covers_smaller_than_the_matrix() {
        // The space bar: at n = 160 the default configuration leaves the
        // exact fallback behind and the colour-slotted table has to undercut
        // the n × n matrix (7 680 of 204 800 bytes when this was written).
        let base = generators::random_connected(160, 320, 23);
        let g = generators::with_random_weights(&base, 160, 23 ^ 0x5eed);
        assert_eq!((g.node_count(), g.edge_count()), (160, 479));
        let build = build_oracle(
            &g,
            &AlgoConfig::default(),
            &OracleConfig::default(),
            &ApspConfig::default(),
        )
        .unwrap();
        let report = &build.report;
        assert!(!report.fallback && !build.oracle.is_exact());
        assert!(report.levels > 0);
        assert!(
            report.bytes < report.exact_matrix_bytes,
            "{} bytes against an exact matrix of {}",
            report.bytes,
            report.exact_matrix_bytes
        );
    }

    fn cover_build(g: &Graph) -> OracleBuild {
        build_oracle(
            g,
            &AlgoConfig::default(),
            &OracleConfig::default().with_fallback_threshold(0),
            &ApspConfig::default(),
        )
        .unwrap()
    }

    /// Weighted structured, random and disconnected graphs (the shapes of
    /// `congest_cover`'s test families) plus the degenerate sizes.
    fn families() -> Vec<(&'static str, Graph)> {
        let weigh = |g: Graph, seed| generators::with_random_weights(&g, 12, seed);
        vec![
            ("one-node", Graph::empty(1)),
            ("two-nodes", generators::path(2, 5)),
            ("isolated", Graph::empty(5)),
            ("path", weigh(generators::path(40, 1), 1)),
            ("grid", weigh(generators::grid(7, 9, 1), 2)),
            ("cycle", weigh(generators::cycle(31, 1), 3)),
            ("star", weigh(generators::star(20, 1), 4)),
            ("disconnected", weigh(generators::disjoint_copies(&generators::cycle(7, 1), 3), 5)),
            ("random-sparse", weigh(generators::random_connected(60, 30, 1), 6)),
            ("random-tree", weigh(generators::random_tree(50, 3), 7)),
            ("almost-line", weigh(generators::almost_line(30, 5), 8)),
        ]
    }

    /// The query's definition, straight from the covers: per level, every
    /// cluster's members (sorted) with their Dijkstra distances from the
    /// center inside the cluster's induced subgraph.
    fn definition(g: &Graph) -> Vec<(Vec<NodeId>, Vec<Distance>)> {
        let mut clusters = Vec::new();
        for d in geometric_levels(u64::from(g.node_count().saturating_sub(1)).max(1)) {
            let cover = SparseCover::construct(g, d);
            for cluster in &cover.clusters {
                let keep: BTreeSet<NodeId> = cluster.members.iter().copied().collect();
                let (sub, new_to_old) = g.induced_subgraph(&keep);
                let center = new_to_old.binary_search(&cluster.center).unwrap();
                let dist = sequential::dijkstra(&sub, &[NodeId(center as u32)]).distances;
                clusters.push((new_to_old, dist));
            }
            if cover.is_component_cover(g) {
                break;
            }
        }
        clusters
    }

    #[test]
    fn queries_equal_the_min_over_shared_clusters_on_every_ordered_pair() {
        for (name, g) in families() {
            let build = cover_build(&g);
            let clusters = definition(&g);
            let pairs: Vec<(NodeId, NodeId)> =
                g.nodes().flat_map(|u| g.nodes().map(move |v| (u, v))).collect();
            let expected: Vec<Distance> = pairs
                .iter()
                .map(|&(u, v)| {
                    if u == v {
                        return Distance::ZERO;
                    }
                    let shared = clusters.iter().filter_map(|(members, dist)| {
                        let du = dist[members.binary_search(&u).ok()?].finite()?;
                        let dv = dist[members.binary_search(&v).ok()?].finite()?;
                        Some(du + dv)
                    });
                    shared.min().map_or(Distance::Infinite, Distance::Finite)
                })
                .collect();
            for (&(u, v), &want) in pairs.iter().zip(&expected) {
                assert_eq!(build.oracle.query(u, v), want, "{name}: ({u},{v})");
            }
            for threads in [1, 2, 4, 7] {
                let mut out = vec![Distance::ZERO; pairs.len()];
                build.oracle.query_into(&pairs, &mut out, threads);
                assert_eq!(out, expected, "{name}: query_into at {threads} threads");
            }
        }
    }

    /// Clock-free pin of the row width: covers hand their clusters over
    /// colour-major, so first-fit never needs more slots than colours. A
    /// change to the carving order that widened every row would fail here,
    /// not in a benchmark.
    #[test]
    fn a_level_is_at_most_as_wide_as_its_cover_has_colours() {
        for (name, g) in families() {
            let report = cover_build(&g).report;
            assert_eq!(report.level_widths.len(), report.level_stats.len(), "{name}");
            for (&width, stats) in report.level_widths.iter().zip(&report.level_stats) {
                assert!(width <= stats.colors, "{name}, d = {}: {width} slots", stats.d);
                assert!(width as usize >= stats.max_membership, "{name}, d = {}", stats.d);
            }
            assert_eq!(report.row_width, report.level_widths.iter().sum::<u32>(), "{name}");
            assert_eq!(report.bytes, 12 * u64::from(g.node_count()) * u64::from(report.row_width));
        }
        // The ledger's graph: no slot is wasted on the widest row of a level.
        let g = generators::with_random_weights(&generators::grid(16, 16, 1), 16, 1);
        let report = cover_build(&g).report;
        let memberships: Vec<u32> =
            report.level_stats.iter().map(|s| s.max_membership as u32).collect();
        assert_eq!(report.level_widths, memberships);
    }

    #[test]
    fn cluster_totals_saturate() {
        // At a huge `epsilon_inverse` a cluster's run reports `u64::MAX`
        // rounds, and the sum over the clusters must stay there.
        let g = generators::with_random_weights(&generators::grid(4, 4, 1), 9, 5);
        let run = Solver::on(&g)
            .algorithm(Algorithm::DistanceOracle)
            .source(NodeId(0))
            .config(AlgoConfig::default().with_epsilon_inverse(1 << 54))
            .oracle_config(OracleConfig::default().with_fallback_threshold(0))
            .run()
            .expect("the oracle builds");
        assert_eq!(run.report.rounds, u64::MAX);
    }

    #[test]
    fn disconnected_pairs_are_infinite() {
        // Two disjoint paths: the component-cover stop still terminates and
        // cross-component queries answer Infinite.
        let g = generators::disjoint_copies(&generators::path(4, 2), 2);
        let build = cover_build(&g);
        assert!(build.oracle.query(NodeId(0), NodeId(7)).is_infinite());
        assert!(build.oracle.query(NodeId(0), NodeId(3)).is_finite());
    }
}
