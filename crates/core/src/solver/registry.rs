//! The algorithm registry: every distance solver in this crate, enumerable
//! with its capability flags so that callers (experiment harnesses, sweeps,
//! differential tests) can iterate solvers generically instead of
//! hand-wiring each entry point.

use serde::{Deserialize, Serialize};

/// Every distance algorithm reachable through the [`crate::solver::Solver`]
/// facade. One SSSP/BFS/APSP family per variant; the thresholded and
/// offset-source recursion layers are reached by setting
/// [`crate::solver::SolverRequest::threshold`] /
/// [`crate::solver::SolverRequest::source_offsets`] on the variant that
/// supports them (see [`AlgorithmInfo::thresholded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Algorithm {
    /// The paper's low-congestion recursive exact CSSP/SSSP (Theorems 2.6,
    /// 2.7); with a threshold, the `D`-thresholded recursion of Section 2.3.
    Cssp,
    /// The approximate cutter (Lemma 2.1): additive-error estimates within a
    /// distance threshold `W`.
    ApproximateCssp,
    /// Always-awake multi-source BFS (hop distances), optionally thresholded:
    /// the cutter's waiting BFS with every weight 1.
    Bfs,
    /// The sleeping-model low-energy BFS (Theorems 3.8, 3.13, 3.14).
    LowEnergyBfs,
    /// The sleeping-model low-energy weighted exact CSSP (Theorem 3.15).
    LowEnergyCssp,
    /// The distributed-Dijkstra baseline (`O(n · D)` rounds).
    Dijkstra,
    /// The distributed Bellman–Ford baseline (`Θ(n)` congestion worst case).
    BellmanFord,
    /// APSP via `n` SSSP instances under random-delay scheduling
    /// (Section 1.1).
    Apsp,
    /// The sparse-cover distance oracle (see `congest_oracle`): sublinear
    /// space, every pair queryable with a proven stretch bound, exact APSP
    /// below the fallback threshold. Answers all-pairs *queries* without
    /// materializing the all-pairs *matrix*.
    DistanceOracle,
}

/// Capability flags and identity of one registry entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AlgorithmInfo {
    /// The algorithm this entry describes.
    pub algorithm: Algorithm,
    /// Stable kebab-case identifier (CLI argument, JSON key).
    pub name: &'static str,
    /// Human-oriented label used in experiment tables.
    pub label: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// Solves weighted graphs (false: computes hop distances).
    pub weighted: bool,
    /// Accepts more than one source.
    pub multi_source: bool,
    /// Runs in the sleeping model (reports meaningful low energy).
    pub sleeping_model: bool,
    /// Outputs estimates with a bounded additive error instead of exact
    /// distances.
    pub approximate: bool,
    /// Computes all-pairs distances (sources select the reported row only).
    pub all_pairs: bool,
    /// Accepts a distance/hop threshold.
    pub thresholded: bool,
    /// Serves point-to-point queries for *every* pair after one run (the
    /// all-pairs matrix or a distance oracle). `all_pairs` additionally
    /// means the full matrix is materialized; the distance oracle is
    /// queryable without being all-pairs-materializing.
    pub queryable: bool,
}

impl AlgorithmInfo {
    /// Whether the finite output distances are exact.
    pub fn exact(&self) -> bool {
        !self.approximate
    }
}

/// The registry: one entry per [`Algorithm`] variant, in display order.
static REGISTRY: [AlgorithmInfo; 9] = [
    AlgorithmInfo {
        algorithm: Algorithm::Cssp,
        name: "recursive-cssp",
        label: "recursive-cssp (paper)",
        summary: "low-congestion recursive exact CSSP/SSSP (Sec. 2)",
        weighted: true,
        multi_source: true,
        sleeping_model: false,
        approximate: false,
        all_pairs: false,
        thresholded: true,
        queryable: false,
    },
    AlgorithmInfo {
        algorithm: Algorithm::ApproximateCssp,
        name: "approx-cutter",
        label: "approx-cutter (paper)",
        summary: "additive-error cutter within threshold W (Lemma 2.1)",
        weighted: true,
        multi_source: true,
        sleeping_model: false,
        approximate: true,
        all_pairs: false,
        thresholded: true,
        queryable: false,
    },
    AlgorithmInfo {
        algorithm: Algorithm::Bfs,
        name: "bfs",
        label: "always-awake-bfs",
        summary: "always-awake multi-source BFS (hop distances)",
        weighted: false,
        multi_source: true,
        sleeping_model: false,
        approximate: false,
        all_pairs: false,
        thresholded: true,
        queryable: false,
    },
    AlgorithmInfo {
        algorithm: Algorithm::LowEnergyBfs,
        name: "low-energy-bfs",
        label: "low-energy-bfs (paper)",
        summary: "sleeping-model BFS over layered covers (Thm. 3.13)",
        weighted: false,
        multi_source: true,
        sleeping_model: true,
        approximate: false,
        all_pairs: false,
        thresholded: true,
        queryable: false,
    },
    AlgorithmInfo {
        algorithm: Algorithm::LowEnergyCssp,
        name: "low-energy-cssp",
        label: "low-energy-cssp (paper)",
        summary: "sleeping-model exact weighted CSSP (Thm. 3.15)",
        weighted: true,
        multi_source: true,
        sleeping_model: true,
        approximate: false,
        all_pairs: false,
        thresholded: false,
        queryable: false,
    },
    AlgorithmInfo {
        algorithm: Algorithm::Dijkstra,
        name: "distributed-dijkstra",
        label: "distributed-dijkstra",
        summary: "global-minimum Dijkstra baseline (O(n·D) rounds)",
        weighted: true,
        multi_source: true,
        sleeping_model: false,
        approximate: false,
        all_pairs: false,
        thresholded: false,
        queryable: false,
    },
    AlgorithmInfo {
        algorithm: Algorithm::BellmanFord,
        name: "bellman-ford",
        label: "bellman-ford",
        summary: "distributed Bellman-Ford baseline (Θ(n) congestion)",
        weighted: true,
        multi_source: true,
        sleeping_model: false,
        approximate: false,
        all_pairs: false,
        thresholded: false,
        queryable: false,
    },
    AlgorithmInfo {
        algorithm: Algorithm::Apsp,
        name: "apsp-scheduling",
        label: "apsp-scheduling (paper)",
        summary: "APSP: n SSSP instances under random-delay scheduling",
        weighted: true,
        multi_source: false,
        sleeping_model: false,
        approximate: false,
        all_pairs: true,
        thresholded: false,
        queryable: true,
    },
    AlgorithmInfo {
        algorithm: Algorithm::DistanceOracle,
        name: "distance-oracle",
        label: "distance-oracle (covers)",
        summary: "sparse-cover distance oracle: sublinear space, bounded stretch",
        weighted: true,
        multi_source: false,
        sleeping_model: false,
        approximate: true,
        all_pairs: false,
        thresholded: false,
        queryable: true,
    },
];

/// Enumerates every algorithm with its capability flags, in display order.
pub fn registry() -> &'static [AlgorithmInfo] {
    &REGISTRY
}

impl Algorithm {
    /// Every variant, in registry (display) order.
    pub const ALL: [Algorithm; 9] = [
        Algorithm::Cssp,
        Algorithm::ApproximateCssp,
        Algorithm::Bfs,
        Algorithm::LowEnergyBfs,
        Algorithm::LowEnergyCssp,
        Algorithm::Dijkstra,
        Algorithm::BellmanFord,
        Algorithm::Apsp,
        Algorithm::DistanceOracle,
    ];

    /// This algorithm's registry entry.
    pub fn info(self) -> &'static AlgorithmInfo {
        REGISTRY.iter().find(|i| i.algorithm == self).expect("every variant is registered")
    }

    /// Stable kebab-case identifier.
    pub fn name(self) -> &'static str {
        self.info().name
    }

    /// Human-oriented label used in experiment tables.
    pub fn label(self) -> &'static str {
        self.info().label
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_is_registered_exactly_once() {
        assert_eq!(registry().len(), Algorithm::ALL.len());
        for (entry, &algo) in registry().iter().zip(Algorithm::ALL.iter()) {
            assert_eq!(entry.algorithm, algo, "registry order matches Algorithm::ALL");
        }
        let mut names: Vec<&str> = registry().iter().map(|i| i.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), registry().len(), "names are unique");
    }

    #[test]
    fn display_is_the_name() {
        for &algo in &Algorithm::ALL {
            assert_eq!(algo.to_string(), algo.name());
        }
    }

    #[test]
    fn capability_flags_are_consistent() {
        for info in registry() {
            assert_eq!(info.exact(), !info.approximate);
            // All-pairs implies single-source selection of the reported row.
            if info.all_pairs {
                assert!(!info.multi_source);
            }
            // Sleeping-model and approximate never coincide in this suite.
            assert!(!(info.sleeping_model && info.approximate));
            // A materialized all-pairs matrix always serves queries.
            if info.all_pairs {
                assert!(info.queryable);
            }
        }
        assert!(Algorithm::Apsp.info().all_pairs);
        // The distance oracle is queryable without materializing the matrix.
        let oracle = Algorithm::DistanceOracle.info();
        assert!(oracle.queryable && oracle.approximate && !oracle.all_pairs);
        assert!(!Algorithm::Bfs.info().weighted);
        assert!(Algorithm::LowEnergyCssp.info().sleeping_model);
        assert!(Algorithm::ApproximateCssp.info().approximate);
        // E1-E3's comparison set: exactly the always-awake exact weighted
        // single-source-set algorithms.
        let comparison: Vec<&str> = registry()
            .iter()
            .filter(|i| i.weighted && i.exact() && !i.sleeping_model && !i.all_pairs)
            .map(|i| i.name)
            .collect();
        assert_eq!(comparison, ["recursive-cssp", "distributed-dijkstra", "bellman-ford"]);
    }
}
