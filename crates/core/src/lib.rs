//! Distributed shortest-path algorithms from *"A Near-Optimal Low-Energy
//! Deterministic Distributed SSSP with Ramifications on Congestion and APSP"*
//! (Ghaffari & Trygub, PODC 2024), implemented over the CONGEST / sleeping
//! model simulator of [`congest_sim`].
//!
//! # What is in here
//!
//! * **Low-congestion exact SSSP/CSSP** ([`Algorithm::Cssp`],
//!   [`Algorithm::ApproximateCssp`]): the recursive "distributified
//!   Dijkstra" of Section 2 — `Õ(n)` rounds, `Õ(m)` messages, and only
//!   `poly(log n)` messages over any single edge (Theorems 2.6, 2.7).
//! * **APSP in `Õ(n)` rounds** ([`Algorithm::Apsp`]): `n` independent SSSP
//!   instances composed with random-delay scheduling.
//! * **Low-energy BFS and CSSP** ([`Algorithm::LowEnergyBfs`],
//!   [`Algorithm::LowEnergyCssp`]): the sleeping-model algorithms of
//!   Section 3, coordinated through the deterministic sparse covers of
//!   [`congest_cover`] — `poly(log n)` awake rounds per node
//!   (Theorems 3.8, 3.13, 3.14, 3.15).
//! * **Baselines** ([`Algorithm::BellmanFord`], [`Algorithm::Dijkstra`],
//!   [`Algorithm::Bfs`]): distributed Bellman–Ford, distributed Dijkstra,
//!   and the always-awake BFS, for the experiments in `EXPERIMENTS.md`.
//!
//! The [`solver`] facade is the one way to run them: [`Solver::on`] builds a
//! request, [`registry`] enumerates every algorithm with its capability
//! flags, and every run returns the same [`SolverRun`]/[`RunReport`] pair.
//! Four layers of the recursion stay public beside it, because the perf
//! ledger times each on its own: [`cssp::cssp`],
//! [`thresholded::thresholded_cssp`], [`approx::approximate_cssp`] and
//! [`spanning_forest::spanning_forest`].
//!
//! # Quick start
//!
//! ```
//! use congest_graph::{generators, NodeId};
//! use congest_sssp::{Algorithm, Solver};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = generators::with_random_weights(&generators::grid(6, 6, 1), 10, 42);
//! let run = Solver::on(&g).algorithm(Algorithm::Cssp).source(NodeId(0)).run()?;
//! println!(
//!     "distance to the far corner: {}, rounds: {}, max congestion: {}",
//!     run.distance(NodeId(35)),
//!     run.report.rounds,
//!     run.report.max_congestion
//! );
//! # Ok(())
//! # }
//! ```
//!
//! Iterating solvers generically via the registry:
//!
//! ```
//! use congest_graph::{generators, NodeId};
//! use congest_sssp::{registry, Solver};
//!
//! # fn main() -> Result<(), congest_sssp::AlgoError> {
//! let g = generators::path(8, 1);
//! for info in registry().iter().filter(|i| i.exact() && !i.all_pairs) {
//!     let run = Solver::on(&g).algorithm(info.algorithm).source(NodeId(0)).run()?;
//!     assert_eq!(run.distance(NodeId(7)).finite(), Some(7), "{}", info.name);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approx;
pub mod apsp;
mod baseline;
mod config;
pub mod cssp;
mod energy;
mod error;
pub mod oracle;
mod result;
pub mod solver;
pub mod spanning_forest;
#[cfg(test)]
mod test_graphs;
pub mod thresholded;
mod weighted_bfs;

pub use config::AlgoConfig;
pub use error::AlgoError;
pub use oracle::{build_oracle, DistanceOracle, OracleBuild, OracleConfig, OracleStats};
pub use result::{
    DistanceOutput, OracleReport, RecursionReport, RunReport, ScheduleReport, SleepingReport,
    SourceOffset,
};
pub use solver::{registry, Algorithm, AlgorithmInfo, Solver, SolverRequest, SolverRun};

// Fault-injection surface, re-exported so experiment drivers can build chaos
// configurations without depending on `congest_sim` directly.
pub use congest_sim::FaultPlan;
