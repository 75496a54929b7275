//! Error types for the algorithms in this crate.

use std::error::Error;
use std::fmt;

use congest_graph::{EdgeId, Graph, NodeId};
use congest_sim::SimError;

/// Errors produced by the distributed algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AlgoError {
    /// The source set was empty.
    EmptySourceSet,
    /// A source node id was out of range for the graph.
    SourceOutOfRange {
        /// The offending node.
        node: NodeId,
    },
    /// A zero edge weight was passed to a subroutine that requires positive
    /// weights (zero weights are handled by contraction at the API boundary,
    /// Theorem 2.7).
    ZeroWeightNotSupported {
        /// The offending edge.
        edge: EdgeId,
    },
    /// The underlying simulation failed (round limit or CONGEST violation).
    Simulation(SimError),
    /// A [`crate::solver::SolverRequest`] combined an algorithm with an
    /// option the algorithm does not support (for example a distance
    /// threshold on a baseline, or multiple sources on APSP). The capability
    /// flags of [`crate::solver::registry`] describe what each algorithm
    /// accepts.
    UnsupportedRequest {
        /// The registry name of the algorithm.
        algorithm: &'static str,
        /// The unsupported option.
        reason: &'static str,
    },
    /// The low-energy BFS wake schedule could not keep ahead of the BFS
    /// wavefront (the invariant of Lemma 3.7 was violated): the slowdown
    /// constants are too small for the cover's stretch, as on covers built
    /// with a base below it.
    WakeScheduleViolation {
        /// The cluster level at which the violation occurred.
        level: usize,
        /// The round at which the BFS reached the cluster.
        reached_at: u64,
        /// The round at which the cluster only became fully awake.
        awake_at: u64,
    },
}

impl fmt::Display for AlgoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgoError::EmptySourceSet => write!(f, "the source set must be non-empty"),
            AlgoError::SourceOutOfRange { node } => {
                write!(f, "source node {node} is out of range")
            }
            AlgoError::ZeroWeightNotSupported { edge } => {
                write!(f, "edge {edge} has weight zero, which this subroutine does not accept")
            }
            AlgoError::Simulation(e) => write!(f, "simulation failed: {e}"),
            AlgoError::UnsupportedRequest { algorithm, reason } => {
                write!(f, "algorithm {algorithm} does not support {reason}")
            }
            AlgoError::WakeScheduleViolation { level, reached_at, awake_at } => write!(
                f,
                "wake schedule violated at level {level}: BFS arrived at round {reached_at} before the cluster was awake at round {awake_at}"
            ),
        }
    }
}

impl Error for AlgoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AlgoError::Simulation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for AlgoError {
    fn from(e: SimError) -> Self {
        AlgoError::Simulation(e)
    }
}

/// The one source check: [`AlgoError::EmptySourceSet`] for no sources, else
/// [`AlgoError::SourceOutOfRange`] for the first source outside `g`.
pub(crate) fn check_sources(
    g: &Graph,
    sources: impl IntoIterator<Item = NodeId>,
) -> Result<(), AlgoError> {
    let mut sources = sources.into_iter().peekable();
    if sources.peek().is_none() {
        return Err(AlgoError::EmptySourceSet);
    }
    match sources.find(|&s| !g.contains_node(s)) {
        Some(node) => Err(AlgoError::SourceOutOfRange { node }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(AlgoError::EmptySourceSet.to_string().contains("non-empty"));
        assert!(AlgoError::SourceOutOfRange { node: NodeId(3) }.to_string().contains("v3"));
        assert!(AlgoError::ZeroWeightNotSupported { edge: EdgeId(1) }.to_string().contains("e1"));
        let sim =
            AlgoError::Simulation(SimError::RoundLimitExceeded { limit: 5, unhalted_nodes: 1 });
        assert!(sim.to_string().contains("simulation failed"));
        assert!(Error::source(&sim).is_some());
        let wake = AlgoError::WakeScheduleViolation { level: 1, reached_at: 10, awake_at: 20 };
        assert!(wake.to_string().contains("level 1"));
        let unsupported =
            AlgoError::UnsupportedRequest { algorithm: "bellman-ford", reason: "a threshold" };
        assert!(unsupported.to_string().contains("bellman-ford"));
        assert!(unsupported.to_string().contains("a threshold"));
    }

    #[test]
    fn sim_error_converts() {
        let e: AlgoError = SimError::RoundLimitExceeded { limit: 1, unhalted_nodes: 2 }.into();
        assert!(matches!(e, AlgoError::Simulation(_)));
    }
}
