//! Error types for the simulator.

use std::error::Error;
use std::fmt;

use congest_graph::{EdgeId, NodeId};

/// Errors produced while running a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The simulation did not terminate within [`crate::SimConfig::max_rounds`].
    RoundLimitExceeded {
        /// The configured round limit.
        limit: u64,
        /// Number of nodes that had not halted when the limit was hit.
        unhalted_nodes: u32,
    },
    /// A node sent more than one message over one direction of an edge in one
    /// round: the CONGEST capacity.
    EdgeCapacityExceeded {
        /// The sending node.
        node: NodeId,
        /// The edge used.
        edge: EdgeId,
        /// The simulation round.
        round: u64,
    },
    /// A message carried more than [`crate::Words::CAPACITY`] words: the
    /// CONGEST bandwidth bound.
    MessageTooLarge {
        /// The sending node.
        node: NodeId,
        /// Number of words in the offending message.
        words: usize,
    },
    /// The time axis of a random-delay schedule ([`crate::scheduler`]) does
    /// not fit `u64`: a window of `rounds` rounds starting at round `delay`
    /// — an instance's start delay plus its duration, or the round in which
    /// the last queued message would be served — ends past `u64::MAX`.
    ScheduleHorizonOverflow {
        /// The round the window starts in.
        delay: u64,
        /// The length of the window.
        rounds: u64,
    },
    /// A random-delay schedule ([`crate::scheduler`]) spans more rounds, from
    /// its earliest delay to its horizon, than memory can hold its per-round
    /// count column for (one `u64` per round): the allocation failed, and
    /// the schedule was not run.
    ScheduleTooLong {
        /// The rounds the schedule spans.
        slots: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::RoundLimitExceeded { limit, unhalted_nodes } => write!(
                f,
                "simulation exceeded the round limit of {limit} with {unhalted_nodes} nodes still running"
            ),
            SimError::EdgeCapacityExceeded { node, edge, round } => write!(
                f,
                "node {node} sent more than one message over edge {edge} in round {round}"
            ),
            SimError::MessageTooLarge { node, words } => write!(
                f,
                "node {node} sent a message of {words} words, exceeding the limit of {}",
                crate::Words::CAPACITY
            ),
            SimError::ScheduleHorizonOverflow { delay, rounds } => write!(
                f,
                "a schedule window of {rounds} rounds starting at round {delay} ends past u64::MAX"
            ),
            SimError::ScheduleTooLong { slots } => write!(
                f,
                "a schedule spanning {slots} rounds is too long to hold a count per round"
            ),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_key_facts() {
        let e = SimError::RoundLimitExceeded { limit: 100, unhalted_nodes: 3 };
        assert!(e.to_string().contains("100"));
        assert!(e.to_string().contains("3"));
        let e = SimError::EdgeCapacityExceeded { node: NodeId(1), edge: EdgeId(2), round: 7 };
        assert!(e.to_string().contains("v1"));
        assert!(e.to_string().contains("e2"));
        let e = SimError::MessageTooLarge { node: NodeId(0), words: 9 };
        assert!(e.to_string().contains("9 words, exceeding the limit of 4"));
        let e = SimError::ScheduleHorizonOverflow { delay: u64::MAX, rounds: 7 };
        assert!(e.to_string().contains("7 rounds"));
        let e = SimError::ScheduleTooLong { slots: 1 << 54 };
        assert!(e.to_string().contains("spanning 18014398509481984 rounds"));
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_bounds<T: Send + Sync + 'static>() {}
        assert_bounds::<SimError>();
    }
}
