//! Baseline algorithms the paper's introduction compares against:
//!
//! * [`bellman_ford`] — the classic distributed Bellman–Ford: optimal `O(n)`
//!   time but `Θ(mn)` messages and `Θ(n)` congestion per edge.
//! * [`dijkstra`] — a direct distributed implementation of Dijkstra's
//!   algorithm: `O(n · D)` time and `O(n² + m)` messages because every
//!   iteration must locate the global minimum-estimate unvisited node.
//!
//! The always-awake BFS — the waiting BFS of [`crate::weighted_bfs`] at unit
//! weight — doubles as the *energy* baseline (every node is awake for the
//! whole run).

mod bellman_ford;
mod dijkstra;

pub(crate) use bellman_ford::distributed_bellman_ford;
pub(crate) use dijkstra::distributed_dijkstra;
