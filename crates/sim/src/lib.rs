//! A synchronous message-passing simulator for the CONGEST and sleeping
//! ("energy") models of distributed computing, as used by the paper
//! *"A Near-Optimal Low-Energy Deterministic Distributed SSSP with
//! Ramifications on Congestion and APSP"* (Ghaffari & Trygub, PODC 2024).
//!
//! # Model
//!
//! The network is an undirected weighted graph (a [`congest_graph::Graph`]).
//! Computation proceeds in synchronous rounds. Per round, each *awake* node
//! receives the messages sent to it in the previous round, performs local
//! computation, and sends at most one message of at most [`Words::CAPACITY`]
//! machine words over each incident edge (the CONGEST bound; a send beyond
//! it is a [`SimError`], never a setting). A *sleeping* node does nothing and
//! **loses** any message sent to it (this is the sleeping model of the
//! paper, Section 1.2).
//!
//! The simulator measures exactly the quantities the paper's theorems bound:
//!
//! * **time** — number of rounds until every node has halted,
//! * **message complexity** — total messages sent,
//! * **congestion** — maximum number of messages sent over any single edge,
//! * **energy** — maximum number of awake rounds over any single node.
//!
//! It additionally counts **lost messages** ([`Metrics::messages_lost`]):
//! sends whose recipient was sleeping or halted at delivery time. The model
//! drops these silently; the counter makes the drops observable, because an
//! unexpected loss is almost always a protocol bug.
//!
//! # Fault injection
//!
//! On top of the well-behaved model, [`SimConfig::faults`] can carry a
//! seeded, deterministic [`FaultPlan`]: random message drops at one uniform
//! probability, drawn per message. Both engines apply the identical fault
//! schedule — the differential harnesses extend to faulty runs unchanged —
//! and fault losses are counted separately ([`Metrics::fault_drops`]) from
//! sleeping-model losses. The empty plan
//! ([`FaultPlan::none`], the default) leaves both engines on their original
//! fault-free paths, bit for bit. See `docs/FAULT_MODEL.md` for the taxonomy
//! and guarantees, and `EXPERIMENTS.md` (E14) for the measured degradation
//! matrix of the algorithm registry.
//!
//! # Execution model and cost
//!
//! [`Engine::run`] is built around an *active set*: an explicit wake queue
//! (a bucket queue keyed by each node's `wake_at` round) plus a per-round
//! delivery arena. A round's simulation cost is proportional to the number
//! of **awake nodes plus in-flight messages** in that round — sleeping nodes
//! cost zero, and contiguous idle spans are skipped: the engine jumps
//! straight to the next round with a wake-up or a delivery (the skipped
//! rounds still count toward the round total). A full execution
//! therefore costs `O(total awake work + total messages)`, **not**
//! `O(n · rounds)` — the property that makes simulating low-energy protocols
//! (the paper's `poly(log n)` awake rounds per node) cheap even at large `n`
//! and huge round counts. The pre-refactor `Θ(n)`-per-round sweep is retained
//! as [`Engine::run_reference`], the oracle for differential tests.
//!
//! The message path itself is *allocation-free in steady state*: payloads are
//! inline [`Words`] values (a message is `B = O(log n)` bits — a constant
//! number of words), [`Message`] is `Copy`, and sends land in engine-owned,
//! round-reused buffers. See `tests/alloc_regression.rs` (the pin) and the
//! perf ledger's `engine-flood` workload (the cost, `benchmark/`).
//!
//! # Writing a protocol
//!
//! A protocol is a per-node state machine implementing [`Protocol`]. The
//! engine instantiates one state machine per node and drives them round by
//! round:
//!
//! ```
//! use congest_graph::generators;
//! use congest_sim::{Engine, Message, NodeCtx, Protocol, SimConfig};
//!
//! /// Each node learns the minimum node id in its connected component by
//! /// flooding: a classic warm-up protocol.
//! #[derive(Debug, Clone)]
//! struct MinFlood { best: u64, rounds_quiet: u32 }
//!
//! impl Protocol for MinFlood {
//!     fn init(&mut self, ctx: &mut NodeCtx<'_>) {
//!         self.best = ctx.node_id().0 as u64;
//!         ctx.broadcast(&[self.best]);
//!     }
//!     fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Message]) {
//!         let before = self.best;
//!         for m in inbox {
//!             self.best = self.best.min(m.words[0]);
//!         }
//!         if self.best < before {
//!             ctx.broadcast(&[self.best]);
//!             self.rounds_quiet = 0;
//!         } else {
//!             self.rounds_quiet += 1;
//!             // The component has hop-diameter < n, so after n quiet rounds
//!             // no further improvement can arrive. Note that an always-awake
//!             // protocol like this one keeps every node in the wake queue
//!             // every round; it halts by counting quiet rounds, and pays for
//!             // each of them. A sleeping-model protocol would sleep instead
//!             // — the engine's active-set scheduler then skips the node
//!             // entirely, and whole-network idle spans are fast-forwarded.
//!             if self.rounds_quiet > ctx.node_count() {
//!                 ctx.halt();
//!             }
//!         }
//!     }
//! }
//!
//! let g = generators::random_connected(32, 40, 7);
//! let run = Engine::new(&g, SimConfig::default())
//!     .run(|_id| MinFlood { best: 0, rounds_quiet: 0 })
//!     .unwrap();
//! assert!(run.states.iter().all(|s| s.best == 0));
//! assert!(run.metrics.rounds > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod error;
pub mod fault;
mod message;
mod metrics;
mod node;
pub mod scheduler;
pub mod workloads;

pub use engine::{Engine, RunOutcome};
pub use error::SimError;
pub use fault::FaultPlan;
pub use message::{Message, Words};
pub use metrics::Metrics;
pub use node::{NodeCtx, Protocol};
pub use scheduler::EdgeUsageTrace;

use serde::{Deserialize, Serialize};

/// Configuration of a simulated run: its round limit and its fault plan.
///
/// The model's bandwidth is not configurable: a node puts at most one message
/// on each edge direction per round, of at most [`Words::CAPACITY`] words
/// (`B = O(log n)` bits, Section 1.2). Exceeding either bound is always an
/// error — [`SimError::EdgeCapacityExceeded`] or [`SimError::MessageTooLarge`]
/// — from both engines alike.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Hard limit on the number of simulated rounds; exceeded limits produce
    /// [`SimError::RoundLimitExceeded`] rather than looping forever. The last
    /// round a run may open is `max_rounds`, or `u64::MAX − 1` if that is
    /// smaller: a run that reaches round `u64::MAX` fails with this error at
    /// any limit, since it could not report its length.
    pub max_rounds: u64,
    /// The fault-injection plan (message loss).
    /// Defaults to [`FaultPlan::none`], which keeps both engines on their
    /// unmodified fault-free paths. See the [`fault`] module docs.
    pub faults: FaultPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { max_rounds: 10_000_000, faults: FaultPlan::none() }
    }
}

impl SimConfig {
    /// Sets the round limit.
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Sets the fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Ignored: every run steps its nodes on the calling thread. Kept only
    /// for the perf ledger (`benchmark/`), its one caller.
    #[deprecated(note = "ignored: the engine has one driver, on the calling thread")]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// The last round a run may open: [`SimConfig::max_rounds`], capped one
    /// below `u64::MAX` so that a run's length, `round + 1`, fits in a `u64`.
    pub(crate) fn last_round(&self) -> u64 {
        self.max_rounds.min(u64::MAX - 1)
    }
}
