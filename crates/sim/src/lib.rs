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
//! computation, and sends at most [`SimConfig::edge_capacity`] messages of at
//! most [`SimConfig::max_message_words`] machine words over each incident
//! edge. A *sleeping* node does nothing and **loses** any message sent to it
//! (this is the sleeping model of the paper, Section 1.2).
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
//! probability, node crash/restart churn at chosen rounds with a full state
//! reset, and bounded delivery-latency jitter, drawn per message. Both
//! engines apply the identical fault schedule — the differential harnesses
//! extend to faulty runs unchanged — and fault losses are counted separately
//! ([`Metrics::fault_drops`]) from sleeping-model losses. The empty plan
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
pub use fault::{CrashEvent, FaultPlan};
pub use message::{Message, Words};
pub use metrics::{EdgeUsageTrace, Metrics};
pub use node::{NodeCtx, Protocol};

use serde::{Deserialize, Serialize};

/// Configuration of the simulated CONGEST / sleeping model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Maximum number of messages a node may send over one edge (one
    /// direction) in one round. The classic CONGEST model has capacity 1; the
    /// paper's "megaround" device (Section 3.1.3) corresponds to a larger
    /// capacity whose width is charged to the time/energy accounting by the
    /// caller.
    pub edge_capacity: u32,
    /// Maximum number of `u64` words per message (`B = O(log n)` bits in the
    /// paper; one word comfortably holds an id or a distance, so a constant
    /// number of words is `O(log n)` bits).
    ///
    /// Message payloads are stored *inline* with capacity [`Words::CAPACITY`]
    /// (= the default here), so values above that are clamped: the engines
    /// enforce [`SimConfig::effective_max_words`]. In lenient mode
    /// (`strict_capacity: false`) an oversized send is counted as a violation
    /// and delivered truncated to the inline capacity — identically in both
    /// engines.
    pub max_message_words: usize,
    /// Hard limit on the number of simulated rounds; exceeded limits produce
    /// [`SimError::RoundLimitExceeded`] rather than looping forever.
    pub max_rounds: u64,
    /// If `true`, exceeding `edge_capacity` or `max_message_words` is a hard
    /// error; if `false`, violations are only counted in
    /// [`Metrics::capacity_violations`].
    pub strict_capacity: bool,
    /// Record the per-edge, per-round usage trace needed by the random-delay
    /// scheduler (costs memory proportional to rounds × edges used).
    pub record_edge_trace: bool,
    /// The fault-injection plan (message loss, node churn, delivery jitter).
    /// Defaults to [`FaultPlan::none`], which keeps both engines on their
    /// unmodified fault-free paths. See the [`fault`] module docs.
    pub faults: FaultPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            edge_capacity: 1,
            max_message_words: 4,
            max_rounds: 10_000_000,
            strict_capacity: true,
            record_edge_trace: false,
            faults: FaultPlan::none(),
        }
    }
}

impl SimConfig {
    /// A configuration with a larger per-edge capacity (a "megaround" of the
    /// given width, Section 3.1.3 of the paper).
    pub fn with_edge_capacity(mut self, capacity: u32) -> Self {
        self.edge_capacity = capacity;
        self
    }

    /// Enables or disables recording of the per-edge usage trace.
    pub fn with_edge_trace(mut self, record: bool) -> Self {
        self.record_edge_trace = record;
        self
    }

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

    /// The per-message word bound the engines actually enforce:
    /// [`SimConfig::max_message_words`] clamped to the inline payload
    /// capacity [`Words::CAPACITY`].
    pub fn effective_max_words(&self) -> usize {
        self.max_message_words.min(Words::CAPACITY)
    }
}
