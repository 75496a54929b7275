//! The round-driving engine of the simulator.
//!
//! The engine is built around an *active-set scheduler* so that simulation
//! cost scales with awake work, not `n · rounds`:
//!
//! * `active_set` — a wake bucket queue; each round touches only the nodes
//!   scheduled to run in it, and sleeping nodes — and awake-but-idle
//!   *listening* ones, see below — cost nothing. A round's awake set is
//!   collected in an id-ordered bitmap and read out once, so the awake list
//!   costs no sort.
//! * `delivery` — a flat, reusable message arena replacing per-round per-node
//!   inbox allocation. It fans each send record — a payload and a run of
//!   its sender's ports in the graph's flat adjacency, a whole row for a
//!   broadcast — out into one message per recipient, with a counting pass
//!   in `O(deliveries)`, one receptivity check per recipient and a buffer
//!   that only grows.
//! * `round` — `RoundCore`: the state of a run and every rule of a round,
//!   each written once (next section), over the buffers of a `RunScratch`
//!   ("Per-thread buffers" below).
//! * `reference` — the retained naive `O(n)`-per-round loop
//!   ([`Engine::run_reference`]), the semantic oracle for differential
//!   tests. It shares no code with `round`.
//!
//! Together with the inline-payload [`Message`](crate::Message) (see
//! [`crate::Words`]) and the driver-owned, round-reused outbox that
//! [`NodeCtx`](crate::NodeCtx) borrows, the whole message path — send,
//! in-flight, delivery — is allocation-free in steady state;
//! `tests/alloc_regression.rs` pins that with a counting global allocator,
//! and pins the per-run set-up (allocations and bytes) beside it: what a
//! thread's first run asks for, and that its next ones ask for nothing.
//!
//! # A round is these calls on `RoundCore`, in this order
//!
//! 1. `begin_round` — the round limit; the round's due queue entries
//!    collected into the awake set; listening recipients of the delivery
//!    stream added to it; the set written out as the id-sorted awake list.
//! 2. `deliver` into an arena — inboxes in stream order; messages to
//!    sleeping or halted nodes lost, and counted.
//! 3. for each awake node in id order, `step_node`: `init` or `on_round`;
//!    the awake rounds to charge; what it sent accounted (the CONGEST bound —
//!    at most [`Words::CAPACITY`](crate::Words::CAPACITY) words a message, one
//!    message per edge direction, checked per step, since only the sender
//!    writes its direction and it steps once a round; the first violation is
//!    the run's error —, message and congestion counts, then drop fates, for
//!    which the step's records are split into one per message);
//!    its scheduling request applied.
//! 4. `end_round` — termination (what is still in flight is lost); else, if this round's sends are in flight, the next
//!    round with them as its delivery stream; else — nothing was sent, so
//!    nothing can happen before somebody's wake-up — straight to the
//!    earliest wake-up, be it the next round or a million on. A round with
//!    nothing in it is opened only when no wake-up is left at all, on the
//!    way to the round limit.
//!
//! [`Engine::run`] is that list, inline, on the calling thread. Host
//! parallelism lives a layer up, across independent runs (the APSP
//! instances, the oracle's batch queries): an [`Engine`] is `Sync`, so any
//! number of threads may run on one.
//!
//! # Listening: awake in the model, idle on the host
//!
//! [`NodeCtx::listen_until`](crate::NodeCtx::listen_until)`(d)` is the
//! always-awake counterpart of `sleep_until`. Its meaning is defined,
//! naively, by [`Engine::run_reference`]: until round `d` the node is **awake
//! in every round** — charged one energy unit, receptive to every message —
//! and the sweep skips its `on_round` exactly when its inbox is empty and `d`
//! has not come. So the node's next callback is in the first round with mail,
//! or at `d`, whichever is first; that callback ends the wait, and whatever
//! it requests (nothing, sleep, listen again, halt) applies from there. When
//! `sleep_until` and `listen_until` are both called in one step the last call
//! wins, and `halt` beats both.
//!
//! `RoundCore` never visits the skipped rounds, and arrives at the same
//! outcome anyway:
//!
//! * The deadline sits in the wake queue like a sleeper's wake-up, and
//!   `ActiveSet` remembers the round the node last ran in.
//! * Before delivery, every *listening* recipient of this round's in-flight
//!   stream sets its bit in the round's awake bitmap (and has its scheduled
//!   round pulled forward to now, which is what makes it receptive), beside
//!   the bits of the queue entries due now. A recipient with many messages,
//!   or whose deadline is now, is one bit, and the bitmap is read out in id
//!   order — so joining the awake list costs neither a dedup nor a sort. A
//!   listener without mail is not touched.
//! * Energy is settled when the node is next stepped: `round − last_ran`
//!   units instead of one.
//! * The early wake-up leaves the deadline's queue entry behind, stale. The
//!   queue needs nothing new for it: in every run, `wake_at` decides who
//!   runs, and a due entry sets its bit only if it is live — the same check
//!   that drops the entries a halt leaves behind. A listener that
//!   goes back to the deadline it is still queued at pushes no second entry.
//!
//! Quiet stretches between deadlines are never visited: after a round in
//! which nothing was sent, `end_round` jumps to the earliest *live* queue
//! entry — the wake queue walks its ring in round order past entries whose
//! node has moved on, and drops such entries off the top of its far tier —
//! so a run of listeners opens exactly the rounds in which somebody is
//! called back, and [`RunOutcome::rounds_visited`] says so without a clock.
//!
//! # Per-thread buffers
//!
//! What a run needs besides its protocol states is `O(n)` of scheduler
//! columns and message buffers. Built per run, that set-up is the
//! larger part of a *small* run — the recursion of Section 2.3 makes
//! thousands on a few dozen nodes each, and APSP makes `n` such recursions —
//! so the buffers live in a `RunScratch` that each thread keeps for its runs:
//! [`Engine::run`] borrows the calling thread's. A run nested in another on
//! the same thread (a protocol that runs an engine inside its callback) finds
//! that scratch in use and works in a fresh one.
//!
//! The rule that makes reuse safe is **re-arm at entry**: a run never
//! trusts what it finds. `RoundCore::new` clears every buffer and sizes it
//! for this run's graph (`O(n)`, keeping capacity, so a warm scratch
//! allocates nothing), whatever the previous run was — another graph, a
//! fault plan — and however it ended: finished, failed mid-round with its
//! counters half-written, or unwound by a protocol panic. Nothing is cleaned
//! up at exit, so nothing depends on an exit having happened. The states and
//! the two [`Metrics`] columns are the run's results and are allocated fresh.
//!
//! Nothing is given back either: a thread keeps the capacity of the largest
//! run it has made until it exits, as a scratch held by the caller would.

mod active_set;
mod delivery;
mod reference;
mod round;

use std::cell::RefCell;

use congest_graph::{Graph, NodeId};

use crate::message::InFlight;
use crate::metrics::Metrics;
use crate::{Protocol, SimConfig, SimError};

use delivery::DeliveryArena;
use round::{RoundCore, RoundScratch};

/// Makes `column` hold `n` zeros — `T::default()` — for a run, without giving
/// up capacity it already has. A column that has to grow (every column of a
/// fresh [`RunScratch`]) is replaced by a zeroed allocation, which for the
/// large ones comes as untouched pages, instead of being grown and filled.
fn zeroed<T: Clone + Default>(column: &mut Vec<T>, n: usize) {
    if column.capacity() < n {
        *column = vec![T::default(); n];
    } else {
        column.clear();
        column.resize(n, T::default());
    }
}

/// The result of running a protocol to completion.
#[derive(Debug, Clone)]
pub struct RunOutcome<P> {
    /// The final per-node protocol states, indexed by [`NodeId`]. Protocols
    /// expose their outputs (distances, cluster ids, …) as fields of their
    /// state type; the caller reads them from here.
    pub states: Vec<P>,
    /// The complexity measurements of the execution.
    pub metrics: Metrics,
    /// The rounds the run opened — looked at, whether or not anything
    /// happened in them: a deterministic work counter (host cost without a
    /// clock). Rounds a run fast-forwards over are not counted. Counted by
    /// [`Engine::run`] only; [`Engine::run_reference`] reports 0.
    pub rounds_visited: u64,
}

/// The simulation engine: drives per-node [`Protocol`] state machines through
/// synchronous rounds over a [`Graph`], enforcing the CONGEST and sleeping
/// model rules and recording [`Metrics`].
#[derive(Debug, Clone)]
pub struct Engine<'g> {
    graph: &'g Graph,
    config: SimConfig,
}

/// The buffers [`Engine::run`] works in, kept by each thread from one run to
/// the next so that a small run costs its events and not its set-up: the
/// wake queue, the delivery arena, a step's used ports, the in-flight
/// double buffer and the awake list (see "Per-thread buffers" in the module
/// docs).
///
/// A scratch carries nothing from run to run but capacity. Each run re-arms
/// it on entry — for its own graph and configuration, which may both differ
/// from the last run's — so neither a finished run nor one that ended in an
/// error or a panic can be observed by the next.
#[derive(Debug, Default)]
struct RunScratch {
    /// The buffers of `RoundCore`.
    round: RoundScratch,
    /// The round's inboxes.
    arena: DeliveryArena,
    /// The round's outbox, which every awake node's `NodeCtx` appends into;
    /// `end_round` trades it for last round's emptied buffer.
    outgoing: Vec<InFlight>,
}

thread_local! {
    /// The calling thread's [`RunScratch`]. Safe to reuse by re-arm at
    /// entry; a run that finds it borrowed — one nested in another run's
    /// callback — works in a fresh scratch instead.
    static SCRATCH: RefCell<RunScratch> = RefCell::new(RunScratch::default());
}

impl<'g> Engine<'g> {
    /// Creates an engine over the given graph with the given model
    /// configuration. Allocates nothing.
    pub fn new(graph: &'g Graph, config: SimConfig) -> Self {
        Engine { graph, config }
    }

    /// The graph this engine simulates.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The model configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs the protocol produced by `factory` (one instance per node) until
    /// every node has halted.
    ///
    /// Round 0 is the initialization round: every node is awake and its
    /// [`Protocol::init`] runs. From round 1 on, [`Protocol::on_round`] runs
    /// for every awake, non-halted node.
    ///
    /// The execution cost of a round is proportional to the number of awake
    /// nodes plus the number of in-flight messages — sleeping nodes cost
    /// zero — so low-energy protocols simulate in time proportional to their
    /// total awake work rather than `n · rounds`. The semantics are those of
    /// the naive sweep ([`Engine::run_reference`]), bit for bit. Every round
    /// runs on the calling thread.
    ///
    /// The run works in the calling thread's buffers ("Per-thread buffers" in
    /// the module docs): it re-arms them on entry (`O(n)` clears, no
    /// allocation once the thread has made a run this large) and allocates
    /// only what it returns — the states and the two [`Metrics`] columns. The
    /// outcome does not depend on what the thread ran before, on which
    /// engine, or how that run ended.
    ///
    /// # Errors
    ///
    /// * [`SimError::RoundLimitExceeded`] if the protocol does not halt within
    ///   the configured number of rounds.
    /// * [`SimError::EdgeCapacityExceeded`] if a node sends two messages over
    ///   one direction of an edge in one round, and
    ///   [`SimError::MessageTooLarge`] if it sends a message of more than
    ///   [`Words::CAPACITY`](crate::Words::CAPACITY) words: the first such send
    ///   in node-id order, then send order, ends the run.
    pub fn run<P, F>(&self, factory: F) -> Result<RunOutcome<P>, SimError>
    where
        P: Protocol,
        F: FnMut(NodeId) -> P,
    {
        SCRATCH.with(|slot| match slot.try_borrow_mut() {
            Ok(mut scratch) => self.run_in(&mut scratch, factory),
            Err(_) => self.run_in(&mut RunScratch::default(), factory),
        })
    }

    /// [`Engine::run`] in `scratch`.
    fn run_in<P, F>(&self, scratch: &mut RunScratch, factory: F) -> Result<RunOutcome<P>, SimError>
    where
        P: Protocol,
        F: FnMut(NodeId) -> P,
    {
        let graph = self.graph;
        // Each node's sends are accounted in place and its request applied
        // at once, so nothing is buffered per step.
        let mut states: Vec<P> = graph.nodes().map(factory).collect();
        let RunScratch { round, arena, outgoing } = scratch;
        let mut core = RoundCore::new(self, round);
        arena.rearm(graph.node_count() as usize);
        outgoing.clear();
        loop {
            if core.begin_round()? {
                core.deliver(arena);
                // By index: a step borrows the core mutably.
                for i in 0..core.awake().len() {
                    let v = core.awake()[i];
                    core.step_node(v, &mut states[v.index()], arena, outgoing)?;
                }
            }
            if core.end_round(outgoing) {
                return Ok(core.into_outcome(states));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Message, NodeCtx};
    use congest_graph::{generators, Distance, EdgeId};

    /// Single-source BFS where every node halts once its distance stabilizes
    /// for `n` rounds. Used to exercise the engine end to end.
    #[derive(Debug, Clone)]
    struct SimpleBfs {
        is_source: bool,
        dist: Distance,
        quiet: u32,
    }

    impl Protocol for SimpleBfs {
        fn init(&mut self, ctx: &mut NodeCtx<'_>) {
            if self.is_source {
                self.dist = Distance::ZERO;
                ctx.broadcast(&[0]);
            }
        }
        fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Message]) {
            let mut improved = false;
            for msg in inbox {
                let cand = Distance::Finite(msg.words[0] + 1);
                if cand < self.dist {
                    self.dist = cand;
                    improved = true;
                }
            }
            if improved {
                self.quiet = 0;
                ctx.broadcast(&[self.dist.expect_finite()]);
            } else {
                self.quiet += 1;
                if self.quiet > ctx.node_count() {
                    ctx.halt();
                }
            }
        }
    }

    fn run_bfs(g: &Graph, source: NodeId) -> RunOutcome<SimpleBfs> {
        Engine::new(g, SimConfig::default())
            .run(|id| SimpleBfs { is_source: id == source, dist: Distance::Infinite, quiet: 0 })
            .expect("bfs should run within limits")
    }

    #[test]
    fn bfs_protocol_matches_sequential_bfs() {
        let g = generators::random_connected(40, 60, 11);
        let run = run_bfs(&g, NodeId(0));
        let expected = congest_graph::sequential::bfs(&g, &[NodeId(0)]);
        for v in g.nodes() {
            assert_eq!(run.states[v.index()].dist, expected.distance(v));
        }
        // Time is at least the eccentricity of the source.
        let ecc = congest_graph::properties::hop_eccentricity(&g, NodeId(0));
        assert!(run.metrics.rounds >= ecc);
    }

    #[test]
    fn energy_counts_awake_rounds_for_all_nodes() {
        let g = generators::path(10, 1);
        let run = run_bfs(&g, NodeId(0));
        // Nobody sleeps in SimpleBfs, so every node's energy equals the rounds
        // it was alive before halting, which is > the path length.
        assert!(run.metrics.max_energy() >= 9);
        assert!(run.metrics.node_energy.iter().all(|&e| e > 0));
    }

    #[test]
    fn congestion_counts_messages_per_edge() {
        let g = generators::path(4, 1);
        let run = run_bfs(&g, NodeId(0));
        assert_eq!(run.metrics.messages, run.metrics.edge_congestion.iter().sum::<u64>());
        assert!(run.metrics.max_congestion() >= 1);
    }

    /// A protocol in which nodes sleep most of the time: node v wakes only at
    /// round 10 * (v+1), does nothing, and halts.
    #[derive(Debug, Clone)]
    struct Sleeper {
        woke_at: Option<u64>,
    }

    impl Protocol for Sleeper {
        fn init(&mut self, ctx: &mut NodeCtx<'_>) {
            ctx.sleep_until(10 * (ctx.node_id().0 as u64 + 1));
        }
        fn on_round(&mut self, ctx: &mut NodeCtx<'_>, _inbox: &[Message]) {
            self.woke_at = Some(ctx.round());
            ctx.halt();
        }
    }

    #[test]
    fn sleeping_nodes_cost_no_energy_and_fast_forward_works() {
        let g = generators::path(5, 1);
        let run = Engine::new(&g, SimConfig::default()).run(|_| Sleeper { woke_at: None }).unwrap();
        for v in g.nodes() {
            assert_eq!(run.states[v.index()].woke_at, Some(10 * (v.0 as u64 + 1)));
            // Awake in round 0 (init) and in its single wake round.
            assert_eq!(run.metrics.node_energy[v.index()], 2);
        }
        // Total time is dominated by the last sleeper (round 50), even though
        // almost nothing was simulated.
        assert!(run.metrics.rounds >= 50);
        assert_eq!(run.metrics.messages, 0);
    }

    /// Messages sent to sleeping nodes must be lost.
    #[derive(Debug, Clone)]
    struct LossyReceiver {
        got: u32,
        is_sender: bool,
    }

    impl Protocol for LossyReceiver {
        fn init(&mut self, ctx: &mut NodeCtx<'_>) {
            if self.is_sender {
                // Send in rounds 0 and 5 (delivered in rounds 1 and 6).
                ctx.broadcast(&[1]);
            } else {
                // Sleep through round 1 (losing that message), awake at 6.
                ctx.sleep_until(6);
            }
        }
        fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Message]) {
            self.got += inbox.len() as u32;
            if self.is_sender {
                if ctx.round() == 5 {
                    ctx.broadcast(&[2]);
                }
                if ctx.round() >= 7 {
                    ctx.halt();
                }
            } else {
                ctx.halt();
            }
        }
    }

    #[test]
    fn messages_to_sleeping_nodes_are_lost_and_counted() {
        let g = generators::path(2, 1);
        let run = Engine::new(&g, SimConfig::default())
            .run(|id| LossyReceiver { got: 0, is_sender: id == NodeId(0) })
            .unwrap();
        // Node 1 slept through the first message and received only the second.
        assert_eq!(run.states[1].got, 1);
        // Every message except the one delivered in round 6 was dropped on a
        // sleeping or halted endpoint, and the drops are observable.
        assert_eq!(run.metrics.messages_lost, run.metrics.messages - 1);
        assert!(run.metrics.messages_lost >= 1);
    }

    /// A protocol that spams an edge beyond capacity.
    #[derive(Debug, Clone)]
    struct Spammer;

    impl Protocol for Spammer {
        fn init(&mut self, ctx: &mut NodeCtx<'_>) {
            let first = ctx.neighbors().first().copied();
            if let Some(adj) = first {
                ctx.send_on_edge(adj.edge, &[1]);
                ctx.send_on_edge(adj.edge, &[2]);
            }
            ctx.halt();
        }
        fn on_round(&mut self, _ctx: &mut NodeCtx<'_>, _inbox: &[Message]) {}
    }

    #[test]
    fn a_second_message_on_an_edge_is_rejected() {
        let g = generators::path(2, 1);
        let err = Engine::new(&g, SimConfig::default()).run(|_| Spammer).unwrap_err();
        let first = SimError::EdgeCapacityExceeded { node: NodeId(0), edge: EdgeId(0), round: 0 };
        assert_eq!(err, first);
    }

    /// A protocol that never halts.
    #[derive(Debug, Clone)]
    struct Immortal;

    impl Protocol for Immortal {
        fn init(&mut self, _ctx: &mut NodeCtx<'_>) {}
        fn on_round(&mut self, _ctx: &mut NodeCtx<'_>, _inbox: &[Message]) {}
    }

    #[test]
    fn round_limit_is_enforced() {
        let g = generators::path(3, 1);
        let cfg = SimConfig::default().with_max_rounds(50);
        let err = Engine::new(&g, cfg).run(|_| Immortal).unwrap_err();
        assert!(matches!(err, SimError::RoundLimitExceeded { limit: 50, unhalted_nodes: 3 }));
    }

    #[test]
    fn oversized_message_is_rejected() {
        #[derive(Debug, Clone)]
        struct BigTalker;
        impl Protocol for BigTalker {
            fn init(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.broadcast(&[0; 16]);
                ctx.halt();
            }
            fn on_round(&mut self, _ctx: &mut NodeCtx<'_>, _inbox: &[Message]) {}
        }
        let g = generators::path(2, 1);
        let err = Engine::new(&g, SimConfig::default()).run(|_| BigTalker).unwrap_err();
        assert_eq!(err, SimError::MessageTooLarge { node: NodeId(0), words: 16 });
    }

    // --- Active-set vs reference engine: fixed correctness matrix ----------
    //
    // The proptest harness in `tests/engine_equivalence.rs` covers randomized
    // protocols; these pin the equivalence on every protocol in this file.

    fn assert_equivalent<P, F>(g: &Graph, cfg: SimConfig, factory: F, check: impl Fn(&P, &P))
    where
        P: Protocol,
        F: Fn(NodeId) -> P + Copy,
    {
        let fast = Engine::new(g, cfg.clone()).run(factory).expect("active-set run");
        let slow = Engine::new(g, cfg).run_reference(factory).expect("reference run");
        assert_eq!(fast.metrics, slow.metrics, "metrics must be identical");
        for (a, b) in fast.states.iter().zip(&slow.states) {
            check(a, b);
        }
    }

    #[test]
    fn engines_agree_on_simple_bfs() {
        let g = generators::random_connected(30, 50, 3);
        assert_equivalent(
            &g,
            SimConfig::default(),
            |id| SimpleBfs { is_source: id == NodeId(4), dist: Distance::Infinite, quiet: 0 },
            |a: &SimpleBfs, b: &SimpleBfs| assert_eq!(a.dist, b.dist),
        );
    }

    #[test]
    fn engines_agree_on_sleepers() {
        let g = generators::path(7, 1);
        assert_equivalent(
            &g,
            SimConfig::default(),
            |_| Sleeper { woke_at: None },
            |a: &Sleeper, b: &Sleeper| assert_eq!(a.woke_at, b.woke_at),
        );
    }

    #[test]
    fn engines_agree_on_lossy_receivers() {
        let g = generators::star(6, 1);
        assert_equivalent(
            &g,
            SimConfig::default(),
            |id| LossyReceiver { got: 0, is_sender: id == NodeId(0) },
            |a: &LossyReceiver, b: &LossyReceiver| assert_eq!(a.got, b.got),
        );
    }

    /// One BFS wave among listeners: everyone is awake for the whole run, but
    /// a node is called back only by mail or by the common deadline.
    #[derive(Debug, Clone)]
    struct ListeningBfs {
        is_source: bool,
        until: u64,
        dist: Distance,
        callbacks: u64,
    }

    impl Protocol for ListeningBfs {
        fn init(&mut self, ctx: &mut NodeCtx<'_>) {
            if self.is_source {
                self.dist = Distance::ZERO;
                ctx.broadcast(&[0]);
            }
            ctx.listen_until(self.until);
        }
        fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Message]) {
            self.callbacks += 1;
            let heard = inbox.iter().map(|m| Distance::Finite(m.words[0] + 1)).min();
            if heard.is_some_and(|d| d < self.dist) {
                self.dist = heard.expect("checked above");
                ctx.broadcast(&[self.dist.expect_finite()]);
            }
            if ctx.round() >= self.until {
                ctx.halt();
            } else {
                ctx.listen_until(self.until);
            }
        }
    }

    #[test]
    fn idle_listeners_are_charged_but_not_called() {
        // No clock: the host work of a run is the number of callbacks, which
        // the protocol counts itself. Each node hears the wave, hears its
        // successor's echo, and meets the deadline.
        let n = 1000u32;
        let g = generators::path(n, 1);
        let until = 2 * n as u64;
        let factory = |id| ListeningBfs {
            is_source: id == NodeId(0),
            until,
            dist: Distance::Infinite,
            callbacks: 0,
        };
        let run = Engine::new(&g, SimConfig::default()).run(factory).unwrap();
        let callbacks: u64 = run.states.iter().map(|s| s.callbacks).sum();
        assert!(callbacks <= 3 * n as u64, "{callbacks} callbacks for {n} nodes");
        // Nor does the engine look at a round in which nobody is called:
        // round 0, the `n` rounds in which the wave and its echoes arrive,
        // and the deadline — not the round after the last echo, to which
        // nothing was sent, and none of the `n − 1` idle ones before the
        // deadline.
        assert_eq!(run.rounds_visited, n as u64 + 2);
        assert_eq!(run.metrics.rounds, until + 1);
        assert_eq!(run.metrics.node_energy.iter().sum::<u64>(), n as u64 * run.metrics.rounds);
        assert_eq!(run.metrics.messages_lost, 0, "a listener is never deaf");
        for v in g.nodes() {
            assert_eq!(run.states[v.index()].dist, Distance::Finite(v.0 as u64));
        }
    }

    #[test]
    fn engines_agree_on_listeners() {
        let g = generators::grid(6, 5, 1);
        assert_equivalent(
            &g,
            SimConfig::default(),
            |id| ListeningBfs {
                is_source: id == NodeId(7),
                until: 100,
                dist: Distance::Infinite,
                callbacks: 0,
            },
            |a: &ListeningBfs, b: &ListeningBfs| {
                assert_eq!((a.dist, a.callbacks), (b.dist, b.callbacks));
            },
        );
    }

    #[test]
    fn engines_agree_on_errors() {
        let g = generators::path(3, 1);
        let cfg = SimConfig::default().with_max_rounds(50);
        let fast = Engine::new(&g, cfg.clone()).run(|_| Immortal).unwrap_err();
        let slow = Engine::new(&g, cfg).run_reference(|_| Immortal).unwrap_err();
        assert_eq!(fast, slow);
        let g = generators::cycle(5, 1);
        let fast = Engine::new(&g, SimConfig::default()).run(|_| Spammer).unwrap_err();
        let slow = Engine::new(&g, SimConfig::default()).run_reference(|_| Spammer).unwrap_err();
        assert_eq!(fast, slow);
    }
}
