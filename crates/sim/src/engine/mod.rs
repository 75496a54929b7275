//! The round-driving engine of the simulator.
//!
//! The engine is built around an *active-set scheduler* so that simulation
//! cost scales with awake work, not `n · rounds`:
//!
//! * `active_set` — a wake bucket queue; each round touches only the nodes
//!   scheduled to run in it, and sleeping nodes — and awake-but-idle
//!   *listening* ones, see below — cost nothing.
//! * `delivery` — a flat, reusable message arena replacing per-round per-node
//!   inbox allocation; rebuilt with a counting pass in `O(deliveries)`.
//! * `capacity` — dense per-edge-direction CONGEST capacity counters reset
//!   through a touched-list.
//!
//! Together with the inline-payload [`Message`] (see [`crate::Words`]) and
//! the engine-owned, round-reused outbox that [`NodeCtx`] borrows, the whole
//! message path — send, in-flight, delivery — is allocation-free in steady
//! state; `tests/alloc_regression.rs` pins that with a counting global
//! allocator.
//! * `reference` — the retained naive `O(n)`-per-round loop
//!   ([`Engine::run_reference`]), the semantic oracle for differential tests
//!   and the baseline of the E11 engine-throughput experiment (see
//!   `EXPERIMENTS.md`).
//! * `sharded` — the multi-threaded execution mode behind
//!   [`crate::SimConfig::threads`], bit-identical to the sequential path at
//!   every thread count. See the determinism argument below.
//!
//! # Listening: awake in the model, idle on the host
//!
//! [`NodeCtx::listen_until`]`(d)` is the always-awake counterpart of
//! [`NodeCtx::sleep_until`]. Its meaning is defined, naively, by
//! [`Engine::run_reference`]: until round `d` the node is **awake in every
//! round** — charged one energy unit, receptive to every message — and the
//! sweep skips its `on_round` exactly when its inbox is empty and `d` has not
//! come. So the node's next callback is in the first round with mail, or at
//! `d`, whichever is first; that callback ends the wait, and whatever it
//! requests (nothing, sleep, listen again, halt) applies from there. When
//! `sleep_until` and `listen_until` are both called in one step the last call
//! wins, and `halt` beats both.
//!
//! The fast engines never visit the skipped rounds, and arrive at the same
//! outcome anyway:
//!
//! * The deadline sits in the wake queue like a sleeper's wake-up, and
//!   `ActiveSet` remembers the round the node last ran in.
//! * Before delivery, every *listening* recipient of this round's in-flight
//!   stream is pulled into the round's id-sorted awake list (and its
//!   scheduled round pulled forward to now, which is what makes it
//!   receptive). A listener without mail is not touched.
//! * Energy is settled when the node is next stepped: `round − last_ran`
//!   units instead of one. A fault plan that crashes (or restarts) a
//!   listener at round `c` settles `c − 1 − last_ran` on the spot — the node
//!   was up through round `c − 1`.
//! * The early wake-up leaves the deadline's queue entry behind, stale. The
//!   queue therefore switches to the filtering mode fault plans already use
//!   (entries are a superset, `wake_at` is authoritative) at the first listen
//!   request of a run — a protocol that never listens never pays for it.
//!
//! Quiet stretches between deadlines still fast-forward: with every awake
//! node listening, a round without mail or deadline steps nobody, and the
//! engine jumps to the next queue entry as it does for sleepers.
//!
//! # Sharded execution and the shard-merge determinism argument
//!
//! With `threads = S > 1`, [`Engine::run`] partitions the node ids into `S`
//! contiguous shards. Each shard owns a slice of the protocol states, its own
//! range-restricted delivery arena, and a private outbox; a persistent worker
//! steps the shard's awake nodes each round, and the main thread merges the
//! shard outboxes *in fixed shard order* before doing all global accounting
//! itself. The outcome is byte-for-byte the sequential engine's:
//!
//! * **Execution order.** The awake list is globally sorted by node id, and
//!   shards are contiguous id ranges, so a shard's segment of it is a
//!   contiguous run. Concatenating the shard outboxes in shard order is
//!   therefore exactly the node-id-ordered send stream the sequential loop
//!   produces — for *any* S. Nodes only interact through messages (delivered
//!   a round later) and never observe intra-round timing, so stepping them
//!   concurrently is unobservable.
//! * **Delivery order.** Each recipient's inbox is the in-flight stream
//!   filtered to it, in stream order. Workers read the *shared* stream and
//!   filter to their own range without reordering, so every inbox is the
//!   same slice of the same stream the sequential arena builds. Receptivity
//!   is a read-only query against start-of-round scheduler state.
//! * **Capacity charging and strict errors.** All per-send accounting
//!   (bandwidth check, per-edge-direction capacity counters, congestion,
//!   traces) happens on the main thread during the merge, walking the merged
//!   stream — i.e. in sequential send order — so counters take identical
//!   values and the *first* violating send in strict mode produces the
//!   identical error. A worker-side protocol panic is re-raised at the
//!   panicking node's position in merge order, after the completed sends of
//!   earlier nodes were accounted and with the panicking node's partial
//!   sends discarded — again matching the sequential loop.
//! * **Fault fates.** A message's drop/jitter fate is a pure function of
//!   `(edge, sender, send round)` (see [`crate::fault`]) — no RNG state is
//!   threaded through delivery — so applying fates batch-per-shard during
//!   the merge rolls the identical fates in the identical order, and the
//!   jitter buffer fills in the same order too. Crash/restart churn and all
//!   scheduler mutation (halt/reschedule/revive) stay on the main thread.
//! * **Early wake-ups.** Which listeners this round's mail wakes is decided
//!   on the main thread, in the pre-round phase, from the complete shared
//!   in-flight stream (jitter arrivals merged in) — the same stream, in the
//!   same state, the sequential loop reads — and *before* the awake list is
//!   cut into shard segments. A woken listener is from then on one more
//!   entry of the id-sorted awake list: it lands in its owner's contiguous
//!   segment, is receptive by the same read-only query, and the order
//!   argument above covers it unchanged. Workers only *read* the listening
//!   bookkeeping (to charge `round − last_ran` into their shard's energy
//!   slice); listen requests travel back in the per-shard decision lists and
//!   are applied during the merge, in node-id order, like sleeps and halts.
//!
//! The hot path takes no locks: each worker locks its own uncontended shard
//! mutex and a shared read-write lock once per round (both futex-based, no
//! allocation), with two barriers delimiting the parallel section. Workers
//! are spawned once per run, so steady-state rounds allocate nothing — the
//! alloc-regression test covers the sharded path too.

mod active_set;
mod capacity;
mod delivery;
mod reference;
mod sharded;

use congest_graph::{EdgeId, Graph, NodeId};

use crate::fault::{FaultAction, FaultRuntime};
use crate::message::InFlight;
use crate::metrics::{EdgeUsageTrace, Metrics};
use crate::node::NodeCtx;
use crate::{Network, Protocol, SimConfig, SimError};

use active_set::ActiveSet;
use capacity::CapacityTracker;
use delivery::DeliveryArena;

/// The result of running a protocol to completion.
#[derive(Debug, Clone)]
pub struct RunOutcome<P> {
    /// The final per-node protocol states, indexed by [`NodeId`]. Protocols
    /// expose their outputs (distances, cluster ids, …) as fields of their
    /// state type; the caller reads them from here.
    pub states: Vec<P>,
    /// The complexity measurements of the execution.
    pub metrics: Metrics,
    /// The per-round edge usage trace, if [`SimConfig::record_edge_trace`]
    /// was enabled.
    pub trace: Option<EdgeUsageTrace>,
}

/// The simulation engine: drives per-node [`Protocol`] state machines through
/// synchronous rounds over a [`Network`], enforcing the CONGEST and sleeping
/// model rules and recording [`Metrics`].
#[derive(Debug, Clone)]
pub struct Engine<'g> {
    network: Network<'g>,
    config: SimConfig,
}

impl<'g> Engine<'g> {
    /// Creates an engine over the given graph with the given model
    /// configuration.
    pub fn new(graph: &'g Graph, config: SimConfig) -> Self {
        Engine { network: Network::new(graph), config }
    }

    /// The network this engine simulates.
    pub fn network(&self) -> &Network<'g> {
        &self.network
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
    /// the naive sweep ([`Engine::run_reference`]), bit for bit.
    ///
    /// With [`crate::SimConfig::threads`] resolving to more than one worker
    /// (see [`crate::SimConfig::resolved_threads`]), awake nodes are stepped
    /// in parallel across contiguous node-id shards; results stay
    /// bit-identical at every thread count (see the module docs for the
    /// shard-merge determinism argument).
    ///
    /// # Errors
    ///
    /// * [`SimError::RoundLimitExceeded`] if the protocol does not halt within
    ///   the configured number of rounds.
    /// * [`SimError::EdgeCapacityExceeded`] / [`SimError::MessageTooLarge`]
    ///   if a node violates the CONGEST constraints and `strict_capacity` is
    ///   enabled.
    pub fn run<P, F>(&self, factory: F) -> Result<RunOutcome<P>, SimError>
    where
        P: Protocol,
        F: FnMut(NodeId) -> P,
    {
        let n = self.network.graph().node_count() as usize;
        // More shards than nodes would just idle; an empty graph still needs
        // one (sequential) pass to produce its trivial outcome.
        let shards = self.config.resolved_threads().min(n.max(1));
        if shards <= 1 {
            self.run_seq(factory)
        } else {
            sharded::run_sharded(self, factory, shards)
        }
    }

    /// The sequential (single-threaded) execution path of [`Engine::run`].
    fn run_seq<P, F>(&self, mut factory: F) -> Result<RunOutcome<P>, SimError>
    where
        P: Protocol,
        F: FnMut(NodeId) -> P,
    {
        let graph = self.network.graph();
        let n = graph.node_count() as usize;
        let m = graph.edge_count() as usize;
        let mut states: Vec<P> = graph.nodes().map(&mut factory).collect();
        let mut active = ActiveSet::new(n);
        // The fault layer: `None` for the empty plan, which keeps every hot
        // path below on its original (allocation-free) fault-free branch.
        let mut faults = FaultRuntime::new(&self.config.faults, n, m);
        if faults.is_some() {
            active.enable_fault_filtering();
        }
        let mut arena = DeliveryArena::new(n);
        let mut capacity = CapacityTracker::new(m);
        let mut metrics = Metrics::zero(n, m);
        let mut trace =
            if self.config.record_edge_trace { Some(EdgeUsageTrace::default()) } else { None };

        // Double-buffered in-flight messages: `incoming` was sent last round
        // and is delivered now; `outgoing` is the round's shared outbox that
        // every awake node's `NodeCtx` appends into. Both keep their capacity
        // across rounds, so the steady-state message path never allocates.
        let mut incoming: Vec<InFlight> = Vec::new();
        let mut outgoing: Vec<InFlight> = Vec::new();
        let mut awake: Vec<NodeId> = Vec::new();
        let mut this_round_trace: Vec<(EdgeId, u32)> = Vec::new();
        let mut round: u64 = 0;
        let max_words = self.config.effective_max_words();

        loop {
            if round > self.config.max_rounds {
                return Err(SimError::RoundLimitExceeded {
                    limit: self.config.max_rounds,
                    unhalted_nodes: active.unhalted(),
                });
            }

            // Apply the churn events of this round before anything else: a
            // crash takes effect at the start of its round (the node never
            // runs in it), and a restart puts the node — with a fresh state —
            // into this round's wake bucket.
            if let Some(rt) = faults.as_mut() {
                while let Some(ev) = rt.next_event(round) {
                    match ev.action {
                        FaultAction::Crash { permanent } => {
                            metrics.crashes += 1;
                            rt.crashed[ev.node.index()] = true;
                            metrics.node_energy[ev.node.index()] += active.set_down(ev.node, round);
                            if permanent {
                                active.halt(ev.node);
                            }
                        }
                        FaultAction::Restart => {
                            metrics.restarts += 1;
                            rt.crashed[ev.node.index()] = false;
                            rt.reinit[ev.node.index()] = true;
                            states[ev.node.index()] = factory(ev.node);
                            metrics.node_energy[ev.node.index()] += active.revive(ev.node, round);
                        }
                    }
                }
            }

            // The nodes that run this round, in id order. Taken before
            // delivery, which reads start-of-round receptivity.
            active.take_awake(round, &mut awake);

            // Deliver messages sent last round. Messages to sleeping or
            // halted nodes are lost (the defining property of the sleeping
            // model) — and counted, so protocol bugs cannot hide in silence.
            // Under a fault plan, jitter-delayed messages due this round
            // join the inbox stream first, and deliveries onto a crashed
            // node are attributed to the fault layer instead. A listening
            // recipient joins this round's awake list before delivery reads
            // receptivity: its wait ends with its first mail.
            if let Some(rt) = faults.as_mut() {
                rt.merge_due(round, &mut incoming);
            }
            // Whether any node has listened yet is read once per round: a
            // node stepped below can only be in a wait it asked for in an
            // earlier round, so a first request made during this round's
            // steps changes nothing until the next one.
            let listeners = active.has_listeners();
            if listeners {
                active.wake_listeners(round, incoming.iter().map(|f| f.to), &mut awake);
            }
            if let Some(rt) = faults.as_mut() {
                let crashed_hits =
                    incoming.iter().filter(|f| rt.crashed[f.to.index()]).count() as u64;
                let lost = arena.build(&mut incoming, |v| {
                    active.is_receptive(v, round) && !rt.crashed[v.index()]
                });
                metrics.fault_drops += crashed_hits;
                metrics.messages_lost += lost - crashed_hits;
            } else {
                metrics.messages_lost +=
                    arena.build(&mut incoming, |v| active.is_receptive(v, round));
            }

            capacity.reset();
            this_round_trace.clear();
            for &v in &awake {
                metrics.node_energy[v.index()] +=
                    if listeners { active.awake_rounds(v, round) } else { 1 };
                let sends_from = outgoing.len();
                let mut ctx = NodeCtx::new(v, round, &self.network, &mut outgoing);
                // A node freshly revived by a fault-injected restart re-runs
                // `init` (ignoring any inbox — both engines agree on this).
                let run_init = round == 0
                    || faults.as_mut().is_some_and(|rt| std::mem::take(&mut rt.reinit[v.index()]));
                if run_init {
                    states[v.index()].init(&mut ctx);
                } else {
                    states[v.index()].on_round(&mut ctx, arena.inbox(v));
                }
                let request = ctx.request();
                // Validate and account this node's sends in place.
                for flight in &outgoing[sends_from..] {
                    let edge = flight.msg.edge;
                    if flight.sent_words > max_words {
                        if self.config.strict_capacity {
                            return Err(SimError::MessageTooLarge {
                                node: v,
                                words: flight.sent_words,
                                max_words,
                            });
                        }
                        metrics.capacity_violations += 1;
                    }
                    let used = capacity.record(graph, edge, v);
                    if used > self.config.edge_capacity {
                        if self.config.strict_capacity {
                            return Err(SimError::EdgeCapacityExceeded {
                                node: v,
                                edge,
                                round,
                                capacity: self.config.edge_capacity,
                            });
                        }
                        metrics.capacity_violations += 1;
                    }
                    metrics.messages += 1;
                    metrics.edge_congestion[edge.index()] += 1;
                    if trace.is_some() {
                        this_round_trace.push((edge, 1));
                    }
                }
                // Roll the fate of this node's sends: drops vanish (counted),
                // jittered messages move to the pending buffer. This runs
                // after accounting — a dropped message was still *sent*.
                if let Some(rt) = faults.as_mut() {
                    if rt.has_message_faults() {
                        rt.apply_message_faults(&mut metrics, round, &mut outgoing, sends_from);
                    }
                }
                active.apply(v, round, request);
            }

            if let Some(t) = trace.as_mut() {
                // Coalesce duplicate edges in this round's trace entry; the
                // BTreeMap iterates in edge order, so the entry comes out
                // sorted with no hasher order anywhere near the trace.
                let mut merged: std::collections::BTreeMap<EdgeId, u32> =
                    std::collections::BTreeMap::new();
                for &(e, c) in &this_round_trace {
                    *merged.entry(e).or_insert(0) += c;
                }
                t.rounds.push(merged.into_iter().collect());
            }

            // Termination check: all halted and nothing in flight. Whatever
            // was sent this round — including jittered messages still held in
            // the fault layer — can never be delivered: count it as lost.
            if active.all_halted() {
                metrics.messages_lost += outgoing.len() as u64;
                if let Some(rt) = faults.as_ref() {
                    metrics.messages_lost += rt.pending_count();
                }
                metrics.rounds = round + 1;
                return Ok(RunOutcome { states, metrics, trace });
            }

            // Quiescence fast-forward: nobody ran this round (so nothing was
            // sent either) — jump straight to the next scheduled wake-up. The
            // skipped rounds still exist in the model but cost nothing. Under
            // a fault plan the next event is the earliest of a wake-up, a
            // pending jittered delivery, and a churn event — and the bucket
            // shortcut `next_wake` is unsound with churn's stale entries, so
            // the authoritative O(n) scan replaces it.
            if outgoing.is_empty() && awake.is_empty() && self.config.fast_forward_idle {
                let target = if let Some(rt) = faults.as_ref() {
                    [active.next_wake_scan(), rt.next_pending_round(), rt.next_event_round()]
                        .into_iter()
                        .flatten()
                        .min()
                } else {
                    active.next_wake()
                };
                if let Some(w) = target.filter(|&w| w > round) {
                    if let Some(t) = trace.as_mut() {
                        for _ in round + 1..w {
                            t.rounds.push(Vec::new());
                        }
                    }
                    round = w;
                    continue;
                }
            }
            // Without fast-forward we step one round at a time; an empty
            // round costs O(1) (a bucket-queue miss). If nothing can ever
            // happen again, the round limit catches it.

            incoming.clear();
            std::mem::swap(&mut incoming, &mut outgoing);
            round += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Message;
    use congest_graph::{generators, Distance};

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
    fn strict_capacity_rejects_overload() {
        let g = generators::path(2, 1);
        let err = Engine::new(&g, SimConfig::default()).run(|_| Spammer).unwrap_err();
        assert!(matches!(err, SimError::EdgeCapacityExceeded { .. }));
    }

    #[test]
    fn lenient_capacity_counts_violations() {
        let g = generators::path(2, 1);
        let cfg = SimConfig { strict_capacity: false, ..SimConfig::default() };
        let run = Engine::new(&g, cfg).run(|_| Spammer).unwrap();
        assert_eq!(run.metrics.capacity_violations, 2);
    }

    #[test]
    fn capacity_two_allows_two_messages() {
        let g = generators::path(2, 1);
        let cfg = SimConfig::default().with_edge_capacity(2);
        let run = Engine::new(&g, cfg).run(|_| Spammer).unwrap();
        assert_eq!(run.metrics.capacity_violations, 0);
        assert_eq!(run.metrics.messages, 4); // both endpoints spam once
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
        assert!(matches!(err, SimError::MessageTooLarge { words: 16, .. }));
    }

    #[test]
    fn edge_trace_is_recorded_when_enabled() {
        let g = generators::path(4, 1);
        let cfg = SimConfig::default().with_edge_trace(true);
        let source = NodeId(0);
        let run = Engine::new(&g, cfg)
            .run(|id| SimpleBfs { is_source: id == source, dist: Distance::Infinite, quiet: 0 })
            .unwrap();
        let trace = run.trace.expect("trace requested");
        assert_eq!(trace.total_messages(), run.metrics.messages);
        assert_eq!(trace.max_edge_total(), run.metrics.max_congestion());
        assert_eq!(trace.len() as u64, run.metrics.rounds);
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
        assert_eq!(fast.trace, slow.trace, "traces must be identical");
        for (a, b) in fast.states.iter().zip(&slow.states) {
            check(a, b);
        }
    }

    #[test]
    fn engines_agree_on_simple_bfs() {
        let g = generators::random_connected(30, 50, 3);
        let cfg = SimConfig::default().with_edge_trace(true);
        assert_equivalent(
            &g,
            cfg,
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

    #[test]
    fn engines_agree_on_lenient_spammers() {
        let g = generators::cycle(5, 1);
        let cfg = SimConfig { strict_capacity: false, ..SimConfig::default() };
        assert_equivalent(&g, cfg, |_| Spammer, |_: &Spammer, _: &Spammer| {});
    }

    #[test]
    fn engines_agree_without_fast_forward() {
        let g = generators::path(4, 1);
        let cfg = SimConfig { fast_forward_idle: false, ..SimConfig::default() };
        assert_equivalent(
            &g,
            cfg,
            |_| Sleeper { woke_at: None },
            |a: &Sleeper, b: &Sleeper| assert_eq!(a.woke_at, b.woke_at),
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
        for fast_forward_idle in [true, false] {
            let cfg = SimConfig { fast_forward_idle, ..SimConfig::default().with_edge_trace(true) };
            assert_equivalent(
                &g,
                cfg,
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
    }

    #[test]
    fn engines_agree_on_errors() {
        let g = generators::path(3, 1);
        let cfg = SimConfig::default().with_max_rounds(50);
        let fast = Engine::new(&g, cfg.clone()).run(|_| Immortal).unwrap_err();
        let slow = Engine::new(&g, cfg).run_reference(|_| Immortal).unwrap_err();
        assert_eq!(fast, slow);
    }
}
