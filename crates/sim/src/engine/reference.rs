//! The retained naive execution loop, kept as a differential-testing oracle.
//!
//! This is the pre-refactor engine: every round it sweeps all `n` nodes,
//! allocates fresh per-node inboxes, splits every send record into one
//! record per message, and tracks the edge directions used per round in a
//! `HashSet`.
//! Its per-round cost is `Θ(n)` regardless of how many nodes are awake, which
//! is exactly what the active-set engine in [`super`] eliminates — but its
//! simplicity makes it the semantic ground truth. [`Engine::run`] must
//! produce bit-identical [`RunOutcome`]s (states and [`Metrics`]); the
//! proptest harness in `tests/engine_equivalence.rs` enforces this.
//!
//! It is also where [`crate::NodeCtx::listen_until`] is *defined*: a
//! listening node is awake in every round — charged one energy unit,
//! receptive to every message — and the sweep merely skips its callback
//! while its inbox is empty and its deadline has not come. [`Engine::run`]
//! never visits those rounds and must arrive at the same outcome anyway.
//!
//! Nothing here is shared with the rules [`Engine::run`] is made of
//! (`engine/round.rs`): an oracle that called them would agree with them by
//! construction.

use std::collections::HashSet;

use congest_graph::{EdgeId, NodeId};

use crate::message::InFlight;
use crate::metrics::Metrics;
use crate::node::{NodeCtx, Request};
use crate::{Engine, Message, Protocol, RunOutcome, SimError, Words};

/// Per-node bookkeeping of the reference loop.
#[derive(Debug, Clone)]
struct NodeStatus {
    /// The earliest round at which the node next runs regardless of mail.
    wake_at: u64,
    /// Until `wake_at` the node is not asleep but listening: awake in every
    /// round, and run as soon as its inbox is non-empty.
    listening: bool,
    /// The node has halted for good.
    halted: bool,
}

impl Engine<'_> {
    /// Runs the protocol through the naive `O(n)`-per-round reference loop.
    ///
    /// Semantics are identical to [`Engine::run`] — same states and metrics —
    /// only the execution cost differs. Use this as the baseline in
    /// engine benchmarks and as the oracle in differential tests; use
    /// [`Engine::run`] everywhere else.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Engine::run`].
    pub fn run_reference<P, F>(&self, factory: F) -> Result<RunOutcome<P>, SimError>
    where
        P: Protocol,
        F: FnMut(NodeId) -> P,
    {
        let graph = self.graph();
        let (_, adjacency) = graph.csr();
        let config = self.config();
        let n = graph.node_count() as usize;
        let m = graph.edge_count() as usize;
        let mut states: Vec<P> = graph.nodes().map(factory).collect();
        let mut status = vec![NodeStatus { wake_at: 0, listening: false, halted: false }; n];
        let faults = (!config.faults.is_none()).then_some(&config.faults);
        let mut metrics = Metrics::zero(n, m);

        // Messages sent in the previous round, awaiting delivery this round:
        // one record each.
        let mut in_flight: Vec<InFlight> = Vec::new();
        let mut round: u64 = 0;

        loop {
            if round > config.last_round() {
                let unhalted = status.iter().filter(|s| !s.halted).count() as u32;
                return Err(SimError::RoundLimitExceeded {
                    limit: config.max_rounds,
                    unhalted_nodes: unhalted,
                });
            }

            // Deliver messages sent last round. Messages to sleeping or halted
            // nodes are lost (the defining property of the sleeping model).
            let mut inboxes: Vec<Vec<Message>> = vec![Vec::new(); n];
            for flight in in_flight.drain(..) {
                let port = &adjacency[flight.start as usize];
                let to = port.neighbor.index();
                let st = &status[to];
                if !st.halted && (st.wake_at <= round || st.listening) {
                    inboxes[to].push(flight.message(port));
                } else {
                    metrics.messages_lost += 1;
                }
            }

            // Run awake nodes.
            // simlint::allow(nondeterministic-iteration: per-round set of used edge directions probed through insert() only and dropped at round end; nothing ever iterates it)
            let mut used: HashSet<(EdgeId, NodeId)> = HashSet::new();
            let mut any_awake = false;
            for v in graph.nodes() {
                let st = &status[v.index()];
                if st.halted || (st.wake_at > round && !st.listening) {
                    continue;
                }
                any_awake = true;
                metrics.node_energy[v.index()] += 1;
                // A listener is awake but idle: charged above, receptive
                // below, and not called back until mail or its deadline.
                if st.wake_at > round && inboxes[v.index()].is_empty() {
                    continue;
                }
                // A freshly allocated outbox per node, as the pre-refactor
                // engine did — this loop deliberately keeps the naive
                // allocation profile: it is the definition, not a fast path.
                let mut outbox: Vec<InFlight> = Vec::new();
                let mut ctx = NodeCtx::new(v, round, self.graph(), &mut outbox);
                if round == 0 {
                    states[v.index()].init(&mut ctx);
                } else {
                    states[v.index()].on_round(&mut ctx, &inboxes[v.index()]);
                }
                let request = ctx.request();
                // Process sends, one message at a time.
                let mut outbox: Vec<InFlight> =
                    outbox.into_iter().flat_map(InFlight::split).collect();
                for flight in &outbox {
                    let edge = adjacency[flight.start as usize].edge;
                    let words = flight.sent_words as usize;
                    if words > Words::CAPACITY {
                        return Err(SimError::MessageTooLarge { node: v, words });
                    }
                    if !used.insert((edge, v)) {
                        return Err(SimError::EdgeCapacityExceeded { node: v, edge, round });
                    }
                    metrics.messages += 1;
                    metrics.edge_congestion[edge.index()] += 1;
                }
                // Roll the fate of this node's sends after accounting (a
                // dropped message was still sent), before they join the
                // in-flight pool — same call sequence as the active engine.
                if let Some(plan) = faults {
                    plan.apply_message_faults(&mut metrics, round, adjacency, &mut outbox, 0);
                }
                in_flight.append(&mut outbox);
                // Process sleep/listen/halt requests.
                let st = &mut status[v.index()];
                st.listening = false;
                match request {
                    Request::Halt => st.halted = true,
                    Request::Stay => st.wake_at = round + 1,
                    Request::SleepUntil(w) => st.wake_at = w,
                    Request::ListenUntil(w) => {
                        st.wake_at = w;
                        st.listening = true;
                    }
                }
            }

            // Termination check: all halted and nothing in flight. Whatever
            // was sent this round can never be delivered — count it as lost.
            let all_halted = status.iter().all(|s| s.halted);
            if all_halted {
                metrics.messages_lost += in_flight.len() as u64;
                metrics.rounds = round + 1;
                return Ok(RunOutcome { states, metrics, rounds_visited: 0 });
            }

            // Deadlock / quiescence guard: nobody is awake now or in the
            // future and no message is in flight — the protocol will never
            // make progress again. Treat it as termination at this round;
            // protocols that rely on this behave like "implicit halt".
            let next_wake = status.iter().filter(|s| !s.halted).map(|s| s.wake_at).min();
            if in_flight.is_empty() && !any_awake {
                if let Some(w) = next_wake.filter(|&w| w > round) {
                    // Jump to the next scheduled wake-up. The skipped rounds
                    // still exist in the model but cost nothing.
                    round = w;
                    continue;
                }
            }
            // Otherwise we simply step to the next round. If nothing can
            // ever happen again (no in-flight messages and no non-halted node
            // will ever wake because they are all waiting on messages that
            // will never come), the protocol is stuck. This can only be
            // detected heuristically; the round limit catches it.

            round += 1;
        }
    }
}
