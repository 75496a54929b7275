//! The retained naive execution loop, kept as a differential-testing oracle.
//!
//! This is the pre-refactor engine: every round it sweeps all `n` nodes,
//! allocates fresh per-node inboxes, and tracks edge capacity in a `HashMap`.
//! Its per-round cost is `Θ(n)` regardless of how many nodes are awake, which
//! is exactly what the active-set engine in [`super`] eliminates — but its
//! simplicity makes it the semantic ground truth. [`Engine::run`] must
//! produce bit-identical [`RunOutcome`]s (states, [`Metrics`], traces); the
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

use std::collections::{BTreeMap, HashMap};

use congest_graph::{EdgeId, NodeId};

use crate::fault::{FaultAction, FaultRuntime};
use crate::message::InFlight;
use crate::metrics::{EdgeUsageTrace, Metrics};
use crate::node::{NodeCtx, Request};
use crate::{Engine, Message, Protocol, RunOutcome, SimError};

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
    /// The node is down due to a fault-injected crash (awaiting restart).
    down: bool,
}

impl Engine<'_> {
    /// Runs the protocol through the naive `O(n)`-per-round reference loop.
    ///
    /// Semantics are identical to [`Engine::run`] — same states, metrics, and
    /// traces — only the execution cost differs. Use this as the baseline in
    /// engine benchmarks and as the oracle in differential tests; use
    /// [`Engine::run`] everywhere else.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Engine::run`].
    pub fn run_reference<P, F>(&self, mut factory: F) -> Result<RunOutcome<P>, SimError>
    where
        P: Protocol,
        F: FnMut(NodeId) -> P,
    {
        let graph = self.graph();
        let config = self.config();
        let n = graph.node_count() as usize;
        let m = graph.edge_count() as usize;
        let mut states: Vec<P> = graph.nodes().map(&mut factory).collect();
        let mut status =
            vec![NodeStatus { wake_at: 0, listening: false, halted: false, down: false }; n];
        let mut faults = FaultRuntime::new(&config.faults, n);
        let mut metrics = Metrics::zero(n, m);
        let mut trace =
            if config.record_edge_trace { Some(EdgeUsageTrace::default()) } else { None };

        // Messages sent in the previous round, awaiting delivery this round.
        let mut in_flight: Vec<InFlight> = Vec::new();
        let mut round: u64 = 0;

        loop {
            if round > config.max_rounds {
                let unhalted = status.iter().filter(|s| !s.halted).count() as u32;
                return Err(SimError::RoundLimitExceeded {
                    limit: config.max_rounds,
                    unhalted_nodes: unhalted,
                });
            }

            // Apply the churn events of this round first, exactly as the
            // active-set engine does: crashes take effect at the start of
            // their round, restarts re-create the node's state and run it
            // (through `init`) this very round.
            if let Some(rt) = faults.as_mut() {
                while let Some(ev) = rt.next_event(round) {
                    let st = &mut status[ev.node.index()];
                    match ev.action {
                        FaultAction::Crash { permanent } => {
                            metrics.crashes += 1;
                            rt.crashed[ev.node.index()] = true;
                            st.down = true;
                            if permanent {
                                st.halted = true;
                            }
                        }
                        FaultAction::Restart => {
                            metrics.restarts += 1;
                            rt.crashed[ev.node.index()] = false;
                            rt.reinit[ev.node.index()] = true;
                            st.down = false;
                            st.halted = false;
                            st.wake_at = round;
                            st.listening = false;
                            states[ev.node.index()] = factory(ev.node);
                        }
                    }
                }
                // Jitter-delayed messages due this round join the stream
                // after the on-time ones, as in the active-set engine.
                rt.merge_due(round, &mut in_flight);
            }

            // Deliver messages sent last round. Messages to sleeping or halted
            // nodes are lost (the defining property of the sleeping model);
            // messages to a crashed node are the fault layer's drops.
            let mut inboxes: Vec<Vec<Message>> = vec![Vec::new(); n];
            for flight in in_flight.drain(..) {
                let st = &status[flight.to.index()];
                if faults.as_ref().is_some_and(|rt| rt.crashed[flight.to.index()]) {
                    metrics.fault_drops += 1;
                } else if !st.halted && (st.wake_at <= round || st.listening) {
                    inboxes[flight.to.index()].push(flight.msg);
                } else {
                    metrics.messages_lost += 1;
                }
            }

            // Run awake nodes.
            let mut this_round_trace: Vec<(EdgeId, u32)> = Vec::new();
            // simlint::allow(nondeterministic-iteration: per-round capacity counter probed through entry() only and dropped at round end; nothing ever iterates it)
            let mut edge_round_count: HashMap<(EdgeId, NodeId), u32> = HashMap::new();
            let mut any_awake = false;
            for v in graph.nodes() {
                let st = &status[v.index()];
                if st.halted || st.down || (st.wake_at > round && !st.listening) {
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
                let run_init = round == 0
                    || faults.as_mut().is_some_and(|rt| std::mem::take(&mut rt.reinit[v.index()]));
                if run_init {
                    states[v.index()].init(&mut ctx);
                } else {
                    states[v.index()].on_round(&mut ctx, &inboxes[v.index()]);
                }
                let request = ctx.request();
                // Process sends.
                for flight in &outbox {
                    let edge = flight.msg.edge;
                    let words = flight.sent_words as usize;
                    if words > config.effective_max_words() {
                        if config.strict_capacity {
                            return Err(SimError::MessageTooLarge {
                                node: v,
                                words,
                                max_words: config.effective_max_words(),
                            });
                        }
                        metrics.capacity_violations += 1;
                    }
                    let used = edge_round_count.entry((edge, v)).or_insert(0);
                    *used += 1;
                    if *used > config.edge_capacity {
                        if config.strict_capacity {
                            return Err(SimError::EdgeCapacityExceeded {
                                node: v,
                                edge,
                                round,
                                capacity: config.edge_capacity,
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
                // Roll the fate of this node's sends after accounting (a
                // dropped message was still sent), before they join the
                // in-flight pool — same call sequence as the active engine.
                if let Some(rt) = faults.as_mut() {
                    if rt.has_message_faults() {
                        rt.apply_message_faults(&mut metrics, round, &mut outbox, 0);
                    }
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

            if let Some(t) = trace.as_mut() {
                // Coalesce duplicate edges in this round's trace entry; the
                // BTreeMap iterates in edge order, matching the active engine.
                let mut merged: BTreeMap<EdgeId, u32> = BTreeMap::new();
                for (e, c) in this_round_trace {
                    *merged.entry(e).or_insert(0) += c;
                }
                t.rounds.push(merged.into_iter().collect());
            }

            // Termination check: all halted and nothing in flight. Whatever
            // was sent this round can never be delivered — count it as lost.
            let all_halted = status.iter().all(|s| s.halted);
            if all_halted {
                metrics.messages_lost += in_flight.len() as u64;
                if let Some(rt) = faults.as_ref() {
                    metrics.messages_lost += rt.pending_count();
                }
                metrics.rounds = round + 1;
                return Ok(RunOutcome { states, metrics, trace, rounds_visited: 0 });
            }

            // Deadlock / quiescence guard: nobody is awake now or in the
            // future and no message is in flight — the protocol will never
            // make progress again. Treat it as termination at this round;
            // protocols that rely on this behave like "implicit halt". Under
            // a fault plan the next event may also be a pending jittered
            // delivery or a churn event.
            let next_wake = {
                let mut t = status.iter().filter(|s| !s.halted && !s.down).map(|s| s.wake_at).min();
                if let Some(rt) = faults.as_ref() {
                    t = [t, rt.next_pending_round(), rt.next_event_round()]
                        .into_iter()
                        .flatten()
                        .min();
                }
                t
            };
            if in_flight.is_empty() && !any_awake {
                if let Some(w) = next_wake.filter(|&w| w > round) {
                    // Jump to the next scheduled wake-up. The skipped rounds
                    // still exist in the model but cost nothing — and get an
                    // empty trace entry each, unless the jump lands past the
                    // round limit: the check at the top of the loop refuses
                    // it, and padding first would ask for a vector header per
                    // round of a sleep to, say, 2^36.
                    if let Some(t) = trace.as_mut().filter(|_| w <= config.max_rounds) {
                        for _ in round + 1..w {
                            t.rounds.push(Vec::new());
                        }
                    }
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
