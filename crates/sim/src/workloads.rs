//! Reference sleeping-model workloads for engine benchmarking and
//! differential testing.
//!
//! The paper's low-energy algorithms keep almost every node asleep in almost
//! every round; [`WaveBfs`] distills that cost profile into a small,
//! self-contained state machine the perf ledger can drive at large `n`
//! (`benchmark/`, workload `engine-wave`): a BFS wavefront under a *perfect*
//! wake schedule, where each node wakes exactly once, in the round its
//! distance arrives. This is the ideal limit of the paper's
//! cluster-activation schedules (Section 3): `O(1)` energy per node, `D`
//! rounds, and per-round awake work equal to one BFS level.
//!
//! [`Flood`] stresses the *message fabric* rather than the sleep scheduler
//! (`benchmark/`, workload `engine-flood`): every node is awake every round,
//! broadcasts one word and folds its whole inbox, saturating every edge in
//! both directions every round — the maximal per-round message volume the
//! CONGEST model permits at capacity 1 — so an engine can only win by moving
//! messages cheaply.
//!
//! A third family hardens BFS and flooding against the fault fabric
//! ([`crate::FaultPlan`], see `docs/FAULT_MODEL.md`): [`ChaosWaveBfs`]
//! widens the wave schedule into per-hop awake windows with rebroadcasts
//! (exact under pure bounded jitter, loss-resilient under drops),
//! [`ChaosPulseBfs`] is an oracle-free periodic BFS that wakes for two
//! rounds per period and re-announces its distance every period, and
//! [`ChaosFlood`] counts its deliveries so degradation is measurable. All
//! three halt unconditionally on a schedule, so no fault plan can wedge them.
//!
//! Finally, [`ChaosListener`] is the seeded differential-testing workload of
//! [`crate::NodeCtx::listen_until`]: random sends, listens, sleeps and halts
//! whose outcome depends on exactly which rounds a node was called back in.

use congest_graph::{Distance, Graph, NodeId};
use rand::splitmix64;

use crate::{Message, NodeCtx, Protocol};

/// BFS under a precomputed perfect wake schedule.
///
/// Node `v` sleeps until the round equal to its hop distance `d(v)`, receives
/// the wavefront from a distance-`d(v) − 1` neighbour (such a neighbour
/// always exists and announced in round `d(v) − 1`), announces its own
/// distance once, and halts. Messages to same- or smaller-distance
/// neighbours land on halted nodes and are lost — the engine's
/// `messages_lost` counter records exactly those.
#[derive(Debug, Clone)]
pub struct WaveBfs {
    /// The wake round of this node (its hop distance), or `None` for
    /// unreachable nodes, which halt immediately.
    wake: Option<u64>,
    /// The distance this node computed (the protocol's output).
    pub dist: Distance,
}

impl WaveBfs {
    /// The perfect wake schedule for a BFS from `sources` on `g`:
    /// `schedule[v] = Some(d(v))`, or `None` if `v` is unreachable.
    pub fn schedule(g: &Graph, sources: &[NodeId]) -> Vec<Option<u64>> {
        let truth = congest_graph::sequential::bfs(g, sources);
        g.nodes().map(|v| truth.distance(v).finite()).collect()
    }

    /// A node with the given wake round (an entry of [`WaveBfs::schedule`]).
    pub fn new(wake: Option<u64>) -> WaveBfs {
        WaveBfs { wake, dist: Distance::Infinite }
    }
}

impl Protocol for WaveBfs {
    fn init(&mut self, ctx: &mut NodeCtx<'_>) {
        match self.wake {
            Some(0) => {
                self.dist = Distance::ZERO;
                ctx.broadcast(&[0]);
                ctx.halt();
            }
            Some(w) => ctx.sleep_until(w),
            None => ctx.halt(),
        }
    }

    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Message]) {
        debug_assert_eq!(Some(ctx.round()), self.wake, "a node wakes exactly once");
        for msg in inbox {
            let cand = Distance::Finite(msg.word(0) + 1);
            if cand < self.dist {
                self.dist = cand;
            }
        }
        debug_assert_eq!(self.dist.finite(), self.wake, "the schedule is exact");
        if let Some(d) = self.dist.finite() {
            ctx.broadcast(&[d]);
        }
        ctx.halt();
    }
}

/// Always-awake full-bandwidth flooding.
///
/// Every node starts from its id, and in every round folds the words it
/// received into a running accumulator and broadcasts the accumulator over
/// every incident edge. All nodes halt together after round `until`. Nothing
/// ever sleeps, so every round moves exactly `2m` messages (one per edge per
/// direction, the capacity-1 CONGEST maximum) — the densest message workload
/// the model allows, and therefore the ledger's `engine-flood` workload.
///
/// The accumulator depends on message *content and per-sender arrival
/// order*, so two engines only agree on the final states if their delivery
/// is bit-identical.
#[derive(Debug, Clone)]
pub struct Flood {
    until: u64,
    /// Running fold of everything received (the protocol's output).
    pub acc: u64,
}

impl Flood {
    /// A node of a flood that halts after round `until` (≥ 1).
    pub fn new(id: NodeId, until: u64) -> Flood {
        Flood { until, acc: 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(id.0 as u64 + 1) }
    }
}

impl Protocol for Flood {
    fn init(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.broadcast(&[self.acc]);
    }

    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Message]) {
        for msg in inbox {
            self.acc = self.acc.rotate_left(7) ^ msg.word(0);
        }
        if ctx.round() >= self.until {
            ctx.halt();
        } else {
            ctx.broadcast(&[self.acc]);
        }
    }
}

/// Chaos-hardened [`WaveBfs`]: the wave schedule stretched to tolerate
/// fault-injected delivery jitter of up to `skew` rounds.
///
/// Node `v` at hop distance `d(v)` is awake for the *window* of `skew + 1`
/// rounds starting at `d(v) · (skew + 1)`, rebroadcasts its best known
/// distance in every window round, and halts unconditionally at the window's
/// end — so no fault plan can wedge it, and every hop gets `skew + 1`
/// independent delivery attempts (loss resilience).
///
/// Under *pure* jitter bounded by `skew` (no drops) the output is exact: by
/// induction, a node's **last** window-round broadcast (round
/// `d·(skew+1) + skew`) carries its true distance, and its arrival — delayed
/// by at most `skew` — lands within `[(d+1)(skew+1), (d+1)(skew+1) + skew]`,
/// the awake window of the next layer, which therefore knows *its* true
/// distance by its own last window round. Earlier, luckier broadcasts may
/// arrive before the receiver's window opens and be lost to the sleeping
/// model (counted in `messages_lost`), but the final attempt cannot miss.
/// With `skew = 0` this degenerates to [`WaveBfs`] (single-round windows).
///
/// Under drops a node that misses all attempts of the true wavefront keeps
/// `Distance::Infinite` or settles on a same-layer overestimate — estimates
/// never *under*shoot, which is what makes the E14 degradation measurable as
/// a one-sided error.
#[derive(Debug, Clone)]
pub struct ChaosWaveBfs {
    /// First round of this node's awake window (already scaled by
    /// `skew + 1`), or `None` for unreachable nodes, which halt immediately.
    wake: Option<u64>,
    /// The jitter bound the schedule was stretched for.
    skew: u64,
    /// The distance this node computed (the protocol's output).
    pub dist: Distance,
}

impl ChaosWaveBfs {
    /// The stretched wake schedule for a BFS from `sources` on `g` under a
    /// jitter bound of `skew`: `schedule[v] = Some(d(v) · (skew + 1))`, or
    /// `None` if `v` is unreachable.
    pub fn schedule(g: &Graph, sources: &[NodeId], skew: u64) -> Vec<Option<u64>> {
        let truth = congest_graph::sequential::bfs(g, sources);
        g.nodes().map(|v| truth.distance(v).finite().map(|d| d * (skew + 1))).collect()
    }

    /// A node with the given window start (an entry of
    /// [`ChaosWaveBfs::schedule`]) and jitter bound.
    pub fn new(wake: Option<u64>, skew: u64) -> ChaosWaveBfs {
        ChaosWaveBfs { wake, skew, dist: Distance::Infinite }
    }

    /// Absorb arrivals, rebroadcast the best known distance, halt at the end
    /// of the window.
    fn pulse(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Message]) {
        for msg in inbox {
            let cand = Distance::Finite(msg.word(0) + 1);
            if cand < self.dist {
                self.dist = cand;
            }
        }
        if let Some(d) = self.dist.finite() {
            ctx.broadcast(&[d]);
        }
        let window_end = self.wake.expect("only scheduled nodes pulse") + self.skew;
        if ctx.round() >= window_end {
            ctx.halt();
        }
        // Otherwise stay awake: the default wake-up is the next round.
    }
}

impl Protocol for ChaosWaveBfs {
    fn init(&mut self, ctx: &mut NodeCtx<'_>) {
        match self.wake {
            Some(0) => {
                self.dist = Distance::ZERO;
                self.pulse(ctx, &[]);
            }
            Some(w) => ctx.sleep_until(w),
            None => ctx.halt(),
        }
    }

    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Message]) {
        self.pulse(ctx, inbox);
    }
}

/// Oracle-free periodic ("pulsed") BFS, hardened against faults.
///
/// Time is divided into periods of `period` rounds. Every node is awake for
/// the two rounds `k·period` (talk) and `k·period + 1` (listen), and asleep
/// otherwise, so the wavefront crosses one hop per period. A node
/// re-announces its best distance at every talk round, absorbs arrivals in
/// *both* rounds (a jittered arrival can land on a talk round), and halts
/// unconditionally on the first listen round past `(hop_bound + 2) · period`
/// — so message loss costs accuracy, never termination. Without faults the
/// output is the exact hop distance.
///
/// Repeated announcements give each hop one delivery attempt per period;
/// under a drop rate `p` the chance a hop stays unserved decays
/// geometrically with the periods remaining, which is the graceful-
/// degradation profile E14 measures. Estimates only ever decrease toward the
/// truth and candidates are always `sender's estimate + 1`, so partial
/// information yields overestimates, never undershoots.
#[derive(Debug, Clone)]
pub struct ChaosPulseBfs {
    period: u64,
    /// The round after which nodes halt (derived from the hop bound).
    limit: u64,
    /// The hop distance this node computed (the protocol's output).
    pub dist: Distance,
}

impl ChaosPulseBfs {
    /// A node of a chaos-pulsed BFS with the given period (≥ 2) and hop
    /// bound (an upper bound on the hop diameter, `n` always suffices).
    ///
    /// # Panics
    ///
    /// Panics if `period < 2` (talk and listen rounds would collide).
    pub fn new(is_source: bool, period: u64, hop_bound: u64) -> ChaosPulseBfs {
        assert!(period >= 2, "pulse period must separate talk and listen rounds");
        ChaosPulseBfs {
            period,
            limit: (hop_bound + 2).saturating_mul(period),
            dist: if is_source { Distance::ZERO } else { Distance::Infinite },
        }
    }

    fn absorb(&mut self, inbox: &[Message]) {
        for msg in inbox {
            let cand = Distance::Finite(msg.word(0) + 1);
            if cand < self.dist {
                self.dist = cand;
            }
        }
    }
}

impl Protocol for ChaosPulseBfs {
    fn init(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.sleep_until(self.period);
    }

    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Message]) {
        let r = ctx.round();
        self.absorb(inbox);
        if r % self.period == 0 {
            // Talk round: re-announce the current best, every period — the
            // redundancy that buys loss tolerance. Stay awake to listen.
            if let Some(d) = self.dist.finite() {
                ctx.broadcast(&[d]);
            }
        } else if r >= self.limit {
            // Unconditional halt: the safety net against wedging.
            ctx.halt();
        } else {
            ctx.sleep_until((r / self.period + 1) * self.period);
        }
    }
}

/// Chaos-instrumented [`Flood`]: the same always-awake full-bandwidth
/// workload, plus a per-node count of *received* messages, so a faulty run's
/// delivery ratio is measurable directly
/// (`Σ received = messages − messages_lost − fault_drops`).
#[derive(Debug, Clone)]
pub struct ChaosFlood {
    until: u64,
    /// Running fold of everything received (the protocol's output).
    pub acc: u64,
    /// Number of messages this node received.
    pub received: u64,
}

impl ChaosFlood {
    /// A node of a flood that halts after round `until` (≥ 1).
    pub fn new(id: NodeId, until: u64) -> ChaosFlood {
        ChaosFlood {
            until,
            acc: 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(id.0 as u64 + 1),
            received: 0,
        }
    }
}

impl Protocol for ChaosFlood {
    fn init(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.broadcast(&[self.acc]);
    }

    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Message]) {
        self.received += inbox.len() as u64;
        for msg in inbox {
            self.acc = self.acc.rotate_left(7) ^ msg.word(0);
        }
        if ctx.round() >= self.until {
            ctx.halt();
        } else {
            ctx.broadcast(&[self.acc]);
        }
    }
}

/// Seeded pseudo-random listening: every step a node sends on a random
/// subset of its edges and then either listens to a random deadline, sleeps a
/// random span, calls both (the last call wins), stays awake, or — past its
/// lifetime — halts. A node woken early by mail often re-listens to the
/// deadline it was already waiting for, which leaves a duplicate entry in the
/// engine's wake queue for the filter to absorb.
///
/// The [`ChaosListener::digest`] folds in every delivered message together
/// with its arrival round, and [`ChaosListener::calls`] counts callbacks, so
/// an engine that calls a listener back one round early, one round late, or
/// once too often ends in a different state. The protocol owns no heap
/// memory and draws from a splitmix64 stream, so stepping it never
/// allocates.
#[derive(Debug, Clone)]
pub struct ChaosListener {
    rng: u64,
    /// The node halts the first time it runs at or after this round.
    lifetime: u64,
    /// Waits are drawn from `2..=max_wait` rounds.
    max_wait: u64,
    /// The deadline of the latest listen request.
    deadline: u64,
    /// Running digest of everything observed (the protocol's output).
    pub digest: u64,
    /// Number of `init`/`on_round` callbacks this node has had.
    pub calls: u64,
}

impl ChaosListener {
    /// A node drawing from the stream of `(seed, id)` that halts in its first
    /// step at or after a round drawn from `lifetime / 2..=lifetime`, and
    /// waits at most `max_wait` (≥ 2) rounds at a time. A `max_wait` beyond
    /// the wake queue's 64-round ring sends deadlines through its far tier
    /// as well.
    pub fn new(seed: u64, id: NodeId, lifetime: u64, max_wait: u64) -> ChaosListener {
        let mut rng = seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(id.0 as u64 + 1);
        let lifetime = lifetime / 2 + splitmix64(&mut rng) % (lifetime / 2 + 1);
        ChaosListener {
            rng,
            lifetime,
            max_wait: max_wait.max(2),
            deadline: 0,
            digest: seed,
            calls: 0,
        }
    }

    fn draw(&mut self, bound: u64) -> u64 {
        splitmix64(&mut self.rng) % bound
    }

    fn act(&mut self, ctx: &mut NodeCtx<'_>) {
        self.calls += 1;
        let round = ctx.round();
        for adj in ctx.neighbors() {
            if self.draw(100) < 30 {
                let word = self.digest ^ self.draw(1_000_000);
                ctx.send_on_edge(adj.edge, &[word, round]);
            }
        }
        if round >= self.lifetime {
            ctx.halt();
            return;
        }
        let wait = 2 + self.draw(self.max_wait - 1);
        match self.draw(100) {
            // Woken by mail before the deadline: wait for the same one again.
            0..=24 if self.deadline > round + 1 => ctx.listen_until(self.deadline),
            0..=54 => {
                self.deadline = round + wait;
                ctx.listen_until(self.deadline);
            }
            55..=69 => ctx.sleep_until(round + wait),
            70..=74 => {
                ctx.listen_until(round + wait);
                ctx.sleep_until(round + 2 + self.draw(6));
            }
            75..=79 => {
                ctx.sleep_until(round + wait);
                self.deadline = round + 2 + self.draw(6);
                ctx.listen_until(self.deadline);
            }
            _ => {}
        }
    }
}

impl Protocol for ChaosListener {
    fn init(&mut self, ctx: &mut NodeCtx<'_>) {
        self.act(ctx);
    }

    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Message]) {
        for msg in inbox {
            self.digest = self
                .digest
                .wrapping_mul(0x100_0000_01b3)
                .wrapping_add(msg.from.0 as u64)
                .wrapping_add((msg.edge.0 as u64) << 17)
                .wrapping_add(ctx.round() << 34);
            for &w in &msg.words {
                self.digest = self.digest.rotate_left(13) ^ w;
            }
        }
        self.act(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, FaultPlan, SimConfig};
    use congest_graph::{generators, sequential};

    #[test]
    fn wave_bfs_computes_distances_with_constant_energy() {
        let g = generators::random_connected(60, 90, 17);
        let sched = WaveBfs::schedule(&g, &[NodeId(0)]);
        let run = Engine::new(&g, SimConfig::default())
            .run(|id| WaveBfs::new(sched[id.index()]))
            .unwrap();
        let truth = sequential::bfs(&g, &[NodeId(0)]);
        for v in g.nodes() {
            assert_eq!(run.states[v.index()].dist, truth.distance(v), "node {v}");
        }
        // Each node is awake exactly twice: init and its wave round (sources
        // and unreachable nodes only once — they halt at init).
        assert!(run.metrics.max_energy() <= 2);
        // Exactly one message is delivered per tight edge (distance gap 1,
        // downhill endpoint to uphill endpoint); every other announcement
        // lands on a halted node and is counted as lost.
        let delivered = g
            .edges()
            .iter()
            .filter(|e| {
                matches!(
                    (truth.distance(e.u).finite(), truth.distance(e.v).finite()),
                    (Some(a), Some(b)) if a.abs_diff(b) == 1
                )
            })
            .count() as u64;
        assert_eq!(run.metrics.messages_lost, run.metrics.messages - delivered);
    }

    #[test]
    fn wave_bfs_handles_unreachable_components() {
        let g = generators::disjoint_copies(&generators::path(5, 1), 2);
        let sched = WaveBfs::schedule(&g, &[NodeId(0)]);
        let run = Engine::new(&g, SimConfig::default())
            .run(|id| WaveBfs::new(sched[id.index()]))
            .unwrap();
        for v in 5..10 {
            assert!(run.states[v].dist.is_infinite());
            assert_eq!(run.metrics.node_energy[v], 1, "unreachable nodes halt at init");
        }
    }

    #[test]
    fn wave_bfs_agrees_across_engines() {
        let g = generators::grid(6, 6, 1);
        let sched = WaveBfs::schedule(&g, &[NodeId(0)]);
        let cfg = SimConfig::default();
        let fast = Engine::new(&g, cfg.clone()).run(|id| WaveBfs::new(sched[id.index()])).unwrap();
        let slow =
            Engine::new(&g, cfg).run_reference(|id| WaveBfs::new(sched[id.index()])).unwrap();
        assert_eq!(fast.metrics, slow.metrics);
    }

    #[test]
    fn flood_saturates_every_edge_every_round() {
        let g = generators::random_connected(24, 40, 3);
        let until = 10u64;
        let run = Engine::new(&g, SimConfig::default()).run(|id| Flood::new(id, until)).unwrap();
        // Rounds 0..until broadcast 2m messages each; round `until` only
        // folds and halts, so the final wave still finds everyone awake.
        assert_eq!(run.metrics.rounds, until + 1);
        assert_eq!(run.metrics.messages, 2 * g.edge_count() as u64 * until);
        assert_eq!(run.metrics.messages_lost, 0);
        assert_eq!(run.metrics.max_energy(), until + 1);
        assert_eq!(run.metrics.capacity_violations, 0);
    }

    #[test]
    fn message_fabric_workloads_agree_across_engines() {
        let cfg = SimConfig::default();
        let g = generators::random_connected(20, 35, 9);
        let fast = Engine::new(&g, cfg.clone()).run(|id| Flood::new(id, 12)).unwrap();
        let slow = Engine::new(&g, cfg.clone()).run_reference(|id| Flood::new(id, 12)).unwrap();
        assert_eq!(fast.metrics, slow.metrics);
        let fa: Vec<u64> = fast.states.iter().map(|s| s.acc).collect();
        let sa: Vec<u64> = slow.states.iter().map(|s| s.acc).collect();
        assert_eq!(fa, sa, "flood folds must be bit-identical");

        // A hub of degree n − 1: its inbox is the whole graph's traffic.
        let g = generators::star(12, 1);
        let fast = Engine::new(&g, cfg.clone()).run(|id| Flood::new(id, 8)).unwrap();
        let slow = Engine::new(&g, cfg).run_reference(|id| Flood::new(id, 8)).unwrap();
        assert_eq!(fast.metrics, slow.metrics);
        let fa: Vec<u64> = fast.states.iter().map(|s| s.acc).collect();
        let sa: Vec<u64> = slow.states.iter().map(|s| s.acc).collect();
        assert_eq!(fa, sa, "star flood folds must be bit-identical");
    }

    #[test]
    fn chaos_wave_bfs_with_zero_skew_matches_plain_wave_bfs() {
        let g = generators::grid(6, 5, 1);
        let sched = ChaosWaveBfs::schedule(&g, &[NodeId(0)], 0);
        assert_eq!(sched, WaveBfs::schedule(&g, &[NodeId(0)]));
        let run = Engine::new(&g, SimConfig::default())
            .run(|id| ChaosWaveBfs::new(sched[id.index()], 0))
            .unwrap();
        let truth = sequential::bfs(&g, &[NodeId(0)]);
        for v in g.nodes() {
            assert_eq!(run.states[v.index()].dist, truth.distance(v), "node {v}");
        }
        assert!(run.metrics.max_energy() <= 2, "zero-skew windows are single rounds");
    }

    #[test]
    fn chaos_wave_bfs_is_exact_under_pure_bounded_jitter() {
        // The headline guarantee: jitter alone (no drops) cannot corrupt the
        // output, on either engine, because the last rebroadcast of each
        // window always lands inside the next layer's window.
        let g = generators::random_connected(48, 70, 29);
        let truth = sequential::bfs(&g, &[NodeId(0)]);
        for skew in [1u64, 3] {
            let sched = ChaosWaveBfs::schedule(&g, &[NodeId(0)], skew);
            let cfg = SimConfig::default()
                .with_faults(FaultPlan::none().with_seed(99).with_max_skew(skew));
            let fast = Engine::new(&g, cfg.clone())
                .run(|id| ChaosWaveBfs::new(sched[id.index()], skew))
                .unwrap();
            let slow = Engine::new(&g, cfg)
                .run_reference(|id| ChaosWaveBfs::new(sched[id.index()], skew))
                .unwrap();
            assert_eq!(fast.metrics, slow.metrics, "skew {skew}");
            for v in g.nodes() {
                assert_eq!(fast.states[v.index()].dist, truth.distance(v), "node {v} skew {skew}");
                assert_eq!(slow.states[v.index()].dist, truth.distance(v), "node {v} skew {skew}");
            }
            assert!(fast.metrics.fault_delays > 0, "skew {skew} must actually jitter");
            // Each node is awake for init plus at most its skew+1 window.
            assert!(fast.metrics.max_energy() <= skew + 2);
        }
    }

    #[test]
    fn chaos_pulse_bfs_matches_sequential_bfs_without_faults_and_never_wedges_with_them() {
        let g = generators::grid(5, 5, 1);
        let n = g.node_count() as u64;
        let run = Engine::new(&g, SimConfig::default())
            .run(|id| ChaosPulseBfs::new(id == NodeId(0), 6, n))
            .unwrap();
        let truth = sequential::bfs(&g, &[NodeId(0)]);
        for v in g.nodes() {
            assert_eq!(run.states[v.index()].dist, truth.distance(v), "node {v}");
        }
        // Under heavy loss the distances may degrade, but the unconditional
        // halt schedule still terminates the run well inside the limit.
        let cfg = SimConfig::default()
            .with_faults(FaultPlan::none().with_seed(3).with_drop_ppm(400_000).with_max_skew(2));
        let lossy =
            Engine::new(&g, cfg).run(|id| ChaosPulseBfs::new(id == NodeId(0), 6, n)).unwrap();
        assert!(lossy.metrics.rounds <= (n + 2) * 6 + 2);
        assert!(lossy.metrics.fault_drops > 0);
        for v in g.nodes() {
            // One-sided degradation: estimates never undershoot the truth.
            if let Some(est) = lossy.states[v.index()].dist.finite() {
                assert!(est >= truth.distance(v).expect_finite(), "node {v}");
            }
        }
    }

    #[test]
    fn chaos_flood_counts_deliveries_exactly() {
        let g = generators::random_connected(20, 30, 5);
        let cfg = SimConfig::default()
            .with_faults(FaultPlan::none().with_seed(12).with_drop_ppm(150_000).with_max_skew(1));
        let run = Engine::new(&g, cfg).run(|id| ChaosFlood::new(id, 12)).unwrap();
        let received: u64 = run.states.iter().map(|s| s.received).sum();
        assert_eq!(
            received,
            run.metrics.messages - run.metrics.messages_lost - run.metrics.fault_drops,
            "every sent message is delivered, slept away, or fault-dropped"
        );
        assert!(run.metrics.fault_drops > 0);
    }
}
