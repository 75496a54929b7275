//! Differential testing of the active-set engine against the retained naive
//! reference loop.
//!
//! A pseudo-random "chaos" protocol — nodes send to random neighbours, sleep
//! random spans, and halt at random rounds, folding everything they observe
//! into a running digest — runs on random graphs through both
//! [`Engine::run`] and [`Engine::run_reference`]. The two executions must be
//! indistinguishable: identical [`congest_sim::Metrics`] (rounds, messages,
//! congestion, energy, capacity violations, lost messages), identical edge
//! traces, and identical final states. The digest depends on message
//! *content, order, and arrival round*, so any divergence in scheduling or
//! delivery shows up as a state mismatch, not just a metric mismatch.
//!
//! [`ChaosListener`] runs through the same comparison: it mixes
//! `listen_until` into the sends, sleeps and halts, and its state also counts
//! its callbacks, so the lazy settlement of idle listening rounds in
//! [`Engine::run`] is checked against the reference's round-by-round
//! definition of them.
//!
//! The last property is about [`RunScratch`]: a sequence of unlike runs —
//! other graphs, protocols, fault plans, thread counts, some of them cut
//! short by an error or a panic — shares one scratch, and each run must come
//! out exactly as it does on a fresh scratch and on the reference loop.

use std::panic::{catch_unwind, AssertUnwindSafe};

use congest_graph::{generators, Graph, NodeId};
use congest_sim::workloads::ChaosListener;
use congest_sim::{
    EdgeUsageTrace, Engine, FaultPlan, Message, Metrics, NodeCtx, Protocol, RunOutcome, RunScratch,
    SimConfig, SimError,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A deterministic pseudo-random protocol. Behaviour depends only on the
/// node's own RNG stream and what the engine shows it, so two semantically
/// equivalent engines drive it into identical executions.
#[derive(Debug, Clone)]
struct ChaosNode {
    rng: ChaCha8Rng,
    /// Round at which this node halts unconditionally.
    lifetime: u64,
    /// Running digest of everything observed (inbox contents and rounds).
    digest: u64,
    /// Whether the node ever sleeps; an always-awake one runs every round of
    /// its life.
    sleeps: bool,
}

impl ChaosNode {
    fn new(seed: u64, id: NodeId) -> ChaosNode {
        let mut rng = ChaCha8Rng::seed_from_u64(
            seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(id.0 as u64 + 1)),
        );
        let lifetime = rng.gen_range(3u64..40);
        ChaosNode { rng, lifetime, digest: seed, sleeps: true }
    }

    fn absorb(&mut self, round: u64, inbox: &[Message]) {
        for msg in inbox {
            self.digest = self
                .digest
                .wrapping_mul(0x100_0000_01b3)
                .wrapping_add(msg.from.0 as u64)
                .wrapping_add((msg.edge.0 as u64) << 17)
                .wrapping_add(round << 34);
            for &w in &msg.words {
                self.digest = self.digest.rotate_left(13) ^ w;
            }
        }
    }

    fn act(&mut self, ctx: &mut NodeCtx<'_>) {
        // Random sends: at most one message per incident edge, so the
        // capacity-1 CONGEST bound can only be violated through parallel
        // edges — which the lenient configs below merely count. Payload
        // lengths deliberately straddle the inline capacity (4): oversized
        // sends must be counted and truncated identically by both engines.
        let neighbors: Vec<_> = ctx.neighbors().to_vec();
        for adj in &neighbors {
            if self.rng.gen_range(0u32..100) < 40 {
                let len = self.rng.gen_range(1..=5usize);
                let mut words = vec![0u64; len];
                for w in words.iter_mut() {
                    *w = self.digest ^ self.rng.gen_range(0u64..1_000_000);
                }
                ctx.send_on_edge(adj.edge, &words);
            }
        }
        // Random schedule: halt at end of life, otherwise sometimes sleep.
        if ctx.round() >= self.lifetime {
            ctx.halt();
        } else if self.sleeps && self.rng.gen_range(0u32..100) < 35 {
            ctx.sleep_for(self.rng.gen_range(1u64..7));
        }
    }
}

impl Protocol for ChaosNode {
    fn init(&mut self, ctx: &mut NodeCtx<'_>) {
        self.act(ctx);
    }

    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Message]) {
        self.absorb(ctx.round(), inbox);
        self.act(ctx);
    }
}

/// Runs one protocol through both engines and asserts equivalence; `key`
/// reads the part of a final state the comparison is on.
fn assert_equivalent_runs<P: Protocol + std::fmt::Debug, K: PartialEq + std::fmt::Debug>(
    g: &Graph,
    cfg: SimConfig,
    seed: u64,
    node: impl Fn(NodeId) -> P,
    key: impl Fn(&P) -> K,
) {
    let fast = Engine::new(g, cfg.clone()).run(&node);
    let slow = Engine::new(g, cfg).run_reference(&node);
    match (fast, slow) {
        (Ok(fast), Ok(slow)) => {
            assert_eq!(fast.metrics, slow.metrics, "metrics diverged (seed {seed})");
            assert_eq!(fast.trace, slow.trace, "edge traces diverged (seed {seed})");
            let fd: Vec<K> = fast.states.iter().map(&key).collect();
            let sd: Vec<K> = slow.states.iter().map(&key).collect();
            assert_eq!(fd, sd, "final states diverged (seed {seed})");
        }
        (fast, slow) => panic!("one engine failed: fast={fast:?} slow={slow:?} (seed {seed})"),
    }
}

/// Runs the chaos protocol through both engines and asserts equivalence.
fn assert_engines_equivalent(g: &Graph, cfg: SimConfig, seed: u64) {
    assert_equivalent_runs(g, cfg, seed, |id| ChaosNode::new(seed, id), |s| s.digest);
}

/// The same for the listening chaos protocol. Waits of up to 90 rounds put
/// deadlines on both sides of the wake queue's 64-round ring.
fn assert_listeners_equivalent(g: &Graph, cfg: SimConfig, seed: u64) {
    let node = |id| ChaosListener::new(seed, id, 160, 90);
    assert_equivalent_runs(g, cfg, seed, node, |s| (s.digest, s.calls));
}

fn chaos_config() -> impl Strategy<Value = SimConfig> {
    (1u32..3, 0u8..2).prop_map(|(capacity, trace)| SimConfig {
        edge_capacity: capacity,
        // Lenient mode: violations are counted (and must match), not fatal.
        strict_capacity: false,
        record_edge_trace: trace == 1,
        ..SimConfig::default()
    })
}

/// How one run of the dirty-scratch property is made to end.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ending {
    /// Every node halts in its own time.
    Halt,
    /// The round limit comes first.
    RoundLimit,
    /// The last node sends twice over one edge, in strict mode, after the
    /// nodes before it have sent and been accounted in the same round.
    Oversend,
    /// The last node's callback panics.
    Panic,
}

/// One node of those runs: chaos of three temperaments, or the saboteur that
/// ends the run in round `at`.
#[derive(Debug)]
enum Mixed {
    Chaos(ChaosNode),
    Listener(ChaosListener),
    Saboteur { at: u64, ending: Ending },
}

impl Mixed {
    /// What the comparison reads off a final state.
    fn key(&self) -> (u64, u64) {
        match self {
            Mixed::Chaos(node) => (node.digest, node.lifetime),
            Mixed::Listener(node) => (node.digest, node.calls),
            Mixed::Saboteur { at, .. } => (*at, 0),
        }
    }
}

impl Protocol for Mixed {
    fn init(&mut self, ctx: &mut NodeCtx<'_>) {
        match self {
            Mixed::Chaos(node) => node.init(ctx),
            Mixed::Listener(node) => node.init(ctx),
            Mixed::Saboteur { .. } => {}
        }
    }

    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Message]) {
        match self {
            Mixed::Chaos(node) => node.on_round(ctx, inbox),
            Mixed::Listener(node) => node.on_round(ctx, inbox),
            Mixed::Saboteur { at, ending } if ctx.round() >= *at => match ending {
                Ending::Oversend => {
                    let edge = ctx.neighbors()[0].edge;
                    ctx.send_on_edge(edge, &[1]);
                    ctx.send_on_edge(edge, &[2]);
                }
                Ending::Panic => panic!("node {} sabotaged round {}", ctx.node_id(), ctx.round()),
                Ending::Halt | Ending::RoundLimit => ctx.halt(),
            },
            Mixed::Saboteur { .. } => {}
        }
    }
}

/// Everything one run can be told apart by.
#[derive(Debug, PartialEq)]
enum Ended {
    Halted { metrics: Metrics, trace: Option<EdgeUsageTrace>, states: Vec<(u64, u64)> },
    Failed(SimError),
    Panicked(String),
}

fn ended(run: impl FnOnce() -> Result<RunOutcome<Mixed>, SimError>) -> Ended {
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(Ok(out)) => Ended::Halted {
            metrics: out.metrics,
            trace: out.trace,
            states: out.states.iter().map(Mixed::key).collect(),
        },
        Ok(Err(error)) => Ended::Failed(error),
        Err(payload) => Ended::Panicked(*payload.downcast::<String>().expect("a formatted panic")),
    }
}

/// One run of the sequence, drawn from `rng`: its graph (often empty or a
/// single node, otherwise up to 23 nodes — so consecutive runs shrink and
/// grow the scratch's columns), its configuration, its node factory's seed
/// and how it ends.
fn draw_run(rng: &mut ChaCha8Rng) -> (Graph, SimConfig, u64, Ending) {
    let n = match rng.gen_range(0u32..8) {
        0 => 0,
        1 => 1,
        _ => rng.gen_range(2u32..24),
    };
    let g = match n {
        0 => Graph::builder(0).build(),
        _ => generators::random_connected(n, rng.gen_range(0u64..30), rng.gen_range(0u64..1 << 20)),
    };
    let ending = match rng.gen_range(0u32..6) {
        0 => Ending::RoundLimit,
        1 => Ending::Oversend,
        2 => Ending::Panic,
        _ => Ending::Halt,
    };
    let faults = if rng.gen_range(0u32..2) == 0 {
        FaultPlan::none()
    } else {
        // Jitter on every edge, a crash with a restart and a crash for good;
        // nodes a small graph does not have are ignored by the plan.
        FaultPlan::none()
            .with_seed(rng.gen_range(0u64..1 << 20))
            .with_max_skew(3)
            .with_crash(NodeId(rng.gen_range(0u32..8)), rng.gen_range(1u64..6), Some(9))
            .with_crash(NodeId(rng.gen_range(8u32..16)), rng.gen_range(2u64..30), None)
    };
    let cfg = SimConfig {
        strict_capacity: ending == Ending::Oversend,
        record_edge_trace: rng.gen_range(0u32..2) == 0,
        max_rounds: if ending == Ending::RoundLimit { 7 } else { 10_000 },
        faults,
        threads: rng.gen_range(1usize..3),
        ..SimConfig::default()
    };
    (g, cfg, rng.gen_range(0u64..1 << 20), ending)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_dirty_scratch_cannot_be_told_from_a_fresh_one(
        runs in 2usize..5,
        script in 0u64..1_000_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(script);
        let mut dirty = RunScratch::default();
        for i in 0..runs {
            let (g, cfg, seed, ending) = draw_run(&mut rng);
            let last = NodeId(g.node_count().saturating_sub(1));
            let node = |id: NodeId| {
                if id == last && g.degree(id) > 0 && ending != Ending::Halt {
                    return Mixed::Saboteur { at: 1 + seed % 5, ending };
                }
                // Oversized chaos payloads are themselves a strict-mode
                // error; the run that is to end in a capacity violation has
                // listeners only (two words a message, one per edge).
                match (seed + id.0 as u64) % 3 {
                    0 if !cfg.strict_capacity => Mixed::Chaos(ChaosNode::new(seed, id)),
                    1 if !cfg.strict_capacity => {
                        Mixed::Chaos(ChaosNode { sleeps: false, ..ChaosNode::new(seed, id) })
                    }
                    _ => Mixed::Listener(ChaosListener::new(seed, id, 60, 90)),
                }
            };
            let engine = Engine::new(&g, cfg.clone());
            let reused = ended(|| engine.run_in(&mut dirty, node));
            let fresh = ended(|| engine.run_in(&mut RunScratch::default(), node));
            let reference = ended(|| engine.run_reference(node));
            let what = format!("run {i} of script {script}: {ending:?} on {} nodes", g.node_count());
            prop_assert_eq!(&reused, &fresh, "{}", what);
            prop_assert_eq!(&reused, &reference, "{} (reference)", what);
        }
    }

    #[test]
    fn engines_are_equivalent_on_random_graphs(
        n in 2u32..28,
        extra in 0u64..40,
        graph_seed in 0u64..1_000_000,
        protocol_seed in 0u64..1_000_000,
        cfg in chaos_config(),
    ) {
        let g = generators::random_connected(n, extra, graph_seed);
        assert_engines_equivalent(&g, cfg, protocol_seed);
    }

    #[test]
    fn engines_are_equivalent_on_listeners(
        n in 2u32..28,
        extra in 0u64..40,
        graph_seed in 0u64..1_000_000,
        protocol_seed in 0u64..1_000_000,
        cfg in chaos_config(),
    ) {
        // `chaos_config` covers both settings of the edge trace.
        let g = generators::random_connected(n, extra, graph_seed);
        assert_listeners_equivalent(&g, cfg, protocol_seed);
    }

    #[test]
    fn engines_are_equivalent_on_multigraphs(
        protocol_seed in 0u64..1_000_000,
        cfg in chaos_config(),
    ) {
        // Parallel edges exercise per-edge-direction capacity accounting.
        let g = Graph::from_edges(3, [(0, 1, 1), (0, 1, 2), (1, 2, 1), (0, 2, 3), (0, 2, 3)])
            .expect("valid multigraph");
        assert_engines_equivalent(&g, cfg, protocol_seed);
    }
}

#[test]
fn engines_are_equivalent_on_structured_graphs() {
    for (i, g) in [
        generators::path(17, 1),
        generators::cycle(12, 2),
        generators::star(9, 1),
        generators::grid(5, 4, 1),
        generators::disjoint_copies(&generators::path(6, 1), 3),
    ]
    .into_iter()
    .enumerate()
    {
        for seed in 0..4 {
            let cfg = SimConfig {
                strict_capacity: false,
                record_edge_trace: true,
                ..SimConfig::default()
            };
            assert_engines_equivalent(&g, cfg.clone(), seed * 1000 + i as u64);
            assert_listeners_equivalent(&g, cfg, seed * 1000 + i as u64);
        }
    }
}
