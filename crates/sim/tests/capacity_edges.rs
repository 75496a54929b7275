//! Payload- and edge-capacity edge cases, differentially on both engines.
//!
//! The inline-payload refactor makes the bandwidth bound structural: a
//! [`congest_sim::Words`] payload holds at most `Words::CAPACITY` words, and
//! the engine polices the *attempted* send length against
//! `SimConfig::max_message_words` exactly as the `Vec`-payload engine did.
//! The first tests pin that boundary — sends exactly at, and one past, the
//! limit — with `strict_capacity` on and off, and assert both engines produce
//! identical `SimError`s, metrics, and delivered payloads.
//!
//! The rest pin `SimConfig::edge_capacity`, which [`Engine::run`] counts per
//! step — one record per send call, counted by port only when a step makes
//! several or the capacity is 0 — and the reference per round, one message
//! at a time: two sends on one edge, a broadcast beside a send on one of its
//! edges, the two directions of an edge, parallel edges, a new round, and a
//! capacity of 0.

use congest_graph::{generators, EdgeId, Graph, NodeId};
use congest_sim::{Engine, Message, NodeCtx, Protocol, SimConfig, SimError, Words};

/// Node 0 sends one `payload_len`-word message to node 1 in round 0 and both
/// halt; node 1 records what it received.
#[derive(Debug, Clone)]
struct OneShot {
    payload_len: usize,
    received: Vec<Vec<u64>>,
}

impl OneShot {
    fn new(payload_len: usize) -> OneShot {
        OneShot { payload_len, received: Vec::new() }
    }
}

impl Protocol for OneShot {
    fn init(&mut self, ctx: &mut NodeCtx<'_>) {
        if ctx.node_id() == NodeId(0) {
            let words: Vec<u64> = (1..=self.payload_len as u64).collect();
            ctx.send_on_edge(EdgeId(0), &words);
            ctx.halt();
        }
    }

    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Message]) {
        for msg in inbox {
            self.received.push(msg.words.to_vec());
        }
        ctx.halt();
    }
}

/// Runs `OneShot` through both engines and asserts they behave identically;
/// returns the (identical) outcome of the run.
fn both_engines(
    cfg: SimConfig,
    payload_len: usize,
) -> Result<(Vec<Vec<u64>>, congest_sim::Metrics), SimError> {
    let g = generators::path(2, 1);
    let fast = Engine::new(&g, cfg.clone()).run(|_| OneShot::new(payload_len));
    let slow = Engine::new(&g, cfg).run_reference(|_| OneShot::new(payload_len));
    match (fast, slow) {
        (Ok(f), Ok(s)) => {
            assert_eq!(f.metrics, s.metrics, "metrics must match across engines");
            assert_eq!(
                f.states[1].received, s.states[1].received,
                "delivered payloads must match across engines"
            );
            Ok((f.states[1].received.clone(), f.metrics))
        }
        (Err(f), Err(s)) => {
            assert_eq!(f, s, "errors must match across engines");
            Err(f)
        }
        (f, s) => panic!("engines disagreed on success: fast={f:?} slow={s:?}"),
    }
}

#[test]
fn payload_exactly_at_the_limit_is_delivered_intact() {
    for strict in [true, false] {
        let cfg = SimConfig { strict_capacity: strict, ..SimConfig::default() };
        let max = cfg.effective_max_words();
        let (received, metrics) = both_engines(cfg, max).expect("at-limit sends are legal");
        assert_eq!(received, vec![(1..=max as u64).collect::<Vec<u64>>()]);
        assert_eq!(metrics.capacity_violations, 0);
        assert_eq!(metrics.messages, 1);
    }
}

#[test]
fn payload_one_past_the_limit_errors_when_strict() {
    let cfg = SimConfig::default();
    assert!(cfg.strict_capacity, "strict is the default");
    let max = cfg.effective_max_words();
    let err = both_engines(cfg, max + 1).expect_err("oversized sends are a model violation");
    assert_eq!(err, SimError::MessageTooLarge { node: NodeId(0), words: max + 1, max_words: max });
}

#[test]
fn payload_one_past_the_limit_is_truncated_and_counted_when_lenient() {
    let cfg = SimConfig { strict_capacity: false, ..SimConfig::default() };
    let max = cfg.effective_max_words();
    let (received, metrics) = both_engines(cfg, max + 1).expect("lenient mode only counts");
    // The message still travels, carrying the inline prefix; the violation
    // is observable in the metrics.
    assert_eq!(received, vec![(1..=max as u64).collect::<Vec<u64>>()]);
    assert_eq!(metrics.capacity_violations, 1);
    assert_eq!(metrics.messages, 1);
}

#[test]
fn max_message_words_above_the_inline_capacity_is_clamped() {
    // A config asking for more than the inline capacity is clamped to it:
    // the engines enforce `effective_max_words`, identically in both modes.
    let cfg = SimConfig { max_message_words: 64, ..SimConfig::default() };
    assert_eq!(cfg.effective_max_words(), Words::CAPACITY);
    let err = both_engines(cfg, Words::CAPACITY + 1)
        .expect_err("beyond the inline capacity is a violation even if the config asks for more");
    assert_eq!(
        err,
        SimError::MessageTooLarge {
            node: NodeId(0),
            words: Words::CAPACITY + 1,
            max_words: Words::CAPACITY,
        }
    );
}

#[test]
fn tighter_configured_limits_still_bind_below_the_inline_capacity() {
    // max_message_words below the inline capacity polices as before.
    let strict = SimConfig { max_message_words: 2, ..SimConfig::default() };
    let (received, _) = both_engines(strict.clone(), 2).expect("two words are fine");
    assert_eq!(received, vec![vec![1, 2]]);
    let err = both_engines(strict, 3).expect_err("three words exceed the configured limit");
    assert_eq!(err, SimError::MessageTooLarge { node: NodeId(0), words: 3, max_words: 2 });

    let lenient =
        SimConfig { max_message_words: 2, strict_capacity: false, ..SimConfig::default() };
    let (received, metrics) = both_engines(lenient, 3).expect("lenient mode only counts");
    // Below the inline capacity nothing is truncated — the payload fits.
    assert_eq!(received, vec![vec![1, 2, 3]]);
    assert_eq!(metrics.capacity_violations, 1);
}

/// One send call of a scripted step.
#[derive(Debug, Clone, Copy)]
enum Call {
    Broadcast,
    Send(u32),
}

/// A node that makes the calls of its script in their rounds, in script
/// order, and halts after round `last`.
#[derive(Debug, Clone)]
struct Scripted {
    calls: Vec<(u64, Call)>,
    last: u64,
}

impl Scripted {
    fn step(&self, ctx: &mut NodeCtx<'_>) {
        for &(round, call) in &self.calls {
            if round == ctx.round() {
                match call {
                    Call::Broadcast => ctx.broadcast(&[round]),
                    Call::Send(edge) => ctx.send_on_edge(EdgeId(edge), &[round]),
                }
            }
        }
        if ctx.round() >= self.last {
            ctx.halt();
        }
    }
}

impl Protocol for Scripted {
    fn init(&mut self, ctx: &mut NodeCtx<'_>) {
        self.step(ctx);
    }

    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, _inbox: &[Message]) {
        self.step(ctx);
    }
}

/// Runs `script` — `(node, round, call)` — on `g` through both engines,
/// asserts they agree, and returns the metrics or the error.
fn scripted(
    g: &Graph,
    cfg: SimConfig,
    script: &[(u32, u64, Call)],
) -> Result<congest_sim::Metrics, SimError> {
    let last = script.iter().map(|s| s.1).max().unwrap_or(0);
    let node = |id: NodeId| Scripted {
        calls: script.iter().filter(|s| s.0 == id.0).map(|s| (s.1, s.2)).collect(),
        last,
    };
    let fast = Engine::new(g, cfg.clone()).run(node).map(|run| run.metrics);
    let slow = Engine::new(g, cfg).run_reference(node).map(|run| run.metrics);
    assert_eq!(fast, slow, "the engines disagree on {script:?}");
    fast
}

fn lenient() -> SimConfig {
    SimConfig { strict_capacity: false, ..SimConfig::default() }
}

/// The strict error of `node` exceeding capacity 1 on `edge` in `round`.
fn over(node: u32, edge: u32, round: u64) -> SimError {
    SimError::EdgeCapacityExceeded { node: NodeId(node), edge: EdgeId(edge), round, capacity: 1 }
}

#[test]
fn two_sends_on_one_edge_in_one_step_are_one_violation() {
    let g = generators::path(3, 1); // edges: 0-1 (e0), 1-2 (e1)
    let script = [(1, 2, Call::Send(0)), (1, 2, Call::Send(1)), (1, 2, Call::Send(0))];
    let metrics = scripted(&g, lenient(), &script).expect("lenient mode only counts");
    assert_eq!((metrics.capacity_violations, metrics.messages), (1, 3));
    assert_eq!(metrics.edge_congestion, [2, 1]);
    let strict = scripted(&g, SimConfig::default(), &script).expect_err("capacity 1");
    assert_eq!(strict, over(1, 0, 2), "the edge and the round are named");
    // Capacity 2 admits them.
    let two = scripted(&g, SimConfig::default().with_edge_capacity(2), &script).expect("fits");
    assert_eq!(two.capacity_violations, 0);
}

#[test]
fn a_broadcast_and_a_send_on_one_of_its_edges_are_one_violation() {
    let g = generators::star(4, 1); // edges: 0-1 (e0), 0-2 (e1), 0-3 (e2)
                                    // The broadcast first, then the send on its second edge; and the other
                                    // way round, on its last edge.
    for (script, edge) in [
        ([(0, 1, Call::Broadcast), (0, 1, Call::Send(1))], 1),
        ([(0, 1, Call::Send(2)), (0, 1, Call::Broadcast)], 2),
    ] {
        let metrics = scripted(&g, lenient(), &script).expect("lenient mode only counts");
        assert_eq!((metrics.capacity_violations, metrics.messages), (1, 4));
        let strict = scripted(&g, SimConfig::default(), &script).expect_err("capacity 1");
        assert_eq!(strict, over(0, edge, 1));
    }
    // Two broadcasts in one step are a violation on every port.
    let twice = [(0, 0, Call::Broadcast), (0, 0, Call::Broadcast)];
    assert_eq!(scripted(&g, lenient(), &twice).expect("lenient").capacity_violations, 3);
}

#[test]
fn the_two_directions_of_an_edge_are_independent() {
    // e1 is stored as (1, 0): the direction is the sender's, whatever the
    // order of the edge's endpoints.
    let g = Graph::from_edges(3, [(0, 1, 1), (1, 0, 1), (1, 2, 1)]).expect("valid");
    let script = [
        (0, 0, Call::Send(0)),
        (0, 0, Call::Send(1)),
        (1, 0, Call::Broadcast),
        (2, 0, Call::Broadcast),
    ];
    let metrics = scripted(&g, SimConfig::default(), &script).expect("no direction is reused");
    assert_eq!((metrics.messages, metrics.edge_congestion.as_slice()), (6, &[2, 2, 2][..]));
    let reused = [(0, 0, Call::Send(0)), (1, 0, Call::Send(0)), (1, 0, Call::Send(0))];
    assert_eq!(scripted(&g, SimConfig::default(), &reused), Err(over(1, 0, 0)));
}

#[test]
fn parallel_edges_are_independent() {
    let g = Graph::from_edges(2, [(0, 1, 1), (0, 1, 1), (1, 0, 1)]).expect("valid multigraph");
    let script = [(0, 0, Call::Send(2)), (0, 0, Call::Send(0)), (0, 0, Call::Send(1))];
    let metrics = scripted(&g, SimConfig::default(), &script).expect("three edges, three ports");
    assert_eq!(metrics.edge_congestion, [1, 1, 1]);
    let again = [(0, 0, Call::Send(2)), (0, 0, Call::Broadcast), (1, 0, Call::Broadcast)];
    let metrics = scripted(&g, lenient(), &again).expect("lenient mode only counts");
    assert_eq!((metrics.capacity_violations, metrics.messages), (1, 7), "e2, from node 0");
    assert_eq!(scripted(&g, SimConfig::default(), &again), Err(over(0, 2, 0)));
}

#[test]
fn a_new_round_starts_every_count_afresh() {
    let g = generators::path(2, 1);
    let script = [
        (0, 0, Call::Send(0)),
        (0, 1, Call::Broadcast),
        (0, 2, Call::Send(0)),
        (0, 4, Call::Send(0)),
        (0, 4, Call::Send(0)),
    ];
    assert_eq!(scripted(&g, SimConfig::default(), &script[..4]).expect("one a round").messages, 4);
    assert_eq!(scripted(&g, SimConfig::default(), &script), Err(over(0, 0, 4)));
}

#[test]
fn at_capacity_zero_every_message_of_a_single_broadcast_is_a_violation() {
    let g = generators::star(5, 1); // edges: 0-1 (e0) … 0-4 (e3)
    let zero = |strict_capacity| {
        SimConfig { strict_capacity, ..SimConfig::default() }.with_edge_capacity(0)
    };
    let script = [(0, 0, Call::Broadcast), (3, 1, Call::Send(2))];
    let metrics = scripted(&g, zero(false), &script).expect("lenient mode only counts");
    assert_eq!((metrics.capacity_violations, metrics.messages), (5, 5));
    let strict = scripted(&g, zero(true), &script).expect_err("capacity 0");
    let first =
        SimError::EdgeCapacityExceeded { node: NodeId(0), edge: EdgeId(0), round: 0, capacity: 0 };
    assert_eq!(strict, first, "the broadcast's first port");
}
