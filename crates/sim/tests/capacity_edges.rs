//! The CONGEST bound's edge cases, differentially on both engines.
//!
//! A message carries at most `Words::CAPACITY` words, and a node puts at most
//! one message on each direction of an edge per round. Neither bound is a
//! setting: a send past either is the run's error. The inline payload makes
//! the first structural — a [`congest_sim::Words`] holds at most
//! `Words::CAPACITY` words —, and the engine checks the *attempted* send
//! length against it. The first tests pin that boundary — a send exactly at,
//! and one past, the limit — and assert both engines produce identical
//! `SimError`s, metrics, and delivered payloads.
//!
//! The rest pin the edge capacity, which [`Engine::run`] checks per step — one
//! record per send call, checked by port only when a step makes several — and
//! the reference per round, one message at a time: two sends on one edge, a
//! broadcast beside a send on one of its edges, the two directions of an edge,
//! parallel edges, and a new round.

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
fn both_engines(payload_len: usize) -> Result<(Vec<Vec<u64>>, congest_sim::Metrics), SimError> {
    let g = generators::path(2, 1);
    let engine = Engine::new(&g, SimConfig::default());
    let fast = engine.run(|_| OneShot::new(payload_len));
    let slow = engine.run_reference(|_| OneShot::new(payload_len));
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
    let max = Words::CAPACITY;
    let (received, metrics) = both_engines(max).expect("at-limit sends are legal");
    assert_eq!(received, vec![(1..=max as u64).collect::<Vec<u64>>()]);
    assert_eq!(metrics.messages, 1);
}

#[test]
fn payload_one_past_the_limit_is_an_error() {
    let words = Words::CAPACITY + 1;
    let err = both_engines(words).expect_err("oversized sends are a model violation");
    assert_eq!(err, SimError::MessageTooLarge { node: NodeId(0), words });
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
fn scripted(g: &Graph, script: &[(u32, u64, Call)]) -> Result<congest_sim::Metrics, SimError> {
    let last = script.iter().map(|s| s.1).max().unwrap_or(0);
    let node = |id: NodeId| Scripted {
        calls: script.iter().filter(|s| s.0 == id.0).map(|s| (s.1, s.2)).collect(),
        last,
    };
    let engine = Engine::new(g, SimConfig::default());
    let fast = engine.run(node).map(|run| run.metrics);
    let slow = engine.run_reference(node).map(|run| run.metrics);
    assert_eq!(fast, slow, "the engines disagree on {script:?}");
    fast
}

/// The error of `node` sending a second message over `edge` in `round`.
fn over(node: u32, edge: u32, round: u64) -> SimError {
    SimError::EdgeCapacityExceeded { node: NodeId(node), edge: EdgeId(edge), round }
}

#[test]
fn two_sends_on_one_edge_in_one_step_are_an_error() {
    let g = generators::path(3, 1); // edges: 0-1 (e0), 1-2 (e1)
    let script = [(1, 2, Call::Send(0)), (1, 2, Call::Send(1)), (1, 2, Call::Send(0))];
    let metrics = scripted(&g, &script[..2]).expect("one message on each edge");
    assert_eq!(metrics.edge_congestion, [1, 1]);
    assert_eq!(scripted(&g, &script), Err(over(1, 0, 2)), "the edge and the round are named");
}

#[test]
fn a_broadcast_and_a_send_on_one_of_its_edges_are_an_error() {
    let g = generators::star(4, 1); // edges: 0-1 (e0), 0-2 (e1), 0-3 (e2)
                                    // The broadcast first, then the send on its second edge; and the other
                                    // way round, on its last edge.
    for (script, edge) in [
        ([(0, 1, Call::Broadcast), (0, 1, Call::Send(1))], 1),
        ([(0, 1, Call::Send(2)), (0, 1, Call::Broadcast)], 2),
    ] {
        assert_eq!(scripted(&g, &script), Err(over(0, edge, 1)));
    }
    // Two broadcasts in one step break the bound on their first port.
    let twice = [(0, 0, Call::Broadcast), (0, 0, Call::Broadcast)];
    assert_eq!(scripted(&g, &twice), Err(over(0, 0, 0)));
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
    let metrics = scripted(&g, &script).expect("no direction is reused");
    assert_eq!((metrics.messages, metrics.edge_congestion.as_slice()), (6, &[2, 2, 2][..]));
    let reused = [(0, 0, Call::Send(0)), (1, 0, Call::Send(0)), (1, 0, Call::Send(0))];
    assert_eq!(scripted(&g, &reused), Err(over(1, 0, 0)));
}

#[test]
fn parallel_edges_are_independent() {
    let g = Graph::from_edges(2, [(0, 1, 1), (0, 1, 1), (1, 0, 1)]).expect("valid multigraph");
    let script = [(0, 0, Call::Send(2)), (0, 0, Call::Send(0)), (0, 0, Call::Send(1))];
    let metrics = scripted(&g, &script).expect("three edges, three ports");
    assert_eq!(metrics.edge_congestion, [1, 1, 1]);
    let again = [(0, 0, Call::Send(2)), (0, 0, Call::Broadcast), (1, 0, Call::Broadcast)];
    assert_eq!(scripted(&g, &again), Err(over(0, 2, 0)), "e2, from node 0");
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
    assert_eq!(scripted(&g, &script[..4]).expect("one a round").messages, 4);
    assert_eq!(scripted(&g, &script), Err(over(0, 0, 4)));
}
