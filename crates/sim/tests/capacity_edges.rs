//! Payload-capacity edge cases, differentially on both engines.
//!
//! The inline-payload refactor makes the bandwidth bound structural: a
//! [`congest_sim::Words`] payload holds at most `Words::CAPACITY` words, and
//! the engine polices the *attempted* send length against
//! `SimConfig::max_message_words` exactly as the `Vec`-payload engine did.
//! These tests pin the boundary — sends exactly at, and one past, the limit —
//! with `strict_capacity` on and off, and assert both engines produce
//! identical `SimError`s, metrics, and delivered payloads.

use congest_graph::{generators, EdgeId, NodeId};
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
