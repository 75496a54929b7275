//! [`ChaosListener`], the seeded differential-testing protocol of
//! [`NodeCtx::listen_until`]: random sends, listens, sleeps and halts whose
//! outcome depends on exactly which rounds a node was called back in. The
//! engine differential, the chaos campaign and the allocation pins include
//! it with `mod common;`.

use congest_graph::NodeId;
use congest_sim::{Message, NodeCtx, Protocol};
use rand::splitmix64;

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
