//! The per-node protocol interface: [`Protocol`] and [`NodeCtx`].

use congest_graph::{Adjacency, EdgeId, Graph, NodeId};

use crate::message::{InFlight, Words};
use crate::Message;

/// A distributed protocol, written as a per-node state machine.
///
/// The engine creates one value of the implementing type per node and drives
/// it through synchronous rounds. A node only ever sees:
///
/// * its own id and its incident edges (via [`NodeCtx`]),
/// * the number of nodes `n` (standard CONGEST assumption),
/// * the messages its neighbours sent it in the previous round.
///
/// Nodes control their own sleep schedule through [`NodeCtx::sleep_until`],
/// wait for mail with [`NodeCtx::listen_until`], and stop participating with
/// [`NodeCtx::halt`].
///
/// # Sleeping or listening
///
/// A node with nothing to do until some round has two ways to say so:
///
/// * [`NodeCtx::sleep_until`] — **deaf and free**: no energy is charged, and
///   messages that arrive meanwhile are lost. The sleeping-model primitive;
///   use it when the protocol knows nothing can arrive (or can afford to lose
///   it), as the low-energy algorithms of Section 3 do.
/// * [`NodeCtx::listen_until`] — **receptive and charged**: the node is awake
///   in the model every round (one energy unit each, nothing is lost), but
///   `on_round` is next called in the first round its inbox is non-empty or
///   at the deadline. Use it for always-awake protocols that act only on
///   mail or at a known round: the simulated execution is exactly that of
///   idling through `on_round` every round, while the host cost follows the
///   events instead of `rounds × nodes`.
pub trait Protocol {
    /// Called once, in round 0, when every node is awake. Typically used to
    /// send initial messages and set the initial sleep schedule.
    fn init(&mut self, ctx: &mut NodeCtx<'_>);

    /// Called in every round `>= 1` in which this node is awake, with the
    /// messages delivered to it this round (messages sent to it while it was
    /// asleep are lost, per the sleeping model). A node that asked to
    /// [`NodeCtx::listen_until`] a deadline is awake throughout but is only
    /// called back when mail arrives or the deadline comes.
    fn on_round(&mut self, ctx: &mut NodeCtx<'_>, inbox: &[Message]);
}

/// The engine-provided view a node has of itself and the network during one
/// round. All message sends and sleep requests go through this context.
///
/// The context owns no buffers: sends are appended, as plain [`Copy`]
/// structs with inline payloads, into a flat outbox the engine reuses from
/// round to round, so a send performs no heap allocation.
#[derive(Debug)]
pub struct NodeCtx<'a> {
    node: NodeId,
    node_count: u32,
    round: u64,
    graph: &'a Graph,
    neighbors: &'a [Adjacency],
    /// The engine's round outbox; this node's sends start at the position the
    /// engine recorded before handing out the context.
    outbox: &'a mut Vec<InFlight>,
    /// If set, the node sleeps (or, with `listen`, listens) and next runs at
    /// this round.
    pub(crate) wake_at: Option<u64>,
    /// `wake_at` is a listening deadline: the node stays awake — charged and
    /// receptive — and runs earlier if mail arrives.
    pub(crate) listen: bool,
    /// The node halts (stops for good; counts no further energy).
    pub(crate) halt: bool,
}

/// What a node asked for while it ran: how the engine schedules it next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Request {
    /// Nothing: awake (and run) next round.
    Stay,
    /// Asleep — deaf and free — until this round.
    SleepUntil(u64),
    /// Awake — receptive and charged — but next run at the first mail or at
    /// this round.
    ListenUntil(u64),
    /// Stop for good.
    Halt,
}

impl<'a> NodeCtx<'a> {
    /// The scheduling request this step ends with: `halt` beats the sleep
    /// and listen requests, of which the last call won.
    pub(crate) fn request(&self) -> Request {
        match self.wake_at {
            _ if self.halt => Request::Halt,
            Some(round) if self.listen => Request::ListenUntil(round),
            Some(round) => Request::SleepUntil(round),
            None => Request::Stay,
        }
    }

    pub(crate) fn new(
        node: NodeId,
        round: u64,
        graph: &'a Graph,
        outbox: &'a mut Vec<InFlight>,
    ) -> Self {
        NodeCtx {
            node,
            node_count: graph.node_count(),
            round,
            graph,
            neighbors: graph.neighbors(node),
            outbox,
            wake_at: None,
            listen: false,
            halt: false,
        }
    }

    /// This node's id.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// The number of nodes `n` in the network (globally known, as is standard
    /// in the CONGEST model).
    pub fn node_count(&self) -> u32 {
        self.node_count
    }

    /// The current round number (0 during [`Protocol::init`]).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The incident edges of this node: its ports. A protocol that talks to
    /// one neighbour (a tree parent, say) finds the edge to it here once and
    /// sends on it with [`NodeCtx::send_on_edge`].
    pub fn neighbors(&self) -> &'a [Adjacency] {
        self.neighbors
    }

    /// Appends one send to the engine's outbox: an inline copy of the
    /// payload, plus the attempted length (saturated) for the engine's
    /// bandwidth check.
    fn push(&mut self, edge: EdgeId, to: NodeId, words: &[u64]) {
        self.outbox.push(InFlight {
            to,
            sent_words: u32::try_from(words.len()).unwrap_or(u32::MAX),
            msg: Message { from: self.node, edge, words: Words::truncated(words) },
        });
    }

    /// Sends a message over the given incident edge. The message is delivered
    /// at the start of the next round, if the recipient is awake then.
    ///
    /// `O(1)`: the recipient is read off the edge's endpoint record.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is not incident to this node.
    pub fn send_on_edge(&mut self, edge: EdgeId, words: &[u64]) {
        let to = self
            .endpoint_across(edge)
            .unwrap_or_else(|| panic!("edge {edge} is not incident to node {}", self.node));
        self.push(edge, to, words);
    }

    /// The endpoint of `edge` opposite this node, if `edge` is incident.
    fn endpoint_across(&self, edge: EdgeId) -> Option<NodeId> {
        if edge.index() >= self.graph.edge_count() as usize {
            return None;
        }
        let e = self.graph.edge(edge);
        if e.u == self.node {
            Some(e.v)
        } else if e.v == self.node {
            Some(e.u)
        } else {
            None
        }
    }

    /// Sends the same message over every incident edge.
    pub fn broadcast(&mut self, words: &[u64]) {
        let neighbors = self.neighbors;
        for adj in neighbors {
            self.push(adj.edge, adj.neighbor, words);
        }
    }

    /// Puts the node to sleep until the given round (it is next awake at
    /// `round`). A target in the past or the immediate next round is a no-op.
    ///
    /// Asleep means deaf and free: no energy is charged and arriving messages
    /// are lost. To keep receiving while waiting, use
    /// [`NodeCtx::listen_until`]. When both are called in one step the last
    /// call wins.
    pub fn sleep_until(&mut self, round: u64) {
        if round > self.round + 1 {
            self.wake_at = Some(round);
            self.listen = false;
        }
    }

    /// Keeps the node awake but idle until the given round: it is charged one
    /// energy unit per round and receives every message sent to it, exactly
    /// as if its `on_round` ran and did nothing, but the engine next calls
    /// [`Protocol::on_round`] in the first round the node's inbox is
    /// non-empty, or at `round`, whichever comes first. A target in the past
    /// or the immediate next round is a no-op (the node runs next round
    /// anyway).
    ///
    /// Prefer this to [`NodeCtx::sleep_until`] when a message may arrive
    /// before the deadline and must not be lost; prefer it to returning
    /// without a request when the node has nothing to do until mail or a
    /// known round, so that the simulation does not pay for the idle rounds.
    /// When both are called in one step the last call wins, and
    /// [`NodeCtx::halt`] beats both.
    pub fn listen_until(&mut self, round: u64) {
        if round > self.round + 1 {
            self.wake_at = Some(round);
            self.listen = true;
        }
    }

    /// Halts this node: it stops participating in the protocol, consumes no
    /// further energy, and the simulation ends when every node has halted.
    pub fn halt(&mut self) {
        self.halt = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;

    #[test]
    fn context_send_and_broadcast_fill_outbox() {
        let g = generators::star(4, 1);
        let center = NodeId(0);
        let mut outbox = Vec::new();
        let mut ctx = NodeCtx::new(center, 3, &g, &mut outbox);
        assert_eq!(ctx.node_id(), center);
        assert_eq!(ctx.node_count(), 4);
        assert_eq!(ctx.round(), 3);
        ctx.send_on_edge(EdgeId(1), &[42]); // the star's edge 0-2
        ctx.broadcast(&[7]);
        assert_eq!(outbox.len(), 4);
        assert_eq!((outbox[0].to, outbox[0].msg.edge), (NodeId(2), EdgeId(1)));
        assert_eq!(&outbox[0].msg.words[..], &[42]);
        assert_eq!(outbox[0].msg.from, center);
        assert_eq!(outbox[0].sent_words, 1);
        assert!(outbox[1..].iter().all(|f| f.msg.words[..] == [7]));
    }

    #[test]
    fn sleep_requests() {
        let g = generators::path(3, 1);
        let mut outbox = Vec::new();
        let mut ctx = NodeCtx::new(NodeId(1), 10, &g, &mut outbox);
        ctx.sleep_until(11);
        assert_eq!(ctx.wake_at, None, "the next round is no sleep");
        ctx.sleep_until(16);
        assert_eq!(ctx.wake_at, Some(16));
        ctx.sleep_until(12);
        assert_eq!(ctx.wake_at, Some(12));
        ctx.sleep_until(3);
        assert_eq!(ctx.wake_at, Some(12), "past targets are ignored");
        assert!(!ctx.listen);
        ctx.listen_until(30);
        assert_eq!((ctx.wake_at, ctx.listen), (Some(30), true));
        ctx.listen_until(11);
        assert_eq!((ctx.wake_at, ctx.listen), (Some(30), true), "next-round targets are ignored");
        ctx.sleep_until(12);
        assert_eq!((ctx.wake_at, ctx.listen), (Some(12), false), "the last call wins");
        assert!(!ctx.halt);
        ctx.halt();
        assert!(ctx.halt);
    }

    #[test]
    #[should_panic(expected = "is not incident")]
    fn sending_on_a_foreign_edge_panics() {
        let g = generators::path(3, 1); // edges: 0-1 (e0), 1-2 (e1)
        let mut outbox = Vec::new();
        let mut ctx = NodeCtx::new(NodeId(0), 0, &g, &mut outbox);
        ctx.send_on_edge(EdgeId(1), &[1]);
    }

    #[test]
    #[should_panic(expected = "is not incident")]
    fn sending_on_an_out_of_range_edge_panics() {
        let g = generators::path(3, 1);
        let mut outbox = Vec::new();
        let mut ctx = NodeCtx::new(NodeId(0), 0, &g, &mut outbox);
        ctx.send_on_edge(EdgeId(99), &[1]);
    }

    #[test]
    fn oversized_sends_record_the_attempted_length() {
        let g = generators::path(2, 1);
        let mut outbox = Vec::new();
        let mut ctx = NodeCtx::new(NodeId(0), 0, &g, &mut outbox);
        ctx.broadcast(&[1, 2, 3, 4, 5, 6]);
        assert_eq!(outbox[0].sent_words, 6, "the engine polices the attempted length");
        assert_eq!(&outbox[0].msg.words[..], &[1, 2, 3, 4], "the payload is the inline prefix");
    }
}
