//! The per-node protocol abstraction.
//!
//! A [`Protocol`] is a deterministic state machine driven once per round.
//! Each invocation receives the node's inbox (every message addressed to it
//! in the previous round), may enqueue messages into an [`Outbox`], and
//! returns an [`Action`]: keep going, decide on an output (while continuing
//! to forward messages, as the counting protocol requires), or crash
//! (Algorithm 2's voluntary shutdown on conflicting neighbourhood reports).

use crate::message::Envelope;
use netsim_graph::NodeId;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Life-cycle status of a node as tracked by the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeStatus {
    /// Participating normally, no output decided yet.
    Active,
    /// Has decided an output but keeps participating (forwarding tokens).
    Decided,
    /// Crashed: sends and receives nothing from now on.
    Crashed,
}

/// What a node wants the engine to do after a round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action<O> {
    /// Keep running.
    Continue,
    /// Record `O` as this node's output.  The node keeps being scheduled
    /// (the counting protocol's decided nodes still forward other nodes'
    /// tokens); deciding twice keeps the first output.
    Decide(O),
    /// Stop participating entirely (crash failure).
    Crash,
}

/// Read-only per-round context handed to a protocol.
#[derive(Clone, Copy, Debug)]
pub struct NodeContext<'a> {
    /// This node's id.
    pub id: NodeId,
    /// The current round (0-based; round 0 is the first time `step` runs).
    pub round: u64,
    /// Nodes this node may send to this round.
    pub neighbors: &'a [u32],
    /// Whether this node has already decided an output.
    pub decided: bool,
}

/// Where a node's turn queues its outgoing messages.
///
/// An engine-owned outbox is a round arena: the engine opens each node's
/// turn on it, and `send` / `broadcast` append envelopes stamped with that
/// node's id, so each message is written once, where the adversary reads
/// it and routing drains it (capacity kept across rounds).  `len` and
/// `clear` see only the open turn.  A standalone [`Outbox::new`] (in a
/// protocol unit test, say) is one open turn.
#[derive(Clone, Debug)]
pub struct Outbox<M> {
    arena: Vec<Envelope<M>>,
    /// The node whose turn is open.
    from: NodeId,
    /// Where the open turn's envelopes begin in `arena`.
    turn_start: usize,
}

impl<M> Outbox<M> {
    /// Create an empty outbox.
    pub fn new() -> Self {
        Outbox {
            arena: Vec::new(),
            from: NodeId(0),
            turn_start: 0,
        }
    }

    /// Queue a message to a single recipient.
    pub fn send(&mut self, to: NodeId, payload: M) {
        self.arena.push(Envelope::new(self.from, to, payload));
    }

    /// Queue the same message to many recipients.
    pub fn broadcast<'a, I>(&mut self, to: I, payload: M)
    where
        M: Clone,
        I: IntoIterator<Item = &'a u32>,
    {
        let from = self.from;
        let envelopes = to
            .into_iter()
            .map(|&t| Envelope::new(from, NodeId(t), payload.clone()));
        self.arena.extend(envelopes);
    }

    /// Number of messages queued in this turn.
    pub fn len(&self) -> usize {
        self.arena.len() - self.turn_start
    }

    /// True when nothing has been queued in this turn.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop the messages queued in this turn, keeping capacity for reuse.
    pub fn clear(&mut self) {
        self.arena.truncate(self.turn_start);
    }

    /// Open `from`'s turn: later messages carry `from` as their sender.
    pub(crate) fn begin_turn(&mut self, from: NodeId) {
        self.from = from;
        self.turn_start = self.arena.len();
    }

    /// Every turn's envelopes, in turn order, then each turn's queue order.
    pub(crate) fn envelopes(&self) -> &[Envelope<M>] {
        &self.arena
    }

    /// Move every envelope out, in [`envelopes`](Self::envelopes) order.
    pub(crate) fn drain(&mut self) -> std::vec::Drain<'_, Envelope<M>> {
        self.turn_start = 0;
        self.arena.drain(..)
    }
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Outbox::new()
    }
}

/// A synchronous per-node protocol.
pub trait Protocol: Send + Sized {
    /// The message type exchanged between nodes.
    type Message: Clone + Send + Sync + crate::message::MessageSize;
    /// The output a node eventually decides.
    type Output: Clone + Send + Sync;

    /// Run one round: consume the inbox, enqueue outgoing messages, and
    /// report the resulting action.
    fn step(
        &mut self,
        ctx: &NodeContext<'_>,
        inbox: &[Envelope<Self::Message>],
        outbox: &mut Outbox<Self::Message>,
        rng: &mut ChaCha8Rng,
    ) -> Action<Self::Output>;

    /// Whether [`step`](Self::step) at `round` would be a no-op on an
    /// empty inbox.
    ///
    /// Returning `true` promises that, in this state, `step` at `round`
    /// with an empty inbox would leave the state unchanged, draw nothing
    /// from the RNG, queue nothing and return [`Action::Continue`].  The
    /// promise holds for that one round; the engine asks again every
    /// round.  Under it the [`ShardedEngine`](crate::ShardedEngine) skips
    /// such a node's step whenever its mailbox is empty: the call being
    /// elided would have changed nothing and consumed no randomness, so
    /// every later step and every result is bit-identical.
    ///
    /// The [`SyncEngine`](crate::SyncEngine) never consults this method:
    /// it steps every live node every round, the model done literally, and
    /// it is the reference every parity suite compares the other layouts
    /// against.  A `true` that breaks the promise therefore shows up as a
    /// parity failure.  Protocols that act without input (bootstraps,
    /// timers, per-round coin flips) keep the default `false` for those
    /// rounds.
    fn quiescent(&self, round: u64) -> bool {
        let _ = round;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbox_send_and_broadcast() {
        let mut ob: Outbox<u64> = Outbox::new();
        assert!(ob.is_empty());
        ob.send(NodeId(1), 10);
        ob.broadcast([2u32, 3u32].iter(), 20);
        assert_eq!(ob.len(), 3);
        let envs: Vec<_> = ob.drain().collect();
        assert_eq!(envs[0], Envelope::new(NodeId(0), NodeId(1), 10));
        assert_eq!(envs[1], Envelope::new(NodeId(0), NodeId(2), 20));
        assert_eq!(envs[2], Envelope::new(NodeId(0), NodeId(3), 20));
        assert!(ob.is_empty());
    }

    #[test]
    fn turns_share_the_arena_but_see_only_their_own_envelopes() {
        let mut ob: Outbox<u64> = Outbox::new();
        ob.begin_turn(NodeId(4));
        ob.broadcast([1u32, 2u32].iter(), 40);
        ob.begin_turn(NodeId(7));
        assert!(ob.is_empty(), "a new turn starts empty");
        ob.send(NodeId(3), 70);
        ob.send(NodeId(5), 71);
        assert_eq!(ob.len(), 2);
        ob.clear();
        assert!(ob.is_empty());
        ob.send(NodeId(6), 72);
        assert_eq!(ob.len(), 1);
        assert_eq!(
            ob.envelopes(),
            [
                Envelope::new(NodeId(4), NodeId(1), 40),
                Envelope::new(NodeId(4), NodeId(2), 40),
                Envelope::new(NodeId(7), NodeId(6), 72),
            ],
            "the first turn survives the second's clear, and every \
             envelope carries its own turn's sender"
        );
    }

    #[test]
    fn action_equality() {
        assert_eq!(Action::<u32>::Continue, Action::Continue);
        assert_eq!(Action::Decide(3u32), Action::Decide(3u32));
        assert_ne!(Action::Decide(3u32), Action::Decide(4u32));
    }
}
