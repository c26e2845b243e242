//! The full-information Byzantine adversary interface.
//!
//! The paper's adversary is *adaptive* and *omniscient*: at the beginning of
//! every round it knows the entire state of every node (including the random
//! choices they just made and the messages they are about to send) and may
//! make the Byzantine nodes deviate arbitrarily — subject only to the
//! network structure (messages travel along edges) and identity
//! non-forgeability (a node cannot claim a different ID to a direct
//! neighbour).
//!
//! The engine realises this by running the protocol for *all* nodes first
//! (so the adversary can also see what its own nodes "would" do), then
//! giving the adversary an [`AdversaryView`] and letting it replace the
//! Byzantine nodes' outgoing messages.  The view carries every envelope
//! queued this round — honest and Byzantine-default alike, before the
//! adversary chooses — plus the Byzantine and crash masks.  The rest of
//! the full information is the adversary's own: the topology and
//! parameters it was built with (e.g. `byzcount_adversary`'s
//! `AdversaryKnowledge`), and whatever history it keeps across rounds.
//! Node protocol states are *not* in the view: they live in the shards
//! that step them, so a decision that read them would depend on the
//! engine layout, while the view is the same on every layout.

use crate::message::Envelope;
use crate::node::Protocol;
use rand_chacha::ChaCha8Rng;

/// Everything the adversary can see at the intervention point of a round.
pub struct AdversaryView<'a, P: Protocol> {
    /// The current round.
    pub round: u64,
    /// Which nodes are Byzantine.
    pub byzantine: &'a [bool],
    /// Which nodes have crashed so far.
    pub crashed: &'a [bool],
    /// Messages queued by honest nodes this round (the adversary is
    /// rushing: it sees them before choosing its own).
    pub honest_messages: &'a [Envelope<P::Message>],
    /// Messages the Byzantine nodes would send if they followed the
    /// protocol.
    pub byzantine_default_messages: &'a [Envelope<P::Message>],
}

/// What the adversary decides to do with the Byzantine nodes this round.
pub enum AdversaryDecision<M> {
    /// Let every Byzantine node follow the protocol this round.
    FollowProtocol,
    /// Replace the Byzantine nodes' outgoing messages with exactly this set.
    /// Envelopes whose `from` is not a Byzantine node, or whose `(from, to)`
    /// pair is not an edge of the communication graph, are dropped (and
    /// counted) by the engine.
    Replace(Vec<Envelope<M>>),
}

/// A full-information Byzantine adversary.
pub trait Adversary<P: Protocol>: Send {
    /// Decide the Byzantine nodes' messages for this round.
    fn act(
        &mut self,
        view: &AdversaryView<'_, P>,
        rng: &mut ChaCha8Rng,
    ) -> AdversaryDecision<P::Message>;

    /// True when this adversary is a pure no-op on *idle* ticks — ticks
    /// at which no node stepped, so [`AdversaryView::honest_messages`]
    /// and [`AdversaryView::byzantine_default_messages`] are both empty.
    ///
    /// Opting in promises that every such `act` call (a) returns
    /// [`AdversaryDecision::FollowProtocol`] or an empty `Replace`,
    /// (b) draws nothing from `rng`, and (c) leaves no internal state
    /// behind that a later decision depends on.  Under that promise the
    /// async engines may *skip* idle ticks entirely (sparse ticking)
    /// without changing any observable result: the calls being elided
    /// would have produced nothing and consumed no randomness, so the
    /// adversary RNG stream stays tick-indexed and every later decision
    /// is bit-identical.
    ///
    /// Adversaries that inject messages out of nowhere or advance their
    /// RNG on every tick (e.g. per-tick coin flips) must keep the
    /// default `false`, which pins the engines to dense ticking.
    fn idle_passive(&self) -> bool {
        false
    }
}

/// Boxed adversaries forward to their contents, so heterogeneous adversary
/// sets (e.g. chosen from a serialized run specification) can drive the
/// engine through `Box<dyn Adversary<P>>`.
impl<P: Protocol> Adversary<P> for Box<dyn Adversary<P>> {
    fn act(
        &mut self,
        view: &AdversaryView<'_, P>,
        rng: &mut ChaCha8Rng,
    ) -> AdversaryDecision<P::Message> {
        (**self).act(view, rng)
    }

    fn idle_passive(&self) -> bool {
        (**self).idle_passive()
    }
}

/// The trivial adversary: Byzantine nodes behave exactly like honest nodes.
///
/// Useful as a control in experiments and whenever a protocol is run without
/// faults.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullAdversary;

impl<P: Protocol> Adversary<P> for NullAdversary {
    fn act(
        &mut self,
        _view: &AdversaryView<'_, P>,
        _rng: &mut ChaCha8Rng,
    ) -> AdversaryDecision<P::Message> {
        AdversaryDecision::FollowProtocol
    }

    // `act` never touches the RNG and always follows the protocol, so
    // eliding idle-tick calls is trivially unobservable.
    fn idle_passive(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Action, NodeContext, Outbox};

    #[derive(Clone)]
    struct Dummy;
    impl Protocol for Dummy {
        type Message = ();
        type Output = ();
        fn step(
            &mut self,
            _ctx: &NodeContext<'_>,
            _inbox: &[Envelope<()>],
            _outbox: &mut Outbox<()>,
            _rng: &mut ChaCha8Rng,
        ) -> Action<()> {
            Action::Continue
        }
    }

    #[test]
    fn null_adversary_always_follows_protocol() {
        use rand::SeedableRng;
        let view = AdversaryView::<Dummy> {
            round: 0,
            byzantine: &[false, true],
            crashed: &[false, false],
            honest_messages: &[],
            byzantine_default_messages: &[],
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        match NullAdversary.act(&view, &mut rng) {
            AdversaryDecision::FollowProtocol => {}
            AdversaryDecision::Replace(_) => panic!("null adversary must not replace messages"),
        }
    }
}
