//! One shard of the [`ShardedEngine`](crate::ShardedEngine): a contiguous
//! node range and everything the engine keeps per node in it.
//!
//! [`Shard`] is the only code that steps nodes and drains deliveries.  The
//! engine calls it directly when the shard lives in this process, and
//! [`serve_shard_session`](crate::serve_shard_session) drives the same
//! type from decoded frames when it lives behind a `netsim-wire` channel.
//! A shard owns everything the engine keeps per node in its range: the
//! protocol states, RNG streams, statuses, outputs, mailboxes, round
//! arenas, delivery-side metrics and deferral rings: a
//! [`DelayRing`] of delayed envelopes and, under a heterogeneous clock
//! plan, one of pending node steps.  Nothing outside the shard reads or
//! writes them, so a shard can move whole to whichever thread steps it.
//!
//! A tick on a shard is [`open`](Shard::open) (step the due nodes into
//! the arenas and apply their actions), then any number of
//! [`accept`](Shard::accept)s as the router hands over this range's
//! deliveries and deferrals, then [`drain`](Shard::drain) (complete the
//! deferred deliveries due this tick).  Behind a channel the arenas stay
//! in the shard after they are shipped, and the router's verdicts arrive
//! as one `Fates` batch ([`accept_fates`](Shard::accept_fates)) that names
//! the shard's own envelopes by index.

use crate::batch::{decode_fates, Fate};
use crate::clock::ClockPlan;
use crate::engine::splitmix;
use crate::message::{Envelope, MessageSize};
use crate::metrics::RunMetrics;
use crate::node::{Action, NodeContext, NodeStatus, Outbox, Protocol};
use crate::ring::DelayRing;
use crate::topology::Topology;
use netsim_graph::NodeId;
use netsim_wire::{Reader, Wire, WireError};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Churn op codes, as the router hands them to a shard (and as they
/// travel the wire).
pub(crate) const CHURN_CRASH: u8 = 0;
pub(crate) const CHURN_RECOVER: u8 = 1;
/// Status-transition op codes a shard reports for its nodes.
pub(crate) const TRANSITION_DECIDED: u8 = 0;
pub(crate) const TRANSITION_CRASHED: u8 = 1;

/// A contiguous node range; see the module documentation.
pub(crate) struct Shard<P: Protocol> {
    /// First global node id of the range.
    pub(crate) start: usize,
    /// The range's protocol states, in node order.
    states: Vec<P>,
    byzantine: Vec<bool>,
    statuses: Vec<NodeStatus>,
    /// Pristine clones for churn recovery (present iff a fault plan is
    /// installed).
    pristine: Option<Vec<P>>,
    rngs: Vec<ChaCha8Rng>,
    pub(crate) outputs: Vec<Option<P::Output>>,
    pub(crate) decided_round: Vec<Option<u64>>,
    /// Everything delivered to each node since its previous step.
    mailboxes: Vec<Vec<Envelope<P::Message>>>,
    /// Under a heterogeneous clock plan, each node's step period and the
    /// pending node steps (global ids, by due tick); `None` under a
    /// synchronous one, where every node steps every tick.
    clock: Option<(Vec<u64>, DelayRing<u32>)>,
    /// Reusable buffer for the nodes due at a tick.
    due: Vec<u32>,
    /// Deferred deliveries into this range.
    pub(crate) deferred: DelayRing<Envelope<P::Message>>,
    /// Delivery-side accounting for this range.
    pub(crate) metrics: RunMetrics,
    /// The tick being processed.
    tick: u64,
    /// The round arena of this tick's honest nodes, in node order.
    pub(crate) honest: Outbox<P::Message>,
    /// The round arena of this tick's Byzantine nodes' default envelopes.
    pub(crate) byz: Outbox<P::Message>,
    /// This tick's status transitions, `(global id, TRANSITION_*)`.
    pub(crate) transitions: Vec<(u32, u8)>,
}

impl<P: Protocol> Shard<P> {
    /// A shard over `start..start + states.len()`, owning `states`.
    /// Per-node RNG streams and clock periods derive from the *global*
    /// node id, so neither the shard layout nor the transport reaches the
    /// randomness.
    pub(crate) fn new(
        start: usize,
        states: Vec<P>,
        byzantine: Vec<bool>,
        seed: u64,
        clocks: ClockPlan,
    ) -> Self {
        let range = start..start + states.len();
        let len = range.len();
        let clock = (!clocks.is_synchronous()).then(|| {
            let mut steps = DelayRing::new();
            for i in range.clone() {
                steps.push(0, 0, i as u32);
            }
            (
                range.clone().map(|i| clocks.period_of(i, seed)).collect(),
                steps,
            )
        });
        Shard {
            start,
            states,
            byzantine,
            statuses: vec![NodeStatus::Active; len],
            pristine: None,
            rngs: range
                .map(|i| ChaCha8Rng::seed_from_u64(splitmix(seed, i as u64)))
                .collect(),
            outputs: vec![None; len],
            decided_round: vec![None; len],
            mailboxes: vec![Vec::new(); len],
            clock,
            due: Vec::new(),
            deferred: DelayRing::new(),
            metrics: RunMetrics::default(),
            tick: 0,
            honest: Outbox::new(),
            byz: Outbox::new(),
            transitions: Vec::new(),
        }
    }

    /// Number of nodes in the range.
    pub(crate) fn len(&self) -> usize {
        self.byzantine.len()
    }

    /// Keep pristine clones of the range's states, so churn can reset
    /// recovered nodes.
    pub(crate) fn keep_pristine(&mut self)
    where
        P: Clone,
    {
        self.pristine = Some(self.states.clone());
    }

    /// Mark a node crashed before the first tick.
    pub(crate) fn crash_initially(&mut self, i: usize) {
        self.statuses[i - self.start] = NodeStatus::Crashed;
    }

    /// Apply the router's effective churn events for this range, in plan
    /// order: a crash fail-stops the node, a recovery brings it back with
    /// its pristine state, no output and an empty mailbox.
    pub(crate) fn apply_churn(&mut self, churn: &[(u32, u8)]) -> Result<(), WireError>
    where
        P: Clone,
    {
        for &(node, op) in churn {
            let local = (node as usize).wrapping_sub(self.start);
            match (op, self.pristine.as_ref()) {
                _ if local >= self.len() => {
                    return Err(WireError::Corrupt(format!(
                        "churn for node {node} outside this shard"
                    )))
                }
                (CHURN_CRASH, _) => self.statuses[local] = NodeStatus::Crashed,
                (CHURN_RECOVER, Some(pristine)) => {
                    self.states[local] = pristine[local].clone();
                    self.outputs[local] = None;
                    self.decided_round[local] = None;
                    self.statuses[local] = NodeStatus::Active;
                    self.mailboxes[local].clear();
                }
                _ => {
                    return Err(WireError::Corrupt(format!(
                        "churn op {op} for node {node} is invalid here"
                    )))
                }
            }
        }
        Ok(())
    }

    /// Open `tick`: step every node due this tick against its mailbox into
    /// the [`Shard::honest`] / [`Shard::byz`] arenas, and apply its action,
    /// recording its transition in [`Shard::transitions`].
    ///
    /// Applying a node's action right after its own step is equivalent to
    /// the reference engine's post-cut application: a node's step reads
    /// only its own status and output, and the router mirrors the
    /// transitions into the adversary-visible statuses only after the
    /// cut.
    pub(crate) fn open<T: Topology>(&mut self, tick: u64, topology: &T) {
        self.tick = tick;
        self.metrics.begin_round();
        match self.clock.take() {
            None => {
                for local in 0..self.len() {
                    self.step(local, topology);
                }
            }
            // Due nodes step in node order and are rescheduled
            // unconditionally: a crashed node keeps its cadence, so a
            // churn-recovered node resumes on its original clock phase.
            // The ring hands them back in push order, and they were pushed
            // at different ticks, so they are sorted first.
            Some((periods, mut steps)) => {
                let mut due = std::mem::take(&mut self.due);
                steps.drain_due(tick, |node| due.push(node));
                due.sort_unstable();
                for &node in &due {
                    let local = node as usize - self.start;
                    steps.push(tick, tick + periods[local], node);
                    self.step(local, topology);
                }
                due.clear();
                self.due = due;
                self.clock = Some((periods, steps));
            }
        }
    }

    fn step<T: Topology>(&mut self, local: usize, topology: &T) {
        if self.statuses[local] == NodeStatus::Crashed {
            return;
        }
        let id = NodeId::from_index(self.start + local);
        let ctx = NodeContext {
            id,
            round: self.tick,
            neighbors: topology.neighbors(id),
            decided: self.outputs[local].is_some(),
        };
        // A Byzantine node's envelopes are the adversary's defaults.
        let outbox = if self.byzantine[local] {
            &mut self.byz
        } else {
            &mut self.honest
        };
        outbox.begin_turn(id);
        let (inbox, rng) = (&self.mailboxes[local], &mut self.rngs[local]);
        let action = self.states[local].step(&ctx, inbox, outbox, rng);
        self.mailboxes[local].clear();
        // Byzantine nodes are puppets of the adversary: their "decisions"
        // are meaningless.
        if self.byzantine[local] {
            return;
        }
        match action {
            Action::Continue => {}
            Action::Decide(output) => {
                if self.outputs[local].is_none() {
                    self.outputs[local] = Some(output);
                    self.decided_round[local] = Some(self.tick);
                    self.statuses[local] = NodeStatus::Decided;
                    self.transitions.push((id.0, TRANSITION_DECIDED));
                }
            }
            Action::Crash => {
                self.statuses[local] = NodeStatus::Crashed;
                self.transitions.push((id.0, TRANSITION_CRASHED));
            }
        }
    }

    /// Take one envelope the router sent into this range: delivered into
    /// its recipient's mailbox now (`due = None`), or scheduled for the
    /// due tick.
    pub(crate) fn accept(&mut self, due: Option<u64>, env: Envelope<P::Message>) {
        match due {
            None => {
                self.metrics.record_delivery(env.payload.message_size());
                self.mailboxes[env.to.index() - self.start].push(env);
            }
            Some(due) => self.deferred.push(self.tick, due, env),
        }
    }

    /// Take this tick's `Fates` batch off the wire (see
    /// [`decode_fates`]) and [`accept`](Self::accept) each item in order.
    /// A reference moves out the envelope this shard shipped at that index
    /// of its honest arena followed by its Byzantine-default arena; the
    /// shipped envelopes no item names (dropped by validation or lost to
    /// the fault plan) are discarded.  An item addressed outside this
    /// shard is corrupt.
    pub(crate) fn accept_fates(&mut self, r: &mut Reader<'_>) -> Result<(), WireError>
    where
        P::Message: Wire,
    {
        let (mut honest, mut byz) = (
            std::mem::take(&mut self.honest),
            std::mem::take(&mut self.byz),
        );
        let shipped = honest.envelopes().len() + byz.envelopes().len();
        let mut own = honest.drain().chain(byz.drain());
        let mut next = 0;
        let (tick, range) = (self.tick, self.start..self.start + self.len());
        let accepted = decode_fates(r, tick, shipped, |due, fate| {
            let env = match fate {
                // References only move forward, so `own` is a cursor.
                Fate::Own(i) => {
                    let env = own
                        .nth(i - next)
                        .expect("decode_fates bounds every reference");
                    next = i + 1;
                    env
                }
                Fate::Whole(env) => env,
            };
            if !range.contains(&env.to.index()) {
                return Err(WireError::Corrupt(format!(
                    "fate for node {} outside this shard",
                    env.to.0
                )));
            }
            self.accept(due, env);
            Ok(())
        });
        drop(own);
        (self.honest, self.byz) = (honest, byz);
        accepted
    }

    /// Complete the deferred deliveries due this tick, each recipient's
    /// in the order they were deferred.  An envelope whose recipient
    /// crashed while it was in flight expires, never delivered.
    pub(crate) fn drain(&mut self) {
        self.deferred.drain_due(self.tick, |env| {
            let local = env.to.index() - self.start;
            if self.statuses[local] == NodeStatus::Crashed {
                self.metrics.record_fault_expired(1);
            } else {
                self.metrics.record_delivery(env.payload.message_size());
                self.mailboxes[local].push(env);
            }
        });
    }

    /// Items waiting in this shard's rings: deferred envelopes plus
    /// pending node steps.
    pub(crate) fn scheduled(&self) -> u64 {
        let steps = self
            .clock
            .as_ref()
            .map_or(0, |(_, steps)| steps.in_flight());
        (self.deferred.in_flight() + steps) as u64
    }

    /// The earliest tick at which this shard has work: now, when every
    /// node steps every tick; otherwise the earlier of its rings' next
    /// due ticks.
    pub(crate) fn next_event(&self, now: u64) -> Option<u64> {
        match &self.clock {
            None => Some(now),
            Some((_, steps)) => steps
                .next_due()
                .into_iter()
                .chain(self.deferred.next_due())
                .min(),
        }
    }

    /// End the run: deferred envelopes still in flight expire, never
    /// delivered.
    pub(crate) fn finish(&mut self) {
        let expired = std::mem::take(&mut self.deferred).in_flight() as u64;
        if expired > 0 {
            self.metrics.record_fault_expired(expired);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{line_graph, Val};
    use rand_chacha::ChaCha8Rng;

    /// Every step broadcasts, so the arena's senders record step order.
    #[derive(Clone)]
    struct Ping;

    impl Protocol for Ping {
        type Message = Val;
        type Output = u64;
        fn step(
            &mut self,
            ctx: &NodeContext<'_>,
            _inbox: &[Envelope<Val>],
            outbox: &mut Outbox<Val>,
            _rng: &mut ChaCha8Rng,
        ) -> Action<u64> {
            outbox.broadcast(ctx.neighbors.iter(), Val(ctx.round));
            Action::Continue
        }
    }

    #[test]
    fn due_nodes_step_in_node_order_under_a_heterogeneous_plan() {
        // Every third node steps every third tick, the rest every tick.
        // At tick 3 the ring hands back the slow nodes (pushed at tick 0)
        // before the fast ones (pushed at tick 2); they must still step
        // in node order.
        let n = 12;
        let g = line_graph(n);
        let clocks = ClockPlan::Stratified {
            every: 3,
            period: 3,
        };
        let mut shard = Shard::new(0, vec![Ping; n], vec![false; n], 7, clocks);
        for tick in 0..10 {
            shard.open(tick, &g);
            let senders: Vec<u32> = shard.honest.drain().map(|e| e.from.0).collect();
            assert!(senders.is_sorted(), "tick {tick}: {senders:?}");
            let mut stepped = senders;
            stepped.dedup();
            let due = (0..n as u32).filter(|v| tick % 3 == 0 || v % 3 != 0);
            assert_eq!(stepped, due.collect::<Vec<_>>(), "tick {tick}");
        }
    }
}
