//! The synchronous round engine.
//!
//! One [`SyncEngine`] instance drives one protocol execution over a fixed
//! topology.  Rounds are processed in lock-step:
//!
//! 1. every non-crashed node consumes the messages addressed to it in the
//!    previous round and queues its outgoing messages straight into the
//!    round arena (sequentially, in node order — batch-level rayon
//!    parallelism lives in the simulation API one level up; every node
//!    still has its own RNG stream, so the schedule is deterministic).
//!    Every live node steps every round, even one whose protocol declares
//!    itself idle: this engine never consults [`Protocol::idle_until`] or
//!    [`FaultPlan::idle_passive`], so it is the reference that checks the
//!    sharded layouts' skipped steps and skipped ticks;
//! 2. the full-information adversary inspects every state and every queued
//!    message and may replace the Byzantine nodes' messages;
//! 3. messages are validated against the topology (no edge → dropped),
//!    accounted, and delivered into the next round's inboxes.
//!
//! The engine stops when every honest node has decided (or crashed), or when
//! `max_rounds` is reached.
//!
//! ## Fault injection
//!
//! An optional [`FaultPlan`] (see [`netsim_faults`]) makes the *network*
//! imperfect.  It hooks into the loop at two points:
//!
//! * at every round boundary the plan may churn honest nodes — fail-stop
//!   them and later bring them back with a freshly reset protocol state;
//! * between the adversary cut and inbox delivery, every validated honest
//!   envelope is given a fate: delivered, silently lost, or deferred up to
//!   `Δ` rounds (bounded-delay asynchrony).
//!
//! Byzantine envelopes never pass through the plan — the adversary already
//! controls that traffic, and fault injection models an unreliable network,
//! not extra adversarial power.  Lost and still-deferred envelopes are
//! never counted as delivered; see [`RunMetrics`] for the dedicated
//! counters.  With no plan installed the loop is exactly the classic
//! synchronous engine (a `None` check per round and per envelope).

use crate::adversary::{Adversary, AdversaryDecision, AdversaryView};
use crate::message::{Envelope, MessageSize};
use crate::metrics::RunMetrics;
use crate::node::{Action, NodeContext, NodeStatus, Outbox, Protocol};
use crate::ring::DelayRing;
use crate::topology::{assert_sorted_rows, Topology};
use netsim_faults::{ChurnEvent, EnvelopeFate, FaultPlan};
use netsim_graph::{row, NodeId};
use netsim_trace::{Counter, Gauge, Phase, Recorder};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Snapshot of the `RunMetrics` counters a [`Recorder`] mirrors; taken at
/// a phase boundary so per-round deltas can be emitted without touching
/// the per-envelope accounting path.
#[derive(Clone, Copy, Default)]
pub(crate) struct MetricsSnap {
    delivered: u64,
    dropped: u64,
    lost: u64,
    delayed: u64,
    expired: u64,
    crashes: u64,
    recoveries: u64,
}

impl MetricsSnap {
    pub(crate) fn of(m: &RunMetrics) -> Self {
        MetricsSnap {
            delivered: m.messages_delivered,
            dropped: m.messages_dropped,
            lost: m.messages_lost,
            delayed: m.messages_delayed,
            expired: m.messages_expired,
            crashes: m.churn_crashes,
            recoveries: m.churn_recoveries,
        }
    }
}

/// Emit the per-round counter deltas between two snapshots (zero deltas
/// are suppressed by the recorders, but skipping them here keeps the dyn
/// call count minimal too).
pub(crate) fn emit_metric_deltas(
    rec: &dyn Recorder,
    shard: u32,
    time: u64,
    before: MetricsSnap,
    after: MetricsSnap,
) {
    let pairs = [
        (
            Counter::MessagesDelivered,
            after.delivered - before.delivered,
        ),
        (Counter::MessagesDropped, after.dropped - before.dropped),
        (Counter::MessagesLost, after.lost - before.lost),
        (Counter::MessagesDelayed, after.delayed - before.delayed),
        (Counter::MessagesExpired, after.expired - before.expired),
        (Counter::ChurnCrashes, after.crashes - before.crashes),
        (
            Counter::ChurnRecoveries,
            after.recoveries - before.recoveries,
        ),
    ];
    for (counter, delta) in pairs {
        if delta > 0 {
            rec.add(shard, time, counter, delta);
        }
    }
}

/// Engine configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Hard cap on the number of rounds (safety net for protocols whose
    /// termination is being studied).
    pub max_rounds: u64,
    /// Stop as soon as every honest, non-crashed node has decided.
    pub stop_when_all_decided: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_rounds: 100_000,
            stop_when_all_decided: true,
        }
    }
}

/// The outcome of a run.
#[derive(Clone, Debug)]
pub struct RunResult<O> {
    /// Output decided by each node (None for crashed / undecided nodes).
    pub outputs: Vec<Option<O>>,
    /// The round in which each node decided.
    pub decided_round: Vec<Option<u64>>,
    /// Which nodes crashed.
    pub crashed: Vec<bool>,
    /// Final status of each node.
    pub statuses: Vec<NodeStatus>,
    /// Message/round accounting.
    pub metrics: RunMetrics,
    /// True when every honest node decided or crashed before `max_rounds`.
    pub completed: bool,
}

impl<O> RunResult<O> {
    /// Number of honest nodes that decided, given the Byzantine mask used
    /// for the run.
    pub fn honest_decided(&self, byzantine: &[bool]) -> usize {
        self.outputs
            .iter()
            .enumerate()
            .filter(|(i, o)| !byzantine[*i] && o.is_some())
            .count()
    }
}

/// The synchronous engine; see the module documentation.
///
/// ## Buffer-reuse invariants (the zero-allocation hot path)
///
/// Every per-round buffer is owned by the engine and *cleared, never
/// dropped* between rounds, so after warm-up a round performs no heap
/// allocation on the honest path:
///
/// * `inboxes` holds the messages consumed this round; `next_inboxes`
///   receives this round's deliveries.  Each inbox is cleared, capacity
///   kept, right after its node's turn, and the two are swapped at the
///   round boundary.
/// * `honest` / `byz_default` are the round arenas, each an [`Outbox`]
///   the engine opens every node's turn on (Byzantine nodes on
///   `byz_default`): nodes queue envelopes straight into them, the
///   adversary views them by reference, and delivery drains them in
///   place.  There are no per-node outgoing buffers.
/// * `deferred` is a [`DelayRing`] of round buckets (replacing a
///   `BTreeMap`): deferral and due-drain are O(1) and bucket capacity is
///   reused.
///
/// Reports are byte-identical to the pre-refactor engine for equal spec and
/// seed: node order, RNG streams and the fault plan's consultation order
/// are unchanged (locked down by `tests/golden_reports.rs`).
pub struct SyncEngine<'a, T, P, A>
where
    T: Topology,
    P: Protocol,
    A: Adversary<P>,
{
    topology: &'a T,
    states: Vec<P>,
    byzantine: Vec<bool>,
    adversary: A,
    config: EngineConfig,
    rngs: Vec<ChaCha8Rng>,
    adversary_rng: ChaCha8Rng,
    /// Messages to consume this round (delivered last round).
    inboxes: Vec<Vec<Envelope<P::Message>>>,
    /// Messages delivered this round, consumed next round.
    next_inboxes: Vec<Vec<Envelope<P::Message>>>,
    /// Per-node action of the current round.
    actions: Vec<Action<P::Output>>,
    /// Round arena the honest nodes queue into, in node order (drained by
    /// delivery; capacity reused).
    honest: Outbox<P::Message>,
    /// Round arena for the Byzantine nodes' protocol-following envelopes.
    byz_default: Outbox<P::Message>,
    /// Scratch crash mask handed to the adversary view.
    crashed_scratch: Vec<bool>,
    statuses: Vec<NodeStatus>,
    outputs: Vec<Option<P::Output>>,
    decided_round: Vec<Option<u64>>,
    metrics: RunMetrics,
    round: u64,
    fault_plan: Option<Box<dyn FaultPlan>>,
    /// Deferred envelopes bucketed by the round in which they are delivered
    /// (i.e. pushed into an inbox for consumption one round later).
    deferred: DelayRing<Envelope<P::Message>>,
    /// Produces a pristine protocol state for node `i`; installed together
    /// with a fault plan so churned nodes can rejoin reset.
    reset_state: Option<Box<dyn Fn(usize) -> P + Send>>,
    /// Nodes whose *current* crash was injected by churn.  A `Recover`
    /// event only revives these: nodes that fail-stopped any other way
    /// (initial crashes, protocol self-crash) stay down forever.
    churned_down: Vec<bool>,
    /// Observation sink, if one is installed.  `None` costs one branch per
    /// *phase boundary* (a handful per round, never per envelope), so the
    /// zero-allocation hot path is untouched.  Recorders only observe:
    /// they can never influence an RNG stream or a delivery order.
    recorder: Option<&'a dyn Recorder>,
}

impl<'a, T, P, A> SyncEngine<'a, T, P, A>
where
    T: Topology,
    P: Protocol + Sync,
    P::Output: Send,
    A: Adversary<P>,
{
    /// Create an engine.
    ///
    /// # Panics
    /// Panics if `states.len()` or `byzantine.len()` differ from the
    /// topology size, or if a row of the topology is not sorted (the
    /// contract of [`Topology::neighbors`]).
    pub fn new(
        topology: &'a T,
        states: Vec<P>,
        byzantine: Vec<bool>,
        adversary: A,
        config: EngineConfig,
        seed: u64,
    ) -> Self {
        let n = topology.len();
        assert_eq!(states.len(), n, "one protocol state per node required");
        assert_eq!(byzantine.len(), n, "byzantine mask must cover every node");
        assert_sorted_rows(topology);
        let rngs = (0..n)
            .map(|i| ChaCha8Rng::seed_from_u64(splitmix(seed, i as u64)))
            .collect();
        SyncEngine {
            topology,
            states,
            byzantine,
            adversary,
            config,
            rngs,
            adversary_rng: ChaCha8Rng::seed_from_u64(splitmix(seed, u64::MAX)),
            inboxes: vec![Vec::new(); n],
            next_inboxes: vec![Vec::new(); n],
            actions: vec![Action::Continue; n],
            honest: Outbox::new(),
            byz_default: Outbox::new(),
            crashed_scratch: Vec::with_capacity(n),
            statuses: vec![NodeStatus::Active; n],
            outputs: vec![None; n],
            decided_round: vec![None; n],
            metrics: RunMetrics::default(),
            round: 0,
            fault_plan: None,
            deferred: DelayRing::new(),
            reset_state: None,
            churned_down: vec![false; n],
            recorder: None,
        }
    }

    /// Install an observation [`Recorder`].  Purely additive: reports are
    /// byte-identical with and without one (locked down by the
    /// observability test suite).
    pub fn with_recorder(mut self, recorder: &'a dyn Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// [`with_recorder`](Self::with_recorder) that is a no-op for `None`.
    pub fn with_recorder_opt(mut self, recorder: Option<&'a dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// Install a [`FaultPlan`]: the network may now lose, delay and defer
    /// honest traffic and churn honest nodes.
    ///
    /// Requires `P: Clone` because churned nodes rejoin with a *fresh*
    /// protocol state: the engine snapshots the initial states here and
    /// restores a node's snapshot when the plan recovers it.
    pub fn with_fault_plan(mut self, plan: Box<dyn FaultPlan>) -> Self
    where
        P: Clone + Send + 'static,
    {
        let pristine: Vec<P> = self.states.clone();
        self.reset_state = Some(Box::new(move |i| pristine[i].clone()));
        self.fault_plan = Some(plan);
        self
    }

    /// [`with_fault_plan`](Self::with_fault_plan) that is a no-op for
    /// `None` — the shape every spec-driven runner needs.
    pub fn with_fault_plan_opt(self, plan: Option<Box<dyn FaultPlan>>) -> Self
    where
        P: Clone + Send + 'static,
    {
        match plan {
            Some(plan) => self.with_fault_plan(plan),
            None => self,
        }
    }

    /// Mark nodes as crashed before the first round (fail-stop fault
    /// injection).  Crashed nodes never step and their messages are dropped,
    /// Byzantine ones included.
    pub fn with_initial_crashes(mut self, crashed: &[bool]) -> Self {
        assert_eq!(
            crashed.len(),
            self.statuses.len(),
            "crash mask must cover every node"
        );
        for (status, &is_crashed) in self.statuses.iter_mut().zip(crashed) {
            if is_crashed {
                *status = NodeStatus::Crashed;
            }
        }
        self
    }

    /// The current round number (number of rounds fully executed).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Read access to the per-node protocol states (for instrumentation).
    pub fn states(&self) -> &[P] {
        &self.states
    }

    /// Node statuses so far.
    pub fn statuses(&self) -> &[NodeStatus] {
        &self.statuses
    }

    /// Whether the stop condition has been reached.
    pub fn finished(&self) -> bool {
        if self.round >= self.config.max_rounds {
            return true;
        }
        if self.config.stop_when_all_decided {
            let all_done = self
                .statuses
                .iter()
                .enumerate()
                .filter(|(i, _)| !self.byzantine[*i])
                .all(|(_, s)| *s != NodeStatus::Active);
            if all_done {
                return true;
            }
        }
        false
    }

    /// Execute one round.  Returns `false` when the stop condition has been
    /// reached (the round is still executed).
    pub fn step_round(&mut self) -> bool {
        let n = self.topology.len();
        self.metrics.begin_round();
        let round = self.round;
        let rec = self.recorder;
        // The unsharded engine reports everything under shard (tid) 0.
        let shard = 0u32;
        let metrics_base = match rec {
            Some(r) => {
                r.phase_begin(shard, round, Phase::Round);
                r.phase_begin(shard, round, Phase::Churn);
                MetricsSnap::of(&self.metrics)
            }
            None => MetricsSnap::default(),
        };

        // Phase 0: churn transitions requested by the fault plan.  Only
        // honest nodes are touched; a recovered node rejoins with a fresh
        // protocol state and no memory of its previous incarnation.
        if let Some(plan) = self.fault_plan.as_mut() {
            for event in plan.begin_round(round) {
                match event {
                    ChurnEvent::Crash(v) => {
                        let i = v.index();
                        if i < n && !self.byzantine[i] && self.statuses[i] != NodeStatus::Crashed {
                            self.statuses[i] = NodeStatus::Crashed;
                            self.churned_down[i] = true;
                            self.metrics.record_churn_crash();
                        }
                    }
                    ChurnEvent::Recover(v) => {
                        let i = v.index();
                        // Only crashes the fault layer itself injected are
                        // recoverable: a node that fail-stopped any other
                        // way (initial crashes, protocol self-crash) must
                        // stay silent forever, even if a plan unknowingly
                        // names it.
                        if i < n && self.churned_down[i] && self.statuses[i] == NodeStatus::Crashed
                        {
                            if let Some(reset) = self.reset_state.as_ref() {
                                self.states[i] = reset(i);
                                self.outputs[i] = None;
                                self.decided_round[i] = None;
                                self.statuses[i] = NodeStatus::Active;
                                self.churned_down[i] = false;
                                self.inboxes[i].clear();
                                self.metrics.record_churn_recovery();
                            }
                        }
                    }
                }
            }
        }

        if let Some(r) = rec {
            r.phase_end(shard, round, Phase::Churn);
            r.phase_begin(shard, round, Phase::NodeStep);
        }

        // Phase 1: run every non-crashed node against its inbox, queueing
        // straight into the honest or the Byzantine-default round arena.
        //
        // This loop is sequential by design: per-node work is
        // microseconds, less than handing nodes to other threads every
        // round would cost, so parallelism lives one level up, across the
        // runs of a batch.
        //
        // Each inbox is released right after its node's turn, crashed
        // nodes' included, so the round boundary has nothing left to clear.
        {
            let topology = self.topology;
            let statuses = &self.statuses;
            let outputs = &self.outputs;
            for (i, (((state, rng), action), inbox)) in self
                .states
                .iter_mut()
                .zip(self.rngs.iter_mut())
                .zip(self.actions.iter_mut())
                .zip(self.inboxes.iter_mut())
                .enumerate()
            {
                if statuses[i] == NodeStatus::Crashed {
                    *action = Action::Continue;
                    inbox.clear();
                    continue;
                }
                let id = NodeId::from_index(i);
                let outbox = if self.byzantine[i] {
                    &mut self.byz_default
                } else {
                    &mut self.honest
                };
                outbox.begin_turn(id);
                let ctx = NodeContext {
                    id,
                    round,
                    neighbors: topology.neighbors(id),
                    decided: outputs[i].is_some(),
                };
                *action = state.step(&ctx, inbox, outbox, rng);
                inbox.clear();
            }
        }

        if let Some(r) = rec {
            r.phase_end(shard, round, Phase::NodeStep);
            r.phase_begin(shard, round, Phase::AdversaryCut);
        }

        // Phase 2: the adversary views both arenas in place.
        self.crashed_scratch.clear();
        self.crashed_scratch
            .extend(self.statuses.iter().map(|s| *s == NodeStatus::Crashed));
        // `FollowProtocol` messages carry engine-stamped sender ids;
        // `Replace` messages are adversary-authored and their claimed sender
        // must be validated against the Byzantine mask below.
        let decision = {
            let view = AdversaryView {
                round,
                byzantine: &self.byzantine,
                crashed: &self.crashed_scratch,
                honest_messages: self.honest.envelopes(),
                byzantine_default_messages: self.byz_default.envelopes(),
            };
            self.adversary.act(&view, &mut self.adversary_rng)
        };

        // Phase 3: apply actions (honest nodes only; Byzantine nodes are
        // puppets of the adversary and their "decisions" are meaningless).
        for i in 0..n {
            if self.byzantine[i] || self.statuses[i] == NodeStatus::Crashed {
                continue;
            }
            match std::mem::replace(&mut self.actions[i], Action::Continue) {
                Action::Continue => {}
                Action::Decide(output) => {
                    if self.outputs[i].is_none() {
                        self.outputs[i] = Some(output);
                        self.decided_round[i] = Some(round);
                        self.statuses[i] = NodeStatus::Decided;
                    }
                }
                Action::Crash => {
                    self.statuses[i] = NodeStatus::Crashed;
                }
            }
        }

        if let Some(r) = rec {
            r.gauge(
                shard,
                round,
                Gauge::HonestArenaHighWater,
                self.honest.envelopes().len() as u64,
            );
            r.gauge(
                shard,
                round,
                Gauge::ByzArenaHighWater,
                self.byz_default.envelopes().len() as u64,
            );
            r.phase_end(shard, round, Phase::AdversaryCut);
            r.phase_begin(shard, round, Phase::Routing);
        }

        // Phase 4: validate, account and deliver messages for the next
        // round — honest arena first, then the Byzantine path, exactly the
        // pre-refactor order (the fault plan's RNG stream depends on it).
        let mut honest = std::mem::take(&mut self.honest);
        for env in honest.drain() {
            self.deliver(round, env, false);
        }
        self.honest = honest;
        match decision {
            AdversaryDecision::FollowProtocol => {
                let mut byz = std::mem::take(&mut self.byz_default);
                for env in byz.drain() {
                    self.deliver(round, env, false);
                }
                self.byz_default = byz;
            }
            AdversaryDecision::Replace(msgs) => {
                // The adversary's envelopes stand in for the defaults.
                self.byz_default.drain();
                for env in msgs {
                    self.deliver(round, env, true);
                }
            }
        }

        if let Some(r) = rec {
            r.phase_end(shard, round, Phase::Routing);
            r.phase_begin(shard, round, Phase::DeferredDrain);
        }

        // Phase 5: deferred envelopes whose delay elapses this round arrive
        // now (for consumption next round, like any other delivery).  Their
        // size is accounted here — a message deferred forever is never
        // counted as delivered.
        {
            let metrics = &mut self.metrics;
            let statuses = &self.statuses;
            let next_inboxes = &mut self.next_inboxes;
            self.deferred.drain_due(round, |env| {
                if statuses[env.to.index()] == NodeStatus::Crashed {
                    metrics.record_fault_expired(1);
                } else {
                    metrics.record_delivery(env.payload.message_size());
                    next_inboxes[env.to.index()].push(env);
                }
            });
        }

        if let Some(r) = rec {
            r.phase_end(shard, round, Phase::DeferredDrain);
            r.gauge(
                shard,
                round,
                Gauge::DelayRingPending,
                self.deferred.in_flight() as u64,
            );
            emit_metric_deltas(
                r,
                shard,
                round,
                metrics_base,
                MetricsSnap::of(&self.metrics),
            );
            r.add(shard, round, Counter::Rounds, 1);
            r.phase_end(shard, round, Phase::Round);
        }

        // Round boundary: this round's deliveries become next round's
        // inboxes, and the side consumed in phase 1 (already cleared,
        // capacity kept) receives the next round's deliveries.
        std::mem::swap(&mut self.inboxes, &mut self.next_inboxes);

        self.round += 1;
        !self.finished()
    }

    /// Validate, account and deliver (or lose / defer) one envelope queued
    /// in `round`.
    #[inline(always)]
    fn deliver(&mut self, round: u64, env: Envelope<P::Message>, authored_by_adversary: bool) {
        if !envelope_admissible(
            self.topology,
            &self.statuses,
            &self.byzantine,
            &env,
            authored_by_adversary,
        ) {
            self.metrics.record_drop();
            return;
        }
        // The fault layer only touches honest traffic: Byzantine
        // envelopes (protocol-following or adversary-authored) already
        // went through the adversary path and are delivered as-is.
        let fate = match self.fault_plan.as_mut() {
            Some(plan) if !self.byzantine[env.from.index()] => {
                plan.envelope_fate(round, env.from, env.to)
            }
            _ => EnvelopeFate::Deliver,
        };
        match fate {
            // A zero-round delay is indistinguishable from plain delivery,
            // so it must account as one: delivered now, never counted as
            // delayed.  Every engine shares this reading (pinned by the
            // cross-engine `Delay(0)` regression test).
            EnvelopeFate::Deliver | EnvelopeFate::Delay(0) => {
                self.metrics.record_delivery(env.payload.message_size());
                self.next_inboxes[env.to.index()].push(env);
            }
            EnvelopeFate::Drop => self.metrics.record_fault_loss(),
            EnvelopeFate::Delay(delay) => {
                self.metrics.record_fault_delay();
                // A delay past the end of time is past the run: the
                // envelope expires.
                self.deferred.push(round, round.saturating_add(delay), env);
            }
        }
    }

    /// Run until the stop condition and return the result.
    pub fn run(mut self) -> RunResult<P::Output> {
        while !self.finished() {
            self.step_round();
        }
        self.into_result()
    }

    /// Consume the engine and produce the result without running further.
    pub fn into_result(mut self) -> RunResult<P::Output> {
        let in_flight = self.deferred.in_flight() as u64;
        if in_flight > 0 {
            self.metrics.record_fault_expired(in_flight);
            // End-of-run expiry happens outside any round span; mirror it
            // so trace-derived totals still match the final metrics.
            if let Some(r) = self.recorder {
                r.add(0, self.round, Counter::MessagesExpired, in_flight);
            }
        }
        let completed = self
            .statuses
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.byzantine[*i])
            .all(|(_, s)| *s != NodeStatus::Active);
        let crashed = self
            .statuses
            .iter()
            .map(|s| *s == NodeStatus::Crashed)
            .collect();
        RunResult {
            outputs: self.outputs,
            decided_round: self.decided_round,
            crashed,
            statuses: self.statuses,
            metrics: self.metrics,
            completed,
        }
    }
}

/// Shared envelope validation, used verbatim by both engines (in process
/// and on the wire coordinator), so the rules live in exactly one place.
///
/// The rules, in order: a sender must exist and must not have crashed — a
/// crashed node stays silent forever, even a Byzantine one.
/// Adversary-authored envelopes must additionally claim a Byzantine sender
/// (identity non-forgeability: the adversary may only speak through the
/// nodes it controls).  The recipient must exist and be in the sender's
/// sorted row ([`Topology::neighbors`], the one definition of an edge,
/// searched with [`row::contains`]), and it must be alive.  The row is
/// read only once the sender checks pass, so a forged sender id past the
/// end is a counted drop.
#[inline(always)]
pub(crate) fn envelope_admissible<T: Topology, M>(
    topology: &T,
    statuses: &[NodeStatus],
    byzantine: &[bool],
    env: &Envelope<M>,
    authored_by_adversary: bool,
) -> bool {
    let n = topology.len();
    let (from, to) = (env.from.index(), env.to.index());
    let from_ok = from < n
        && statuses[from] != NodeStatus::Crashed
        && (!authored_by_adversary || byzantine[from]);
    from_ok
        && to < n
        && row::contains(topology.neighbors(env.from), env.to.0)
        && statuses[to] != NodeStatus::Crashed
}

/// SplitMix64-style seed derivation so per-node RNG streams are independent.
/// Shared with the sharded engine: both derive node `i`'s stream the same
/// way, which is what makes their runs comparable seed-for-seed.
pub(crate) fn splitmix(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E3779B97F4A7C15u64.wrapping_mul(index.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::NullAdversary;
    use crate::fixtures::{flood_states, line_graph, MaxFlood, Shouter, Val};

    #[test]
    fn max_flood_converges_on_a_line() {
        let n = 16;
        let g = line_graph(n);
        let engine = SyncEngine::new(
            &g,
            flood_states(n, 2 * n as u64),
            vec![false; n],
            NullAdversary,
            EngineConfig::default(),
            42,
        );
        let result = engine.run();
        assert!(result.completed);
        let first = result.outputs[0].unwrap();
        assert!(result.outputs.iter().all(|o| *o == Some(first)));
        assert!(result.metrics.rounds <= 2 * n as u64 + 1);
        assert!(result.metrics.messages_delivered > 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let n = 12;
        let g = line_graph(n);
        let run = |seed| {
            SyncEngine::new(
                &g,
                flood_states(n, 40),
                vec![false; n],
                NullAdversary,
                EngineConfig::default(),
                seed,
            )
            .run()
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.metrics, b.metrics);
        assert_ne!(
            a.outputs, c.outputs,
            "different seeds should give different values"
        );
    }

    #[test]
    fn max_rounds_caps_execution() {
        let n = 8;
        let g = line_graph(n);
        let cfg = EngineConfig {
            max_rounds: 3,
            stop_when_all_decided: true,
        };
        let result = SyncEngine::new(
            &g,
            flood_states(n, 1000),
            vec![false; n],
            NullAdversary,
            cfg,
            1,
        )
        .run();
        assert!(!result.completed);
        assert_eq!(result.metrics.rounds, 3);
    }

    #[test]
    fn adversary_messages_respect_topology() {
        let n = 8;
        let g = line_graph(n);
        let mut byz = vec![false; n];
        byz[1] = true;
        let result = SyncEngine::new(
            &g,
            flood_states(n, 20),
            byz.clone(),
            Shouter,
            EngineConfig::default(),
            3,
        )
        .run();
        // Node 0 is adjacent to the Byzantine node 1, so the huge value
        // poisons it (this is exactly why the naive protocol fails).
        assert_eq!(result.outputs[0], Some(u64::MAX));
        // Node 5 is NOT adjacent to node 1; the illegal direct message was
        // dropped every round.
        assert!(result.metrics.messages_dropped > 0);
        assert!(result.honest_decided(&byz) == n - 1);
    }

    #[test]
    fn crashed_byzantine_sender_messages_are_dropped() {
        // Regression test for the `from_ok` operator-precedence hazard: the
        // old `a && b || (a && c)` validation let messages whose claimed
        // sender was a *crashed* Byzantine node through.  A crashed node must
        // stay silent forever, no matter who authors envelopes in its name.
        let n = 8;
        let g = line_graph(n);
        let mut byz = vec![false; n];
        byz[1] = true;
        let mut crashed = vec![false; n];
        crashed[1] = true; // the Byzantine node fail-stops before round 0
        let engine = SyncEngine::new(
            &g,
            flood_states(n, 20),
            byz.clone(),
            Shouter, // keeps authoring envelopes claiming node 1 as sender
            EngineConfig::default(),
            3,
        )
        .with_initial_crashes(&crashed);
        let result = engine.run();
        // Node 0 must NOT be poisoned by u64::MAX from its crashed neighbour.
        assert_ne!(result.outputs[0], Some(u64::MAX));
        assert!(result.metrics.messages_dropped > 0);
    }

    #[test]
    fn adversary_cannot_forge_honest_sender_ids() {
        // Identity non-forgeability: adversary-authored envelopes claiming an
        // honest sender are dropped even when the edge exists.
        struct ForgeHonest;
        impl Adversary<MaxFlood> for ForgeHonest {
            fn act(
                &mut self,
                _view: &AdversaryView<'_, MaxFlood>,
                _rng: &mut ChaCha8Rng,
            ) -> AdversaryDecision<Val> {
                // Claim honest node 1 (a neighbour of node 0) as the sender.
                AdversaryDecision::Replace(vec![Envelope::new(NodeId(1), NodeId(0), Val(u64::MAX))])
            }
        }
        let n = 8;
        let g = line_graph(n);
        let mut byz = vec![false; n];
        byz[4] = true; // the adversary controls node 4, not node 1
        let result = SyncEngine::new(
            &g,
            flood_states(n, 20),
            byz,
            ForgeHonest,
            EngineConfig::default(),
            5,
        )
        .run();
        assert_ne!(
            result.outputs[0],
            Some(u64::MAX),
            "forged envelope must be dropped"
        );
        assert!(result.metrics.messages_dropped > 0);
    }

    /// Protocol that crashes immediately; used to test crash bookkeeping.
    #[derive(Clone)]
    struct CrashImmediately;
    impl Protocol for CrashImmediately {
        type Message = ();
        type Output = ();
        fn step(
            &mut self,
            _ctx: &NodeContext<'_>,
            _inbox: &[Envelope<()>],
            _outbox: &mut Outbox<()>,
            _rng: &mut ChaCha8Rng,
        ) -> Action<()> {
            Action::Crash
        }
    }

    #[test]
    fn total_loss_silences_honest_traffic_and_its_accounting() {
        // Regression test for the fault-layer accounting contract: an
        // envelope destroyed by the plan must never count toward the
        // delivered-message or byte (IDs/bits) metrics.
        use netsim_faults::IidLoss;
        let n = 8;
        let g = line_graph(n);
        let result = SyncEngine::new(
            &g,
            flood_states(n, 10),
            vec![false; n],
            NullAdversary,
            EngineConfig::default(),
            11,
        )
        .with_fault_plan(Box::new(IidLoss::new(1.0, 5)))
        .run();
        assert_eq!(result.metrics.messages_delivered, 0);
        assert_eq!(result.metrics.total_ids, 0);
        assert_eq!(result.metrics.total_bits, 0);
        assert!(result.metrics.messages_lost > 0);
        // Every node still decides — on its own value, having heard nobody.
        assert!(result.completed);
        let distinct: std::collections::HashSet<_> =
            result.outputs.iter().map(|o| o.unwrap()).collect();
        assert_eq!(distinct.len(), n, "no value ever propagated");
    }

    #[test]
    fn byzantine_envelopes_bypass_the_fault_layer() {
        // Total loss for honest traffic, yet the adversary's envelopes go
        // through the adversary path untouched: node 0 is still poisoned by
        // its Byzantine neighbour.
        use netsim_faults::IidLoss;
        let n = 8;
        let g = line_graph(n);
        let mut byz = vec![false; n];
        byz[1] = true;
        let result = SyncEngine::new(
            &g,
            flood_states(n, 20),
            byz,
            Shouter,
            EngineConfig::default(),
            3,
        )
        .with_fault_plan(Box::new(IidLoss::new(1.0, 5)))
        .run();
        assert_eq!(
            result.outputs[0],
            Some(u64::MAX),
            "Byzantine traffic must not be lost"
        );
        assert!(result.metrics.messages_lost > 0, "honest traffic was");
        assert!(
            result.metrics.messages_delivered > 0,
            "the Byzantine deliveries are the only ones counted"
        );
    }

    #[test]
    fn delayed_messages_arrive_late_and_are_counted_once() {
        use netsim_faults::RandomDelay;
        let n = 12;
        let g = line_graph(n);
        let run = |plan: Option<Box<dyn FaultPlan>>| {
            let engine = SyncEngine::new(
                &g,
                flood_states(n, 6 * n as u64),
                vec![false; n],
                NullAdversary,
                EngineConfig::default(),
                21,
            );
            match plan {
                Some(p) => engine.with_fault_plan(p).run(),
                None => engine.run(),
            }
        };
        let clean = run(None);
        let delayed = run(Some(Box::new(RandomDelay::new(3, 1.0, 9))));
        assert!(delayed.completed);
        assert_eq!(
            delayed.outputs[0], clean.outputs[0],
            "delay reorders nothing on a flood of maxima; the value still wins"
        );
        assert!(delayed.metrics.messages_delayed > 0);
        // Conservation: every queued honest envelope is delivered, lost,
        // expired, or was rejected by validation — delivered ones exactly
        // once.
        assert_eq!(
            delayed.metrics.messages_delayed,
            delayed.metrics.messages_delivered + delayed.metrics.messages_expired,
            "all traffic was delayed here, so delivered + expired must add up"
        );
    }

    #[test]
    fn deferred_messages_to_a_crashed_recipient_expire_on_arrival() {
        // Regression test for the second expiry path: an envelope deferred
        // to a node that crashes while it is in flight must be counted as
        // expired in its due round — never as delivered.
        use netsim_faults::{ChurnEvent, EnvelopeFate, FaultPlan};
        struct DelayThenCrash;
        impl FaultPlan for DelayThenCrash {
            fn begin_round(&mut self, round: u64) -> Vec<ChurnEvent> {
                // Crash node 1 after round 0's messages (to it) were
                // deferred to round 2.
                if round == 1 {
                    vec![ChurnEvent::Crash(NodeId(1))]
                } else {
                    Vec::new()
                }
            }
            fn envelope_fate(&mut self, round: u64, _from: NodeId, to: NodeId) -> EnvelopeFate {
                if round == 0 && to == NodeId(1) {
                    EnvelopeFate::Delay(2)
                } else {
                    EnvelopeFate::Deliver
                }
            }
        }
        let n = 4;
        let g = line_graph(n);
        let result = SyncEngine::new(
            &g,
            flood_states(n, 12),
            vec![false; n],
            NullAdversary,
            EngineConfig::default(),
            6,
        )
        .with_fault_plan(Box::new(DelayThenCrash))
        .run();
        assert!(result.crashed[1]);
        assert!(
            result.metrics.messages_expired > 0,
            "in-flight envelopes to the crashed node must expire"
        );
        assert_eq!(
            result.metrics.messages_delayed, result.metrics.messages_expired,
            "every deferred envelope was addressed to the crashed node"
        );
    }

    #[test]
    fn deferred_messages_still_in_flight_expire_at_the_cap() {
        use netsim_faults::RandomDelay;
        let n = 8;
        let g = line_graph(n);
        let cfg = EngineConfig {
            max_rounds: 3,
            stop_when_all_decided: true,
        };
        let result = SyncEngine::new(
            &g,
            flood_states(n, 1000),
            vec![false; n],
            NullAdversary,
            cfg,
            2,
        )
        .with_fault_plan(Box::new(RandomDelay::new(50, 1.0, 4)))
        .run();
        assert!(result.metrics.messages_expired > 0, "in-flight at the cap");
        assert_eq!(
            result.metrics.messages_delayed,
            result.metrics.messages_delivered + result.metrics.messages_expired
        );
    }

    #[test]
    fn churned_nodes_rejoin_with_reset_state() {
        use netsim_faults::{ChurnEvent, FaultPlan};
        // A scripted plan: crash node 2 at round 1, recover it at round 4.
        struct Script;
        impl FaultPlan for Script {
            fn begin_round(&mut self, round: u64) -> Vec<ChurnEvent> {
                match round {
                    1 => vec![ChurnEvent::Crash(NodeId(2))],
                    4 => vec![ChurnEvent::Recover(NodeId(2))],
                    _ => Vec::new(),
                }
            }
        }
        let n = 8;
        let g = line_graph(n);
        let result = SyncEngine::new(
            &g,
            flood_states(n, 3 * n as u64),
            vec![false; n],
            NullAdversary,
            EngineConfig::default(),
            17,
        )
        .with_fault_plan(Box::new(Script))
        .run();
        assert_eq!(result.metrics.churn_crashes, 1);
        assert_eq!(result.metrics.churn_recoveries, 1);
        assert!(!result.crashed[2], "node 2 rejoined");
        assert!(result.completed);
        // The reset node restarted the protocol from scratch and decided
        // again in its second life.
        assert!(result.outputs[2].is_some());
        assert!(result.decided_round[2].unwrap() >= 4, "decided post-rejoin");
    }

    #[test]
    fn churn_never_touches_byzantine_nodes() {
        use netsim_faults::NodeChurn;
        let n = 8;
        let g = line_graph(n);
        let mut byz = vec![false; n];
        byz[1] = true;
        let honest: Vec<bool> = byz.iter().map(|b| !b).collect();
        // Churn everyone eligible, every round — and also hand the plan a
        // mask that (wrongly) marks the Byzantine node eligible, to check
        // the engine-side guard.
        let all = vec![true; n];
        let _ = honest;
        let result = SyncEngine::new(
            &g,
            flood_states(n, 10),
            byz.clone(),
            Shouter,
            EngineConfig {
                max_rounds: 6,
                stop_when_all_decided: true,
            },
            3,
        )
        .with_fault_plan(Box::new(NodeChurn::new(1.0, 2, &all, 8)))
        .run();
        assert!(
            !result.crashed[1],
            "the engine must refuse churn events on Byzantine nodes"
        );
        assert!(result.metrics.churn_crashes > 0);
    }

    #[test]
    fn churn_cannot_resurrect_nodes_that_crashed_for_other_reasons() {
        use netsim_faults::{ChurnEvent, FaultPlan};
        // A plan that (wrongly) claims node 3 as its own: crash at round 1
        // (ignored — node 3 is already down), recover at round 3.
        struct Script;
        impl FaultPlan for Script {
            fn begin_round(&mut self, round: u64) -> Vec<ChurnEvent> {
                match round {
                    1 => vec![ChurnEvent::Crash(NodeId(3))],
                    3 => vec![ChurnEvent::Recover(NodeId(3))],
                    _ => Vec::new(),
                }
            }
        }
        let n = 8;
        let g = line_graph(n);
        let mut crashed = vec![false; n];
        crashed[3] = true; // fail-stopped before round 0, NOT by churn
        let result = SyncEngine::new(
            &g,
            flood_states(n, 20),
            vec![false; n],
            NullAdversary,
            EngineConfig::default(),
            13,
        )
        .with_fault_plan(Box::new(Script))
        .with_initial_crashes(&crashed)
        .run();
        assert!(result.crashed[3], "a fail-stopped node stays down forever");
        assert_eq!(result.outputs[3], None);
        assert_eq!(result.metrics.churn_crashes, 0, "no transition happened");
        assert_eq!(result.metrics.churn_recoveries, 0);
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        use netsim_faults::FaultSpec;
        let n = 16;
        let g = line_graph(n);
        let spec = FaultSpec::Compose(vec![
            FaultSpec::Loss { rate: 0.2 },
            FaultSpec::Delay {
                max_delay: 2,
                rate: 0.3,
            },
            FaultSpec::Churn {
                rate: 0.05,
                downtime: 3,
            },
            FaultSpec::Partition {
                start: 2,
                duration: 4,
            },
        ]);
        let run = |seed: u64| {
            let plan = spec
                .build_plan(n, &vec![true; n], seed ^ 0xFA17)
                .expect("plan");
            SyncEngine::new(
                &g,
                flood_states(n, 60),
                vec![false; n],
                NullAdversary,
                EngineConfig::default(),
                seed,
            )
            .with_fault_plan(plan)
            .run()
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.metrics, b.metrics);
        assert_ne!(
            (a.outputs, a.metrics),
            (c.outputs, c.metrics),
            "a different seed must change the faulty run"
        );
    }

    #[test]
    fn crashed_nodes_stop_participating() {
        let n = 4;
        let g = line_graph(n);
        let cfg = EngineConfig {
            max_rounds: 5,
            stop_when_all_decided: true,
        };
        let result = SyncEngine::new(
            &g,
            vec![CrashImmediately; n],
            vec![false; n],
            NullAdversary,
            cfg,
            0,
        )
        .run();
        assert!(result.crashed.iter().all(|&c| c));
        assert!(
            result.completed,
            "all honest nodes crashed counts as completed"
        );
        assert_eq!(result.metrics.rounds, 1);
        assert!(result.outputs.iter().all(|o| o.is_none()));
    }
}
