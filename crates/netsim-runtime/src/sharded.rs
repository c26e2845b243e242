//! The sharded synchronous engine: node-id-range partitioning of the round
//! loop.
//!
//! [`ShardedSyncEngine`] executes the exact protocol semantics of
//! [`SyncEngine`], but partitions the per-node hot state — protocol states,
//! RNG streams, per-node outboxes, the double-buffered inboxes, the
//! round-scoped envelope arenas, the deferred-delivery [`DelayRing`]s and
//! the delivery-side [`RunMetrics`] — into `S` contiguous node-id ranges,
//! each owned by one shard.  A round then has two regimes:
//!
//! 1. **Per-shard compute (parallel).**  Every shard steps its own nodes
//!    against its own inbox slice and fills its own outboxes and envelope
//!    arena, with no data shared between shards.  PR 3's buffer-reuse
//!    design (engine-owned, cleared-not-dropped buffers; move-only
//!    envelope arenas) was shaped for exactly this: a shard's slice is
//!    self-contained, so shards map directly onto the rayon shim's scoped
//!    threads ([`rayon::join`], recursively over the shard list, split
//!    only as deep as [`rayon::current_num_threads`] warrants).  With
//!    `S = 1` — or a single configured worker — the engine falls back to
//!    the plain sequential loop and spawns nothing.
//! 2. **Cross-shard routing (sequential).**  The round boundary is an
//!    explicit routing step: shard arenas are gathered in shard order
//!    (which *is* global node order, since shards are contiguous ranges),
//!    the full-information adversary inspects the single gathered stream,
//!    and every validated envelope is routed — fault plan consulted in the
//!    same globally fixed order as the unsharded engine — into the
//!    destination shard's next-round inbox or its [`DelayRing`].
//!
//! ## Determinism contract
//!
//! For equal `(topology, protocol, adversary, seed, fault plan)`, a
//! [`ShardedSyncEngine`] run is **byte-identical** to a [`SyncEngine`] run
//! for every shard count: per-node RNG streams are seed-derived per node
//! (not per shard), the adversary and the fault plan are consulted in the
//! same order and with the same RNG state, inbox contents arrive in the
//! same per-recipient order, and the partitioned metrics merge
//! ([`RunMetrics::absorb_shard`]) to the exact single-stream totals.  The
//! cross-shard differential suite (`tests/sharded_parity.rs`) locks this
//! down over the golden fixtures.

use crate::adversary::{Adversary, AdversaryDecision, AdversaryView};
use crate::async_engine::{AsyncEngine, ClockPlan};
use crate::engine::{
    emit_metric_deltas, envelope_admissible, splitmix, EngineConfig, MetricsSnap, RunResult,
    SyncEngine,
};
use crate::message::{Envelope, MessageSize};
use crate::metrics::RunMetrics;
use crate::node::{Action, NodeContext, NodeStatus, Outbox, Protocol};
use crate::ring::DelayRing;
use crate::topology::Topology;
use netsim_faults::{ChurnEvent, EnvelopeFate, FaultPlan};
use netsim_graph::NodeId;
use netsim_trace::{Counter, Gauge, Phase, Recorder, SHARD_ROUTER};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Which engine implementation drives a run.
///
/// `Sync` and `Sharded` are pure execution policy: they produce
/// byte-identical results for equal inputs (that is the sharded engine's
/// contract), so the choice only affects how the round loop maps onto
/// cores.  `Async` is policy *plus* a clock model: under
/// [`ClockPlan::Uniform`] it too is byte-identical to the synchronous
/// engines, while heterogeneous clock plans deliberately leave the
/// synchronous model (still fully deterministic per spec and seed).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineKind {
    /// The classic single-owner [`SyncEngine`].
    #[default]
    Sync,
    /// A [`ShardedSyncEngine`] over this many contiguous node-id ranges.
    Sharded {
        /// Number of shards (≥ 1; clamped to the node count).
        shards: usize,
    },
    /// The event-driven [`AsyncEngine`] with the given per-node clocks.
    Async {
        /// How node clocks map onto virtual time.
        clocks: ClockPlan,
    },
    /// A [`ShardedAsyncEngine`](crate::ShardedAsyncEngine): per-shard
    /// calendar queues and clock domains, rendezvousing only at routing.
    ShardedAsync {
        /// Number of shards (≥ 1; clamped to the node count).
        shards: usize,
        /// How node clocks map onto virtual time.
        clocks: ClockPlan,
    },
    /// A [`DistributedSyncEngine`](crate::DistributedSyncEngine): shard
    /// workers owning private node ranges, speaking `netsim-wire`'s binary
    /// protocol to a central coordinator.  Synchronous semantics,
    /// byte-identical to `Sync` and `Sharded`.
    Distributed {
        /// Number of shard workers (≥ 1; clamped to the node count).
        shards: usize,
    },
}

impl EngineKind {
    /// Short stable label (used in logs and tables).
    pub fn describe(&self) -> String {
        match self {
            EngineKind::Sync => "sync".into(),
            EngineKind::Sharded { shards } => format!("sharded-{shards}"),
            EngineKind::Async {
                clocks: ClockPlan::Uniform,
            } => "async".into(),
            EngineKind::Async { clocks } => format!("async-{}", clocks.describe()),
            EngineKind::ShardedAsync {
                shards,
                clocks: ClockPlan::Uniform,
            } => format!("sharded-async-{shards}"),
            EngineKind::ShardedAsync { shards, clocks } => {
                format!("sharded-async-{shards}-{}", clocks.describe())
            }
            EngineKind::Distributed { shards } => format!("dist-{shards}"),
        }
    }
}

/// Shard boundaries for `n` nodes over `shards` contiguous ranges: shard
/// `s` owns `bounds[s]..bounds[s + 1]`.  Ranges differ in size by at most
/// one node, cover `0..n` exactly, and the shard count is clamped to
/// `1..=max(n, 1)` so every shard is non-empty (for `n > 0`).
pub fn shard_bounds(n: usize, shards: usize) -> Vec<usize> {
    let s = shards.clamp(1, n.max(1));
    (0..=s).map(|i| i * n / s).collect()
}

/// How a run executes: the engine, plus the optional inputs every engine
/// accepts.  `Exec::default()` is the plain [`SyncEngine`] run with no
/// fault plan, recorder or fleet.
#[derive(Default)]
pub struct Exec<'a> {
    /// Which engine implementation drives the run.
    pub engine: EngineKind,
    /// Network faults applied to honest traffic (loss, delay, churn).
    pub fault_plan: Option<Box<dyn FaultPlan>>,
    /// Observer for phase spans, counters and gauges.  Recorders observe,
    /// they never steer: the result is byte-identical with or without one.
    pub recorder: Option<&'a dyn Recorder>,
    /// Remote shard-worker processes for the distributed engine.  Pure
    /// transport policy, ignored by every other engine: results are
    /// byte-identical across transports.
    pub fleet: Option<&'a crate::distributed::RemoteFleet>,
}

/// Run a protocol through the engine `exec` selects.
///
/// This is the single dispatch point the spec-driven runners (counting and
/// all baselines) go through, so an engine knob in a `RunSpec` reaches
/// every workload the same way.
///
/// # Errors
/// Only the distributed engine can fail (a lost worker channel surfaces
/// as [`RunError`](crate::distributed::RunError)); every in-process engine
/// always returns `Ok`.
pub fn run_with_engine<T, P, A>(
    topology: &T,
    states: Vec<P>,
    byzantine: Vec<bool>,
    adversary: A,
    config: EngineConfig,
    seed: u64,
    exec: Exec<'_>,
) -> Result<RunResult<P::Output>, crate::distributed::RunError>
where
    T: Topology,
    P: Protocol + Clone + Send + Sync + 'static,
    P::Output: Send + netsim_wire::Wire,
    P::Message: netsim_wire::Wire,
    A: Adversary<P>,
{
    let Exec {
        engine,
        fault_plan,
        recorder,
        fleet,
    } = exec;
    match engine {
        EngineKind::Sync => Ok(SyncEngine::new(
            topology, states, byzantine, adversary, config, seed,
        )
        .with_fault_plan_opt(fault_plan)
        .with_recorder_opt(recorder)
        .run()),
        EngineKind::Sharded { shards } => Ok(ShardedSyncEngine::new(
            topology, states, byzantine, adversary, config, seed, shards,
        )
        .with_fault_plan_opt(fault_plan)
        .with_recorder_opt(recorder)
        .run()),
        EngineKind::Async { clocks } => Ok(AsyncEngine::new(
            topology, states, byzantine, adversary, config, seed, clocks,
        )
        .with_fault_plan_opt(fault_plan)
        .with_recorder_opt(recorder)
        .run()),
        EngineKind::ShardedAsync { shards, clocks } => {
            Ok(crate::sharded_async::ShardedAsyncEngine::new(
                topology, states, byzantine, adversary, config, seed, shards, clocks,
            )
            .with_fault_plan_opt(fault_plan)
            .with_recorder_opt(recorder)
            .run())
        }
        EngineKind::Distributed { shards } => crate::distributed::DistributedSyncEngine::new(
            topology, states, byzantine, adversary, config, seed, shards,
        )
        .with_fault_plan_opt(fault_plan)
        .with_recorder_opt(recorder)
        .with_remote_fleet(fleet.cloned())
        .run(),
    }
}

/// The per-shard mutable view used by the parallel compute phase: disjoint
/// slices of the node-indexed engine state plus the shard-owned arenas.
struct ShardTask<'b, P: Protocol> {
    /// This shard's index (the `tid` its trace records report under).
    shard: u32,
    /// First global node id of this shard.
    start: usize,
    states: &'b mut [P],
    rngs: &'b mut [ChaCha8Rng],
    outboxes: &'b mut [Outbox<P::Message>],
    actions: &'b mut [Action<P::Output>],
    /// Shard-owned arena for its honest nodes' envelopes this round.
    honest: &'b mut Vec<Envelope<P::Message>>,
    /// Shard-owned buffer for its Byzantine nodes' protocol-following
    /// envelopes.
    byz: &'b mut Vec<Envelope<P::Message>>,
}

/// Apply `f` to every task, recursively splitting the task list across the
/// rayon shim's scoped threads — but only as deep as the configured worker
/// count warrants ([`rayon::current_num_threads`], i.e. the
/// `RAYON_NUM_THREADS` / programmatic override the rest of the workspace
/// honours).  With one worker (or one shard) this is a plain sequential
/// loop: no threads are spawned, so `S > cores` never pays for more
/// fan-out than the machine can absorb, and results are identical either
/// way (that is the engine's contract).
pub(crate) fn for_each_shard<T: Send, F: Fn(&mut T) + Sync>(tasks: &mut [T], f: &F) {
    let threads = rayon::current_num_threads();
    let splits = if threads <= 1 {
        0
    } else {
        // Enough binary splits to occupy every worker (same policy as the
        // shim's own `drive`).
        (usize::BITS - (threads - 1).leading_zeros()) as usize
    };
    for_each_shard_rec(tasks, f, splits);
}

fn for_each_shard_rec<T: Send, F: Fn(&mut T) + Sync>(tasks: &mut [T], f: &F, splits_left: usize) {
    if tasks.len() <= 1 || splits_left == 0 {
        for task in tasks {
            f(task);
        }
        return;
    }
    let mid = tasks.len() / 2;
    let (left, right) = tasks.split_at_mut(mid);
    rayon::join(
        || for_each_shard_rec(left, f, splits_left - 1),
        || for_each_shard_rec(right, f, splits_left - 1),
    );
}

/// The sharded synchronous engine; see the module documentation.
pub struct ShardedSyncEngine<'a, T, P, A>
where
    T: Topology,
    P: Protocol,
    A: Adversary<P>,
{
    topology: &'a T,
    /// Node-indexed state; shards view it through disjoint contiguous
    /// `split_at_mut` slices during the compute phase.
    states: Vec<P>,
    byzantine: Vec<bool>,
    adversary: A,
    config: EngineConfig,
    rngs: Vec<ChaCha8Rng>,
    adversary_rng: ChaCha8Rng,
    inboxes: Vec<Vec<Envelope<P::Message>>>,
    next_inboxes: Vec<Vec<Envelope<P::Message>>>,
    outboxes: Vec<Outbox<P::Message>>,
    actions: Vec<Action<P::Output>>,
    /// Shard boundaries: shard `s` owns nodes `bounds[s]..bounds[s + 1]`.
    bounds: Vec<usize>,
    /// Destination shard of each node (contiguous ranges, precomputed).
    shard_of: Vec<u32>,
    /// Per-shard round arenas, gathered in shard order at the routing step.
    shard_honest: Vec<Vec<Envelope<P::Message>>>,
    shard_byz: Vec<Vec<Envelope<P::Message>>>,
    /// Gathered (global-order) arenas the adversary views and the router
    /// drains; capacity reused across rounds.
    honest_arena: Vec<Envelope<P::Message>>,
    byz_default: Vec<Envelope<P::Message>>,
    crashed_scratch: Vec<bool>,
    statuses: Vec<NodeStatus>,
    outputs: Vec<Option<P::Output>>,
    decided_round: Vec<Option<u64>>,
    /// Router-side accounting: rounds, validation drops, fault losses and
    /// deferrals, churn.  Merged with the shard metrics at the end.
    router_metrics: RunMetrics,
    /// Per-shard delivery-side accounting (messages arriving in the shard's
    /// node range, and their expiries).
    shard_metrics: Vec<RunMetrics>,
    round: u64,
    fault_plan: Option<Box<dyn FaultPlan>>,
    /// Per-destination-shard deferred envelopes: each shard owns the ring
    /// of messages in flight *towards* its node range.
    shard_deferred: Vec<DelayRing<Envelope<P::Message>>>,
    reset_state: Option<Box<dyn Fn(usize) -> P + Send>>,
    churned_down: Vec<bool>,
    /// Optional observer.  Shard-local phases report under their shard id,
    /// the routing step under [`SHARD_ROUTER`]; `None` costs one branch per
    /// phase boundary, never per envelope.
    recorder: Option<&'a dyn Recorder>,
    /// Per-destination-shard count of envelopes routed across a shard
    /// boundary this round (recorder-only accounting; left untouched when
    /// no recorder is installed).
    cross_shard_scratch: Vec<u64>,
}

impl<'a, T, P, A> ShardedSyncEngine<'a, T, P, A>
where
    T: Topology,
    P: Protocol + Sync,
    P::Output: Send + Sync,
    A: Adversary<P>,
{
    /// Create an engine over `shards` contiguous node-id ranges.
    ///
    /// The shard count is clamped to `1..=n`; `shards = 1` is the
    /// sequential fallback (single shard, no scoped-thread fan-out).
    ///
    /// # Panics
    /// Panics if `states.len()` or `byzantine.len()` differ from the
    /// topology size.
    pub fn new(
        topology: &'a T,
        states: Vec<P>,
        byzantine: Vec<bool>,
        adversary: A,
        config: EngineConfig,
        seed: u64,
        shards: usize,
    ) -> Self {
        let n = topology.len();
        assert_eq!(states.len(), n, "one protocol state per node required");
        assert_eq!(byzantine.len(), n, "byzantine mask must cover every node");
        let bounds = shard_bounds(n, shards);
        let shard_count = bounds.len() - 1;
        let mut shard_of = vec![0u32; n];
        for (s, w) in bounds.windows(2).enumerate() {
            for owner in &mut shard_of[w[0]..w[1]] {
                *owner = s as u32;
            }
        }
        // Node RNG streams are derived per *node*, exactly as in
        // `SyncEngine` — the shard layout must never reach the randomness.
        let rngs = (0..n)
            .map(|i| ChaCha8Rng::seed_from_u64(splitmix(seed, i as u64)))
            .collect();
        ShardedSyncEngine {
            topology,
            states,
            byzantine,
            adversary,
            config,
            rngs,
            adversary_rng: ChaCha8Rng::seed_from_u64(splitmix(seed, u64::MAX)),
            inboxes: vec![Vec::new(); n],
            next_inboxes: vec![Vec::new(); n],
            outboxes: (0..n).map(|_| Outbox::new()).collect(),
            actions: vec![Action::Continue; n],
            bounds,
            shard_of,
            shard_honest: (0..shard_count).map(|_| Vec::new()).collect(),
            shard_byz: (0..shard_count).map(|_| Vec::new()).collect(),
            honest_arena: Vec::new(),
            byz_default: Vec::new(),
            crashed_scratch: Vec::with_capacity(n),
            statuses: vec![NodeStatus::Active; n],
            outputs: vec![None; n],
            decided_round: vec![None; n],
            router_metrics: RunMetrics::default(),
            shard_metrics: vec![RunMetrics::default(); shard_count],
            round: 0,
            fault_plan: None,
            shard_deferred: (0..shard_count).map(|_| DelayRing::new()).collect(),
            reset_state: None,
            churned_down: vec![false; n],
            recorder: None,
            cross_shard_scratch: vec![0; shard_count],
        }
    }

    /// Attach a [`Recorder`]; see [`SyncEngine::with_recorder`].
    pub fn with_recorder(mut self, recorder: &'a dyn Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// [`with_recorder`](Self::with_recorder) that is a no-op for `None`.
    pub fn with_recorder_opt(mut self, recorder: Option<&'a dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// Install a [`FaultPlan`]; see [`SyncEngine::with_fault_plan`].
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
    /// `None`.
    pub fn with_fault_plan_opt(self, plan: Option<Box<dyn FaultPlan>>) -> Self
    where
        P: Clone + Send + 'static,
    {
        match plan {
            Some(plan) => self.with_fault_plan(plan),
            None => self,
        }
    }

    /// Mark nodes as crashed before the first round; see
    /// [`SyncEngine::with_initial_crashes`].
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

    /// Number of shards the engine actually runs with (after clamping).
    pub fn shard_count(&self) -> usize {
        self.bounds.len() - 1
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
        self.router_metrics.begin_round();
        for metrics in &mut self.shard_metrics {
            metrics.begin_round();
        }
        let round = self.round;

        // Observability: snapshot the per-shard and router metrics so the
        // round's deltas can be emitted at the end.  All of this is behind
        // one `Option` check; recorders never see (or touch) engine state.
        let rec = self.recorder;
        let router_snap = rec.map(|_| MetricsSnap::of(&self.router_metrics));
        let shard_snaps: Vec<MetricsSnap> = if rec.is_some() {
            self.shard_metrics.iter().map(MetricsSnap::of).collect()
        } else {
            Vec::new()
        };
        if let Some(rec) = rec {
            for c in &mut self.cross_shard_scratch {
                *c = 0;
            }
            rec.phase_begin(SHARD_ROUTER, round, Phase::Round);
            rec.phase_begin(SHARD_ROUTER, round, Phase::Churn);
        }

        // Phase 0: churn transitions — global and sequential, exactly the
        // unsharded order (the plan's RNG stream depends on it).
        if let Some(plan) = self.fault_plan.as_mut() {
            for event in plan.begin_round(round) {
                match event {
                    ChurnEvent::Crash(v) => {
                        let i = v.index();
                        if i < n && !self.byzantine[i] && self.statuses[i] != NodeStatus::Crashed {
                            self.statuses[i] = NodeStatus::Crashed;
                            self.churned_down[i] = true;
                            self.router_metrics.record_churn_crash();
                        }
                    }
                    ChurnEvent::Recover(v) => {
                        let i = v.index();
                        if i < n && self.churned_down[i] && self.statuses[i] == NodeStatus::Crashed
                        {
                            if let Some(reset) = self.reset_state.as_ref() {
                                self.states[i] = reset(i);
                                self.outputs[i] = None;
                                self.decided_round[i] = None;
                                self.statuses[i] = NodeStatus::Active;
                                self.churned_down[i] = false;
                                self.inboxes[i].clear();
                                self.router_metrics.record_churn_recovery();
                            }
                        }
                    }
                }
            }
        }

        if let Some(rec) = rec {
            rec.phase_end(SHARD_ROUTER, round, Phase::Churn);
        }

        // Phase 1: per-shard compute.  Each shard receives disjoint mutable
        // slices of the node-indexed state plus its owned arenas; statuses,
        // outputs, inboxes and the topology are shared read-only.  Node
        // results are bit-identical to the sequential loop because every
        // node owns its RNG stream and lands in node order within its
        // shard.
        {
            let mut tasks: Vec<ShardTask<'_, P>> = Vec::with_capacity(self.shard_count());
            {
                let mut states = self.states.as_mut_slice();
                let mut rngs = self.rngs.as_mut_slice();
                let mut outboxes = self.outboxes.as_mut_slice();
                let mut actions = self.actions.as_mut_slice();
                let mut honest = self.shard_honest.iter_mut();
                let mut byz = self.shard_byz.iter_mut();
                for (s, w) in self.bounds.windows(2).enumerate() {
                    let len = w[1] - w[0];
                    let (task_states, rest) = states.split_at_mut(len);
                    states = rest;
                    let (task_rngs, rest) = rngs.split_at_mut(len);
                    rngs = rest;
                    let (task_outboxes, rest) = outboxes.split_at_mut(len);
                    outboxes = rest;
                    let (task_actions, rest) = actions.split_at_mut(len);
                    actions = rest;
                    tasks.push(ShardTask {
                        shard: s as u32,
                        start: w[0],
                        states: task_states,
                        rngs: task_rngs,
                        outboxes: task_outboxes,
                        actions: task_actions,
                        honest: honest.next().expect("one arena per shard"),
                        byz: byz.next().expect("one buffer per shard"),
                    });
                }
            }
            let inboxes = &self.inboxes;
            let statuses = &self.statuses;
            let outputs = &self.outputs;
            let byzantine = &self.byzantine;
            let topology = self.topology;
            for_each_shard(&mut tasks, &|task: &mut ShardTask<'_, P>| {
                // The shard's compute is its `node-step` span, reported
                // under its own tid (recorders are `Sync`: shards may run
                // on scoped threads).
                if let Some(rec) = rec {
                    rec.phase_begin(task.shard, round, Phase::NodeStep);
                }
                for local in 0..task.states.len() {
                    let i = task.start + local;
                    let outbox = &mut task.outboxes[local];
                    outbox.clear();
                    if statuses[i] == NodeStatus::Crashed {
                        task.actions[local] = Action::Continue;
                        continue;
                    }
                    let id = NodeId::from_index(i);
                    let ctx = NodeContext {
                        id,
                        round,
                        neighbors: topology.neighbors(id),
                        decided: outputs[i].is_some(),
                    };
                    task.actions[local] =
                        task.states[local].step(&ctx, &inboxes[i], outbox, &mut task.rngs[local]);
                }
                // Drain the shard's outboxes into its own arenas, in node
                // order — no clones, no sharing.
                for local in 0..task.outboxes.len() {
                    let i = task.start + local;
                    let target: &mut Vec<Envelope<P::Message>> =
                        if byzantine[i] { task.byz } else { task.honest };
                    task.outboxes[local]
                        .drain_envelopes(NodeId::from_index(i), |env| target.push(env));
                }
                if let Some(rec) = rec {
                    rec.phase_end(task.shard, round, Phase::NodeStep);
                }
            });
        }

        if let Some(rec) = rec {
            rec.phase_begin(SHARD_ROUTER, round, Phase::AdversaryCut);
        }

        // Cross-shard routing, step 1: gather the shard arenas in shard
        // order.  Shards are contiguous node ranges, so the gathered stream
        // is in global node order — exactly what the unsharded engine's
        // phase 2 produces, which keeps the adversary's view and the fault
        // plan's consultation order aligned.
        self.honest_arena.clear();
        self.byz_default.clear();
        for arena in &mut self.shard_honest {
            self.honest_arena.append(arena);
        }
        for buffer in &mut self.shard_byz {
            self.byz_default.append(buffer);
        }
        self.crashed_scratch.clear();
        self.crashed_scratch
            .extend(self.statuses.iter().map(|s| *s == NodeStatus::Crashed));
        let decision = {
            let view = AdversaryView {
                round,
                byzantine: &self.byzantine,
                crashed: &self.crashed_scratch,
                states: &self.states,
                honest_messages: &self.honest_arena,
                byzantine_default_messages: &self.byz_default,
            };
            self.adversary.act(&view, &mut self.adversary_rng)
        };

        // Phase 3: apply actions (honest nodes only), after the adversary
        // observed the pre-action statuses.
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

        if let Some(rec) = rec {
            // Arena high-water marks at their per-round peak: the gathered
            // streams, before the router drains them (same observation
            // point as the unsharded engine).
            rec.gauge(
                SHARD_ROUTER,
                round,
                Gauge::HonestArenaHighWater,
                self.honest_arena.len() as u64,
            );
            rec.gauge(
                SHARD_ROUTER,
                round,
                Gauge::ByzArenaHighWater,
                self.byz_default.len() as u64,
            );
            rec.phase_end(SHARD_ROUTER, round, Phase::AdversaryCut);
            rec.phase_begin(SHARD_ROUTER, round, Phase::Routing);
        }

        // Cross-shard routing, step 2: validate, account and route every
        // envelope — honest stream first, then the Byzantine path, in the
        // unsharded engine's exact order (the fault plan's RNG stream
        // depends on it).  Deliveries land in the destination shard's
        // next-round inbox and are accounted in that shard's metrics.
        let mut honest = std::mem::take(&mut self.honest_arena);
        for env in honest.drain(..) {
            self.route(round, env, false);
        }
        self.honest_arena = honest;
        match decision {
            AdversaryDecision::FollowProtocol => {
                let mut byz = std::mem::take(&mut self.byz_default);
                for env in byz.drain(..) {
                    self.route(round, env, false);
                }
                self.byz_default = byz;
            }
            AdversaryDecision::Replace(msgs) => {
                for env in msgs {
                    self.route(round, env, true);
                }
            }
        }

        if let Some(rec) = rec {
            rec.phase_end(SHARD_ROUTER, round, Phase::Routing);
        }

        // Phase 5: every shard drains the deferred envelopes due in its own
        // ring this round.  Shard order again equals global node order per
        // destination, and each destination lives in exactly one ring, so
        // per-inbox arrival order matches the unsharded engine.
        {
            let statuses = &self.statuses;
            let next_inboxes = &mut self.next_inboxes;
            for (s, (ring, metrics)) in self
                .shard_deferred
                .iter_mut()
                .zip(self.shard_metrics.iter_mut())
                .enumerate()
            {
                if let Some(rec) = rec {
                    rec.phase_begin(s as u32, round, Phase::DeferredDrain);
                }
                ring.drain_due(round, |env| {
                    if statuses[env.to.index()] == NodeStatus::Crashed {
                        metrics.record_fault_expired(1);
                    } else {
                        metrics.record_delivery(env.payload.message_size());
                        next_inboxes[env.to.index()].push(env);
                    }
                });
                if let Some(rec) = rec {
                    rec.phase_end(s as u32, round, Phase::DeferredDrain);
                    rec.gauge(
                        s as u32,
                        round,
                        Gauge::DelayRingPending,
                        ring.in_flight() as u64,
                    );
                }
            }
        }

        if let Some(rec) = rec {
            // Per-shard delivery/expiry deltas, cross-shard routing volume
            // (under the destination shard), then the router's own
            // accounting (validation drops, fault losses/delays, churn) and
            // the round marker under [`SHARD_ROUTER`].  Summed over every
            // tid, the trace reproduces `RunMetrics` exactly — that is the
            // trace-vs-truth contract.
            for (s, (snap, after)) in shard_snaps
                .iter()
                .zip(self.shard_metrics.iter())
                .enumerate()
            {
                emit_metric_deltas(rec, s as u32, round, *snap, MetricsSnap::of(after));
                let crossed = self.cross_shard_scratch[s];
                if crossed > 0 {
                    rec.add(s as u32, round, Counter::CrossShardRouted, crossed);
                }
            }
            emit_metric_deltas(
                rec,
                SHARD_ROUTER,
                round,
                router_snap.expect("snapshotted with recorder"),
                MetricsSnap::of(&self.router_metrics),
            );
            rec.add(SHARD_ROUTER, round, Counter::Rounds, 1);
            rec.phase_end(SHARD_ROUTER, round, Phase::Round);
        }

        // Round boundary: swap the double-buffered inboxes, keep capacity.
        std::mem::swap(&mut self.inboxes, &mut self.next_inboxes);
        for inbox in &mut self.next_inboxes {
            inbox.clear();
        }

        self.round += 1;
        !self.finished()
    }

    /// Validate, account and route one envelope queued in `round` into its
    /// destination shard (mirrors `SyncEngine::deliver`; the validation
    /// rules are literally shared via [`envelope_admissible`]).
    fn route(&mut self, round: u64, env: Envelope<P::Message>, authored_by_adversary: bool) {
        if !envelope_admissible(
            self.topology,
            &self.statuses,
            &self.byzantine,
            &env,
            authored_by_adversary,
        ) {
            self.router_metrics.record_drop();
            return;
        }
        let fate = match self.fault_plan.as_mut() {
            Some(plan) if !self.byzantine[env.from.index()] => {
                plan.envelope_fate(round, env.from, env.to)
            }
            _ => EnvelopeFate::Deliver,
        };
        let dest_shard = self.shard_of[env.to.index()] as usize;
        if self.recorder.is_some() && self.shard_of[env.from.index()] as usize != dest_shard {
            self.cross_shard_scratch[dest_shard] += 1;
        }
        match fate {
            // `Delay(0)` accounts as plain delivery in every engine (see
            // the cross-engine regression test in `sharded_async`).
            EnvelopeFate::Deliver | EnvelopeFate::Delay(0) => {
                self.shard_metrics[dest_shard].record_delivery(env.payload.message_size());
                self.next_inboxes[env.to.index()].push(env);
            }
            EnvelopeFate::Drop => self.router_metrics.record_fault_loss(),
            EnvelopeFate::Delay(delay) => {
                self.router_metrics.record_fault_delay();
                self.shard_deferred[dest_shard].push(round, round + delay, env);
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
        // Envelopes still in flight expire in their destination shard —
        // including messages delayed past the final round into a shard
        // other than the sender's.
        for (s, (ring, metrics)) in self
            .shard_deferred
            .iter()
            .zip(self.shard_metrics.iter_mut())
            .enumerate()
        {
            let in_flight = ring.in_flight() as u64;
            if in_flight > 0 {
                metrics.record_fault_expired(in_flight);
                if let Some(rec) = self.recorder {
                    // Mirror the end-of-run expiries so trace-derived
                    // totals keep matching `RunMetrics` bit-for-bit.
                    rec.add(s as u32, self.round, Counter::MessagesExpired, in_flight);
                }
            }
        }
        let mut metrics = self.router_metrics;
        for shard in &self.shard_metrics {
            metrics.absorb_shard(shard);
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
            metrics,
            completed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::NullAdversary;
    use crate::message::SizedMessage;
    use netsim_faults::FaultSpec;
    use netsim_graph::Csr;
    use rand::Rng;

    #[derive(Clone, Debug, PartialEq)]
    struct Val(u64);
    impl MessageSize for Val {
        fn message_size(&self) -> SizedMessage {
            SizedMessage::new(0, 64)
        }
    }
    impl netsim_wire::Wire for Val {
        fn encode(&self, out: &mut Vec<u8>) {
            self.0.encode(out);
        }
        fn decode(r: &mut netsim_wire::Reader<'_>) -> Result<Self, netsim_wire::WireError> {
            Ok(Val(<u64 as netsim_wire::Wire>::decode(r)?))
        }
    }

    /// Max-flooding (the engine test-suite workhorse): every node starts
    /// with a random value and forwards the maximum it has seen.
    #[derive(Clone)]
    struct MaxFlood {
        value: u64,
        best: u64,
        ttl: u64,
        started: bool,
    }

    impl Protocol for MaxFlood {
        type Message = Val;
        type Output = u64;
        fn step(
            &mut self,
            ctx: &NodeContext<'_>,
            inbox: &[Envelope<Val>],
            outbox: &mut Outbox<Val>,
            rng: &mut ChaCha8Rng,
        ) -> Action<u64> {
            if !self.started {
                self.started = true;
                if self.value == 0 {
                    self.value = rng.gen::<u64>() | 1;
                }
                self.best = self.value;
                outbox.broadcast(ctx.neighbors.iter(), Val(self.best));
                return Action::Continue;
            }
            let mut improved = false;
            for env in inbox {
                if env.payload.0 > self.best {
                    self.best = env.payload.0;
                    improved = true;
                }
            }
            if improved {
                outbox.broadcast(ctx.neighbors.iter(), Val(self.best));
            }
            if ctx.round >= self.ttl {
                Action::Decide(self.best)
            } else {
                Action::Continue
            }
        }
    }

    fn line_graph(n: usize) -> Csr {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        Csr::from_undirected_edges(n, &edges).unwrap()
    }

    fn flood_states(n: usize, ttl: u64) -> Vec<MaxFlood> {
        (0..n)
            .map(|_| MaxFlood {
                value: 0,
                best: 0,
                ttl,
                started: false,
            })
            .collect()
    }

    fn assert_results_equal(a: &RunResult<u64>, b: &RunResult<u64>, label: &str) {
        assert_eq!(a.outputs, b.outputs, "{label}: outputs diverged");
        assert_eq!(a.decided_round, b.decided_round, "{label}: decided_round");
        assert_eq!(a.crashed, b.crashed, "{label}: crash masks");
        assert_eq!(a.statuses, b.statuses, "{label}: statuses");
        assert_eq!(a.metrics, b.metrics, "{label}: metrics");
        assert_eq!(a.completed, b.completed, "{label}: completed");
    }

    #[test]
    fn shard_bounds_cover_the_range_contiguously() {
        for (n, shards) in [(16, 4), (17, 4), (3, 8), (1, 1), (100, 7)] {
            let bounds = shard_bounds(n, shards);
            assert_eq!(*bounds.first().unwrap(), 0);
            assert_eq!(*bounds.last().unwrap(), n);
            assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
            assert!(bounds.len() - 1 <= shards.max(1));
            if n > 0 {
                // Clamping keeps every shard non-empty and balanced to ±1.
                let sizes: Vec<usize> = bounds.windows(2).map(|w| w[1] - w[0]).collect();
                assert!(sizes.iter().all(|&s| s >= 1), "{n}/{shards}: {sizes:?}");
                let (min, max) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
                assert!(max - min <= 1, "{n}/{shards}: {sizes:?}");
            }
        }
        // Zero nodes still yields a well-formed (empty) single shard.
        assert_eq!(shard_bounds(0, 4), vec![0, 0]);
    }

    #[test]
    fn sharded_clean_runs_match_the_unsharded_engine_for_every_shard_count() {
        let n = 24;
        let g = line_graph(n);
        let reference = SyncEngine::new(
            &g,
            flood_states(n, 3 * n as u64),
            vec![false; n],
            NullAdversary,
            EngineConfig::default(),
            42,
        )
        .run();
        for shards in [1usize, 2, 3, 4, 8, 24, 100] {
            let sharded = ShardedSyncEngine::new(
                &g,
                flood_states(n, 3 * n as u64),
                vec![false; n],
                NullAdversary,
                EngineConfig::default(),
                42,
                shards,
            )
            .run();
            assert_results_equal(&reference, &sharded, &format!("S={shards}"));
        }
    }

    #[test]
    fn sharded_faulty_runs_match_the_unsharded_engine() {
        // The full fault stack: loss + bounded delay + churn + partition.
        let n = 32;
        let g = line_graph(n);
        let spec = FaultSpec::Compose(vec![
            FaultSpec::Loss { rate: 0.15 },
            FaultSpec::Delay {
                max_delay: 3,
                rate: 0.3,
            },
            FaultSpec::Churn {
                rate: 0.04,
                downtime: 3,
            },
            FaultSpec::Partition {
                start: 2,
                duration: 5,
            },
        ]);
        let plan = |seed: u64| {
            spec.build_plan(n, &vec![true; n], seed ^ 0xFA17)
                .expect("plan")
        };
        let reference = SyncEngine::new(
            &g,
            flood_states(n, 90),
            vec![false; n],
            NullAdversary,
            EngineConfig::default(),
            7,
        )
        .with_fault_plan(plan(7))
        .run();
        for shards in [1usize, 2, 4, 8] {
            let sharded = ShardedSyncEngine::new(
                &g,
                flood_states(n, 90),
                vec![false; n],
                NullAdversary,
                EngineConfig::default(),
                7,
                shards,
            )
            .with_fault_plan(plan(7))
            .run();
            assert_results_equal(&reference, &sharded, &format!("faulty S={shards}"));
        }
        assert!(
            reference.metrics.messages_lost > 0 && reference.metrics.messages_delayed > 0,
            "the fault stack must actually have fired for this test to mean anything"
        );
    }

    #[test]
    fn sharded_initial_crashes_match_the_unsharded_engine() {
        let n = 16;
        let g = line_graph(n);
        let mut crashed = vec![false; n];
        crashed[3] = true;
        crashed[12] = true;
        let reference = SyncEngine::new(
            &g,
            flood_states(n, 50),
            vec![false; n],
            NullAdversary,
            EngineConfig::default(),
            5,
        )
        .with_initial_crashes(&crashed)
        .run();
        let sharded = ShardedSyncEngine::new(
            &g,
            flood_states(n, 50),
            vec![false; n],
            NullAdversary,
            EngineConfig::default(),
            5,
            4,
        )
        .with_initial_crashes(&crashed)
        .run();
        assert_results_equal(&reference, &sharded, "initial crashes");
    }

    /// An adversary that makes Byzantine nodes shout a huge value at node 0
    /// plus an illegal long-range message (mirrors the engine test suite).
    struct Shouter;
    impl Adversary<MaxFlood> for Shouter {
        fn act(
            &mut self,
            view: &AdversaryView<'_, MaxFlood>,
            _rng: &mut ChaCha8Rng,
        ) -> AdversaryDecision<Val> {
            let mut msgs = Vec::new();
            for (i, &b) in view.byzantine.iter().enumerate() {
                if b {
                    msgs.push(Envelope::new(
                        NodeId::from_index(i),
                        NodeId(0),
                        Val(u64::MAX),
                    ));
                    msgs.push(Envelope::new(
                        NodeId::from_index(i),
                        NodeId(5),
                        Val(u64::MAX),
                    ));
                }
            }
            AdversaryDecision::Replace(msgs)
        }
    }

    #[test]
    fn sharded_adversarial_runs_match_the_unsharded_engine() {
        let n = 16;
        let g = line_graph(n);
        let mut byz = vec![false; n];
        byz[1] = true;
        byz[9] = true;
        let reference = SyncEngine::new(
            &g,
            flood_states(n, 30),
            byz.clone(),
            Shouter,
            EngineConfig::default(),
            3,
        )
        .run();
        for shards in [2usize, 4, 8] {
            let sharded = ShardedSyncEngine::new(
                &g,
                flood_states(n, 30),
                byz.clone(),
                Shouter,
                EngineConfig::default(),
                3,
                shards,
            )
            .run();
            assert_results_equal(&reference, &sharded, &format!("adversarial S={shards}"));
        }
        assert!(reference.metrics.messages_dropped > 0);
    }

    #[test]
    fn cross_shard_delay_past_the_final_round_expires_and_is_never_delivered() {
        // Regression test for the cross-shard `DelayRing` expiry path: a
        // message delayed past the run's final round whose *destination*
        // lives in a different shard than its sender must be counted as
        // `messages_expired` (in the destination shard's ring), never
        // delivered.
        struct DelayAcross;
        impl FaultPlan for DelayAcross {
            fn envelope_fate(&mut self, round: u64, from: NodeId, to: NodeId) -> EnvelopeFate {
                // With n = 8 and S = 2, shard 0 owns 0..4 and shard 1 owns
                // 4..8: the 3 → 4 edge crosses the shard boundary.
                if round == 0 && from == NodeId(3) && to == NodeId(4) {
                    EnvelopeFate::Delay(1000)
                } else {
                    EnvelopeFate::Deliver
                }
            }
        }
        let n = 8;
        let g = line_graph(n);
        let cfg = EngineConfig {
            max_rounds: 4,
            stop_when_all_decided: true,
        };
        let run = |shards: Option<usize>| match shards {
            None => SyncEngine::new(
                &g,
                flood_states(n, 1000),
                vec![false; n],
                NullAdversary,
                cfg,
                11,
            )
            .with_fault_plan(Box::new(DelayAcross))
            .run(),
            Some(s) => ShardedSyncEngine::new(
                &g,
                flood_states(n, 1000),
                vec![false; n],
                NullAdversary,
                cfg,
                11,
                s,
            )
            .with_fault_plan(Box::new(DelayAcross))
            .run(),
        };
        let reference = run(None);
        let sharded = run(Some(2));
        assert_results_equal(&reference, &sharded, "cross-shard expiry");
        assert_eq!(
            sharded.metrics.messages_delayed, 1,
            "exactly the boundary-crossing envelope was deferred"
        );
        assert_eq!(
            sharded.metrics.messages_expired, 1,
            "the deferred envelope must expire at the cap, not deliver"
        );
        // Conservation: the deferred envelope is accounted exactly once.
        assert_eq!(
            sharded.metrics.messages_delayed,
            sharded.metrics.messages_expired
        );
    }

    #[test]
    fn run_with_engine_dispatches_both_kinds_identically() {
        let n = 12;
        let g = line_graph(n);
        let run = |engine: EngineKind| {
            run_with_engine(
                &g,
                flood_states(n, 40),
                vec![false; n],
                NullAdversary,
                EngineConfig::default(),
                9,
                Exec {
                    engine,
                    ..Exec::default()
                },
            )
            .expect("in-process transports are infallible")
        };
        let sync = run(EngineKind::Sync);
        let sharded = run(EngineKind::Sharded { shards: 3 });
        assert_results_equal(&sync, &sharded, "run_with_engine");
        let asynced = run(EngineKind::Async {
            clocks: ClockPlan::Uniform,
        });
        assert_results_equal(&sync, &asynced, "run_with_engine (async)");
        let sharded_async = run(EngineKind::ShardedAsync {
            shards: 3,
            clocks: ClockPlan::Uniform,
        });
        assert_results_equal(&sync, &sharded_async, "run_with_engine (sharded-async)");
        let distributed = run(EngineKind::Distributed { shards: 3 });
        assert_results_equal(&sync, &distributed, "run_with_engine (distributed)");
        assert_eq!(EngineKind::Sync.describe(), "sync");
        assert_eq!(EngineKind::Distributed { shards: 4 }.describe(), "dist-4");
        assert_eq!(EngineKind::Sharded { shards: 3 }.describe(), "sharded-3");
        assert_eq!(
            EngineKind::Async {
                clocks: ClockPlan::Uniform
            }
            .describe(),
            "async"
        );
        assert_eq!(
            EngineKind::Async {
                clocks: ClockPlan::Stratified {
                    every: 2,
                    period: 3
                }
            }
            .describe(),
            "async-strat-2x3"
        );
        assert_eq!(
            EngineKind::ShardedAsync {
                shards: 4,
                clocks: ClockPlan::Uniform
            }
            .describe(),
            "sharded-async-4"
        );
        assert_eq!(
            EngineKind::ShardedAsync {
                shards: 2,
                clocks: ClockPlan::Jittered { max_period: 5 }
            }
            .describe(),
            "sharded-async-2-jitter-5"
        );
        assert_eq!(EngineKind::default(), EngineKind::Sync);
    }

    #[test]
    fn single_worker_fan_out_is_sequential_and_results_are_unchanged() {
        // With one configured worker the shard loop must not spawn (the
        // splits budget is zero) and — the actual contract — results must
        // be identical to the multi-worker run.  The override is
        // process-global but harmless to concurrent tests: nothing in this
        // crate's suite may depend on the worker count.
        struct RestoreOverride;
        impl Drop for RestoreOverride {
            fn drop(&mut self) {
                rayon::set_num_threads_override(None);
            }
        }
        let _restore = RestoreOverride;
        let n = 24;
        let g = line_graph(n);
        let run = || {
            ShardedSyncEngine::new(
                &g,
                flood_states(n, 60),
                vec![false; n],
                NullAdversary,
                EngineConfig::default(),
                13,
                6,
            )
            .run()
        };
        rayon::set_num_threads_override(Some(1));
        let sequential = run();
        rayon::set_num_threads_override(Some(8));
        let fanned_out = run();
        assert_results_equal(&sequential, &fanned_out, "worker-count independence");
    }

    #[test]
    fn shard_count_reports_the_clamped_value() {
        let g = line_graph(4);
        let engine = ShardedSyncEngine::new(
            &g,
            flood_states(4, 10),
            vec![false; 4],
            NullAdversary,
            EngineConfig::default(),
            0,
            64,
        );
        assert_eq!(engine.shard_count(), 4, "shards clamp to the node count");
    }
}
