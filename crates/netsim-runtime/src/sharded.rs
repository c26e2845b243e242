//! The sharded engine: one per-tick pipeline for every engine layout
//! except the reference [`SyncEngine`].
//!
//! A [`ShardedEngine`] takes its layout as three explicit inputs
//! ([`Layout`]): the shard count (contiguous node ranges, see
//! [`shard_bounds`]), the [`ClockPlan`], and where each shard lives — in
//! this process, or behind a `netsim-wire` channel (see
//! [`distributed`](crate::distributed)).  A tick runs the paper's round
//! pipeline once:
//!
//! 1. **churn** — the fault plan is consulted globally, in plan order;
//!    effective events go to the owning shards;
//! 2. **node step** — every shard steps its due nodes and applies their
//!    actions, skipping a node whose mailbox is empty and whose state
//!    declares itself idle at the tick ([`Protocol::idle_until`]; only
//!    this engine consults it, so [`SyncEngine`] checks every
//!    declaration).
//!    In-process shards step on persistent shard threads:
//!    [`run`](ShardedEngine::run) fixes `L = min(S, threads)` lanes once
//!    per run (the rayon shim's [`rayon::current_num_threads`], looked up
//!    only when `S ≥ 2`).  Lane 0 is the engine thread; lanes `1..L` are
//!    spawned for the run, each owning a fixed contiguous group of shards
//!    that moves to it every tick and back once stepped.  A lane waiting
//!    for its shards, and the engine waiting for them back, poll the
//!    channel and yield the CPU for a short bounded window (about one
//!    park/wake round trip) before they block, so on near-empty ticks
//!    neither side pays a wake-up.  They yield rather than spin, so a
//!    lane sharing a CPU with the thread it waits for gives that thread
//!    the CPU.  Shards behind channels step on their workers;
//! 3. **adversary cut** — the shard arenas are gathered in shard order
//!    (which *is* global node order) and the full-information adversary
//!    sees the single gathered stream, against the pre-action statuses;
//! 4. **routing** — every envelope is validated and given its fate, the
//!    fault plan consulted in the reference engine's exact order, then
//!    handed to its destination shard;
//! 5. **deferred drain** — each shard completes the deliveries due this
//!    tick.
//!
//! ## Determinism contract
//!
//! For equal `(topology, protocol, adversary, seed, fault plan)` and a
//! synchronous clock plan, a run is **byte-identical** to [`SyncEngine`]
//! for every shard count and every transport; under other plans it is
//! byte-identical to the one-shard in-process layout.  The ingredients:
//! per-node RNG streams derive from the global node id, never from the
//! layout; arenas are gathered in shard order; the adversary and the fault
//! plan are consulted in the unsharded order; each destination lives in
//! exactly one shard, so per-recipient arrival order is preserved; and the
//! shard metrics merge through [`RunMetrics::absorb_shard`] into the exact
//! single-stream totals.  Stepping a shard reads and writes only that
//! shard, and the engine gathers arenas only once every lane has handed
//! its shards back, so neither the lane count nor the thread a shard
//! stepped on can reach a result.  Protocol states never leave their
//! shard, so the adversary's view is the same on every layout.
//!
//! ## Clocks and sparse ticking
//!
//! A shard defers through the ring [`SyncEngine`] uses, a
//! [`DelayRing`](crate::DelayRing).  Under a synchronous plan every live
//! node is due every tick and a shard keeps one ring, of delayed envelopes.
//! Under a heterogeneous plan a second ring holds each node's next step (a
//! node that steps is pushed back, due one period later).
//!
//! When nothing can happen at the next ticks, the engine jumps straight to
//! the earliest tick at which any shard has an event, bulk-replaying the
//! idle ticks' accounting so the result stays byte-identical to dense
//! execution ([`step_tick`](ShardedEngine::step_tick) in a loop).  A
//! shard's next event is the earlier of its next deferred delivery
//! ([`DelayRing::next_due`](crate::DelayRing::next_due)) and its next node
//! step: under a heterogeneous plan the steps ring's next due tick; under
//! a synchronous one the current tick while a live node has mail or may
//! act, else the earliest tick a live node's
//! [`idle_until`](Protocol::idle_until) names.  Two declarations, checked
//! in one place, make an idle tick skippable: the adversary's
//! [`idle_passive`](Adversary::idle_passive), and the fault plan's
//! [`FaultPlan::idle_passive`] when one is installed (a plan that churns
//! acts at every tick).  In-process layouts skip; wire layouts tick
//! densely, because the coordinator cannot see its workers' states.
//!
//! ## Observability
//!
//! The router's phases, counters and the round marker report under
//! [`SHARD_ROUTER`]; node steps, deferred drains and delivery-side
//! counters under the shard's index.  Shards behind channels are observed
//! from the coordinator only: their delivered and expired totals arrive in
//! the final `Done` frame and are reported then.

use crate::adversary::{Adversary, AdversaryDecision, AdversaryView};
use crate::clock::ClockPlan;
use crate::distributed::{lost, pipe_hello, serve, Channel, Remote, RemoteFleet, RunError};
use crate::engine::{
    emit_metric_deltas, envelope_admissible, splitmix, EngineConfig, MetricsSnap, RunResult,
    SyncEngine,
};
use crate::message::Envelope;
use crate::metrics::RunMetrics;
use crate::node::{NodeStatus, Protocol};
use crate::shard::{Shard, CHURN_CRASH, CHURN_RECOVER, TRANSITION_DECIDED};
use crate::topology::{assert_sorted_rows, Topology};
use netsim_faults::{ChurnEvent, EnvelopeFate, FaultPlan};
use netsim_trace::{Counter, Gauge, Phase, Recorder, SHARD_ROUTER};
use netsim_wire::{duplex, Wire, WireError, WireHello, SPEC_VERSION_ANY};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, RecvError, SyncSender, TryRecvError};
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

/// Which engine drives a run.
///
/// `Sync` is the reference [`SyncEngine`]; every other kind is a
/// [`Layout`] of the [`ShardedEngine`].  Under [`ClockPlan::Uniform`]
/// every kind produces byte-identical results for equal inputs, so the
/// choice only affects how the run maps onto cores and processes;
/// heterogeneous clock plans deliberately leave the synchronous model
/// (still fully deterministic per spec and seed).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineKind {
    /// The reference [`SyncEngine`].
    #[default]
    Sync,
    /// This many in-process shards with uniform clocks.
    Sharded {
        /// Number of shards (≥ 1; clamped to the node count).
        shards: usize,
    },
    /// One in-process shard with the given per-node clocks.
    Async {
        /// How node clocks map onto virtual time.
        clocks: ClockPlan,
    },
    /// This many in-process shards with the given per-node clocks.
    ShardedAsync {
        /// Number of shards (≥ 1; clamped to the node count).
        shards: usize,
        /// How node clocks map onto virtual time.
        clocks: ClockPlan,
    },
    /// This many shards behind `netsim-wire` channels, uniform clocks.
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

    /// The [`ShardedEngine`] layout this kind runs (`Sync` maps to its
    /// one-shard equivalent).  `fleet` places `Distributed` shards on
    /// worker processes instead of pipe threads.
    pub(crate) fn layout(&self, fleet: Option<&RemoteFleet>) -> Layout {
        match *self {
            EngineKind::Sync => Layout::InProcess {
                shards: 1,
                clocks: ClockPlan::Uniform,
            },
            EngineKind::Sharded { shards } => Layout::InProcess {
                shards,
                clocks: ClockPlan::Uniform,
            },
            EngineKind::Async { clocks } => Layout::InProcess { shards: 1, clocks },
            EngineKind::ShardedAsync { shards, clocks } => Layout::InProcess { shards, clocks },
            EngineKind::Distributed { shards } => Layout::Wire {
                shards,
                fleet: fleet.cloned(),
            },
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
    /// Which engine drives the run.
    pub engine: EngineKind,
    /// Network faults applied to honest traffic (loss, delay, churn).
    pub fault_plan: Option<Box<dyn FaultPlan>>,
    /// Observer for phase spans, counters and gauges.  Recorders observe,
    /// they never steer: the result is byte-identical with or without one.
    pub recorder: Option<&'a dyn Recorder>,
    /// Remote shard-worker processes for the distributed engine.  Pure
    /// transport policy, ignored by every other engine: results are
    /// byte-identical across transports.
    pub fleet: Option<&'a RemoteFleet>,
}

/// Run a protocol through the engine `exec` selects.
///
/// This is the single dispatch point the spec-driven runners (counting and
/// all baselines) go through, so an engine knob in a `RunSpec` reaches
/// every workload the same way.
///
/// # Errors
/// Only shards behind channels can fail (a lost worker channel surfaces
/// as [`RunError`]); in-process layouts always return `Ok`.
pub fn run_with_engine<T, P, A>(
    topology: &T,
    states: Vec<P>,
    byzantine: Vec<bool>,
    adversary: A,
    config: EngineConfig,
    seed: u64,
    exec: Exec<'_>,
) -> Result<RunResult<P::Output>, RunError>
where
    T: Topology,
    P: Protocol + Clone + Send + Sync + 'static,
    P::Output: Send + Wire,
    P::Message: Wire,
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
        kind => ShardedEngine::new(
            topology,
            states,
            byzantine,
            adversary,
            config,
            seed,
            kind.layout(fleet),
        )
        .with_fault_plan_opt(fault_plan)
        .with_recorder_opt(recorder)
        .run(),
    }
}

/// Step in-process shard `s` through `tick`'s node step, inside its
/// `node-step` span.  Every lane steps its shards through this function.
fn step_shard<T: Topology, P: Protocol>(
    s: usize,
    shard: &mut Shard<P>,
    tick: u64,
    topology: &T,
    rec: Option<&dyn Recorder>,
) {
    let s = s as u32;
    if let Some(rec) = rec {
        rec.phase_begin(s, tick, Phase::NodeStep);
    }
    shard.open(tick, topology);
    if let Some(rec) = rec {
        rec.phase_end(s, tick, Phase::NodeStep);
    }
}

/// How long a hand-over wait polls before it blocks: about one park/wake
/// round trip over a `sync_channel` (17–36 µs measured on a 2-CPU
/// container, against about 1 µs for a round trip that both sides poll),
/// so a wait the other side ends sooner costs a few yields.
const HANDOVER_POLL: Duration = Duration::from_micros(50);

/// Polls between two reads of the clock while [`HANDOVER_POLL`] runs.
const POLLS_PER_CLOCK_READ: u32 = 8;

/// Receive from `rx` as [`Receiver::recv`] does, after polling it for up
/// to [`HANDOVER_POLL`] with a [`yield_now`](std::thread::yield_now)
/// between polls.  On near-empty ticks the other side answers inside the
/// window, so neither thread parks and neither pays a wake-up.  The wait
/// yields instead of spinning: a thread sharing its CPU with the one it
/// waits for must give that thread the CPU.  A disconnected channel ends
/// the wait with [`RecvError`], exactly as `recv` does.
fn wait_handover<T>(rx: &Receiver<T>) -> Result<T, RecvError> {
    let start = Instant::now();
    for poll in 1.. {
        match rx.try_recv() {
            Ok(value) => return Ok(value),
            Err(TryRecvError::Disconnected) => return Err(RecvError),
            Err(TryRecvError::Empty) => {}
        }
        if poll % POLLS_PER_CLOCK_READ == 0 && start.elapsed() >= HANDOVER_POLL {
            break;
        }
        std::thread::yield_now();
    }
    rx.recv()
}

/// The payload the engine thread unwinds with when a hand-over fails.  A
/// lane's channel ends drop only when its thread ends, and inside a run a
/// lane's thread ends only by panicking, so [`ShardedEngine::drive`]
/// answers this payload by joining the lanes and resuming that panic.
struct LaneLost;

/// A hand-over to or from a lane failed; see [`LaneLost`].  Unwinds
/// without the panic hook, so stderr shows only the lane's own panic.
fn lane_lost() -> ! {
    resume_unwind(Box::new(LaneLost))
}

/// Join `threads`, which the engine no longer talks to, and resume the
/// first panic among them in spawn order, so a run whose shard thread
/// panicked ends with that thread's own payload, as it would have on the
/// caller's thread.
fn join_resuming_panics<T>(threads: Vec<ScopedJoinHandle<'_, T>>) {
    for thread in threads {
        if let Err(panic) = thread.join() {
            resume_unwind(panic);
        }
    }
}

/// The engine's end of a spawned shard thread (lanes `1..L`).  The lane
/// owns shards `first..` up to the next lane's `first`; each tick they
/// travel to it in one vector and come back in the same vector.  Both
/// ends wait through [`wait_handover`]: the lane for its next tick's
/// shards, the engine for each lane's shards back.
struct Lane<P: Protocol> {
    /// The lane's first shard.
    first: usize,
    /// Hands the lane the tick and its shards.
    work: SyncSender<(u64, Vec<Shard<P>>)>,
    /// Takes the shards back once stepped.
    done: Receiver<Vec<Shard<P>>>,
    /// The (empty) vector the shards travel in, kept between ticks.
    spare: Vec<Shard<P>>,
}

/// A [`ShardedEngine`]'s layout: how many contiguous shards, under which
/// clocks, and where they live.
#[derive(Clone, Debug)]
pub enum Layout {
    /// Shards the engine steps directly, in this process.
    InProcess {
        /// Number of shards (≥ 1; clamped to the node count).
        shards: usize,
        /// How node clocks map onto virtual time.
        clocks: ClockPlan,
    },
    /// Shards behind `netsim-wire` channels: pipe threads when `fleet` is
    /// `None` or lists no address, sessions on the fleet's `shard-worker`
    /// processes otherwise.  The wire protocol carries no clock plan, so
    /// these shards run uniform clocks.
    Wire {
        /// Number of shards (≥ 1; clamped to the node count).
        shards: usize,
        /// Worker processes to dial.
        fleet: Option<RemoteFleet>,
    },
}

/// Where a run's shards are: values the engine calls, or channels.
enum Links<P: Protocol> {
    Local(Vec<Shard<P>>),
    Remote(Remote),
}

/// The sharded engine; see the module documentation.
pub struct ShardedEngine<'a, T, P, A>
where
    T: Topology,
    P: Protocol,
    A: Adversary<P>,
{
    topology: &'a T,
    layout: Layout,
    config: EngineConfig,
    seed: u64,
    byzantine: Vec<bool>,
    /// Every node's status as the router sees it: churn applies here
    /// first, the shards' transitions after each cut.
    statuses: Vec<NodeStatus>,
    /// Nodes whose *current* crash was injected by churn.  A `Recover`
    /// event only revives these: nodes that fail-stopped any other way
    /// (initial crashes, protocol self-crash) stay down forever.
    churned_down: Vec<bool>,
    adversary: A,
    adversary_rng: ChaCha8Rng,
    fault_plan: Option<Box<dyn FaultPlan>>,
    recorder: Option<&'a dyn Recorder>,
    /// Shard `s` owns nodes `bounds[s]..bounds[s + 1]`.
    bounds: Vec<usize>,
    /// Destination shard of each node.
    shard_of: Vec<u32>,
    links: Links<P>,
    /// The spawned shard threads stepping in-process shards beside the
    /// engine thread.  Empty outside [`run`](Self::run) and when `L = 1`:
    /// then every shard steps inline.
    lanes: Vec<Lane<P>>,
    /// Router-side accounting: rounds, validation drops, fault losses and
    /// deferrals, churn.  Merged with the shard metrics at the end.
    metrics: RunMetrics,
    /// The tick's gathered arenas and transitions (capacity reused).
    honest_arena: Vec<Envelope<P::Message>>,
    byz_default: Vec<Envelope<P::Message>>,
    transitions: Vec<(u32, u8)>,
    crashed_scratch: Vec<bool>,
    /// The tick's effective churn events, per shard.
    churn: Vec<Vec<(u32, u8)>>,
    /// Per-destination-shard count of envelopes routed across a shard
    /// boundary this tick (kept only while a recorder is installed).
    cross_shard: Vec<u64>,
    /// Ticks fully executed, skipped idle ticks included.
    time: u64,
    ticks_skipped: u64,
}

impl<'a, T, P, A> ShardedEngine<'a, T, P, A>
where
    T: Topology,
    P: Protocol + Clone,
    P::Message: Wire,
    P::Output: Wire,
    A: Adversary<P>,
{
    /// Create an engine with the given layout.
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
        layout: Layout,
    ) -> Self {
        let n = topology.len();
        assert_eq!(states.len(), n, "one protocol state per node required");
        assert_eq!(byzantine.len(), n, "byzantine mask must cover every node");
        assert_sorted_rows(topology);
        let (shards, clocks) = match layout {
            Layout::InProcess { shards, clocks } => (shards, clocks),
            Layout::Wire { shards, .. } => (shards, ClockPlan::Uniform),
        };
        let bounds = shard_bounds(n, shards);
        let count = bounds.len() - 1;
        let mut shard_of = vec![0u32; n];
        let mut states = states.into_iter();
        let shards = bounds
            .windows(2)
            .enumerate()
            .map(|(s, w)| {
                shard_of[w[0]..w[1]].fill(s as u32);
                let mine = states.by_ref().take(w[1] - w[0]).collect();
                Shard::new(w[0], mine, byzantine[w[0]..w[1]].to_vec(), seed, clocks)
            })
            .collect();
        ShardedEngine {
            topology,
            layout,
            config,
            seed,
            byzantine,
            statuses: vec![NodeStatus::Active; n],
            churned_down: vec![false; n],
            adversary,
            adversary_rng: ChaCha8Rng::seed_from_u64(splitmix(seed, u64::MAX)),
            fault_plan: None,
            recorder: None,
            bounds,
            shard_of,
            links: Links::Local(shards),
            lanes: Vec::new(),
            metrics: RunMetrics::default(),
            honest_arena: Vec::new(),
            byz_default: Vec::new(),
            transitions: Vec::new(),
            crashed_scratch: Vec::with_capacity(n),
            churn: vec![Vec::new(); count],
            cross_shard: vec![0; count],
            time: 0,
            ticks_skipped: 0,
        }
    }

    /// Install an observation [`Recorder`]; see
    /// [`SyncEngine::with_recorder`].
    pub fn with_recorder(self, recorder: &'a dyn Recorder) -> Self {
        self.with_recorder_opt(Some(recorder))
    }

    /// [`with_recorder`](Self::with_recorder) that is a no-op for `None`.
    pub fn with_recorder_opt(mut self, recorder: Option<&'a dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// Install a [`FaultPlan`]; see [`SyncEngine::with_fault_plan`].  The
    /// shards keep pristine clones of their states so churned nodes rejoin
    /// reset.
    pub fn with_fault_plan(mut self, plan: Box<dyn FaultPlan>) -> Self {
        if let Links::Local(shards) = &mut self.links {
            for shard in shards {
                shard.keep_pristine();
            }
        }
        self.fault_plan = Some(plan);
        self
    }

    /// [`with_fault_plan`](Self::with_fault_plan) that is a no-op for
    /// `None`.
    pub fn with_fault_plan_opt(self, plan: Option<Box<dyn FaultPlan>>) -> Self {
        match plan {
            Some(plan) => self.with_fault_plan(plan),
            None => self,
        }
    }

    /// Mark nodes as crashed before the first tick; see
    /// [`SyncEngine::with_initial_crashes`].
    pub fn with_initial_crashes(mut self, crashed: &[bool]) -> Self {
        assert_eq!(
            crashed.len(),
            self.statuses.len(),
            "crash mask must cover every node"
        );
        for i in (0..crashed.len()).filter(|&i| crashed[i]) {
            self.statuses[i] = NodeStatus::Crashed;
            if let Links::Local(shards) = &mut self.links {
                shards[self.shard_of[i] as usize].crash_initially(i);
            }
        }
        self
    }

    /// The current virtual tick (ticks fully executed, skipped idle ticks
    /// included).
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Idle ticks jumped over by sparse ticking so far.
    pub fn ticks_skipped(&self) -> u64 {
        self.ticks_skipped
    }

    /// Whether the stop condition has been reached: `max_rounds` caps the
    /// tick count, or every honest node has decided or crashed.
    pub fn finished(&self) -> bool {
        self.time >= self.config.max_rounds
            || (self.config.stop_when_all_decided
                && self
                    .statuses
                    .iter()
                    .zip(&self.byzantine)
                    .all(|(s, &byz)| byz || *s != NodeStatus::Active))
    }

    /// Execute one tick.  Returns `false` when the stop condition has been
    /// reached (the tick is still executed).
    ///
    /// # Errors
    /// A lost shard channel; see [`run`](Self::run).
    pub fn step_tick(&mut self) -> Result<bool, RunError> {
        let tick = self.time;
        let rec = self.recorder;
        self.metrics.begin_round();
        let router_snap = MetricsSnap::of(&self.metrics);
        let shard_snaps: Vec<MetricsSnap> = match (&self.links, rec) {
            (Links::Local(shards), Some(_)) => {
                shards.iter().map(|s| MetricsSnap::of(&s.metrics)).collect()
            }
            _ => Vec::new(),
        };
        if let Some(rec) = rec {
            self.cross_shard.fill(0);
            rec.phase_begin(SHARD_ROUTER, tick, Phase::Round);
            rec.phase_begin(SHARD_ROUTER, tick, Phase::Churn);
        }
        self.churn(tick);
        if let Some(rec) = rec {
            rec.phase_end(SHARD_ROUTER, tick, Phase::Churn);
        }

        self.honest_arena.clear();
        self.byz_default.clear();
        match &mut self.links {
            Links::Local(shards) => {
                // Last lane first, so each lane's group is the tail of
                // `shards` when it leaves, and appending the groups back
                // in lane order restores shard order.
                for lane in self.lanes.iter_mut().rev() {
                    let mut group = std::mem::take(&mut lane.spare);
                    group.extend(shards.drain(lane.first..));
                    if lane.work.send((tick, group)).is_err() {
                        lane_lost();
                    }
                }
                for (s, shard) in shards.iter_mut().enumerate() {
                    step_shard(s, shard, tick, self.topology, rec);
                }
                for lane in &mut self.lanes {
                    let mut group = wait_handover(&lane.done).unwrap_or_else(|_| lane_lost());
                    shards.append(&mut group);
                    lane.spare = group;
                }
                for shard in shards.iter_mut() {
                    self.honest_arena.extend(shard.honest.drain());
                    self.byz_default.extend(shard.byz.drain());
                    self.transitions.append(&mut shard.transitions);
                }
            }
            Links::Remote(remote) => {
                remote.open(tick, &mut self.churn)?;
                remote.gather(
                    &self.bounds,
                    &mut self.honest_arena,
                    &mut self.byz_default,
                    &mut self.transitions,
                )?;
            }
        }

        if let Some(rec) = rec {
            rec.phase_begin(SHARD_ROUTER, tick, Phase::AdversaryCut);
        }
        self.crashed_scratch.clear();
        self.crashed_scratch
            .extend(self.statuses.iter().map(|s| *s == NodeStatus::Crashed));
        let view = AdversaryView {
            round: tick,
            byzantine: &self.byzantine,
            crashed: &self.crashed_scratch,
            honest_messages: &self.honest_arena,
            byzantine_default_messages: &self.byz_default,
        };
        let decision = self.adversary.act(&view, &mut self.adversary_rng);
        for (node, op) in self.transitions.drain(..) {
            self.statuses[node as usize] = if op == TRANSITION_DECIDED {
                NodeStatus::Decided
            } else {
                NodeStatus::Crashed
            };
        }
        if let Some(rec) = rec {
            let honest = self.honest_arena.len() as u64;
            rec.gauge(SHARD_ROUTER, tick, Gauge::HonestArenaHighWater, honest);
            let byz = self.byz_default.len() as u64;
            rec.gauge(SHARD_ROUTER, tick, Gauge::ByzArenaHighWater, byz);
            rec.phase_end(SHARD_ROUTER, tick, Phase::AdversaryCut);
            rec.phase_begin(SHARD_ROUTER, tick, Phase::Routing);
        }

        // Honest stream first, then the Byzantine path: the reference
        // engine's order, which the fault plan's RNG stream depends on.
        // Positions count through both gathered arenas.
        let mut honest = std::mem::take(&mut self.honest_arena);
        let gathered = honest.len();
        for (pos, env) in honest.drain(..).enumerate() {
            self.route(tick, env, Some(pos));
        }
        self.honest_arena = honest;
        match decision {
            AdversaryDecision::FollowProtocol => {
                let mut byz = std::mem::take(&mut self.byz_default);
                for (pos, env) in (gathered..).zip(byz.drain(..)) {
                    self.route(tick, env, Some(pos));
                }
                self.byz_default = byz;
            }
            AdversaryDecision::Replace(msgs) => {
                for env in msgs {
                    self.route(tick, env, None);
                }
            }
        }
        if let Some(rec) = rec {
            rec.phase_end(SHARD_ROUTER, tick, Phase::Routing);
        }

        match &mut self.links {
            Links::Local(shards) => {
                for (s, shard) in shards.iter_mut().enumerate() {
                    let s = s as u32;
                    if let Some(rec) = rec {
                        rec.phase_begin(s, tick, Phase::DeferredDrain);
                    }
                    shard.drain();
                    if let Some(rec) = rec {
                        rec.phase_end(s, tick, Phase::DeferredDrain);
                        let pending = shard.deferred.in_flight() as u64;
                        rec.gauge(s, tick, Gauge::DelayRingPending, pending);
                        rec.gauge(s, tick, Gauge::CalendarOccupancy, shard.scheduled());
                        emit_metric_deltas(
                            rec,
                            s,
                            tick,
                            shard_snaps[s as usize],
                            MetricsSnap::of(&shard.metrics),
                        );
                    }
                }
            }
            Links::Remote(remote) => remote.close()?,
        }

        if let Some(rec) = rec {
            for (s, &crossed) in self.cross_shard.iter().enumerate() {
                if crossed > 0 {
                    rec.add(s as u32, tick, Counter::CrossShardRouted, crossed);
                }
            }
            let router_now = MetricsSnap::of(&self.metrics);
            emit_metric_deltas(rec, SHARD_ROUTER, tick, router_snap, router_now);
            rec.add(SHARD_ROUTER, tick, Counter::Rounds, 1);
            rec.phase_end(SHARD_ROUTER, tick, Phase::Round);
        }
        self.time += 1;
        Ok(!self.finished())
    }

    /// Consult the fault plan's churn for `tick` in plan order, apply the
    /// effective events to the router's statuses, and hand them to the
    /// owning shards (in-process shards apply them now; a channel carries
    /// them with the tick's opening frame).
    fn churn(&mut self, tick: u64) {
        let Some(plan) = self.fault_plan.as_mut() else {
            return;
        };
        let n = self.statuses.len();
        for event in plan.begin_round(tick) {
            let (i, op) = match event {
                ChurnEvent::Crash(v) => (v.index(), CHURN_CRASH),
                ChurnEvent::Recover(v) => (v.index(), CHURN_RECOVER),
            };
            if i >= n {
                continue;
            }
            if op == CHURN_CRASH {
                if self.byzantine[i] || self.statuses[i] == NodeStatus::Crashed {
                    continue;
                }
                self.statuses[i] = NodeStatus::Crashed;
                self.churned_down[i] = true;
                self.metrics.record_churn_crash();
            } else {
                // Only crashes the fault layer itself injected are
                // recoverable.
                if !self.churned_down[i] || self.statuses[i] != NodeStatus::Crashed {
                    continue;
                }
                self.statuses[i] = NodeStatus::Active;
                self.churned_down[i] = false;
                self.metrics.record_churn_recovery();
            }
            self.churn[self.shard_of[i] as usize].push((i as u32, op));
        }
        if let Links::Local(shards) = &mut self.links {
            for (shard, churn) in shards.iter_mut().zip(&mut self.churn) {
                shard
                    .apply_churn(churn)
                    .expect("the router only emits valid churn for shards it set up");
                churn.clear();
            }
        }
    }

    /// Validate, account and route one envelope queued at `tick` into its
    /// destination shard (the validation rules are shared with
    /// [`SyncEngine`] via [`envelope_admissible`]).  `pos` is the
    /// envelope's place in the tick's gathered arenas, honest then
    /// Byzantine-default; `None` marks one the adversary wrote.
    fn route(&mut self, tick: u64, env: Envelope<P::Message>, pos: Option<usize>) {
        if !envelope_admissible(
            self.topology,
            &self.statuses,
            &self.byzantine,
            &env,
            pos.is_none(),
        ) {
            self.metrics.record_drop();
            return;
        }
        // The fault layer only touches honest traffic.
        let fate = match self.fault_plan.as_mut() {
            Some(plan) if !self.byzantine[env.from.index()] => {
                plan.envelope_fate(tick, env.from, env.to)
            }
            _ => EnvelopeFate::Deliver,
        };
        let dest = self.shard_of[env.to.index()] as usize;
        if self.recorder.is_some() && self.shard_of[env.from.index()] as usize != dest {
            self.cross_shard[dest] += 1;
        }
        let due = match fate {
            // A zero-tick delay is indistinguishable from plain delivery,
            // so it must account as one.
            EnvelopeFate::Deliver | EnvelopeFate::Delay(0) => None,
            EnvelopeFate::Drop => {
                self.metrics.record_fault_loss();
                return;
            }
            EnvelopeFate::Delay(delay) => {
                self.metrics.record_fault_delay();
                // A delay past the end of time is past the run: the
                // envelope expires.
                Some(tick.saturating_add(delay))
            }
        };
        match &mut self.links {
            Links::Local(shards) => shards[dest].accept(due, env),
            Links::Remote(remote) => remote.accept(dest, due, pos, &env),
        }
    }

    /// Jump over the idle ticks ahead — ticks at which no shard has an
    /// event ([`Shard::next_event`]) — replaying in bulk what executing
    /// them would have recorded: an empty per-round slot on every metrics
    /// stream, and the recorder's round count.
    fn skip_idle_ticks(&mut self) {
        // Sparse ticking's two guards, both declarations: an adversary that
        // is a no-op on idle ticks, and no fault plan or one that never
        // churns (its `begin_round` is the only call an idle tick makes;
        // it draws per envelope, and an idle tick routes none).
        let plan = self.fault_plan.as_deref();
        let plan_idle = plan.is_none_or(|plan| plan.idle_passive());
        if !(self.adversary.idle_passive() && plan_idle) {
            return;
        }
        let Links::Local(shards) = &mut self.links else {
            return;
        };
        let max = self.config.max_rounds;
        let target = shards
            .iter()
            .filter_map(|shard| shard.next_event(self.time))
            .min()
            .unwrap_or(max)
            .min(max);
        if target <= self.time {
            return;
        }
        let skipped = target - self.time;
        self.metrics.skip_rounds(skipped);
        for shard in shards {
            shard.metrics.skip_rounds(skipped);
        }
        self.ticks_skipped += skipped;
        if let Some(rec) = self.recorder {
            rec.add(SHARD_ROUTER, self.time, Counter::Rounds, skipped);
            rec.add(SHARD_ROUTER, self.time, Counter::TicksSkipped, skipped);
        }
        self.time = target;
    }

    /// Advance to the next tick at which anything can happen and execute
    /// it.  Returns `false` when the stop condition has been reached
    /// (possibly by the skip alone — it never crosses `max_rounds`).
    ///
    /// # Errors
    /// A lost shard channel; see [`run`](Self::run).
    pub fn advance(&mut self) -> Result<bool, RunError> {
        self.skip_idle_ticks();
        if self.finished() {
            return Ok(false);
        }
        self.step_tick()
    }

    /// Run until the stop condition and return the result.  An
    /// [`Layout::InProcess`] run with `S ≥ 2` shards looks the thread
    /// count up once and spawns its `min(S, threads) - 1` extra shard
    /// threads for the whole run; a [`Layout::Wire`] run moves its shards
    /// behind their channels first.
    ///
    /// # Errors
    /// A shard channel failing mid-conversation (a torn frame, a dead
    /// worker process, an incompatible hello) surfaces as
    /// [`RunError::WorkerLost`]; a fleet address that cannot be dialed as
    /// [`RunError::Fleet`].  This path never panics on wire faults.
    pub fn run(mut self) -> Result<RunResult<P::Output>, RunError> {
        let fleet = match &self.layout {
            Layout::InProcess { .. } => {
                let lanes = match self.bounds.len() - 1 {
                    1 => 1,
                    shards => shards.min(rayon::current_num_threads()),
                };
                return self.drive(lanes);
            }
            Layout::Wire { fleet, .. } => fleet.clone().filter(|f| !f.addrs.is_empty()),
        };
        let Links::Local(shards) = std::mem::replace(&mut self.links, Links::Local(Vec::new()))
        else {
            unreachable!("an engine starts with its shards in process")
        };
        if let Some(fleet) = fleet {
            // The workers rebuild their ranges from the fleet's payload, so
            // the coordinator keeps no per-node state at all.
            drop(shards);
            let pristine = self.fault_plan.is_some();
            let chans = fleet.dial(&self.bounds, self.seed, pristine, &self.statuses)?;
            self.links = Links::Remote(Remote::new(chans));
            return self.drive(1);
        }
        // Pipe workers run `Shard` code, which can panic (a protocol's own
        // assertion, say).  A worker that panics drops its channel end, so
        // the coordinator sees it as lost and ends the conversation.  The
        // closure below owns every coordinator end, so once it returns
        // every other worker reads EOF, and joining them surfaces the
        // panic itself rather than the lost channel.
        let topology = self.topology;
        let hello = WireHello::current(SPEC_VERSION_ANY);
        std::thread::scope(|scope| {
            let mut chans: Vec<Box<dyn Channel>> = Vec::with_capacity(shards.len());
            let mut workers = Vec::with_capacity(shards.len());
            for shard in shards {
                let (coord, mut worker) = duplex();
                let hello = hello.clone();
                workers.push(scope.spawn(move || -> Result<(), WireError> {
                    pipe_hello(&mut worker, &hello)?;
                    serve(topology, shard, &mut worker)
                }));
                chans.push(Box::new(coord));
            }
            let run = (move || {
                for (s, chan) in chans.iter_mut().enumerate() {
                    pipe_hello(chan, &hello).map_err(lost(s, "hello"))?;
                }
                self.links = Links::Remote(Remote::new(chans));
                self.drive(1)
            })();
            join_resuming_panics(workers);
            run
        })
    }

    /// Run to the end with the in-process shards spread over `lanes`
    /// threads (clamped to `1..=S`): the engine thread, plus `lanes - 1`
    /// spawned here for the whole run.  Each side of a hand-over waits in
    /// [`wait_handover`]: it polls and yields for a bounded window, then
    /// blocks.  A panic on any lane ends the run with that panic's own
    /// payload, as [`SyncEngine`] would end it: a lane that dies drops its
    /// channel ends, so the engine's next hand-over fails and unwinds with
    /// [`LaneLost`]; the engine then drops its own ends, so every other
    /// lane's wait fails, joins the lanes and resumes the lane's panic.  A
    /// panic on the engine thread itself is resumed as it is.
    fn drive(mut self, lanes: usize) -> Result<RunResult<P::Output>, RunError> {
        std::thread::scope(|scope| {
            let mut threads = Vec::new();
            if let Links::Local(shards) = &self.links {
                let groups = shard_bounds(shards.len(), lanes);
                for w in groups.windows(2).skip(1) {
                    let (work, inbox) = sync_channel(1);
                    let (outbox, done) = sync_channel(1);
                    let (first, topology, rec) = (w[0], self.topology, self.recorder);
                    threads.push(scope.spawn(move || {
                        while let Ok((tick, mut group)) = wait_handover(&inbox) {
                            for (s, shard) in (first..).zip(&mut group) {
                                step_shard(s, shard, tick, topology, rec);
                            }
                            if outbox.send(group).is_err() {
                                return;
                            }
                        }
                    }));
                    let spare = Vec::with_capacity(w[1] - w[0]);
                    self.lanes.push(Lane {
                        first,
                        work,
                        done,
                        spare,
                    });
                }
            }
            let run = catch_unwind(AssertUnwindSafe(|| {
                while !self.finished() {
                    self.advance()?;
                }
                Ok(())
            }));
            match run {
                Ok(run) => run?,
                Err(panic) => {
                    // Dropping the engine's ends ends every live lane's wait.
                    self.lanes.clear();
                    if panic.is::<LaneLost>() {
                        join_resuming_panics(threads);
                    }
                    resume_unwind(panic)
                }
            }
            self.into_result()
        })
    }

    /// Consume the engine and produce the result without running further.
    /// Deferred envelopes still in flight expire in their destination
    /// shard, never delivered.
    ///
    /// # Errors
    /// A lost shard channel; see [`run`](Self::run).
    pub fn into_result(self) -> Result<RunResult<P::Output>, RunError> {
        let (rec, time) = (self.recorder, self.time);
        let outcomes = match self.links {
            Links::Local(shards) => shards
                .into_iter()
                .enumerate()
                .map(|(s, mut shard)| {
                    let before = MetricsSnap::of(&shard.metrics);
                    shard.finish();
                    if let Some(rec) = rec {
                        let after = MetricsSnap::of(&shard.metrics);
                        emit_metric_deltas(rec, s as u32, time, before, after);
                    }
                    (shard.metrics, shard.outputs, shard.decided_round)
                })
                .collect(),
            Links::Remote(remote) => {
                let outcomes = remote.finish::<P::Output>(&self.bounds)?;
                if let Some(rec) = rec {
                    // A worker's delivery-side totals reach the coordinator
                    // only in its final frame.
                    for (s, (shard, ..)) in outcomes.iter().enumerate() {
                        let totals = MetricsSnap::of(shard);
                        emit_metric_deltas(rec, s as u32, time, MetricsSnap::default(), totals);
                    }
                }
                outcomes
            }
        };
        let mut metrics = self.metrics;
        let n = self.statuses.len();
        let (mut outputs, mut decided_round) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for (shard, shard_outputs, decided) in outcomes {
            metrics.absorb_shard(&shard);
            outputs.extend(shard_outputs);
            decided_round.extend(decided);
        }
        let completed = self
            .statuses
            .iter()
            .zip(&self.byzantine)
            .all(|(s, &byz)| byz || *s != NodeStatus::Active);
        let crashed = self
            .statuses
            .iter()
            .map(|s| *s == NodeStatus::Crashed)
            .collect();
        Ok(RunResult {
            outputs,
            decided_round,
            crashed,
            statuses: self.statuses,
            metrics,
            completed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::NullAdversary;
    use crate::fixtures::{
        assert_results_equal, flood_states, full_fault_stack, line_graph, MaxFlood, Shouter, Val,
    };
    use crate::node::{Action, NodeContext, Outbox};
    use netsim_faults::FaultSpec;
    use netsim_graph::{Csr, NodeId};
    use netsim_trace::CounterSet;
    use std::sync::{mpsc, Arc, Barrier};

    type Engine<'g> = ShardedEngine<'g, Csr, MaxFlood, Box<dyn Adversary<MaxFlood>>>;

    /// Max-flood on a line of `n` nodes, with optional Byzantine shouters,
    /// initial crashes and a fault plan.
    #[derive(Clone, Copy)]
    struct Case {
        n: usize,
        ttl: u64,
        seed: u64,
        cfg: EngineConfig,
        /// Byzantine nodes; any makes the adversary a [`Shouter`].
        byzantine: &'static [usize],
        crashed: &'static [usize],
        plan: fn(&Case) -> Option<Box<dyn FaultPlan>>,
    }

    impl Case {
        fn new(n: usize, ttl: u64, seed: u64) -> Self {
            Case {
                n,
                ttl,
                seed,
                cfg: EngineConfig::default(),
                byzantine: &[],
                crashed: &[],
                plan: |_| None,
            }
        }

        fn mask(&self, nodes: &[usize]) -> Vec<bool> {
            (0..self.n).map(|i| nodes.contains(&i)).collect()
        }

        fn adversary(&self) -> Box<dyn Adversary<MaxFlood>> {
            if self.byzantine.is_empty() {
                Box::new(NullAdversary)
            } else {
                Box::new(Shouter)
            }
        }

        fn engine<'g>(&self, g: &'g Csr, layout: Layout) -> Engine<'g> {
            let states = flood_states(self.n, self.ttl);
            let byzantine = self.mask(self.byzantine);
            ShardedEngine::new(
                g,
                states,
                byzantine,
                self.adversary(),
                self.cfg,
                self.seed,
                layout,
            )
            .with_fault_plan_opt((self.plan)(self))
            .with_initial_crashes(&self.mask(self.crashed))
        }

        /// Run on `layout`, or on the reference engine for `None`.
        fn run(&self, layout: Option<Layout>) -> RunResult<u64> {
            let g = line_graph(self.n);
            match layout {
                Some(layout) => self.engine(&g, layout).run().expect("pipes never fail"),
                None => SyncEngine::new(
                    &g,
                    flood_states(self.n, self.ttl),
                    self.mask(self.byzantine),
                    self.adversary(),
                    self.cfg,
                    self.seed,
                )
                .with_fault_plan_opt((self.plan)(self))
                .with_initial_crashes(&self.mask(self.crashed))
                .run(),
            }
        }
    }

    fn in_process(shards: usize, clocks: ClockPlan) -> Option<Layout> {
        Some(Layout::InProcess { shards, clocks })
    }

    fn piped(shards: usize) -> Option<Layout> {
        Some(Layout::Wire {
            shards,
            fleet: None,
        })
    }

    const STRATIFIED: ClockPlan = ClockPlan::Stratified {
        every: 3,
        period: 5,
    };

    /// Dense execution: every integer tick, no skipping.
    fn run_dense(mut engine: Engine<'_>) -> RunResult<u64> {
        while !engine.finished() {
            engine.step_tick().expect("in process");
        }
        assert_eq!(engine.ticks_skipped(), 0, "step_tick loops never skip");
        engine.into_result().expect("in process")
    }

    /// Queues a message to every neighbour in round 0, then takes it back
    /// on odd nodes; in round 1 decides on the senders it heard (bit `i`
    /// for node `i`).
    #[derive(Clone)]
    struct EvenSpeakers;

    impl Protocol for EvenSpeakers {
        type Message = Val;
        type Output = u64;
        fn step(
            &mut self,
            ctx: &NodeContext<'_>,
            inbox: &[Envelope<Val>],
            outbox: &mut Outbox<Val>,
            _rng: &mut ChaCha8Rng,
        ) -> Action<u64> {
            if ctx.round > 0 {
                return Action::Decide(inbox.iter().fold(0, |heard, env| heard | 1 << env.from.0));
            }
            outbox.broadcast(ctx.neighbors.iter(), Val(0));
            if ctx.id.0 % 2 == 1 {
                outbox.clear();
            }
            Action::Continue
        }
    }

    #[test]
    #[should_panic(expected = "node 0's neighbour row is not sorted")]
    fn the_reference_engine_refuses_an_unsorted_row() {
        // The edge test binary-searches sorted rows: listed `[3, 1, 2]`,
        // the centre's row would hide real edges, and their messages would
        // count as dropped.
        let star = crate::fixtures::UnsortedStar;
        let (states, mask) = (flood_states(4, 3), vec![false; 4]);
        let cfg = EngineConfig::default();
        SyncEngine::new(&star, states, mask, NullAdversary, cfg, 1);
    }

    #[test]
    #[should_panic(expected = "node 0's neighbour row is not sorted")]
    fn the_sharded_engine_refuses_an_unsorted_row() {
        // `ShardedEngine::new` checks the rows before it reads its layout,
        // so one layout stands for all.
        let star = crate::fixtures::UnsortedStar;
        let (states, mask) = (flood_states(4, 3), vec![false; 4]);
        let layout = in_process(2, ClockPlan::Uniform).unwrap();
        let cfg = EngineConfig::default();
        ShardedEngine::new(&star, states, mask, NullAdversary, cfg, 1, layout);
    }

    /// Forges one envelope from a sender that does not exist.
    struct Forger;

    impl Adversary<MaxFlood> for Forger {
        fn act(
            &mut self,
            view: &AdversaryView<'_, MaxFlood>,
            _rng: &mut ChaCha8Rng,
        ) -> AdversaryDecision<Val> {
            let ghost = NodeId::from_index(view.byzantine.len());
            AdversaryDecision::Replace(vec![Envelope::new(ghost, NodeId(0), Val(u64::MAX))])
        }
    }

    #[test]
    fn a_sender_outside_the_topology_is_dropped_on_every_engine() {
        // The sender check comes first and the edge test reads the
        // sender's row only after it, so a forged sender id past the end
        // is a counted drop, never an out-of-bounds row lookup.
        let (n, ttl) = (8, 3);
        let g = line_graph(n);
        let cfg = EngineConfig::default();
        let byzantine: Vec<bool> = (0..n).map(|i| i == 3).collect();
        let sync =
            SyncEngine::new(&g, flood_states(n, ttl), byzantine.clone(), Forger, cfg, 5).run();
        assert_eq!(sync.metrics.messages_dropped, sync.metrics.rounds);
        for layout in [in_process(2, ClockPlan::Uniform), piped(2)].map(Option::unwrap) {
            let label = format!("{layout:?}");
            let states = flood_states(n, ttl);
            let engine = ShardedEngine::new(&g, states, byzantine.clone(), Forger, cfg, 5, layout);
            let result = engine.run().expect("pipes never fail");
            assert_results_equal(&sync, &result, &label);
        }
    }

    #[test]
    fn a_cleared_turn_takes_back_only_its_own_envelopes() {
        // On K_9 every node shares its round arena with the nodes before
        // it, and an odd node's `clear` must leave their envelopes alone.
        // Byzantine nodes 3 and 4 (one of each parity) cover the second
        // arena, whose defaults the null adversary delivers.
        let n = 9;
        let edges: Vec<(u32, u32)> = (0..n)
            .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
            .collect();
        let g = Csr::from_undirected_edges(n as usize, &edges).unwrap();
        let byzantine: Vec<bool> = (0..n).map(|i| i == 3 || i == 4).collect();
        let evens: u64 = (0..n).step_by(2).map(|i| 1 << i).sum();
        let (states, cfg) = (vec![EvenSpeakers; n as usize], EngineConfig::default());
        let check = |result: RunResult<u64>, label: &str| {
            for (v, output) in result.outputs.iter().enumerate() {
                let expected = (!byzantine[v]).then_some(evens & !(1 << v));
                assert_eq!(*output, expected, "{label}: node {v}");
            }
            // Five even speakers, eight neighbours each.
            assert_eq!(result.metrics.messages_delivered, 5 * 8, "{label}");
        };
        let sync = SyncEngine::new(&g, states.clone(), byzantine.clone(), NullAdversary, cfg, 1);
        check(sync.run(), "sync");
        let layout = in_process(3, ClockPlan::Uniform).unwrap();
        let sharded =
            ShardedEngine::new(&g, states, byzantine.clone(), NullAdversary, cfg, 1, layout);
        check(sharded.run().expect("in process"), "3 shards");
    }

    #[test]
    fn shard_bounds_cover_the_range_contiguously() {
        for (n, shards) in [(16, 4), (17, 4), (3, 8), (1, 1), (100, 7)] {
            let bounds = shard_bounds(n, shards);
            assert_eq!(*bounds.first().unwrap(), 0);
            assert_eq!(*bounds.last().unwrap(), n);
            assert!(bounds.len() - 1 <= shards.max(1));
            // Clamping keeps every shard non-empty and balanced to ±1.
            let sizes: Vec<usize> = bounds.windows(2).map(|w| w[1] - w[0]).collect();
            assert!(sizes.iter().all(|&s| s >= 1), "{n}/{shards}: {sizes:?}");
            let (min, max) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
            assert!(max - min <= 1, "{n}/{shards}: {sizes:?}");
        }
        // Zero nodes still yields a well-formed (empty) single shard.
        assert_eq!(shard_bounds(0, 4), vec![0, 0]);
    }

    /// The parity table: every layout × clock plan × transport on the five
    /// scenarios.  Under uniform clocks the reference is [`SyncEngine`];
    /// under other plans, the one-shard in-process layout.
    #[test]
    fn every_layout_matches_its_reference_on_every_scenario() {
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
        type Fired = fn(&RunResult<u64>) -> bool;
        let scenarios: [(&str, Case, Fired); 5] = [
            ("clean", Case::new(24, 72, 42), |r| r.completed),
            (
                "full fault stack",
                Case {
                    plan: |c| Some(full_fault_stack(c.n, c.seed)),
                    ..Case::new(32, 90, 7)
                },
                |r| r.metrics.messages_lost > 0 && r.metrics.messages_delayed > 0,
            ),
            (
                "adversary",
                Case {
                    byzantine: &[1, 9],
                    ..Case::new(16, 30, 3)
                },
                |r| r.metrics.messages_dropped > 0,
            ),
            (
                "initial crashes",
                Case {
                    crashed: &[3, 12],
                    ..Case::new(16, 50, 5)
                },
                |r| r.crashed[3] && r.crashed[12],
            ),
            (
                "scripted churn",
                Case {
                    plan: |_| Some(Box::new(Script)),
                    ..Case::new(8, 24, 17)
                },
                |r| r.metrics.churn_recoveries == 1 && !r.crashed[2],
            ),
        ];
        for (label, case, fired) in scenarios {
            let sync = case.run(None);
            assert!(fired(&sync), "{label}: the scenario must exercise its path");
            for clocks in [
                ClockPlan::Uniform,
                STRATIFIED,
                ClockPlan::Jittered { max_period: 6 },
            ] {
                let (reference, mut layouts) = if clocks.is_synchronous() {
                    (sync.clone(), vec![piped(1), piped(2), piped(4)])
                } else {
                    (case.run(in_process(1, clocks)), Vec::new())
                };
                layouts.extend([1, 2, 3, 8, 100].map(|s| in_process(s, clocks)));
                for layout in layouts {
                    let label = format!("{label}: {layout:?}");
                    assert_results_equal(&reference, &case.run(layout), &label);
                }
            }
        }
    }

    #[test]
    fn run_with_engine_dispatches_every_kind_identically() {
        let n = 12;
        let g = line_graph(n);
        let run = |engine: EngineKind| {
            let exec = Exec {
                engine,
                ..Exec::default()
            };
            let states = flood_states(n, 40);
            let config = EngineConfig::default();
            run_with_engine(&g, states, vec![false; n], NullAdversary, config, 9, exec)
                .expect("in-process transports are infallible")
        };
        let sync = run(EngineKind::Sync);
        for engine in [
            EngineKind::Sharded { shards: 3 },
            EngineKind::Async {
                clocks: ClockPlan::Uniform,
            },
            EngineKind::ShardedAsync {
                shards: 3,
                clocks: ClockPlan::Uniform,
            },
            EngineKind::Distributed { shards: 3 },
        ] {
            assert_results_equal(&sync, &run(engine), &engine.describe());
        }
        for (kind, label) in [
            (EngineKind::Sync, "sync"),
            (EngineKind::Distributed { shards: 4 }, "dist-4"),
            (EngineKind::Sharded { shards: 3 }, "sharded-3"),
            (
                EngineKind::Async {
                    clocks: ClockPlan::Uniform,
                },
                "async",
            ),
            (
                EngineKind::Async {
                    clocks: ClockPlan::Stratified {
                        every: 2,
                        period: 3,
                    },
                },
                "async-strat-2x3",
            ),
            (
                EngineKind::ShardedAsync {
                    shards: 4,
                    clocks: ClockPlan::Uniform,
                },
                "sharded-async-4",
            ),
            (
                EngineKind::ShardedAsync {
                    shards: 2,
                    clocks: ClockPlan::Jittered { max_period: 5 },
                },
                "sharded-async-2-jitter-5",
            ),
        ] {
            assert_eq!(kind.describe(), label);
        }
        assert_eq!(EngineKind::default(), EngineKind::Sync);
    }

    #[test]
    fn every_lane_count_steps_to_the_same_result() {
        // Six shards over one lane (every shard inline on the engine
        // thread), two and three lanes (several shards per lane) and six
        // (one shard per lane), under both clock families.
        let case = Case::new(24, 60, 13);
        let g = line_graph(case.n);
        for clocks in [ClockPlan::Uniform, STRATIFIED] {
            let layout = Layout::InProcess { shards: 6, clocks };
            let inline = case.engine(&g, layout.clone()).drive(1).unwrap();
            for lanes in [2, 3, 6] {
                let result = case.engine(&g, layout.clone()).drive(lanes).unwrap();
                let label = format!("{clocks:?}, {lanes} lanes");
                assert_results_equal(&inline, &result, &label);
            }
        }
    }

    /// Continues forever, except that node `node` panics at tick `tick`.
    #[derive(Clone)]
    struct PanicAt {
        node: u32,
        tick: u64,
    }

    impl Protocol for PanicAt {
        type Message = Val;
        type Output = u64;
        fn step(
            &mut self,
            ctx: &NodeContext<'_>,
            _inbox: &[Envelope<Val>],
            _outbox: &mut Outbox<Val>,
            _rng: &mut ChaCha8Rng,
        ) -> Action<u64> {
            assert!(
                (ctx.id.0, ctx.round) != (self.node, self.tick),
                "node {} fails at tick {}",
                self.node,
                self.tick
            );
            Action::Continue
        }
    }

    /// The message of the panic `run` must end with (empty when the
    /// payload is not a `String`, as `assert!` with arguments makes).
    fn panic_message<R>(run: impl FnOnce() -> R) -> String {
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
            .err()
            .expect("the run must panic");
        panic.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn a_panicking_shard_ends_the_run_with_a_panic_on_any_lane() {
        // Nine nodes over three shards.  Node 7 lives in shard 2: on three
        // lanes it steps on a spawned one.  Node 1 lives in shard 0: it
        // steps on the engine thread while the other lanes step theirs.
        // On the reference engine, on every lane count and behind pipes,
        // the run must end with the protocol's own panic, and not hang.
        let (n, cfg) = (9, EngineConfig::default());
        let g = line_graph(n);
        for node in [7, 1] {
            let states = vec![PanicAt { node, tick: 3 }; n];
            let sync = SyncEngine::new(&g, states.clone(), vec![false; n], NullAdversary, cfg, 1);
            let engine = |layout| {
                let byzantine = vec![false; n];
                ShardedEngine::new(&g, states.clone(), byzantine, NullAdversary, cfg, 1, layout)
            };
            let sharded = || engine(in_process(3, ClockPlan::Uniform).unwrap());
            let messages = [
                ("sync", panic_message(|| sync.run())),
                ("1 lane", panic_message(|| sharded().drive(1))),
                ("2 lanes", panic_message(|| sharded().drive(2))),
                ("3 lanes", panic_message(|| sharded().drive(3))),
                ("pipes", panic_message(|| engine(piped(3).unwrap()).run())),
            ];
            for (label, message) in messages {
                assert_eq!(message, format!("node {node} fails at tick 3"), "{label}");
            }
        }
    }

    /// Long enough past [`HANDOVER_POLL`] that a waiting receiver has
    /// stopped polling and blocks in `recv`.
    const PAST_THE_WINDOW: Duration = Duration::from_millis(20);

    #[test]
    fn the_handover_wait_delivers_in_order_inside_and_after_its_window() {
        let (tx, rx) = sync_channel(1);
        let start = Arc::new(Barrier::new(2));
        let ready = Arc::clone(&start);
        let sender = std::thread::spawn(move || {
            ready.wait();
            // The channel holds one value, so each send after the first
            // waits for the receiver, which is waiting too.
            for value in 0..4u32 {
                tx.send(value).unwrap();
            }
            std::thread::sleep(PAST_THE_WINDOW);
            tx.send(4).unwrap();
        });
        start.wait();
        let got: Vec<u32> = (0..5).map(|_| wait_handover(&rx).unwrap()).collect();
        assert_eq!(got, [0, 1, 2, 3, 4]);
        sender.join().unwrap();
    }

    #[test]
    fn a_dropped_sender_ends_the_handover_wait_inside_or_after_its_window() {
        for delay in [Duration::ZERO, PAST_THE_WINDOW] {
            let (tx, rx) = sync_channel::<u32>(1);
            let (report, outcome) = mpsc::channel();
            let start = Arc::new(Barrier::new(2));
            let ready = Arc::clone(&start);
            std::thread::spawn(move || {
                ready.wait();
                report.send(wait_handover(&rx)).unwrap();
            });
            start.wait();
            std::thread::sleep(delay);
            drop(tx);
            let outcome = outcome
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|_| panic!("{delay:?}: the wait must end, not hang"));
            assert_eq!(outcome, Err(RecvError), "{delay:?}");
        }
    }

    // -- Expiry regressions -------------------------------------------------

    #[test]
    fn delays_past_the_final_tick_expire_in_the_destination_shard() {
        // With n = 8 and S = 2, shard 0 owns 0..4 and shard 1 owns 4..8:
        // the 3 → 4 edge crosses the shard boundary.
        struct DelayAcross;
        impl FaultPlan for DelayAcross {
            fn envelope_fate(&mut self, round: u64, from: NodeId, to: NodeId) -> EnvelopeFate {
                if round == 0 && from == NodeId(3) && to == NodeId(4) {
                    EnvelopeFate::Delay(1000)
                } else {
                    EnvelopeFate::Deliver
                }
            }
        }
        let case = Case {
            cfg: EngineConfig {
                max_rounds: 4,
                stop_when_all_decided: true,
            },
            plan: |_| Some(Box::new(DelayAcross)),
            ..Case::new(8, 1000, 11)
        };
        let reference = case.run(None);
        for layout in [in_process(2, ClockPlan::Uniform), piped(2)] {
            let result = case.run(layout.clone());
            assert_results_equal(&reference, &result, &format!("{layout:?}"));
            assert_eq!(result.metrics.messages_delayed, 1, "{layout:?}");
            assert_eq!(
                result.metrics.messages_expired, 1,
                "{layout:?}: the deferred envelope must expire at the cap, not deliver"
            );
        }
    }

    #[test]
    fn delays_to_a_recipient_that_crashes_in_flight_expire() {
        struct DelayThenCrash;
        impl FaultPlan for DelayThenCrash {
            fn begin_round(&mut self, round: u64) -> Vec<ChurnEvent> {
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
        let case = Case {
            plan: |_| Some(Box::new(DelayThenCrash)),
            ..Case::new(4, 12, 6)
        };
        let reference = case.run(None);
        for layout in [
            in_process(1, ClockPlan::Uniform),
            in_process(2, ClockPlan::Uniform),
            piped(2),
        ] {
            let result = case.run(layout.clone());
            assert_results_equal(&reference, &result, &format!("{layout:?}"));
            assert!(result.crashed[1]);
            assert!(result.metrics.messages_expired > 0);
            assert_eq!(
                result.metrics.messages_delayed, result.metrics.messages_expired,
                "every deferred envelope was addressed to the crashed node"
            );
        }
    }

    #[test]
    fn delay_past_a_slow_receivers_last_step_expires_at_the_cap() {
        // The receiver's clock is so slow it never steps again, and the
        // envelope's due tick lies past the cap.
        struct DelayFar;
        impl FaultPlan for DelayFar {
            fn envelope_fate(&mut self, round: u64, _from: NodeId, to: NodeId) -> EnvelopeFate {
                if round == 0 && to == NodeId(0) {
                    EnvelopeFate::Delay(500)
                } else {
                    EnvelopeFate::Deliver
                }
            }
        }
        let case = Case {
            cfg: EngineConfig {
                max_rounds: 10,
                stop_when_all_decided: true,
            },
            plan: |_| Some(Box::new(DelayFar)),
            ..Case::new(6, 1000, 3)
        };
        // Node 0 is the slow stratum: one step every 64 ticks, so its only
        // step inside the cap is tick 0.
        let slow = ClockPlan::Stratified {
            every: 6,
            period: 64,
        };
        let result = case.run(in_process(1, slow));
        assert_eq!(result.metrics.messages_delayed, 1);
        assert_eq!(result.metrics.messages_expired, 1);
    }

    #[test]
    fn delay_zero_accounts_as_immediate_delivery_on_every_layout() {
        // `EnvelopeFate::Delay(0)` is immediate delivery: counted delivered
        // now, never delayed, and identical to a faultless run.
        struct DelayZero;
        impl FaultPlan for DelayZero {
            fn envelope_fate(&mut self, _round: u64, _from: NodeId, _to: NodeId) -> EnvelopeFate {
                EnvelopeFate::Delay(0)
            }
        }
        let faultless = Case::new(12, 30, 23);
        let baseline = faultless.run(None);
        assert!(baseline.metrics.messages_delivered > 0);
        let case = Case {
            plan: |_| Some(Box::new(DelayZero)),
            ..faultless
        };
        for layout in [
            None,
            in_process(1, ClockPlan::Uniform),
            in_process(4, ClockPlan::Uniform),
            piped(2),
        ] {
            let result = case.run(layout.clone());
            assert_eq!(result.metrics.messages_delayed, 0, "{layout:?}");
            assert_eq!(result.metrics.messages_expired, 0, "{layout:?}");
            assert_results_equal(&baseline, &result, &format!("{layout:?}"));
        }
    }

    // -- Heterogeneous clocks ------------------------------------------------

    #[test]
    fn heterogeneous_clocks_are_deterministic_and_slow_nodes_step_less() {
        let case = Case {
            cfg: EngineConfig {
                max_rounds: 40,
                stop_when_all_decided: true,
            },
            ..Case::new(24, 30, 9)
        };
        let clocks = ClockPlan::Stratified {
            every: 4,
            period: 3,
        };
        let a = case.run(in_process(1, clocks));
        assert_results_equal(&a, &case.run(in_process(1, clocks)), "determinism");
        assert_ne!(
            a.metrics,
            case.run(None).metrics,
            "stratified clocks must actually change the execution"
        );
    }

    #[test]
    fn jittered_clocks_derive_from_the_seed() {
        let clocks = in_process(1, ClockPlan::Jittered { max_period: 4 });
        let run = |seed| {
            Case {
                cfg: EngineConfig {
                    max_rounds: 60,
                    stop_when_all_decided: true,
                },
                ..Case::new(16, 40, seed)
            }
            .run(clocks.clone())
        };
        let a = run(5);
        assert_results_equal(&a, &run(5), "jittered determinism");
        let c = run(6);
        assert_ne!(
            (a.outputs, a.metrics),
            (c.outputs, c.metrics),
            "a different seed draws different periods and values"
        );
    }

    #[test]
    fn mailboxes_batch_arrivals_between_slow_steps() {
        // A slow node consumes everything that arrived since its previous
        // step in one batch — the max still propagates through it.
        let clocks = ClockPlan::Stratified {
            every: 3,
            period: 4,
        };
        let result = Case::new(12, 96, 21).run(in_process(1, clocks));
        assert!(result.completed);
        let first = result.outputs[0].unwrap();
        assert!(result.outputs.iter().all(|o| *o == Some(first)));
    }

    // -- Sparse ticking -------------------------------------------------------

    #[test]
    fn sparse_ticking_is_byte_identical_to_dense() {
        let case = Case {
            cfg: EngineConfig {
                max_rounds: 600,
                stop_when_all_decided: true,
            },
            ..Case::new(18, 200, 13)
        };
        let g = line_graph(case.n);
        for clocks in [
            ClockPlan::Uniform,
            STRATIFIED,
            ClockPlan::Jittered { max_period: 6 },
        ] {
            for shards in [1, 3] {
                let layout = Layout::InProcess { shards, clocks };
                let dense = run_dense(case.engine(&g, layout.clone()));
                let sparse = case.engine(&g, layout.clone()).run().unwrap();
                assert_results_equal(&dense, &sparse, &format!("{layout:?}"));
            }
        }
    }

    #[test]
    fn sparse_ticking_visits_o_events_ticks_on_an_idle_heavy_run() {
        // Every node on a slow clock (one step per 64 ticks), so all but one
        // in 64 ticks are dead: the ticks actually *visited* must scale with
        // the node-step events, not with the tick span of the run.
        let period = 64;
        let case = Case::new(6, 2000, 29);
        let g = line_graph(case.n);
        for shards in [1, 3] {
            let clocks = ClockPlan::Stratified { every: 1, period };
            let layout = Layout::InProcess { shards, clocks };
            let mut sparse = case.engine(&g, layout.clone());
            while !sparse.finished() {
                sparse.advance().unwrap();
            }
            let span = sparse.time();
            let visited = span - sparse.ticks_skipped();
            assert!(span > case.ttl, "the run must cover the idle-heavy span");
            assert!(
                visited <= span / period as u64 + 2,
                "S={shards}: visited {visited} of {span}"
            );
            assert!(sparse.ticks_skipped() > 30 * visited, "S={shards}");
            let sparse = sparse.into_result().unwrap();
            assert_eq!(sparse.metrics.rounds, span, "skipped ticks still count");
            let dense = run_dense(case.engine(&g, layout));
            assert_results_equal(&dense, &sparse, &format!("idle-heavy S={shards}"));
        }
    }

    #[test]
    fn sparse_ticking_respects_the_round_cap_between_events() {
        // Next event beyond `max_rounds`: the skip stops at the cap.
        let case = Case {
            cfg: EngineConfig {
                max_rounds: 100,
                stop_when_all_decided: false,
            },
            ..Case::new(4, 100_000, 31)
        };
        let g = line_graph(case.n);
        let layout = Layout::InProcess {
            shards: 2,
            clocks: ClockPlan::Stratified {
                every: 1,
                period: 64,
            },
        };
        let sparse = case.engine(&g, layout.clone()).run().unwrap();
        assert_results_equal(&run_dense(case.engine(&g, layout)), &sparse, "cap");
        assert_eq!(sparse.metrics.rounds, 100);
    }

    #[test]
    fn sparse_skip_reports_rounds_and_skips_to_the_recorder() {
        let case = Case {
            cfg: EngineConfig {
                max_rounds: 512,
                stop_when_all_decided: false,
            },
            ..Case::new(6, 200, 37)
        };
        let g = line_graph(case.n);
        let counters = CounterSet::new();
        let clocks = ClockPlan::Stratified {
            every: 1,
            period: 32,
        };
        let result = case
            .engine(&g, Layout::InProcess { shards: 2, clocks })
            .with_recorder(&counters)
            .run()
            .unwrap();
        let snap = counters.snapshot();
        assert_eq!(snap.total(Counter::Rounds), result.metrics.rounds);
        assert_eq!(
            snap.total(Counter::MessagesDelivered),
            result.metrics.messages_delivered
        );
        let skipped = snap.total(Counter::TicksSkipped);
        assert!(skipped > 0 && skipped < result.metrics.rounds);
    }

    #[test]
    fn uniform_clocks_skip_the_idle_ticks_of_a_lossy_slow_flood() {
        // Max-flood on a line decides only at its TTL, long after the
        // maximum has spread, and loss and delay never churn: every tick
        // between the last delivery and the TTL is idle.  A delayed
        // envelope can be the only thing in flight while every node waits,
        // so the skip must stop at its due tick.
        let case = Case {
            cfg: EngineConfig {
                max_rounds: 2000,
                stop_when_all_decided: true,
            },
            plan: |c| {
                FaultSpec::Compose(vec![
                    FaultSpec::Loss { rate: 0.1 },
                    FaultSpec::Delay {
                        max_delay: 3,
                        rate: 0.3,
                    },
                ])
                .build_plan(c.n, &vec![true; c.n], c.seed)
            },
            ..Case::new(16, 600, 19)
        };
        let g = line_graph(case.n);
        let sync = case.run(None);
        assert!(sync.metrics.messages_lost > 0 && sync.metrics.messages_delayed > 0);
        for shards in [1, 3] {
            let layout = Layout::InProcess {
                shards,
                clocks: ClockPlan::Uniform,
            };
            let dense = run_dense(case.engine(&g, layout.clone()));
            assert_results_equal(&sync, &dense, &format!("dense S={shards}"));
            for lanes in [1, 3] {
                let label = format!("S={shards}, {lanes} lanes");
                let counters = CounterSet::new();
                let sparse = case
                    .engine(&g, layout.clone())
                    .with_recorder(&counters)
                    .drive(lanes)
                    .unwrap();
                assert_results_equal(&dense, &sparse, &label);
                // A visited tick delivers something, steps a node that got
                // mail the tick before, or is tick 0 or the TTL.
                let snap = counters.snapshot();
                let skipped = snap.total(Counter::TicksSkipped);
                let visited = sparse.metrics.rounds - skipped;
                let busy = sparse.metrics.per_round_messages.iter();
                let busy = busy.filter(|&&m| m > 0).count() as u64;
                assert!(skipped > 0, "{label}");
                assert!(visited <= 2 * busy + 2, "{label}: {visited} of {busy}");
                assert_eq!(snap.total(Counter::Rounds), sparse.metrics.rounds);
            }
        }
    }

    #[test]
    fn a_churning_or_undeclared_plan_pins_uniform_clocks_to_dense_ticking() {
        // A plan that keeps the default declaration, or churns, may act
        // at any tick, so no tick is idle to it; the same case without a
        // plan does skip.
        struct Benign;
        impl FaultPlan for Benign {}
        let case = Case {
            cfg: EngineConfig {
                max_rounds: 500,
                stop_when_all_decided: true,
            },
            ..Case::new(6, 100, 11)
        };
        let g = line_graph(case.n);
        let skipped = |case: &Case| {
            let layout = Layout::InProcess {
                shards: 2,
                clocks: ClockPlan::Uniform,
            };
            let mut engine = case.engine(&g, layout);
            while !engine.finished() {
                engine.advance().unwrap();
            }
            engine.ticks_skipped()
        };
        assert!(skipped(&case) > 0, "no plan");
        let undeclared = Case {
            plan: |_| Some(Box::new(Benign)),
            ..case
        };
        assert_eq!(skipped(&undeclared), 0, "a plan that keeps the default");
        let churn = Case {
            plan: |c| {
                let spec = FaultSpec::Churn {
                    rate: 0.0,
                    downtime: 1,
                };
                spec.build_plan(c.n, &vec![true; c.n], c.seed)
            },
            ..case
        };
        assert_eq!(skipped(&churn), 0, "churn");
    }

    #[test]
    fn an_installed_fault_plan_pins_the_engine_to_dense_ticking() {
        // A plan that keeps the default declaration may act at any tick,
        // so no tick is idle to it.
        struct Benign;
        impl FaultPlan for Benign {}
        let case = Case {
            cfg: EngineConfig {
                max_rounds: 500,
                stop_when_all_decided: true,
            },
            plan: |_| Some(Box::new(Benign)),
            ..Case::new(6, 100, 11)
        };
        let g = line_graph(case.n);
        let clocks = ClockPlan::Stratified {
            every: 1,
            period: 16,
        };
        let mut engine = case.engine(&g, Layout::InProcess { shards: 2, clocks });
        while !engine.finished() {
            engine.advance().unwrap();
        }
        assert_eq!(engine.ticks_skipped(), 0);
    }
}
