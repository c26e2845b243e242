//! The unified simulation entry point.
//!
//! ```
//! use byzcount_core::sim::{
//!     PlacementSpec, SeedPolicy, Simulation, TopologySpec, WorkloadSpec,
//! };
//!
//! let report = Simulation::builder()
//!     .topology(TopologySpec::SmallWorld { n: 256, d: 6 })
//!     .workload(WorkloadSpec::Basic)
//!     .seed(42)
//!     .build()
//!     .unwrap()
//!     .run_core()
//!     .unwrap();
//! assert!(report.completed);
//! ```
//!
//! The builder assembles a serializable [`RunSpec`] (or, with a multi-seed
//! [`SeedPolicy`] / size sweep, a [`BatchSpec`]) and executes it through a
//! [`ScenarioRegistry`] — the component that turns spec variants into
//! concrete estimators and adversaries.  The [`CoreRegistry`] in this crate
//! understands the two counting protocols with the null adversary; the full
//! registry (baselines + knowledge-based adversaries) lives in
//! `byzcount-analysis::campaign` and is re-exported through the `byzcount`
//! facade, where `.run()` / `.run_batch()` become available on every
//! [`Simulation`].

use crate::sim::error::SimError;
use crate::sim::estimator::{CountingEstimator, Estimator, NullAdversaryFactory, SimContext};
use crate::sim::report::{BatchReport, RunReport};
use crate::sim::spec::{
    derive_seed, seed_stream, AdversarySpec, BatchSpec, EngineSpec, ParamsSpec, PlacementSpec,
    RunSpec, SeedPolicy, TopologySpec, WorkloadSpec, SPEC_VERSION,
};
use crate::ProtocolParams;
use netsim_faults::FaultSpec;
use netsim_runtime::wire::{IoStream, WireError, WireHello, HELLO_DEADLINE};
use netsim_runtime::{Recorder, RemoteFleet, RunError};
use rayon::prelude::*;
use std::sync::Arc;

/// A cloneable, debug-printable handle around a shared [`Recorder`], so
/// recorders can ride along inside the (otherwise `Clone + Debug`) builder
/// and [`Simulation`] without infecting their derives.
#[derive(Clone)]
pub struct RecorderHandle(Arc<dyn Recorder>);

impl RecorderHandle {
    /// Wrap a shared recorder.
    pub fn new(recorder: Arc<dyn Recorder>) -> Self {
        RecorderHandle(recorder)
    }

    /// Borrow the recorder as the trait object the engines take.
    pub fn as_dyn(&self) -> &dyn Recorder {
        self.0.as_ref()
    }
}

impl std::fmt::Debug for RecorderHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RecorderHandle(..)")
    }
}

/// Turns spec variants into executable estimators.
///
/// Implementations receive the validated [`RunSpec`] and the resolved
/// [`ProtocolParams`] and return the estimator that will run the workload;
/// the estimator's adversary factory is expected to honour
/// `spec.adversary`.
pub trait ScenarioRegistry: Sync {
    /// Resolve the estimator for a run.
    fn estimator(
        &self,
        spec: &RunSpec,
        params: &ProtocolParams,
    ) -> Result<Arc<dyn Estimator>, SimError>;
}

/// The registry built into `byzcount-core`: both counting protocols, null
/// adversary only.  Baseline workloads and the knowledge-based adversaries
/// need the full registry from `byzcount-analysis` (re-exported by the
/// `byzcount` facade).
#[derive(Clone, Copy, Debug, Default)]
pub struct CoreRegistry;

impl ScenarioRegistry for CoreRegistry {
    fn estimator(
        &self,
        spec: &RunSpec,
        params: &ProtocolParams,
    ) -> Result<Arc<dyn Estimator>, SimError> {
        if spec.adversary != AdversarySpec::Null {
            return Err(SimError::Unsupported(format!(
                "adversary `{}` needs the full scenario registry \
                 (use byzcount::prelude::* / byzcount-analysis::campaign)",
                spec.adversary.name()
            )));
        }
        match spec.workload {
            WorkloadSpec::Basic => Ok(Arc::new(CountingEstimator::basic(
                *params,
                Arc::new(NullAdversaryFactory),
            ))),
            WorkloadSpec::Byzantine => Ok(Arc::new(CountingEstimator::byzantine(
                *params,
                Arc::new(NullAdversaryFactory),
            ))),
            _ => Err(SimError::Unsupported(format!(
                "workload `{}` needs the full scenario registry \
                 (use byzcount::prelude::* / byzcount-analysis::campaign)",
                spec.workload.name()
            ))),
        }
    }
}

/// A [`RunSpec`] with its topology and Byzantine placement already
/// materialized, ready to execute any number of times.
///
/// Splitting preparation from execution serves two callers: batches that
/// re-run one spec, and the performance harness (`byzcount-cli bench`),
/// which must time the protocol execution — node construction plus the
/// round loop — without the (unchanged-by-optimisation) cost of graph
/// generation polluting the measurement.  [`execute_spec`] is
/// `PreparedRun::new` + `PreparedRun::execute`, so a prepared run produces
/// byte-identical reports to the one-shot path.
pub struct PreparedRun {
    spec: RunSpec,
    topology: crate::sim::spec::BuiltTopology,
    params: ProtocolParams,
    byzantine: Vec<bool>,
}

impl PreparedRun {
    /// Validate and migrate `spec`, then build its topology and placement.
    pub fn new(spec: &RunSpec) -> Result<Self, SimError> {
        spec.validate()?;
        // Execute (and report) the migrated spec, so a v1 spec and its v2
        // equivalent produce byte-identical reports.
        let mut spec = spec.clone();
        spec.migrate();
        let topology = spec
            .topology
            .build(derive_seed(spec.seed, seed_stream::TOPOLOGY))?;
        let params = spec.params.resolve(&spec.topology, &topology);
        let byzantine = spec
            .placement
            .materialize(&topology, derive_seed(spec.seed, seed_stream::PLACEMENT))?;
        Ok(PreparedRun {
            spec,
            topology,
            params,
            byzantine,
        })
    }

    /// The migrated spec this run will execute.
    pub fn spec(&self) -> &RunSpec {
        &self.spec
    }

    /// The resolved protocol parameters.
    pub fn params(&self) -> &ProtocolParams {
        &self.params
    }

    /// The materialized Byzantine mask.
    pub fn byzantine(&self) -> &[bool] {
        &self.byzantine
    }

    /// The materialized topology.
    pub fn topology(&self) -> &crate::sim::spec::BuiltTopology {
        &self.topology
    }

    /// Execute the workload (node construction + round loop) and assemble
    /// the report.  Deterministic: every call returns the same report.
    pub fn execute(&self, registry: &dyn ScenarioRegistry) -> Result<RunReport, SimError> {
        self.execute_fleet(registry, None, None)
    }

    /// [`execute`](Self::execute) with an optional [`Recorder`] observing
    /// the run and an optional remote shard-worker fleet for the
    /// distributed engine.
    ///
    /// Both are observation or transport policy only: the report is
    /// byte-identical with any recorder installed or none (locked down by
    /// the trace test suite), and whether shard workers run as in-process
    /// threads (`fleet` = `None` or empty) or remote `shard-worker`
    /// processes — the spec never records either.
    pub fn execute_fleet(
        &self,
        registry: &dyn ScenarioRegistry,
        recorder: Option<&dyn Recorder>,
        fleet: Option<&RemoteFleet>,
    ) -> Result<RunReport, SimError> {
        let estimator = registry.estimator(&self.spec, &self.params)?;
        let run = estimator.run(&self.context(recorder, fleet))?;
        Ok(RunReport::from_run(
            self.spec.clone(),
            &self.byzantine,
            &run,
        ))
    }

    /// The estimator context for this run.  The coordinator
    /// ([`execute_fleet`](Self::execute_fleet)) and every shard worker
    /// ([`serve_shard_conn`]) build it here, so both derive the same seeds
    /// and engine inputs from the spec.
    fn context<'a>(
        &'a self,
        recorder: Option<&'a dyn Recorder>,
        fleet: Option<&'a RemoteFleet>,
    ) -> SimContext<'a> {
        SimContext {
            topology: &self.topology,
            byzantine: &self.byzantine,
            seed: derive_seed(self.spec.seed, seed_stream::RUN),
            max_rounds: self.spec.max_rounds,
            fault: &self.spec.fault,
            fault_seed: derive_seed(self.spec.seed, seed_stream::FAULTS),
            engine: self.spec.engine.kind(),
            recorder,
            fleet,
        }
    }

    /// Describe a remote shard-worker fleet for this run: the assignment
    /// payload is the migrated spec's JSON (workers rebuild topology,
    /// placement and node states from it), pinned to [`SPEC_VERSION`].
    pub fn remote_fleet(&self, addrs: Vec<String>) -> RemoteFleet {
        RemoteFleet::new(addrs, self.spec.to_json().into_bytes(), SPEC_VERSION)
    }
}

/// Serve one shard-worker connection: the process-level worker's half of
/// the distributed engine.
///
/// Exchanges versioned hellos (bounded by [`HELLO_DEADLINE`]; a mute or
/// incompatible peer is an error, not a hang), requires the coordinator's
/// [`ShardAssignment`](netsim_wire::ShardAssignment), rebuilds the run from
/// the spec JSON it carries — topology, placement, parameters, node states
/// all re-derived exactly as the coordinator derived them — and then serves
/// the round loop until the coordinator's Finish frame.
///
/// Workers are stateless between sessions: everything a session needs
/// arrives in its hello.
pub fn serve_shard_conn(
    stream: &mut IoStream,
    registry: &dyn ScenarioRegistry,
) -> Result<(), SimError> {
    let ours = WireHello::current(SPEC_VERSION);
    let theirs = stream
        .exchange_hello(&ours, HELLO_DEADLINE)
        .map_err(|e| SimError::Engine(RunError::Fleet(format!("shard handshake: {e}"))))?;
    let assignment = theirs.assignment.ok_or_else(|| {
        SimError::Spec("coordinator hello carried no shard assignment".to_string())
    })?;
    let text = std::str::from_utf8(&assignment.payload)
        .map_err(|_| SimError::Spec("shard assignment payload is not UTF-8".to_string()))?;
    let spec = RunSpec::from_json(text)?;
    let prepared = PreparedRun::new(&spec)?;
    let n = prepared.topology.len();
    if assignment.n as usize != n {
        return Err(SimError::Spec(format!(
            "shard assignment says n = {}, rebuilt topology has {n} nodes",
            assignment.n
        )));
    }
    let (start, end) = (assignment.start as usize, assignment.end as usize);
    if start > end || end > n {
        return Err(SimError::Spec(format!(
            "shard assignment range {start}..{end} out of bounds for n = {n}"
        )));
    }
    let estimator = registry.estimator(&prepared.spec, &prepared.params)?;
    estimator.serve_shard(&prepared.context(None, None), &assignment, stream)
}

/// A [`WireError`] surfaced while serving a shard connection, as a
/// [`SimError`] (used by accept loops that keep serving after a bad peer).
pub fn shard_serve_error(err: WireError) -> SimError {
    SimError::Engine(RunError::Fleet(format!("shard connection: {err}")))
}

/// Execute one validated [`RunSpec`] through a registry.
pub fn execute_spec(
    spec: &RunSpec,
    registry: &dyn ScenarioRegistry,
) -> Result<RunReport, SimError> {
    PreparedRun::new(spec)?.execute(registry)
}

/// Execute a whole [`BatchSpec`] through a registry, runs in parallel.
pub fn execute_batch(
    spec: &BatchSpec,
    registry: &dyn ScenarioRegistry,
) -> Result<BatchReport, SimError> {
    execute_batch_workers(spec, registry, None, &[])
}

/// [`execute_spec`] with an optional [`Recorder`] observing the run and a
/// remote shard-worker fleet for distributed-engine runs: each run's shard
/// sessions connect to `workers` (shard `s` dials `workers[s % len]`)
/// instead of spawning in-process pipe threads.  An empty list is the
/// in-process fallback.  Pure observation and transport policy: the report
/// is byte-identical either way, and the spec never records either.
pub fn execute_spec_workers(
    spec: &RunSpec,
    registry: &dyn ScenarioRegistry,
    recorder: Option<&dyn Recorder>,
    workers: &[String],
) -> Result<RunReport, SimError> {
    let prepared = PreparedRun::new(spec)?;
    if workers.is_empty() {
        prepared.execute_fleet(registry, recorder, None)
    } else {
        let fleet = prepared.remote_fleet(workers.to_vec());
        prepared.execute_fleet(registry, recorder, Some(&fleet))
    }
}

/// [`execute_batch`] with an optional [`Recorder`] shared by every run
/// (recorders are `Sync`) and a remote shard-worker fleet (see
/// [`execute_spec_workers`]).  Runs still execute in parallel; each run
/// opens its own shard sessions against the shared worker addresses.
pub fn execute_batch_workers(
    spec: &BatchSpec,
    registry: &dyn ScenarioRegistry,
    recorder: Option<&dyn Recorder>,
    workers: &[String],
) -> Result<BatchReport, SimError> {
    spec.validate()?;
    let mut spec = spec.clone();
    spec.migrate();
    let runs: Result<Vec<RunReport>, SimError> = spec
        .expand()
        .into_par_iter()
        .map(|run_spec| execute_spec_workers(&run_spec, registry, recorder, workers))
        .collect::<Vec<Result<RunReport, SimError>>>()
        .into_iter()
        .collect();
    Ok(BatchReport::from_runs(spec, runs?))
}

/// Builder for [`Simulation`]s; see the module docs.
#[derive(Clone, Debug)]
pub struct SimulationBuilder {
    topology: Option<TopologySpec>,
    workload: WorkloadSpec,
    placement: PlacementSpec,
    adversary: AdversarySpec,
    fault: FaultSpec,
    engine: EngineSpec,
    params: ParamsSpec,
    seeds: SeedPolicy,
    sizes: Option<Vec<usize>>,
    max_rounds: Option<u64>,
    recorder: Option<RecorderHandle>,
}

impl Default for SimulationBuilder {
    fn default() -> Self {
        SimulationBuilder {
            topology: None,
            workload: WorkloadSpec::Byzantine,
            placement: PlacementSpec::None,
            adversary: AdversarySpec::Null,
            fault: FaultSpec::None,
            engine: EngineSpec::Sync,
            params: ParamsSpec::default(),
            seeds: SeedPolicy::Fixed(0),
            sizes: None,
            max_rounds: None,
            recorder: None,
        }
    }
}

impl SimulationBuilder {
    /// The communication topology (required).
    pub fn topology(mut self, topology: TopologySpec) -> Self {
        self.topology = Some(topology);
        self
    }

    /// The workload to execute (default: Algorithm 2).
    pub fn workload(mut self, workload: WorkloadSpec) -> Self {
        self.workload = workload;
        self
    }

    /// Byzantine placement (default: none).
    pub fn placement(mut self, placement: PlacementSpec) -> Self {
        self.placement = placement;
        self
    }

    /// Adversary for counting workloads (default: null).
    pub fn adversary(mut self, adversary: AdversarySpec) -> Self {
        self.adversary = adversary;
        self
    }

    /// Network fault injection — loss, delay, churn, partitions (default:
    /// none, the paper's perfect synchronous network).
    pub fn fault(mut self, fault: FaultSpec) -> Self {
        self.fault = fault;
        self
    }

    /// Which engine implementation executes the run (default: the classic
    /// synchronous engine).  Pure execution policy — reports are
    /// byte-identical whichever engine runs the spec.
    pub fn engine(mut self, engine: EngineSpec) -> Self {
        self.engine = engine;
        self
    }

    /// Shorthand for [`engine`](Self::engine) with the sharded engine at
    /// the given shard count.
    pub fn shards(mut self, shards: u32) -> Self {
        self.engine = EngineSpec::Sharded { shards };
        self
    }

    /// Shorthand for [`engine`](Self::engine) with the event-driven async
    /// engine under the given clock plan
    /// ([`ClockPlan::Uniform`](netsim_runtime::ClockPlan::Uniform) keeps
    /// the synchronous byte-identity contract; heterogeneous plans open
    /// the asynchronous scenario space).
    pub fn async_clocks(mut self, clocks: netsim_runtime::ClockPlan) -> Self {
        self.engine = EngineSpec::Async { clocks };
        self
    }

    /// Shorthand for [`engine`](Self::engine) with the sharded
    /// event-driven engine: per-shard deferral rings and clock domains.
    /// The shard count is pure execution policy; the clock plan carries
    /// the same semantics as [`async_clocks`](Self::async_clocks).
    pub fn sharded_async(mut self, shards: u32, clocks: netsim_runtime::ClockPlan) -> Self {
        self.engine = EngineSpec::ShardedAsync { shards, clocks };
        self
    }

    /// Shorthand for [`engine`](Self::engine) with the distributed engine
    /// at the given worker count: shard workers speaking the `netsim-wire`
    /// binary codec over checksummed channels, coordinated centrally.
    /// Like [`shards`](Self::shards), pure execution policy.
    pub fn distributed(mut self, shards: u32) -> Self {
        self.engine = EngineSpec::Distributed { shards };
        self
    }

    /// Protocol parameters (default: derived with `δ = 0.6`, `ε = 0.1`).
    pub fn params(mut self, params: ParamsSpec) -> Self {
        self.params = params;
        self
    }

    /// Derived parameters with explicit `δ` and `ε`.
    pub fn derived_params(mut self, delta: f64, epsilon: f64) -> Self {
        self.params = ParamsSpec::Derived { delta, epsilon };
        self
    }

    /// One run with this seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seeds = SeedPolicy::Fixed(seed);
        self
    }

    /// Multi-seed policy for batches.
    pub fn seeds(mut self, seeds: SeedPolicy) -> Self {
        self.seeds = seeds;
        self
    }

    /// Network sizes to sweep in a batch (default: the topology's size).
    pub fn sizes(mut self, sizes: &[usize]) -> Self {
        self.sizes = Some(sizes.to_vec());
        self
    }

    /// Override the engine round cap.
    pub fn max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = Some(max_rounds);
        self
    }

    /// Attach a [`Recorder`] that observes every run this simulation
    /// executes (phase spans, counters, gauges).  Observation-only:
    /// reports are byte-identical with any recorder installed or none,
    /// and the recorder never enters the serializable spec.
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(RecorderHandle::new(recorder));
        self
    }

    /// Validate and freeze into a [`Simulation`].
    pub fn build(self) -> Result<Simulation, SimError> {
        let topology = self.topology.ok_or(SimError::Incomplete("a topology"))?;
        if self.seeds.seeds().is_empty() {
            return Err(SimError::Spec(
                "seed policy must produce at least one seed".into(),
            ));
        }
        let sim = Simulation {
            run: RunSpec {
                version: SPEC_VERSION,
                topology,
                workload: self.workload,
                placement: self.placement,
                adversary: self.adversary,
                fault: self.fault,
                engine: self.engine,
                params: self.params,
                seed: self.seeds.primary(),
                max_rounds: self.max_rounds,
            },
            seeds: self.seeds,
            sizes: self.sizes,
            recorder: self.recorder,
        };
        sim.run.validate()?;
        Ok(sim)
    }
}

/// A validated, executable simulation (single run or batch).
#[derive(Clone, Debug)]
pub struct Simulation {
    run: RunSpec,
    seeds: SeedPolicy,
    sizes: Option<Vec<usize>>,
    recorder: Option<RecorderHandle>,
}

impl Simulation {
    /// Start building a simulation.
    pub fn builder() -> SimulationBuilder {
        SimulationBuilder::default()
    }

    /// The single-run spec (the seed policy's primary seed).
    pub fn spec(&self) -> &RunSpec {
        &self.run
    }

    /// The campaign spec (all seeds and sizes).
    pub fn batch_spec(&self) -> BatchSpec {
        BatchSpec {
            version: SPEC_VERSION,
            run: self.run.clone(),
            seeds: self.seeds.clone(),
            sizes: self.sizes.clone(),
        }
    }

    /// The recorder attached at build time, if any.
    pub fn recorder(&self) -> Option<&dyn Recorder> {
        self.recorder.as_ref().map(RecorderHandle::as_dyn)
    }

    /// Execute a single run through an explicit registry.
    pub fn run_with(&self, registry: &dyn ScenarioRegistry) -> Result<RunReport, SimError> {
        execute_spec_workers(&self.run, registry, self.recorder(), &[])
    }

    /// Execute the batch through an explicit registry (parallel over runs).
    pub fn run_batch_with(&self, registry: &dyn ScenarioRegistry) -> Result<BatchReport, SimError> {
        execute_batch_workers(&self.batch_spec(), registry, self.recorder(), &[])
    }

    /// Execute a single run with the core-only registry (counting workloads,
    /// null adversary).  Use the facade's `.run()` for the full registry.
    pub fn run_core(&self) -> Result<RunReport, SimError> {
        self.run_with(&CoreRegistry)
    }

    /// Execute the batch with the core-only registry.
    pub fn run_batch_core(&self) -> Result<BatchReport, SimError> {
        self.run_batch_with(&CoreRegistry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_requires_a_topology() {
        assert!(matches!(
            Simulation::builder().build(),
            Err(SimError::Incomplete("a topology"))
        ));
    }

    #[test]
    fn single_run_through_core_registry() {
        let report = Simulation::builder()
            .topology(TopologySpec::SmallWorld { n: 128, d: 6 })
            .workload(WorkloadSpec::Basic)
            .seed(7)
            .build()
            .unwrap()
            .run_core()
            .unwrap();
        assert_eq!(report.n, 128);
        assert!(report.completed);
        assert!(report.estimate.decided > 100);
        assert!(report.counting.is_some());
    }

    #[test]
    fn identical_specs_give_identical_reports() {
        let build = || {
            Simulation::builder()
                .topology(TopologySpec::SmallWorld { n: 128, d: 6 })
                .workload(WorkloadSpec::Byzantine)
                .seed(21)
                .build()
                .unwrap()
        };
        let a = build().run_core().unwrap();
        let b = build().run_core().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn batches_aggregate_per_size() {
        let report = Simulation::builder()
            .topology(TopologySpec::SmallWorld { n: 64, d: 6 })
            .workload(WorkloadSpec::Basic)
            .seeds(SeedPolicy::Sequence { base: 3, count: 4 })
            .sizes(&[64, 128])
            .build()
            .unwrap()
            .run_batch_core()
            .unwrap();
        assert_eq!(report.runs.len(), 8);
        assert_eq!(report.aggregates.len(), 2);
        let small = report.aggregate_for(64).unwrap();
        assert_eq!(small.runs, 4);
        assert!(small.good_fraction.is_some());
    }

    #[test]
    fn core_registry_rejects_baselines_and_adversaries() {
        let err = Simulation::builder()
            .topology(TopologySpec::SmallWorld { n: 64, d: 6 })
            .workload(WorkloadSpec::GeometricSupport {
                ttl: None,
                attack: crate::sim::AttackSpec::None,
            })
            .build()
            .unwrap()
            .run_core()
            .unwrap_err();
        assert!(matches!(err, SimError::Unsupported(_)));
        let err = Simulation::builder()
            .topology(TopologySpec::SmallWorld { n: 64, d: 6 })
            .adversary(AdversarySpec::Combined)
            .placement(PlacementSpec::RandomBudget { delta: 0.6 })
            .build()
            .unwrap()
            .run_core()
            .unwrap_err();
        assert!(matches!(err, SimError::Unsupported(_)));
    }
}
