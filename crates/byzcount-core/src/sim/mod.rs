//! # The unified simulation API
//!
//! One typed entry point for every scenario the workspace can execute:
//! both counting protocols (Algorithms 1 and 2), all four baseline
//! estimators, every adversary, any [`Topology`](netsim_runtime::Topology)
//! (small-world, Watts–Strogatz, trees, raw CSR graphs), and batched
//! multi-seed / multi-size campaigns with aggregated statistics.
//!
//! The moving parts:
//!
//! * [`RunSpec`] / [`BatchSpec`] — versioned, JSON-serializable run
//!   descriptions ([`SPEC_VERSION`]); a spec plus its seed reproduces a run
//!   bit-for-bit on any machine.
//! * [`SimulationBuilder`] → [`Simulation`] — the typed builder that
//!   assembles specs and executes them.
//! * [`Estimator`] — the common interface all workloads run behind;
//!   implemented here for the counting protocols and in
//!   `byzcount-baselines` for the four baselines.
//! * [`ScenarioRegistry`] — maps spec variants to estimators.  The
//!   [`CoreRegistry`] covers counting + null adversary; the full registry
//!   (baselines, knowledge-based adversaries) is
//!   `byzcount_analysis::campaign::FullRegistry`, re-exported with
//!   convenience `.run()` / `.run_batch()` methods through the `byzcount`
//!   facade prelude.
//! * [`RunReport`] / [`BatchReport`] — deterministic, JSON-serializable
//!   result summaries ready for cross-run diffing.

mod builder;
mod error;
mod estimator;
mod report;
mod spec;

pub use builder::{
    execute_batch, execute_batch_workers, execute_spec, execute_spec_workers, serve_shard_conn,
    shard_serve_error, CoreRegistry, PreparedRun, RecorderHandle, ScenarioRegistry, Simulation,
    SimulationBuilder,
};
pub use error::SimError;
pub use estimator::{
    AdversaryFactory, CountingEstimator, Estimand, Estimator, NullAdversaryFactory, SimContext,
    WorkloadRun,
};
pub use report::{
    Aggregate, BatchReport, CountingSummary, EstimateStats, RunReport, SizeAggregate,
};
pub use spec::{
    cell_seed, AdversarySpec, AttackSpec, BatchSpec, BuiltTopology, EngineSpec, ParamsSpec,
    PlacementSpec, RunSpec, SeedPolicy, TimingSpec, TopologySpec, WorkloadSpec, SPEC_VERSION,
};

/// The runtime-side engine selection an [`EngineSpec`] resolves to, and
/// the async engine's per-node clock model (re-exported from
/// [`netsim_runtime`]).
pub use netsim_runtime::{
    ClockPlan, EngineKind, Exec, NoopRecorder, Recorder, RemoteFleet, RunError, ShardServeConfig,
};

/// The fault layer's serializable description, embedded in every
/// [`RunSpec`] (re-exported from [`netsim_faults`]).
pub use netsim_faults::FaultSpec;
