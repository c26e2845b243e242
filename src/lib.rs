//! # byzcount — Byzantine network size estimation in small-world networks
//!
//! Facade crate re-exporting the public API of the workspace, which
//! reproduces *"Network Size Estimation in Small-World Networks under
//! Byzantine Faults"* (Chatterjee, Pandurangan, Robinson):
//!
//! * [`graph`] — the `H(n,d)` random regular graph, the small-world overlay
//!   `G = H ∪ L`, Watts–Strogatz and tree topologies, and the graph
//!   analytics used in the paper's analysis;
//! * [`runtime`] — a synchronous round-based message-passing simulator with
//!   full-information Byzantine adversaries;
//! * [`protocol`] — the counting protocols (Algorithm 1 and the
//!   Byzantine-tolerant Algorithm 2) and the unified
//!   [`sim`](byzcount_core::sim) API;
//! * [`adversary`] — concrete Byzantine strategies (color inflation,
//!   suppression, fake-chain topology lies, …);
//! * [`baselines`] — non-Byzantine-tolerant estimators the paper compares
//!   against conceptually (support estimation, converge-cast, flooding);
//! * [`analysis`] — campaign execution, the experiment harness, statistics
//!   and table rendering used to regenerate every quantitative claim;
//! * [`campaign`] — the campaign *service*: WAL-checkpointed, resumable
//!   sweeps served over a line-delimited socket protocol
//!   (`byzcount-cli serve` / `submit` / `watch`).
//!
//! ## Quickstart
//!
//! Every scenario goes through one typed entry point: the
//! [`Simulation`](prelude::Simulation) builder.  Compose a topology, a
//! workload, a Byzantine placement, an adversary and a seed policy; get
//! back a serializable [`RunReport`](prelude::RunReport) (or a batched
//! [`BatchReport`](prelude::BatchReport) with aggregate statistics).
//!
//! ```
//! use byzcount::prelude::*;
//!
//! // Algorithm 2 on a 512-node small-world network, the paper's n^{1-δ}
//! // Byzantine budget, and a full-information color-inflation adversary.
//! let report = Simulation::builder()
//!     .topology(TopologySpec::SmallWorld { n: 512, d: 8 })
//!     .workload(WorkloadSpec::Byzantine)
//!     .placement(PlacementSpec::RandomBudget { delta: 0.6 })
//!     .adversary(AdversarySpec::ColorInflation { timing: TimingSpec::Legal })
//!     .seed(42)
//!     .build()
//!     .unwrap()
//!     .run()
//!     .unwrap();
//!
//! // Theorem 1's guarantee: most honest nodes estimate log n well.
//! assert!(report.good_fraction().unwrap() > 0.8);
//!
//! // Reports and specs round-trip losslessly through JSON.
//! let reparsed = RunReport::from_json(&report.to_json()).unwrap();
//! assert_eq!(reparsed, report);
//! ```
//!
//! Multi-seed / multi-size campaigns run in parallel and aggregate:
//!
//! ```
//! use byzcount::prelude::*;
//!
//! let batch = Simulation::builder()
//!     .topology(TopologySpec::SmallWorld { n: 128, d: 6 })
//!     .workload(WorkloadSpec::Basic)
//!     .seeds(SeedPolicy::Sequence { base: 7, count: 8 })
//!     .sizes(&[128, 256])
//!     .build()
//!     .unwrap()
//!     .run_batch()
//!     .unwrap();
//! assert_eq!(batch.runs.len(), 16);
//! assert!(batch.aggregate_for(256).unwrap().good_fraction.unwrap().mean > 0.8);
//! ```
//!
//! The lower-level pieces remain available for protocol work: generate a
//! network with [`SmallWorldNetwork::generate_seeded`](prelude::SmallWorldNetwork),
//! drive the engine directly with [`run_counting`](prelude::run_counting)
//! and an [`Exec`](prelude::Exec), or implement
//! [`Estimator`](byzcount_core::sim::Estimator) for a custom workload and
//! plug it into the same machinery.

pub use byzcount_adversary as adversary;
pub use byzcount_analysis as analysis;
pub use byzcount_baselines as baselines;
pub use byzcount_campaign as campaign;
pub use byzcount_core as protocol;
pub use netsim_graph as graph;
pub use netsim_runtime as runtime;
pub use netsim_runtime::faults;

/// The unified simulation API, re-exported from `byzcount_core::sim` with
/// the full scenario registry from `byzcount_analysis::campaign`.
pub mod sim {
    pub use byzcount_analysis::campaign::{
        execute, execute_batch, execute_batch_workers, execute_workers, FullRegistry, RunSimulation,
    };
    pub use byzcount_core::sim::*;
}

/// Structured tracing and phase-level metrics (re-exported from
/// `netsim_trace`): the [`trace::Recorder`] trait, the NDJSON
/// [`trace::TraceWriter`], the [`trace::PhaseProfiler`] and the
/// trace-file validator [`trace::check_trace`].
pub use netsim_runtime::trace;

/// Most commonly used items, re-exported flat.
pub mod prelude {
    pub use byzcount_adversary::{
        AdversaryKnowledge, ColorInflationAdversary, CombinedAdversary, CountingAdversary,
        FakeChainAdversary, HonestBehavingAdversary, InjectionTiming, Placement, SilentAdversary,
        SpecAdversaryFactory, SuppressionAdversary,
    };
    pub use byzcount_analysis::prelude::*;
    pub use byzcount_baselines::{
        run_exponential_support, run_flood_diameter, run_geometric_support,
        run_spanning_tree_count, BaselineAttack, ExponentialSupportWorkload, FloodDiameterWorkload,
        GeometricSupportWorkload, SpanningTreeWorkload,
    };
    pub use byzcount_core::sim::{
        AdversarySpec, AttackSpec, BatchReport, BatchSpec, ClockPlan, EngineSpec, Estimand,
        Estimator, ParamsSpec, PlacementSpec, PreparedRun, RunReport, RunSpec, SeedPolicy,
        SimContext, SimError, Simulation, SimulationBuilder, TimingSpec, TopologySpec,
        WorkloadSpec, SPEC_VERSION,
    };
    pub use byzcount_core::{
        run_counting, Counting, CountingNode, CountingOutcome, Decision, EstimateEvaluation,
        ProtocolParams, Schedule,
    };
    pub use netsim_graph::prelude::*;
    pub use netsim_runtime::prelude::*;
}
