//! # byzcount-core
//!
//! The counting protocols of *"Network Size Estimation in Small-World
//! Networks under Byzantine Faults"* (Chatterjee, Pandurangan, Robinson):
//!
//! * [`node::CountingNode`] — the per-node state machine, in its
//!   [basic](node::CountingNode::basic_variant) (Algorithm 1) and
//!   [Byzantine-tolerant](node::CountingNode::byzantine_variant)
//!   (Algorithm 2) variants;
//! * [`params::ProtocolParams`] — the analytical constants (`a`, `b`, the
//!   level sizes `l_r`, the continuation thresholds, the Byzantine budget
//!   `n^{1−δ}`);
//! * [`schedule::Schedule`] — the phase / subphase / round structure and the
//!   repetition counts `α_i`;
//! * [`color`] — geometric colors and their distribution facts;
//! * [`discovery`] — neighbourhood reconstruction (Lemma 3) and the
//!   crash-on-conflict rule (Algorithm 2 line 2);
//! * [`runner`] — one-call execution over any [`netsim_runtime::Topology`]
//!   with any [`netsim_runtime::Adversary`];
//! * [`outcome`] — the Definition-1 evaluation of a run;
//! * [`sim`] — the unified simulation API: versioned, serializable
//!   [`RunSpec`](sim::RunSpec)s, the [`Simulation`] builder, the common
//!   [`Estimator`](sim::Estimator) interface, and parallel multi-seed /
//!   multi-size batches with aggregated statistics.
//!
//! The builder is the preferred entry point (`.run_core()` covers the
//! counting workloads in this crate; the `byzcount` facade's `.run()` adds
//! the baselines and every adversary):
//!
//! ```
//! use byzcount_core::sim::{Simulation, TopologySpec, WorkloadSpec};
//!
//! let report = Simulation::builder()
//!     .topology(TopologySpec::SmallWorld { n: 256, d: 8 })
//!     .workload(WorkloadSpec::Basic)
//!     .seed(42)
//!     .build()
//!     .unwrap()
//!     .run_core()
//!     .unwrap();
//! assert!(report.good_fraction().unwrap() > 0.9);
//! assert!(report.completed);
//! ```
//!
//! The direct runner [`run_counting`] remains for protocol-level work:
//!
//! ```
//! use byzcount_core::{run_counting, Counting, ProtocolParams};
//! use netsim_graph::SmallWorldNetwork;
//! use netsim_runtime::{Exec, NullAdversary};
//!
//! let net = SmallWorldNetwork::generate_seeded(256, 8, 1).unwrap();
//! let params = ProtocolParams::for_network_default_expansion(&net, 0.6, 0.1);
//! let honest = vec![false; 256];
//! let outcome = run_counting(
//!     &net,
//!     Counting::basic(params),
//!     &honest,
//!     NullAdversary,
//!     42,
//!     Exec::default(),
//! )
//! .unwrap();
//! let eval = outcome.evaluate();
//! assert!(eval.good_fraction_of_honest > 0.9);
//! ```

pub mod color;
pub mod discovery;
pub mod messages;
pub mod node;
pub mod outcome;
pub mod params;
pub mod runner;
pub mod schedule;
pub mod sim;

pub use color::{sample_color, Color, MAX_COLOR};
pub use discovery::{DiscoveryOutcome, ReconstructionAccuracy};
pub use messages::{CountingMessage, FloodPath};
pub use node::{CountingNode, Decision};
pub use outcome::{CountingOutcome, EstimateEvaluation};
pub use params::ProtocolParams;
pub use runner::{round_cap, run_counting, Counting};
pub use schedule::{PhasePosition, Position, Schedule, DISCOVERY_ROUNDS};
pub use sim::{Simulation, SimulationBuilder};
