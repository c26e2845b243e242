//! # byzcount-baselines
//!
//! Non-Byzantine-tolerant network size estimators, used to reproduce the
//! paper's motivating observations (Section 1.2):
//!
//! * [`GeometricSupportEstimator`] — every node draws a geometric color and
//!   the network floods the maximum; the maximum concentrates around
//!   `log₂ n`.  Accurate without faults, broken by a single Byzantine node
//!   that either fakes a huge color or suppresses the true maximum.
//! * [`ExponentialSupportEstimator`] — support estimation with exponential
//!   variables (min-aggregation, averaged over repetitions); same failure
//!   mode, in the opposite direction (a faked 0 makes `n̂` explode).
//! * [`SpanningTreeCounter`] — BFS spanning tree plus converge-cast: exact
//!   count without faults, arbitrarily corruptible by one Byzantine node on
//!   the tree.
//! * [`FloodDiameterEstimator`] — a designated leader floods a token and
//!   every node uses its first-arrival round as a proxy for `log n`
//!   (requires an honest, pre-agreed leader — itself unobtainable in the
//!   Byzantine setting, which is the paper's point).
//!
//! Every estimator runs on the same [`netsim_runtime`] engine as the real
//! protocol, and [`BaselineAttack`] provides the minimal Byzantine
//! behaviours (value inflation / suppression) that demonstrate their
//! fragility for experiment E4.

pub mod attack;
pub mod exponential;
pub mod flood_diameter;
pub mod geometric;
pub mod spanning_tree;
pub mod workloads;

pub use attack::BaselineAttack;
pub use exponential::{
    exponential_support_nodes, run_exponential_support, ExponentialSupportEstimator,
};
pub use flood_diameter::{flood_diameter_nodes, run_flood_diameter, FloodDiameterEstimator};
pub use geometric::{geometric_support_nodes, run_geometric_support, GeometricSupportEstimator};
pub use spanning_tree::{run_spanning_tree_count, spanning_tree_nodes, SpanningTreeCounter};
pub use workloads::{
    attack_from_spec, ExponentialSupportWorkload, FloodDiameterWorkload, GeometricSupportWorkload,
    SpanningTreeWorkload,
};

use netsim_runtime::{
    run_with_engine, EngineConfig, Exec, NullAdversary, Protocol, RunError, RunResult, Topology,
};
use netsim_wire::Wire;

/// Run baseline `nodes` until every honest node decides or `max_rounds`
/// pass.  Baselines model Byzantine behaviour inside their node states,
/// so the engine's adversary is always the null one.
fn run_baseline<T, P>(
    topo: &T,
    nodes: Vec<P>,
    byzantine: &[bool],
    max_rounds: u64,
    seed: u64,
    exec: Exec<'_>,
) -> Result<RunResult<P::Output>, RunError>
where
    T: Topology,
    P: Protocol + Clone + Send + Sync + 'static,
    P::Output: Send + Wire,
    P::Message: Wire,
{
    let config = EngineConfig {
        max_rounds,
        stop_when_all_decided: true,
    };
    run_with_engine(
        topo,
        nodes,
        byzantine.to_vec(),
        NullAdversary,
        config,
        seed,
        exec,
    )
}
