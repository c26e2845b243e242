//! Shared helpers for the benchmark targets, plus the standardized
//! [`suite`] behind `byzcount-cli bench`.

pub mod suite;

use byzcount_core::sim::{AdversarySpec, PlacementSpec, Simulation, TopologySpec, WorkloadSpec};

/// A builder-API simulation of Algorithm 2 under the combined attack — the
/// canonical "how much does a full run cost" scenario.
pub fn combined_attack_sim(n: usize, d: usize, seed: u64) -> Simulation {
    Simulation::builder()
        .topology(TopologySpec::SmallWorld { n, d })
        .workload(WorkloadSpec::Byzantine)
        .placement(PlacementSpec::RandomBudget { delta: 0.6 })
        .adversary(AdversarySpec::Combined)
        .derived_params(0.6, 0.1)
        .seed(seed)
        .build()
        .expect("combined-attack spec")
}
