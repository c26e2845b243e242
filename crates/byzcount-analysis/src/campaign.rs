//! Campaign execution: the full [`ScenarioRegistry`] and the convenience
//! `.run()` / `.run_batch()` methods on [`Simulation`].
//!
//! The [`FullRegistry`] interprets *every* spec variant: both counting
//! protocols with any [`AdversarySpec`](byzcount_core::sim::AdversarySpec) (via
//! [`byzcount_adversary::SpecAdversaryFactory`]) and all four baseline
//! workloads (via `byzcount_baselines::workloads`).  [`execute`] /
//! [`execute_batch`] run serialized specs end-to-end — this is what the
//! `byzcount-cli run` subcommand calls.

use byzcount_adversary::SpecAdversaryFactory;
use byzcount_baselines::workloads::{
    ExponentialSupportWorkload, FloodDiameterWorkload, GeometricSupportWorkload,
    SpanningTreeWorkload,
};
use byzcount_core::sim::{
    execute_batch as core_execute_batch, execute_batch_workers as core_execute_batch_workers,
    execute_spec as core_execute_spec, execute_spec_workers as core_execute_spec_workers,
    BatchReport, BatchSpec, CountingEstimator, Estimator, Recorder, RunReport, RunSpec,
    ScenarioRegistry, SimError, Simulation, WorkloadSpec,
};
use byzcount_core::ProtocolParams;
use std::sync::Arc;

/// The registry that understands every workload and adversary in the
/// workspace.
#[derive(Clone, Copy, Debug, Default)]
pub struct FullRegistry;

impl ScenarioRegistry for FullRegistry {
    fn estimator(
        &self,
        spec: &RunSpec,
        params: &ProtocolParams,
    ) -> Result<Arc<dyn Estimator>, SimError> {
        let adversary = Arc::new(SpecAdversaryFactory::new(spec.adversary));
        Ok(match spec.workload {
            WorkloadSpec::Basic => Arc::new(CountingEstimator::basic(*params, adversary)),
            WorkloadSpec::Byzantine => Arc::new(CountingEstimator::byzantine(*params, adversary)),
            WorkloadSpec::GeometricSupport { ttl, attack } => {
                Arc::new(GeometricSupportWorkload { ttl, attack })
            }
            WorkloadSpec::ExponentialSupport { ttl, attack } => {
                Arc::new(ExponentialSupportWorkload { ttl, attack })
            }
            WorkloadSpec::SpanningTree { max_rounds, attack } => {
                Arc::new(SpanningTreeWorkload { max_rounds, attack })
            }
            WorkloadSpec::FloodDiameter { ttl, attack } => {
                Arc::new(FloodDiameterWorkload { ttl, attack })
            }
        })
    }
}

/// Execute one [`RunSpec`] with the full registry.
pub fn execute(spec: &RunSpec) -> Result<RunReport, SimError> {
    core_execute_spec(spec, &FullRegistry)
}

/// Execute a [`BatchSpec`] with the full registry (parallel over runs).
pub fn execute_batch(spec: &BatchSpec) -> Result<BatchReport, SimError> {
    core_execute_batch(spec, &FullRegistry)
}

/// [`execute`] with an optional [`Recorder`] observing the run and a
/// remote shard-worker fleet for distributed-engine runs (in-process
/// fallback when `workers` is empty).  This is what `byzcount-cli run`
/// calls; reports are byte-identical with or without a recorder and
/// across transports.
pub fn execute_workers(
    spec: &RunSpec,
    recorder: Option<&dyn Recorder>,
    workers: &[String],
) -> Result<RunReport, SimError> {
    core_execute_spec_workers(spec, &FullRegistry, recorder, workers)
}

/// [`execute_batch`] with an optional [`Recorder`] observing every run and
/// a remote shard-worker fleet (see [`execute_workers`]).
pub fn execute_batch_workers(
    spec: &BatchSpec,
    recorder: Option<&dyn Recorder>,
    workers: &[String],
) -> Result<BatchReport, SimError> {
    core_execute_batch_workers(spec, &FullRegistry, recorder, workers)
}

/// `.run()` / `.run_batch()` on [`Simulation`], wired to the full registry.
pub trait RunSimulation {
    /// Execute a single run.
    fn run(&self) -> Result<RunReport, SimError>;
    /// Execute the multi-seed / multi-size batch.
    fn run_batch(&self) -> Result<BatchReport, SimError>;
}

impl RunSimulation for Simulation {
    fn run(&self) -> Result<RunReport, SimError> {
        self.run_with(&FullRegistry)
    }

    fn run_batch(&self) -> Result<BatchReport, SimError> {
        self.run_batch_with(&FullRegistry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzcount_core::sim::{AdversarySpec, AttackSpec, PlacementSpec, SeedPolicy, TopologySpec};

    #[test]
    fn full_registry_runs_byzantine_counting_under_attack() {
        let report = Simulation::builder()
            .topology(TopologySpec::SmallWorld { n: 256, d: 6 })
            .placement(PlacementSpec::RandomBudget { delta: 0.6 })
            .adversary(AdversarySpec::Combined)
            .seed(11)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(report.completed);
        assert!(report.byzantine_count > 0);
        let good = report.good_fraction().expect("counting workload");
        assert!(
            good > 0.5,
            "good fraction {good} too low under combined attack"
        );
    }

    #[test]
    fn full_registry_runs_baselines() {
        let report = Simulation::builder()
            .topology(TopologySpec::SmallWorldH { n: 256, d: 6 })
            .workload(WorkloadSpec::SpanningTree {
                max_rounds: None,
                attack: AttackSpec::None,
            })
            .seed(5)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(report.completed);
        assert_eq!(report.truth, Some(256.0));
    }

    #[test]
    fn batch_runs_in_parallel_and_aggregates() {
        let report = Simulation::builder()
            .topology(TopologySpec::SmallWorld { n: 128, d: 6 })
            .placement(PlacementSpec::RandomBudget { delta: 0.6 })
            .adversary(AdversarySpec::HonestBehaving)
            .seeds(SeedPolicy::Sequence { base: 1, count: 8 })
            .build()
            .unwrap()
            .run_batch()
            .unwrap();
        assert_eq!(report.runs.len(), 8);
        let agg = report.aggregate_for(128).unwrap();
        assert_eq!(agg.runs, 8);
        assert!(agg.good_fraction.unwrap().mean > 0.8);
        // Reports are canonical: the batch JSON round-trips losslessly.
        let json = report.to_json();
        let back = BatchReport::from_json(&json).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json(), json);
    }
}
