//! The common estimator interface all workloads run behind.
//!
//! An [`Estimator`] executes one workload over a materialized topology and
//! returns a [`WorkloadRun`]: per-node numeric estimates plus engine
//! metrics.  The two counting protocols implement it here; the four
//! baselines implement it in `byzcount-baselines`; anything else (custom
//! protocols, future workloads) can implement it downstream and plug into
//! the same [`SimulationBuilder`](crate::sim::SimulationBuilder) machinery.

use crate::node::CountingNode;
use crate::outcome::CountingOutcome;
use crate::params::ProtocolParams;
use crate::runner::{run_counting, Counting};
use crate::sim::error::SimError;
use crate::sim::spec::BuiltTopology;
use netsim_faults::FaultSpec;
use netsim_runtime::wire::{IoStream, ShardAssignment, Wire};
use netsim_runtime::{
    serve_shard_session, Adversary, EngineKind, Exec, NullAdversary, Protocol, Recorder,
    RemoteFleet, RunError, RunMetrics,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// What a workload's per-node outputs estimate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Estimand {
    /// A quantity proportional to `log₂ n` (counting phases, support
    /// maxima, flood arrival rounds).
    LogN,
    /// The network size `n` itself.
    N,
    /// A diameter proxy.
    Diameter,
}

impl Estimand {
    /// Ground-truth value for a network of `n` nodes, when defined.
    pub fn truth(&self, n: usize) -> Option<f64> {
        match self {
            Estimand::LogN => Some(netsim_graph::log2n(n)),
            Estimand::N => Some(n as f64),
            Estimand::Diameter => None,
        }
    }
}

/// Everything an estimator needs for one execution.
pub struct SimContext<'a> {
    /// The materialized topology.
    pub topology: &'a BuiltTopology,
    /// Byzantine mask.
    pub byzantine: &'a [bool],
    /// Execution seed (already an independent sub-stream of the spec seed).
    pub seed: u64,
    /// Engine round-cap override.
    pub max_rounds: Option<u64>,
    /// Network fault injection to apply to honest traffic.
    pub fault: &'a FaultSpec,
    /// Fault-stream seed (an independent sub-stream of the spec seed).
    pub fault_seed: u64,
    /// Which engine implementation executes the run (execution policy
    /// only: results are byte-identical across engines and shard counts).
    pub engine: EngineKind,
    /// Optional observer for phase spans, counters and gauges.
    /// Observation-only: reports are byte-identical with any recorder
    /// installed or none.
    pub recorder: Option<&'a dyn Recorder>,
    /// Optional remote shard-worker fleet for the distributed engine.
    /// Pure transport policy: reports are byte-identical whether shard
    /// workers run as in-process threads or remote processes.  Ignored by
    /// the non-distributed engines.
    pub fleet: Option<&'a RemoteFleet>,
}

impl<'a> SimContext<'a> {
    /// The engine inputs for this run: the context's engine, recorder and
    /// fleet, plus its [`FaultSpec`] materialized into a fresh plan (`None`
    /// when the spec is fault-free).  Churn eligibility is the honest
    /// complement of the Byzantine mask.
    pub fn exec(&self) -> Exec<'a> {
        let fault_plan = if self.fault.is_none() {
            None
        } else {
            let honest: Vec<bool> = self.byzantine.iter().map(|b| !b).collect();
            self.fault
                .build_plan(self.topology.len(), &honest, self.fault_seed)
        };
        Exec {
            engine: self.engine,
            fault_plan,
            recorder: self.recorder,
            fleet: self.fleet,
        }
    }

    /// Serve one shard-worker session over `nodes`, the freshly built
    /// states for the global ids `assignment.start..assignment.end` — the
    /// shared body of every [`Estimator::serve_shard`].
    pub fn serve_nodes<P>(
        &self,
        assignment: &ShardAssignment,
        nodes: Vec<P>,
        chan: &mut IoStream,
    ) -> Result<(), SimError>
    where
        P: Protocol + Clone,
        P::Message: Wire,
        P::Output: Wire,
    {
        let range = assignment.range();
        let byzantine = self.byzantine[range.clone()].to_vec();
        serve_shard_session(self.topology, nodes, byzantine, assignment, chan).map_err(|e| {
            SimError::Engine(RunError::Fleet(format!("shard session ({range:?}): {e}")))
        })
    }
}

/// The raw result of one workload execution.
#[derive(Clone, Debug)]
pub struct WorkloadRun {
    /// What the numbers estimate.
    pub estimand: Estimand,
    /// Per-node estimate (`None` = crashed or undecided).
    pub per_node: Vec<Option<f64>>,
    /// Per-node crash flag.
    pub crashed: Vec<bool>,
    /// Engine metrics.
    pub metrics: RunMetrics,
    /// Whether every honest node decided or crashed before the round cap.
    pub completed: bool,
    /// The full counting outcome, when the workload was a counting protocol.
    pub counting: Option<CountingOutcome>,
}

/// A workload that can run over any topology.
pub trait Estimator: Send + Sync {
    /// Stable workload name for reports.
    fn name(&self) -> &'static str;

    /// What the per-node outputs estimate.
    fn estimand(&self) -> Estimand;

    /// Execute once.
    fn run(&self, ctx: &SimContext<'_>) -> Result<WorkloadRun, SimError>;

    /// Serve one shard-worker session for this workload: rebuild the node
    /// states for the global ids `assignment.start..assignment.end` exactly
    /// as [`run`](Self::run) would and drive them round-by-round under the
    /// dialing coordinator's commands until its Finish frame.
    ///
    /// `ctx` is the worker's reconstruction of the coordinator's context
    /// (same spec, same derived seeds); `chan` is the already-handshaken
    /// coordinator connection.  The default declines — only workloads whose
    /// state construction is a pure function of `(spec, global node id)`
    /// can serve shards, which is exactly what the distributed engine's
    /// byte-identity contract requires.
    fn serve_shard(
        &self,
        ctx: &SimContext<'_>,
        assignment: &ShardAssignment,
        chan: &mut IoStream,
    ) -> Result<(), SimError> {
        let _ = (ctx, assignment, chan);
        Err(SimError::Unsupported(format!(
            "workload `{}` cannot serve shard-worker sessions",
            self.name()
        )))
    }
}

/// Builds a fresh adversary for each run of a counting workload (adversaries
/// are stateful and consumed by the engine, so batches need a factory, not
/// an instance).
pub trait AdversaryFactory: Send + Sync {
    /// Build an adversary for this execution.
    fn build(
        &self,
        ctx: &SimContext<'_>,
        params: &ProtocolParams,
    ) -> Result<Box<dyn Adversary<CountingNode>>, SimError>;
}

/// The factory for [`NullAdversary`].
#[derive(Clone, Copy, Debug, Default)]
pub struct NullAdversaryFactory;

impl AdversaryFactory for NullAdversaryFactory {
    fn build(
        &self,
        _ctx: &SimContext<'_>,
        _params: &ProtocolParams,
    ) -> Result<Box<dyn Adversary<CountingNode>>, SimError> {
        Ok(Box::new(NullAdversary))
    }
}

/// Closures are factories.
impl<F> AdversaryFactory for F
where
    F: Fn(&SimContext<'_>, &ProtocolParams) -> Result<Box<dyn Adversary<CountingNode>>, SimError>
        + Send
        + Sync,
{
    fn build(
        &self,
        ctx: &SimContext<'_>,
        params: &ProtocolParams,
    ) -> Result<Box<dyn Adversary<CountingNode>>, SimError> {
        self(ctx, params)
    }
}

/// Algorithm 1 or Algorithm 2 as an [`Estimator`].
pub struct CountingEstimator {
    params: ProtocolParams,
    verify: bool,
    adversary: Arc<dyn AdversaryFactory>,
}

impl CountingEstimator {
    /// Algorithm 1 (no verification).
    pub fn basic(params: ProtocolParams, adversary: Arc<dyn AdversaryFactory>) -> Self {
        CountingEstimator {
            params,
            verify: false,
            adversary,
        }
    }

    /// Algorithm 2 (Byzantine-tolerant).
    pub fn byzantine(params: ProtocolParams, adversary: Arc<dyn AdversaryFactory>) -> Self {
        CountingEstimator {
            params,
            verify: true,
            adversary,
        }
    }

    /// The parameters this estimator runs with.
    pub fn params(&self) -> &ProtocolParams {
        &self.params
    }

    /// The protocol choice and round cap shared by [`Estimator::run`] and
    /// [`Estimator::serve_shard`].
    fn counting(&self, ctx: &SimContext<'_>) -> Counting {
        Counting {
            params: self.params,
            verify: self.verify,
            max_rounds: ctx.max_rounds,
        }
    }
}

impl Estimator for CountingEstimator {
    fn name(&self) -> &'static str {
        if self.verify {
            "byzantine-counting"
        } else {
            "basic-counting"
        }
    }

    fn estimand(&self) -> Estimand {
        Estimand::LogN
    }

    fn run(&self, ctx: &SimContext<'_>) -> Result<WorkloadRun, SimError> {
        let adversary = self.adversary.build(ctx, &self.params)?;
        let outcome = run_counting(
            ctx.topology,
            self.counting(ctx),
            ctx.byzantine,
            adversary,
            ctx.seed,
            ctx.exec(),
        )?;
        Ok(WorkloadRun {
            estimand: Estimand::LogN,
            per_node: outcome
                .estimates
                .iter()
                .map(|e| e.map(|p| p as f64))
                .collect(),
            crashed: outcome.crashed.clone(),
            metrics: outcome.metrics.clone(),
            completed: outcome.completed,
            counting: Some(outcome),
        })
    }

    fn serve_shard(
        &self,
        ctx: &SimContext<'_>,
        a: &ShardAssignment,
        chan: &mut IoStream,
    ) -> Result<(), SimError> {
        ctx.serve_nodes(a, self.counting(ctx).nodes(a.range()), chan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::spec::TopologySpec;

    #[test]
    fn estimand_truths() {
        assert_eq!(Estimand::LogN.truth(1024), Some(10.0));
        assert_eq!(Estimand::N.truth(77), Some(77.0));
        assert_eq!(Estimand::Diameter.truth(10), None);
    }

    #[test]
    fn counting_estimator_runs_over_built_topology() {
        let topo = TopologySpec::SmallWorld { n: 128, d: 6 }.build(3).unwrap();
        let params = ProtocolParams::for_degree(6, 0.6, 0.1);
        let est = CountingEstimator::basic(params, Arc::new(NullAdversaryFactory));
        let byz = vec![false; 128];
        let ctx = SimContext {
            topology: &topo,
            byzantine: &byz,
            seed: 1,
            max_rounds: None,
            fault: &FaultSpec::None,
            fault_seed: 0,
            engine: EngineKind::Sync,
            recorder: None,
            fleet: None,
        };
        let run = est.run(&ctx).unwrap();
        assert!(run.completed);
        assert_eq!(run.per_node.len(), 128);
        assert!(run.counting.is_some());
        assert_eq!(run.estimand, Estimand::LogN);
    }
}
