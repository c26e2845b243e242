//! The baseline estimators behind the unified [`Estimator`] interface.
//!
//! Each wrapper adapts one `run_*` baseline to
//! [`byzcount_core::sim::Estimator`], so baselines run through the same
//! [`SimulationBuilder`](byzcount_core::sim::SimulationBuilder), produce the
//! same [`RunReport`](byzcount_core::sim::RunReport)s and batch the same way
//! as the real protocols.
//!
//! # Round horizons
//!
//! Every horizon is resolved here, in one place that both the coordinator's
//! [`Estimator::run`] and a shard worker's [`Estimator::serve_shard`] call,
//! so the two can never drift apart.  Precedence: the workload's own field
//! (`ttl` / `max_rounds`), then the spec's `RunSpec.max_rounds`, then a
//! value derived from `n`:
//!
//! | Workload | Derived horizon | Engine round cap |
//! | --- | --- | --- |
//! | geometric / exponential support | TTL `⌈3·log₂ n⌉ + 5` | `ttl + 4` |
//! | flood diameter | TTL `max(⌈3·log₂ n⌉ + 5, n)` | `ttl + 4` |
//! | spanning tree | cap `max(4·(⌈3·log₂ n⌉ + 5), 2n + 8)` | the cap |
//!
//! A spec-level `max_rounds = m` becomes TTL `max(m − 4, 1)` for the TTL
//! workloads, so their engine cap is `m` (for `m ≥ 5`).  The flood and
//! spanning-tree derivations are linear in `n` so that trees and other
//! high-diameter graphs still complete; at `n = 2048` the spanning tree's
//! cap is 4,104 rounds.

use crate::attack::BaselineAttack;
use crate::{
    exponential_support_nodes, flood_diameter_nodes, geometric_support_nodes,
    run_exponential_support, run_flood_diameter, run_geometric_support, run_spanning_tree_count,
    spanning_tree_nodes,
};
use byzcount_core::sim::{AttackSpec, Estimand, Estimator, SimContext, SimError, WorkloadRun};
use netsim_graph::log2n;
use netsim_runtime::wire::{IoStream, ShardAssignment};
use netsim_runtime::RunResult;

/// Map the spec-layer attack to the baseline crate's enum.
pub fn attack_from_spec(spec: AttackSpec) -> BaselineAttack {
    match spec {
        AttackSpec::None => BaselineAttack::None,
        AttackSpec::Inflate => BaselineAttack::Inflate,
        AttackSpec::Suppress => BaselineAttack::Suppress,
    }
}

/// Default flooding horizon: comfortably above expander diameters.
fn default_ttl(n: usize) -> u64 {
    (3.0 * log2n(n)).ceil() as u64 + 5
}

/// TTL precedence: explicit workload field, then the spec's round cap less
/// the engine's 4-round slack, then the derived default.
fn resolve_ttl(explicit: Option<u64>, ctx: &SimContext<'_>, derived: u64) -> u64 {
    explicit
        .or(ctx.max_rounds.map(|m| m.saturating_sub(4).max(1)))
        .unwrap_or(derived)
}

fn workload_run<O: Copy>(
    estimand: Estimand,
    result: RunResult<O>,
    to_f64: impl Fn(O) -> f64,
) -> WorkloadRun {
    WorkloadRun {
        estimand,
        per_node: result.outputs.iter().map(|o| o.map(&to_f64)).collect(),
        crashed: result.crashed,
        metrics: result.metrics,
        completed: result.completed,
        counting: None,
    }
}

/// Geometric support estimation (estimates `log₂ n`).
#[derive(Clone, Copy, Debug)]
pub struct GeometricSupportWorkload {
    /// Flooding horizon (`None` = derive from `n`).
    pub ttl: Option<u64>,
    /// Byzantine behaviour.
    pub attack: AttackSpec,
}

impl GeometricSupportWorkload {
    fn ttl(&self, ctx: &SimContext<'_>) -> u64 {
        resolve_ttl(self.ttl, ctx, default_ttl(ctx.topology.len()))
    }
}

impl Estimator for GeometricSupportWorkload {
    fn name(&self) -> &'static str {
        "geometric-support"
    }

    fn estimand(&self) -> Estimand {
        Estimand::LogN
    }

    fn run(&self, ctx: &SimContext<'_>) -> Result<WorkloadRun, SimError> {
        let attack = attack_from_spec(self.attack);
        let result = run_geometric_support(
            ctx.topology,
            ctx.byzantine,
            attack,
            self.ttl(ctx),
            ctx.seed,
            ctx.exec(),
        )?;
        Ok(workload_run(Estimand::LogN, result, |v| v as f64))
    }

    fn serve_shard(
        &self,
        ctx: &SimContext<'_>,
        a: &ShardAssignment,
        chan: &mut IoStream,
    ) -> Result<(), SimError> {
        let attack = attack_from_spec(self.attack);
        let nodes = geometric_support_nodes(ctx.byzantine, attack, self.ttl(ctx), a.range());
        ctx.serve_nodes(a, nodes, chan)
    }
}

/// Exponential support estimation (estimates `n`).
#[derive(Clone, Copy, Debug)]
pub struct ExponentialSupportWorkload {
    /// Flooding horizon (`None` = derive from `n`).
    pub ttl: Option<u64>,
    /// Byzantine behaviour.
    pub attack: AttackSpec,
}

impl ExponentialSupportWorkload {
    fn ttl(&self, ctx: &SimContext<'_>) -> u64 {
        resolve_ttl(self.ttl, ctx, default_ttl(ctx.topology.len()))
    }
}

impl Estimator for ExponentialSupportWorkload {
    fn name(&self) -> &'static str {
        "exponential-support"
    }

    fn estimand(&self) -> Estimand {
        Estimand::N
    }

    fn run(&self, ctx: &SimContext<'_>) -> Result<WorkloadRun, SimError> {
        let attack = attack_from_spec(self.attack);
        let result = run_exponential_support(
            ctx.topology,
            ctx.byzantine,
            attack,
            self.ttl(ctx),
            ctx.seed,
            ctx.exec(),
        )?;
        Ok(workload_run(Estimand::N, result, |v| v))
    }

    fn serve_shard(
        &self,
        ctx: &SimContext<'_>,
        a: &ShardAssignment,
        chan: &mut IoStream,
    ) -> Result<(), SimError> {
        let attack = attack_from_spec(self.attack);
        let nodes = exponential_support_nodes(ctx.byzantine, attack, self.ttl(ctx), a.range());
        ctx.serve_nodes(a, nodes, chan)
    }
}

/// BFS spanning tree + converge-cast (estimates `n` exactly when honest).
#[derive(Clone, Copy, Debug)]
pub struct SpanningTreeWorkload {
    /// Round cap (`None` = derive from `n`).
    pub max_rounds: Option<u64>,
    /// Byzantine behaviour.
    pub attack: AttackSpec,
}

impl Estimator for SpanningTreeWorkload {
    fn name(&self) -> &'static str {
        "spanning-tree"
    }

    fn estimand(&self) -> Estimand {
        Estimand::N
    }

    fn run(&self, ctx: &SimContext<'_>) -> Result<WorkloadRun, SimError> {
        let n = ctx.topology.len();
        // Converge-cast needs roughly two traversals plus slack; trees and
        // other high-diameter graphs get a cap linear in n.  Only the
        // coordinator's engine needs the cap: worker nodes do not carry it.
        let derived = (4 * default_ttl(n)).max(2 * n as u64 + 8);
        let max_rounds = self.max_rounds.or(ctx.max_rounds).unwrap_or(derived);
        let attack = attack_from_spec(self.attack);
        let result = run_spanning_tree_count(
            ctx.topology,
            ctx.byzantine,
            attack,
            max_rounds,
            ctx.seed,
            ctx.exec(),
        )?;
        Ok(workload_run(Estimand::N, result, |v| v as f64))
    }

    fn serve_shard(
        &self,
        ctx: &SimContext<'_>,
        a: &ShardAssignment,
        chan: &mut IoStream,
    ) -> Result<(), SimError> {
        let attack = attack_from_spec(self.attack);
        let nodes = spanning_tree_nodes(ctx.byzantine, attack, a.range());
        ctx.serve_nodes(a, nodes, chan)
    }
}

/// Leader flood; first-arrival rounds proxy the diameter.
#[derive(Clone, Copy, Debug)]
pub struct FloodDiameterWorkload {
    /// Flooding horizon (`None` = derive from `n`).
    pub ttl: Option<u64>,
    /// Byzantine behaviour.
    pub attack: AttackSpec,
}

impl FloodDiameterWorkload {
    fn ttl(&self, ctx: &SimContext<'_>) -> u64 {
        let n = ctx.topology.len();
        resolve_ttl(self.ttl, ctx, default_ttl(n).max(n as u64))
    }
}

impl Estimator for FloodDiameterWorkload {
    fn name(&self) -> &'static str {
        "flood-diameter"
    }

    fn estimand(&self) -> Estimand {
        Estimand::Diameter
    }

    fn run(&self, ctx: &SimContext<'_>) -> Result<WorkloadRun, SimError> {
        let attack = attack_from_spec(self.attack);
        let result = run_flood_diameter(
            ctx.topology,
            ctx.byzantine,
            attack,
            self.ttl(ctx),
            ctx.seed,
            ctx.exec(),
        )?;
        Ok(workload_run(Estimand::Diameter, result, |v| v as f64))
    }

    fn serve_shard(
        &self,
        ctx: &SimContext<'_>,
        a: &ShardAssignment,
        chan: &mut IoStream,
    ) -> Result<(), SimError> {
        let attack = attack_from_spec(self.attack);
        let nodes = flood_diameter_nodes(ctx.byzantine, attack, self.ttl(ctx), a.range());
        ctx.serve_nodes(a, nodes, chan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzcount_core::sim::TopologySpec;

    fn ctx_over<'a>(
        topo: &'a byzcount_core::sim::BuiltTopology,
        byz: &'a [bool],
    ) -> SimContext<'a> {
        SimContext {
            topology: topo,
            byzantine: byz,
            seed: 5,
            max_rounds: None,
            fault: &byzcount_core::sim::FaultSpec::None,
            fault_seed: 0,
            engine: byzcount_core::sim::EngineKind::Sync,
            recorder: None,
            fleet: None,
        }
    }

    #[test]
    fn all_four_baselines_run_via_the_estimator_trait() {
        let topo = TopologySpec::SmallWorldH { n: 200, d: 6 }.build(2).unwrap();
        let byz = vec![false; 200];
        let ctx = ctx_over(&topo, &byz);
        let estimators: Vec<Box<dyn Estimator>> = vec![
            Box::new(GeometricSupportWorkload {
                ttl: None,
                attack: AttackSpec::None,
            }),
            Box::new(ExponentialSupportWorkload {
                ttl: None,
                attack: AttackSpec::None,
            }),
            Box::new(SpanningTreeWorkload {
                max_rounds: None,
                attack: AttackSpec::None,
            }),
            Box::new(FloodDiameterWorkload {
                ttl: None,
                attack: AttackSpec::None,
            }),
        ];
        for est in estimators {
            let run = est
                .run(&ctx)
                .unwrap_or_else(|e| panic!("{}: {e}", est.name()));
            assert!(run.completed, "{} did not complete", est.name());
            assert_eq!(run.per_node.len(), 200, "{}", est.name());
            assert!(run.counting.is_none());
        }
    }

    #[test]
    fn spanning_tree_counts_exactly_when_honest() {
        let topo = TopologySpec::SmallWorldH { n: 300, d: 6 }.build(4).unwrap();
        let byz = vec![false; 300];
        let ctx = ctx_over(&topo, &byz);
        let run = SpanningTreeWorkload {
            max_rounds: None,
            attack: AttackSpec::None,
        }
        .run(&ctx)
        .unwrap();
        // The root (node 0) learns the exact count.
        assert_eq!(run.per_node[0], Some(300.0));
    }

    #[test]
    fn inflation_attack_shows_up_in_the_estimates() {
        let topo = TopologySpec::SmallWorldH { n: 200, d: 6 }.build(2).unwrap();
        let mut byz = vec![false; 200];
        byz[100] = true;
        let ctx = ctx_over(&topo, &byz);
        let clean = GeometricSupportWorkload {
            ttl: None,
            attack: AttackSpec::None,
        }
        .run(&ctx_over(&topo, &[false; 200]))
        .unwrap();
        let attacked = GeometricSupportWorkload {
            ttl: None,
            attack: AttackSpec::Inflate,
        }
        .run(&ctx)
        .unwrap();
        let max = |run: &WorkloadRun| {
            run.per_node
                .iter()
                .flatten()
                .fold(f64::MIN, |a, &b| a.max(b))
        };
        assert!(max(&attacked) > max(&clean), "inflated color must dominate");
    }
}
