//! Per-node virtual clocks.
//!
//! A [`ClockPlan`] maps each node's clock onto the global tick counter: a
//! node with period `p` steps every `p` ticks.  Under a synchronous plan
//! every node steps every tick, which is the paper's round model; other
//! plans leave it (slow nodes miss ticks, and their mailboxes batch
//! several ticks' arrivals into one step) while staying fully
//! deterministic per spec and seed.  Under a heterogeneous plan each shard
//! keeps its nodes' pending steps in a [`DelayRing`](crate::DelayRing),
//! the same ring that holds its delayed envelopes.

use crate::engine::splitmix;

/// How each node's virtual clock maps onto the global tick counter.
///
/// A node with period `p` runs one protocol step every `p` ticks (first
/// step at tick 0).  `Uniform` — every period 1 — is the synchronous
/// model, under which every engine layout is contractually
/// byte-identical to [`SyncEngine`](crate::SyncEngine).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ClockPlan {
    /// Every node steps every tick (the synchronous model).
    #[default]
    Uniform,
    /// Every `every`-th node (`node % every == 0`) runs slow, at `period`
    /// ticks per step; the rest step every tick.  A deterministic,
    /// seed-independent heterogeneity: the same nodes are slow in every
    /// run of the spec.
    Stratified {
        /// Stride selecting the slow nodes (≥ 1; `1` = every node slow).
        every: u32,
        /// Step period of the slow nodes (≥ 1).
        period: u32,
    },
    /// Every node draws its period uniformly from `1..=max_period`,
    /// derived from the run seed (SplitMix64 per node) — decorrelated
    /// from every protocol RNG stream, and reproducible per spec+seed.
    Jittered {
        /// Largest period a node can draw (≥ 1; `1` = synchronous).
        max_period: u32,
    },
}

/// Seed-stream tag for [`ClockPlan::Jittered`] period derivation, keeping
/// clock randomness decorrelated from the node RNG streams (which use the
/// plain node index).
const CLOCK_STREAM: u64 = 0xC10C_0000_0000_0000;

impl ClockPlan {
    /// The step period of `node` under this plan (≥ 1), for a run seeded
    /// with `seed`.
    pub fn period_of(&self, node: usize, seed: u64) -> u64 {
        match *self {
            ClockPlan::Uniform => 1,
            ClockPlan::Stratified { every, period } => {
                if node.is_multiple_of(every.max(1) as usize) {
                    period.max(1) as u64
                } else {
                    1
                }
            }
            ClockPlan::Jittered { max_period } => {
                let max = max_period.max(1) as u64;
                splitmix(seed ^ CLOCK_STREAM, node as u64) % max + 1
            }
        }
    }

    /// True when every node's period is 1 — the plans for which the
    /// synchronous-parity contract applies, and under which the engine
    /// schedules no per-node steps.
    pub fn is_synchronous(&self) -> bool {
        match *self {
            ClockPlan::Uniform => true,
            ClockPlan::Stratified { period, .. } => period == 1,
            ClockPlan::Jittered { max_period } => max_period == 1,
        }
    }

    /// Check the plan is well-formed.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            ClockPlan::Uniform => Ok(()),
            ClockPlan::Stratified { every: 0, .. } => {
                Err("stratified clocks need a stride of at least 1".into())
            }
            ClockPlan::Stratified { period: 0, .. } => {
                Err("stratified clocks need a period of at least 1".into())
            }
            ClockPlan::Stratified { .. } => Ok(()),
            ClockPlan::Jittered { max_period: 0 } => {
                Err("jittered clocks need a max period of at least 1".into())
            }
            ClockPlan::Jittered { .. } => Ok(()),
        }
    }

    /// Short stable label (used in engine descriptions and bench reports).
    pub fn describe(&self) -> String {
        match *self {
            ClockPlan::Uniform => "uniform".into(),
            ClockPlan::Stratified { every, period } => format!("strat-{every}x{period}"),
            ClockPlan::Jittered { max_period } => format!("jitter-{max_period}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_plans_resolve_and_validate() {
        assert_eq!(ClockPlan::Uniform.period_of(17, 9), 1);
        assert!(ClockPlan::Uniform.is_synchronous());
        let strat = ClockPlan::Stratified {
            every: 3,
            period: 4,
        };
        assert_eq!(strat.period_of(0, 9), 4);
        assert_eq!(strat.period_of(1, 9), 1);
        assert_eq!(strat.period_of(3, 9), 4);
        assert!(!strat.is_synchronous());
        assert!(strat.validate().is_ok());
        assert!(ClockPlan::Stratified {
            every: 0,
            period: 2
        }
        .validate()
        .is_err());
        assert!(ClockPlan::Stratified {
            every: 2,
            period: 0
        }
        .validate()
        .is_err());
        assert!(ClockPlan::Jittered { max_period: 0 }.validate().is_err());
        let jitter = ClockPlan::Jittered { max_period: 3 };
        assert!(jitter.validate().is_ok());
        for node in 0..50 {
            let p = jitter.period_of(node, 123);
            assert!((1..=3).contains(&p));
            assert_eq!(p, jitter.period_of(node, 123), "seed-deterministic");
        }
        assert!(ClockPlan::Jittered { max_period: 1 }.is_synchronous());
        assert_eq!(ClockPlan::Uniform.describe(), "uniform");
        assert_eq!(strat.describe(), "strat-3x4");
        assert_eq!(jitter.describe(), "jitter-3");
    }
}
