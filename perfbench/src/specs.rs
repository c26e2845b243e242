//! The specs each workload runs, all derived from the benchmark's
//! `--seed`: the program only ever sees these generated specs.

use byzcount::sim::{
    cell_seed, AdversarySpec, AttackSpec, BatchSpec, ClockPlan, EngineSpec, FaultSpec, ParamsSpec,
    PlacementSpec, RunReport, RunSpec, SeedPolicy, TopologySpec, WorkloadSpec, SPEC_VERSION,
};

/// Expander degree of every spec.
const D: usize = 6;
/// The paper's fault exponent: `⌊n^{1−δ}⌋` Byzantine nodes.
const DELTA: f64 = 0.6;

/// The spec seed of cell `index` of `workload` under benchmark seed `seed`.
pub fn spec_seed(seed: u64, workload: &str, index: usize) -> u64 {
    cell_seed(seed, workload, &format!("cell-{index}"), index)
}

/// Algorithm 2 on the small-world overlay `G` under the paper's budget
/// and the combined (inflation + suppression + fake-chain) adversary,
/// on a clean network.
pub fn counting(n: usize, seed: u64, engine: EngineSpec) -> RunSpec {
    RunSpec {
        version: SPEC_VERSION,
        topology: TopologySpec::SmallWorld { n, d: D },
        workload: WorkloadSpec::Byzantine,
        placement: PlacementSpec::RandomBudget { delta: DELTA },
        adversary: AdversarySpec::Combined,
        fault: FaultSpec::None,
        engine,
        params: ParamsSpec::Derived {
            delta: DELTA,
            epsilon: 0.1,
        },
        seed,
        max_rounds: None,
    }
}

/// The spanning-tree baseline on the expander `H` under light loss plus
/// bounded delay: thousands of near-empty ticks.
pub fn longhaul(n: usize, seed: u64, engine: EngineSpec) -> RunSpec {
    RunSpec {
        version: SPEC_VERSION,
        topology: TopologySpec::SmallWorldH { n, d: D },
        workload: WorkloadSpec::SpanningTree {
            max_rounds: None,
            attack: AttackSpec::None,
        },
        placement: PlacementSpec::None,
        adversary: AdversarySpec::Null,
        fault: FaultSpec::Compose(vec![
            FaultSpec::Loss { rate: 0.05 },
            FaultSpec::Delay {
                max_delay: 2,
                rate: 0.2,
            },
        ]),
        engine,
        params: ParamsSpec::Derived {
            delta: DELTA,
            epsilon: 0.1,
        },
        seed,
        max_rounds: None,
    }
}

/// The sharded event-driven engine with two shards and uniform clocks.
pub fn sharded_async_2() -> EngineSpec {
    EngineSpec::ShardedAsync {
        shards: 2,
        clocks: ClockPlan::Uniform,
    }
}

/// A batch of `cells` counting cells at size `n` with explicit seeds.
pub fn counting_batch(n: usize, seed: u64, workload: &str, job: usize, cells: usize) -> BatchSpec {
    let seeds = (0..cells)
        .map(|i| spec_seed(seed, workload, job * cells + i))
        .collect();
    BatchSpec {
        version: SPEC_VERSION,
        run: counting(n, 0, EngineSpec::Sync),
        seeds: SeedPolicy::Explicit(seeds),
        sizes: None,
    }
}

/// A report's JSON with the engine knob erased: the one spec field allowed
/// to differ between engines that must otherwise agree byte for byte.
pub fn normalized_json(report: &RunReport) -> String {
    let mut report = report.clone();
    report.spec.engine = EngineSpec::Sync;
    report.to_json()
}

/// Whether a report is a plausible output: a counting run completes; a
/// baseline run must have executed (the spanning tree under loss runs to
/// its round cap by design).
pub fn sane(report: &RunReport) -> bool {
    if report.counting.is_some() {
        report.completed
    } else {
        report.rounds > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_validate_and_seeds_are_distinct() {
        counting(64, 1, EngineSpec::Sync).validate().unwrap();
        counting(64, 1, EngineSpec::Distributed { shards: 2 })
            .validate()
            .unwrap();
        longhaul(64, 1, sharded_async_2()).validate().unwrap();
        counting_batch(64, 1, "campaign-sweep", 0, 4)
            .validate()
            .unwrap();
        assert_ne!(spec_seed(1, "w", 0), spec_seed(1, "w", 1));
        assert_ne!(spec_seed(1, "w", 0), spec_seed(2, "w", 0));
        assert_eq!(spec_seed(1, "w", 0), spec_seed(1, "w", 0));
    }
}
