//! The standardized performance suite behind `byzcount-cli bench`.
//!
//! One suite run executes the Byzantine counting protocol and all four
//! baseline estimators, each over a clean and a faulty network, at every
//! configured size, and reports machine-readable throughput numbers
//! (`BENCH_roundloop.json`): wall time of the protocol execution (node
//! construction + round loop, *excluding* graph generation), rounds/s,
//! messages/s and the process peak RSS.  Reports from two builds of the
//! workspace can be joined with [`BenchReport::apply_baseline`] to track
//! the perf trajectory across PRs — the measurement protocol (spec shapes,
//! seeds, best-of-N timing) is fixed here so the comparison stays fair.

use byzcount_analysis::FullRegistry;
use byzcount_core::sim::{
    AdversarySpec, AttackSpec, EngineSpec, FaultSpec, PlacementSpec, PreparedRun, RunSpec,
    SimError, TopologySpec, WorkloadSpec, SPEC_VERSION,
};
use netsim_runtime::trace::{PhaseProfile, PhaseProfiler};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Expander degree used by every suite spec.
const SUITE_D: usize = 6;
/// Fault exponent for the counting workload's Byzantine budget.
const SUITE_DELTA: f64 = 0.6;
/// Base seed; each entry derives its own spec seed from it.
pub const SUITE_SEED: u64 = 0xBE7C4;

/// Suite configuration.
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Network sizes to sweep.
    pub sizes: Vec<usize>,
    /// Base seed.
    pub seed: u64,
    /// Timed executions per entry at small sizes; the minimum wall time is
    /// reported (standard practice for throughput numbers).
    pub repeats: usize,
    /// Engine the suite specs run on (CLI `--shards S` selects the sharded
    /// engine, `--engine async` the event-driven engine with uniform
    /// clocks).  Results are byte-identical across these engines — the
    /// cell seeds, and hence baseline joins, are engine-independent — so
    /// this only changes *how fast* each cell executes.  (Heterogeneous
    /// async clock plans would change the runs themselves and are not
    /// suite configurations.)
    pub engine: EngineSpec,
    /// Attach a per-phase timing profile to every cell.  The profiled
    /// execution is an *extra* run after the timed repeats — the timed
    /// numbers always measure the bare engine with no recorder installed,
    /// so `--profile` never perturbs the throughput columns.
    pub profile: bool,
}

impl BenchConfig {
    /// The standard suite: `n ∈ {1024, 4096, 16384}`, best of 3 (best of 1
    /// at `n ≥ 16384`, where a single run is already seconds long).
    pub fn standard() -> Self {
        BenchConfig {
            sizes: vec![1024, 4096, 16384],
            seed: SUITE_SEED,
            repeats: 3,
            engine: EngineSpec::Sync,
            profile: false,
        }
    }

    /// The CI smoke suite: `n = 256`, one repeat — fast enough to run on
    /// every push, still covering every workload × network combination.
    pub fn smoke() -> Self {
        BenchConfig {
            sizes: vec![256],
            seed: SUITE_SEED,
            repeats: 1,
            engine: EngineSpec::Sync,
            profile: false,
        }
    }

    fn repeats_for(&self, n: usize) -> usize {
        if n >= 16384 {
            1
        } else {
            self.repeats.max(1)
        }
    }
}

/// One measured suite cell.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchEntry {
    /// Workload name (`byzantine-counting`, `spanning-tree`, …).
    pub workload: String,
    /// `clean` (perfect network) or `faulty` (loss + bounded delay).
    pub network: String,
    /// Network size.
    pub n: usize,
    /// The spec seed used.
    pub seed: u64,
    /// Timed executions this cell ran (minimum reported).
    pub repeats: usize,
    /// Graph generation + placement time, milliseconds (not part of the
    /// throughput numbers; recorded for context).
    pub setup_ms: f64,
    /// Best wall time of one protocol execution, milliseconds.
    pub wall_ms: f64,
    /// Rounds the execution ran.
    pub rounds: u64,
    /// Messages delivered by the execution.
    pub messages_delivered: u64,
    /// Rounds per second (rounds / best wall time).
    pub rounds_per_s: f64,
    /// Delivered messages per second.
    pub messages_per_s: f64,
    /// Peak RSS of this cell, in kB: the process high-water mark
    /// (`VmHWM`), reset to the current RSS before the cell's set-up and
    /// read after its last execution.  It still includes whatever the
    /// process holds from earlier cells.
    pub peak_rss_kb: u64,
    /// `rounds_per_s` of the matching entry in the baseline report, when a
    /// baseline was joined.
    pub baseline_rounds_per_s: Option<f64>,
    /// `rounds_per_s / baseline_rounds_per_s`, when a baseline was joined.
    pub speedup: Option<f64>,
    /// Per-phase timing profile from an extra profiled execution, when the
    /// suite ran with profiling on.  `None` in plain runs; reports from
    /// before the field existed (no `phases` key at all) still parse.
    pub phases: Option<PhaseProfile>,
}

/// The machine-readable suite report (`BENCH_roundloop.json`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Report schema version.
    pub schema: u32,
    /// Suite name.
    pub suite: String,
    /// Sizes swept.
    pub sizes: Vec<usize>,
    /// Base seed.
    pub seed: u64,
    /// Which engine executed the suite (`sync` / `sharded-S` / `async` /
    /// `sharded-async-S`).
    /// Absent in reports from before the engine knob existed, which all
    /// ran the classic engine.  Results are engine-independent by
    /// contract (heterogeneous async clock plans, which would break that
    /// contract, are rejected by [`run_suite`]), so a cross-engine
    /// `apply_baseline` join is legitimate — it measures the engines'
    /// relative throughput — but the report must say so.
    pub engine: Option<String>,
    /// Label of the joined baseline build, when one was given.
    pub baseline_label: Option<String>,
    /// Every measured cell, in suite order (size-major, workload-minor,
    /// clean before faulty).
    pub entries: Vec<BenchEntry>,
}

/// Current schema of [`BenchReport`].
pub const BENCH_SCHEMA: u32 = 1;

/// The five suite workloads, in fixed order.
pub fn suite_workloads() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec::Byzantine,
        WorkloadSpec::GeometricSupport {
            ttl: None,
            attack: AttackSpec::None,
        },
        WorkloadSpec::ExponentialSupport {
            ttl: None,
            attack: AttackSpec::None,
        },
        WorkloadSpec::SpanningTree {
            max_rounds: None,
            attack: AttackSpec::None,
        },
        WorkloadSpec::FloodDiameter {
            ttl: None,
            attack: AttackSpec::None,
        },
    ]
}

/// The suite's imperfect network: light i.i.d. loss plus bounded delay —
/// enough traffic through the loss/deferral paths to price them, without
/// changing which code dominates.
pub fn suite_fault() -> FaultSpec {
    FaultSpec::Compose(vec![
        FaultSpec::Loss { rate: 0.05 },
        FaultSpec::Delay {
            max_delay: 2,
            rate: 0.2,
        },
    ])
}

/// The spec one suite cell executes.
///
/// Counting runs Algorithm 2 on the full small-world overlay under the
/// paper's Byzantine budget (honest-behaving adversary, so the measurement
/// is the protocol loop, not adversary bookkeeping); baselines run on the
/// expander `H`, as everywhere else in the workspace.
pub fn suite_spec(workload: &WorkloadSpec, n: usize, faulty: bool, seed: u64) -> RunSpec {
    suite_spec_on(workload, n, faulty, seed, EngineSpec::Sync)
}

/// [`suite_spec`] with an explicit engine selection.
pub fn suite_spec_on(
    workload: &WorkloadSpec,
    n: usize,
    faulty: bool,
    seed: u64,
    engine: EngineSpec,
) -> RunSpec {
    let counting = workload.is_counting();
    RunSpec {
        version: SPEC_VERSION,
        engine,
        topology: if counting {
            TopologySpec::SmallWorld { n, d: SUITE_D }
        } else {
            TopologySpec::SmallWorldH { n, d: SUITE_D }
        },
        workload: workload.clone(),
        placement: if counting {
            PlacementSpec::RandomBudget { delta: SUITE_DELTA }
        } else {
            PlacementSpec::None
        },
        adversary: if counting {
            AdversarySpec::HonestBehaving
        } else {
            AdversarySpec::Null
        },
        fault: if faulty {
            suite_fault()
        } else {
            FaultSpec::None
        },
        params: byzcount_core::sim::ParamsSpec::Derived {
            delta: SUITE_DELTA,
            epsilon: 0.1,
        },
        seed,
        max_rounds: None,
    }
}

/// The spec seed of one suite cell — the workspace-wide identity-derived
/// [`cell_seed`] helper, re-exported from
/// `byzcount_core::sim` (where the campaign service shares it) so `--sizes`
/// subsets, reorderings and future suite extensions never change an
/// existing cell's seed — which is what keeps `apply_baseline` joins
/// comparing runs of the *same* topology and placement.
pub use byzcount_core::sim::cell_seed;

/// The `(workload, network, n)` triples a complete suite must contain, in
/// suite order.
pub fn expected_cells(sizes: &[usize]) -> Vec<(String, String, usize)> {
    let mut cells = Vec::new();
    for &n in sizes {
        for workload in suite_workloads() {
            for network in ["clean", "faulty"] {
                cells.push((workload.name().to_string(), network.to_string(), n));
            }
        }
    }
    cells
}

/// Reset the process peak RSS (`VmHWM`) to the current RSS, so the next
/// [`peak_rss_kb`] reads the peak since this call.  A no-op where the
/// kernel offers no reset.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Read the process peak RSS (`VmHWM`) in kB; 0 where unavailable.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")
                    .and_then(|rest| rest.split_whitespace().next())
                    .and_then(|kb| kb.parse().ok())
            })
        })
        .unwrap_or(0)
}

/// Run the whole suite.  `progress` receives one line per finished cell.
pub fn run_suite(
    cfg: &BenchConfig,
    mut progress: impl FnMut(&BenchEntry),
) -> Result<BenchReport, SimError> {
    // The suite's cells are defined over the synchronous model: a
    // heterogeneous clock plan would change the runs themselves, and
    // `apply_baseline` would then join semantically different executions
    // on the engine-independent cell seeds.  Refuse up front.
    if let netsim_runtime::EngineKind::Async { clocks }
    | netsim_runtime::EngineKind::ShardedAsync { clocks, .. } = cfg.engine.kind()
    {
        if !clocks.is_synchronous() {
            return Err(SimError::Spec(format!(
                "the bench suite only runs synchronous engines; async clock \
                 plan `{}` would change the measured runs themselves",
                clocks.describe()
            )));
        }
    }
    let mut entries = Vec::new();
    for &n in &cfg.sizes {
        for workload in suite_workloads() {
            for (faulty, network) in [(false, "clean"), (true, "faulty")] {
                let seed = cell_seed(cfg.seed, workload.name(), network, n);
                let spec = suite_spec_on(&workload, n, faulty, seed, cfg.engine);
                reset_peak_rss();
                let setup_start = Instant::now();
                let prepared = PreparedRun::new(&spec)?;
                let setup_ms = setup_start.elapsed().as_secs_f64() * 1e3;
                let repeats = cfg.repeats_for(n);
                let mut best = f64::INFINITY;
                let mut report = None;
                for _ in 0..repeats {
                    let start = Instant::now();
                    let run = prepared.execute(&FullRegistry)?;
                    let elapsed = start.elapsed().as_secs_f64();
                    if elapsed < best {
                        best = elapsed;
                    }
                    report = Some(run);
                }
                let report = report.expect("at least one repeat");
                // Profiling runs *after* the timed repeats on a fresh
                // profiler, so the throughput columns always measure the
                // bare engine (recorder checks only, no recorder work).
                let phases = if cfg.profile {
                    let profiler = PhaseProfiler::new();
                    let profiled = prepared.execute_fleet(&FullRegistry, Some(&profiler), None)?;
                    debug_assert_eq!(
                        profiled.rounds, report.rounds,
                        "recorders are observation-only"
                    );
                    Some(profiler.report())
                } else {
                    None
                };
                let secs = best.max(1e-9);
                let entry = BenchEntry {
                    workload: workload.name().to_string(),
                    network: network.to_string(),
                    n,
                    seed,
                    repeats,
                    setup_ms,
                    wall_ms: best * 1e3,
                    rounds: report.rounds,
                    messages_delivered: report.messages_delivered,
                    rounds_per_s: report.rounds as f64 / secs,
                    messages_per_s: report.messages_delivered as f64 / secs,
                    peak_rss_kb: peak_rss_kb(),
                    baseline_rounds_per_s: None,
                    speedup: None,
                    phases,
                };
                progress(&entry);
                entries.push(entry);
            }
        }
    }
    Ok(BenchReport {
        schema: BENCH_SCHEMA,
        suite: "roundloop".to_string(),
        sizes: cfg.sizes.clone(),
        seed: cfg.seed,
        engine: Some(cfg.engine.name()),
        baseline_label: None,
        entries,
    })
}

impl BenchReport {
    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("BenchReport serialization cannot fail")
    }

    /// Parse from JSON.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let report: BenchReport = serde_json::from_str(text).map_err(|e| e.to_string())?;
        if report.schema > BENCH_SCHEMA {
            return Err(format!(
                "bench report schema {} is newer than supported {BENCH_SCHEMA}",
                report.schema
            ));
        }
        Ok(report)
    }

    /// Look up a cell.
    pub fn entry(&self, workload: &str, network: &str, n: usize) -> Option<&BenchEntry> {
        self.entries
            .iter()
            .find(|e| e.workload == workload && e.network == network && e.n == n)
    }

    /// Check the report contains every cell of the suite it claims to have
    /// swept, with sane numbers.
    pub fn validate_complete(&self) -> Result<(), String> {
        for (workload, network, n) in expected_cells(&self.sizes) {
            let entry = self
                .entry(&workload, &network, n)
                .ok_or_else(|| format!("missing suite entry {workload}/{network}/n={n}"))?;
            if !(entry.wall_ms.is_finite() && entry.wall_ms > 0.0) {
                return Err(format!(
                    "suite entry {workload}/{network}/n={n} has bad wall_ms {}",
                    entry.wall_ms
                ));
            }
            if entry.rounds == 0 {
                return Err(format!(
                    "suite entry {workload}/{network}/n={n} executed zero rounds"
                ));
            }
        }
        Ok(())
    }

    /// Join a baseline report (same suite, typically from the previous
    /// build): matching entries gain `baseline_rounds_per_s` and `speedup`.
    ///
    /// When the baseline recorded which engine produced it, that engine is
    /// folded into `baseline_label`, so a cross-engine join (a legitimate
    /// sharded-vs-sync throughput comparison) is distinguishable from a
    /// same-engine regression join by reading the report alone.
    pub fn apply_baseline(&mut self, baseline: &BenchReport, label: &str) {
        self.baseline_label = Some(match &baseline.engine {
            Some(engine) => format!("{label} [engine: {engine}]"),
            None => label.to_string(),
        });
        for entry in &mut self.entries {
            if let Some(base) = baseline.entry(&entry.workload, &entry.network, entry.n) {
                // Only join cells that executed the same spec: the seed is
                // identity-derived ([`cell_seed`]), so a mismatch means the
                // baseline measured a different topology/placement and a
                // "speedup" against it would be meaningless.
                if base.seed != entry.seed {
                    continue;
                }
                entry.baseline_rounds_per_s = Some(base.rounds_per_s);
                if base.rounds_per_s > 0.0 {
                    entry.speedup = Some(entry.rounds_per_s / base.rounds_per_s);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_shape_is_complete_and_ordered() {
        let cells = expected_cells(&[1024, 4096]);
        assert_eq!(cells.len(), 2 * 5 * 2);
        assert_eq!(
            cells[0],
            ("byzantine-counting".into(), "clean".into(), 1024)
        );
        assert_eq!(
            cells[1],
            ("byzantine-counting".into(), "faulty".into(), 1024)
        );
        assert_eq!(cells[10].2, 4096, "size-major order");
    }

    #[test]
    fn suite_specs_validate() {
        for workload in suite_workloads() {
            for faulty in [false, true] {
                let spec = suite_spec(&workload, 256, faulty, 1);
                spec.validate().expect("suite specs must be valid");
            }
        }
    }

    #[test]
    fn report_round_trips_and_validates() {
        let entry = BenchEntry {
            workload: "byzantine-counting".into(),
            network: "clean".into(),
            n: 64,
            seed: 3,
            repeats: 1,
            setup_ms: 1.0,
            wall_ms: 2.0,
            rounds: 10,
            messages_delivered: 100,
            rounds_per_s: 5000.0,
            messages_per_s: 50000.0,
            peak_rss_kb: 1234,
            baseline_rounds_per_s: None,
            speedup: None,
            phases: None,
        };
        let mut entries = Vec::new();
        for (workload, network, n) in expected_cells(&[64]) {
            entries.push(BenchEntry {
                workload,
                network,
                n,
                ..entry.clone()
            });
        }
        let report = BenchReport {
            schema: BENCH_SCHEMA,
            suite: "roundloop".into(),
            sizes: vec![64],
            seed: 3,
            engine: Some("sync".into()),
            baseline_label: None,
            entries,
        };
        report.validate_complete().expect("complete");
        let back = BenchReport::from_json(&report.to_json()).expect("parse");
        assert_eq!(back, report);

        let mut incomplete = report.clone();
        incomplete.entries.pop();
        assert!(incomplete.validate_complete().is_err());
    }

    #[test]
    fn reports_without_a_phases_key_still_parse() {
        // The committed BENCH_roundloop.json predates the `phases` field;
        // dropping the key entirely must deserialize as `None`.
        let entry = BenchEntry {
            workload: "byzantine-counting".into(),
            network: "clean".into(),
            n: 64,
            seed: 3,
            repeats: 1,
            setup_ms: 1.0,
            wall_ms: 2.0,
            rounds: 10,
            messages_delivered: 100,
            rounds_per_s: 5000.0,
            messages_per_s: 50000.0,
            peak_rss_kb: 1234,
            baseline_rounds_per_s: None,
            speedup: None,
            phases: None,
        };
        let report = BenchReport {
            schema: BENCH_SCHEMA,
            suite: "roundloop".into(),
            sizes: vec![64],
            seed: 3,
            engine: Some("sync".into()),
            baseline_label: None,
            entries: vec![entry],
        };
        let stripped = report
            .to_json()
            .lines()
            .filter(|l| !l.contains("\"phases\""))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(!stripped.contains("phases"));
        let back = BenchReport::from_json(&stripped).expect("old-shape report must parse");
        assert_eq!(back, report);
    }

    #[test]
    fn baselines_join_by_cell() {
        let mut report = BenchReport {
            schema: BENCH_SCHEMA,
            suite: "roundloop".into(),
            sizes: vec![64],
            seed: 3,
            engine: Some("sync".into()),
            baseline_label: None,
            entries: vec![BenchEntry {
                workload: "byzantine-counting".into(),
                network: "clean".into(),
                n: 64,
                seed: 3,
                repeats: 1,
                setup_ms: 1.0,
                wall_ms: 2.0,
                rounds: 10,
                messages_delivered: 100,
                rounds_per_s: 6000.0,
                messages_per_s: 50000.0,
                peak_rss_kb: 0,
                baseline_rounds_per_s: None,
                speedup: None,
                phases: None,
            }],
        };
        let mut baseline = report.clone();
        baseline.entries[0].rounds_per_s = 4000.0;
        report.apply_baseline(&baseline, "pre-refactor");
        assert_eq!(
            report.baseline_label.as_deref(),
            Some("pre-refactor [engine: sync]"),
            "the baseline's engine must be visible in the joined report"
        );
        assert_eq!(report.entries[0].baseline_rounds_per_s, Some(4000.0));
        assert!((report.entries[0].speedup.unwrap() - 1.5).abs() < 1e-12);

        // A baseline cell measured under a different spec seed must not be
        // joined — it ran a different topology/placement.
        let mut other_seed = baseline.clone();
        other_seed.entries[0].seed ^= 1;
        let mut fresh = report.clone();
        fresh.entries[0].baseline_rounds_per_s = None;
        fresh.entries[0].speedup = None;
        fresh.apply_baseline(&other_seed, "mismatched");
        assert_eq!(fresh.entries[0].baseline_rounds_per_s, None);
        assert_eq!(fresh.entries[0].speedup, None);
    }

    #[test]
    fn cell_seeds_are_identity_derived_not_position_derived() {
        // The same cell gets the same seed no matter which sweep it is part
        // of — that is what makes baseline joins across `--sizes` subsets
        // compare identical specs.
        let full = cell_seed(SUITE_SEED, "byzantine-counting", "clean", 4096);
        assert_eq!(
            full,
            cell_seed(SUITE_SEED, "byzantine-counting", "clean", 4096)
        );
        // Distinct cells get distinct seeds (workload, network and n all
        // feed the hash).
        assert_ne!(
            full,
            cell_seed(SUITE_SEED, "byzantine-counting", "faulty", 4096)
        );
        assert_ne!(
            full,
            cell_seed(SUITE_SEED, "byzantine-counting", "clean", 1024)
        );
        assert_ne!(full, cell_seed(SUITE_SEED, "spanning-tree", "clean", 4096));
        assert_ne!(
            full,
            cell_seed(SUITE_SEED ^ 1, "byzantine-counting", "clean", 4096)
        );
        // Regression lock on the promotion to `byzcount_core::sim`: the
        // shared helper must produce exactly the values this suite produced
        // when the definition lived here, or historical baseline joins
        // would silently stop matching.
        assert_eq!(full, 0x54db5256f1e5bc02);
        assert_eq!(
            cell_seed(SUITE_SEED, "spanning-tree", "faulty", 256),
            0xfb0cb0f2a5c1bcda
        );
    }

    #[test]
    fn heterogeneous_clock_plans_are_rejected_by_the_suite() {
        // The documented invariant: only synchronous engines may run the
        // suite, because apply_baseline joins on engine-independent cell
        // seeds and a heterogeneous clock plan changes the runs
        // themselves.
        use byzcount_core::sim::ClockPlan;
        let mut cfg = BenchConfig::smoke();
        cfg.engine = EngineSpec::Async {
            clocks: ClockPlan::Stratified {
                every: 4,
                period: 3,
            },
        };
        let err = run_suite(&cfg, |_| {}).expect_err("must refuse");
        assert!(err.to_string().contains("synchronous"), "{err}");
        // The sharded-async engine carries the same clock knob and is
        // guarded the same way.
        cfg.engine = EngineSpec::ShardedAsync {
            shards: 2,
            clocks: ClockPlan::Jittered { max_period: 4 },
        };
        let err = run_suite(&cfg, |_| {}).expect_err("must refuse");
        assert!(err.to_string().contains("synchronous"), "{err}");
        // Uniform clocks keep the byte-identity contract and pass the
        // guard (the suite itself is exercised end-to-end by the CI
        // async bench smoke, not here — it is seconds of protocol work).
        assert!(ClockPlan::Uniform.is_synchronous());
    }

    #[test]
    fn smoke_config_is_small() {
        let cfg = BenchConfig::smoke();
        assert_eq!(cfg.sizes, vec![256]);
        assert_eq!(cfg.repeats_for(256), 1);
        assert_eq!(BenchConfig::standard().repeats_for(16384), 1);
        assert_eq!(BenchConfig::standard().repeats_for(4096), 3);
    }
}
