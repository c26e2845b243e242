//! Observability integration tests: trace-vs-truth cross-checks,
//! traced-vs-untraced byte-identity across the engine × thread matrix,
//! trace-file determinism, and phase-profile coverage.

use byzcount::prelude::*;
use byzcount::trace::{
    check_trace, Counter, CounterSet, Fanout, PhaseProfiler, Recorder, TraceWriter,
};
use std::sync::Arc;

/// The faulty spec every test here runs: Algorithm 2 under the combined
/// adversary with loss + delay faults, so that *every* counter in the
/// vocabulary (delivered/dropped/lost/delayed/expired, churn) is
/// exercised, not just the happy path.
fn faulty_spec() -> RunSpec {
    Simulation::builder()
        .topology(TopologySpec::SmallWorld { n: 160, d: 6 })
        .workload(WorkloadSpec::Byzantine)
        .placement(PlacementSpec::RandomBudget { delta: 0.6 })
        .adversary(AdversarySpec::Combined)
        .fault(FaultSpec::Compose(vec![
            FaultSpec::Loss { rate: 0.1 },
            FaultSpec::Delay {
                max_delay: 2,
                rate: 0.2,
            },
        ]))
        .seed(0x7AC3_0B5E)
        .build()
        .expect("spec")
        .spec()
        .clone()
}

fn with_engine(engine: EngineSpec) -> RunSpec {
    let mut spec = faulty_spec();
    spec.engine = engine;
    spec
}

/// Every counter total derived from the trace must equal the run's own
/// metrics bit-for-bit, on all five engines.
#[test]
fn trace_counters_match_run_metrics_exactly_on_all_engines() {
    for engine in [
        EngineSpec::Sync,
        EngineSpec::Sharded { shards: 4 },
        EngineSpec::asynchronous(),
        EngineSpec::ShardedAsync {
            shards: 4,
            clocks: ClockPlan::Uniform,
        },
        EngineSpec::Distributed { shards: 2 },
    ] {
        let spec = with_engine(engine);
        let counters = CounterSet::new();
        let report = byzcount::sim::execute_workers(&spec, Some(&counters), &[]).expect("run");
        let snap = counters.snapshot();
        let name = engine.name();
        assert_eq!(snap.total(Counter::Rounds), report.rounds, "{name}: rounds");
        assert_eq!(
            snap.total(Counter::MessagesDelivered),
            report.messages_delivered,
            "{name}: delivered"
        );
        assert_eq!(
            snap.total(Counter::MessagesDropped),
            report.messages_dropped,
            "{name}: dropped"
        );
        assert_eq!(
            snap.total(Counter::MessagesLost),
            report.messages_lost,
            "{name}: lost"
        );
        assert_eq!(
            snap.total(Counter::MessagesDelayed),
            report.messages_delayed,
            "{name}: delayed"
        );
        assert_eq!(
            snap.total(Counter::MessagesExpired),
            report.messages_expired,
            "{name}: expired"
        );
        assert_eq!(
            snap.total(Counter::ChurnCrashes),
            report.churn_crashes,
            "{name}: crashes"
        );
        assert_eq!(
            snap.total(Counter::ChurnRecoveries),
            report.churn_recoveries,
            "{name}: recoveries"
        );
        // The faulty spec must genuinely exercise the fault counters,
        // otherwise the equalities above are vacuous.
        assert!(report.messages_delivered > 0, "{name}: no deliveries");
        assert!(report.messages_lost > 0, "{name}: loss fault inert");
        assert!(report.messages_delayed > 0, "{name}: delay fault inert");
        // And the same totals must survive the NDJSON round trip: what
        // `check_trace` recovers from a rendered trace file equals the
        // live counter set.
        let writer = TraceWriter::in_memory();
        let report2 = byzcount::sim::execute_workers(&spec, Some(&writer), &[]).expect("run");
        assert_eq!(report2, report, "{name}: writer changed the report");
        let checked = check_trace(&writer.render()).expect("well-formed trace");
        assert_eq!(
            checked.counter_total("messages_delivered"),
            report.messages_delivered,
            "{name}: trace file delivered"
        );
        assert_eq!(
            checked.counter_total("rounds"),
            report.rounds,
            "{name}: trace file rounds"
        );
        assert_eq!(checked.open_spans, 0, "{name}: unclosed spans");
    }
}

/// Installing the full recorder stack (counters + profiler + NDJSON
/// writer, fanned out) must not change a single byte of any report, on
/// any engine, under any worker count.
#[test]
fn traced_and_untraced_reports_are_byte_identical_across_the_matrix() {
    let spec = faulty_spec();
    // Untraced reference (the engine knob is erased before comparison,
    // exactly like the determinism matrix in tests/sim_api.rs).
    let reference = {
        let mut report = byzcount::sim::execute(&spec).expect("reference");
        report.spec.engine = EngineSpec::Sync;
        report.to_json()
    };
    let engines = [
        EngineSpec::Sync,
        EngineSpec::Sharded { shards: 1 },
        EngineSpec::Sharded { shards: 2 },
        EngineSpec::Sharded { shards: 4 },
        EngineSpec::Sharded { shards: 8 },
        EngineSpec::asynchronous(),
        EngineSpec::ShardedAsync {
            shards: 4,
            clocks: ClockPlan::Uniform,
        },
        EngineSpec::Distributed { shards: 2 },
    ];
    // Worker counts are pinned through the rayon shim's programmatic
    // override, not `std::env::set_var` — mutating the environment races
    // against concurrent `getenv` calls from other test threads.
    struct RestoreOverride;
    impl Drop for RestoreOverride {
        fn drop(&mut self) {
            rayon::set_num_threads_override(None);
        }
    }
    let _restore = RestoreOverride; // clears the override even on panic
    for threads in [1usize, 2, 8] {
        rayon::set_num_threads_override(Some(threads));
        for engine in engines {
            let cell = format!("threads={threads} × engine={}", engine.name());
            let spec = with_engine(engine);
            let mut fanout = Fanout::new();
            fanout.push(Arc::new(CounterSet::new()) as Arc<dyn Recorder>);
            fanout.push(Arc::new(PhaseProfiler::new()) as Arc<dyn Recorder>);
            fanout.push(Arc::new(TraceWriter::in_memory()) as Arc<dyn Recorder>);
            let mut report =
                byzcount::sim::execute_workers(&spec, Some(&fanout), &[]).expect("traced run");
            report.spec.engine = EngineSpec::Sync;
            assert_eq!(
                report.to_json(),
                reference,
                "{cell}: tracing changed the report"
            );
        }
    }
}

/// Two runs of the same spec + seed must render byte-identical trace
/// files (logical timestamps only — no wall clock leaks in).
#[test]
fn trace_files_are_byte_deterministic_for_equal_spec_and_seed() {
    for engine in [
        EngineSpec::Sync,
        EngineSpec::Sharded { shards: 4 },
        EngineSpec::asynchronous(),
        EngineSpec::ShardedAsync {
            shards: 4,
            clocks: ClockPlan::Uniform,
        },
        EngineSpec::Distributed { shards: 2 },
    ] {
        let spec = with_engine(engine);
        let render = || {
            let writer = TraceWriter::in_memory();
            byzcount::sim::execute_workers(&spec, Some(&writer), &[]).expect("run");
            writer.render()
        };
        let first = render();
        let second = render();
        assert_eq!(
            first,
            second,
            "engine={}: trace files must be byte-identical",
            engine.name()
        );
        assert!(!first.is_empty(), "engine={}: empty trace", engine.name());
        check_trace(&first).expect("well-formed trace");
        // A different seed must produce a different trace (the check is
        // not vacuous on a constant writer).
        let mut other = spec.clone();
        other.seed ^= 1;
        let writer = TraceWriter::in_memory();
        byzcount::sim::execute_workers(&other, Some(&writer), &[]).expect("run");
        assert_ne!(first, writer.render(), "engine={}", engine.name());
    }
}

/// The profiler's sub-phase timings must account for (nearly) all of the
/// enclosing round span: spans nest, so the sum can never exceed the
/// round total, and the instrumentation gaps between sub-phases are a
/// few mutex operations — observed coverage is ~99%; we assert ≥90% to
/// leave headroom for loaded CI machines.
#[test]
fn phase_timings_sum_to_round_wall_time_within_ten_percent() {
    let spec = faulty_spec();
    let profiler = PhaseProfiler::new();
    let report = byzcount::sim::execute_workers(&spec, Some(&profiler), &[]).expect("run");
    let profile = profiler.report();
    let round = profile.phase("round").expect("round phase observed");
    assert_eq!(round.count, report.rounds, "one round span per round");
    let sub = profile.subphase_sum_ns();
    assert!(
        sub <= round.sum_ns,
        "sub-phases ({sub} ns) cannot exceed the enclosing round span ({} ns)",
        round.sum_ns
    );
    assert!(
        sub * 10 >= round.sum_ns * 9,
        "sub-phases cover {sub} of {} round ns — more than 10% unaccounted",
        round.sum_ns
    );
    // Every sub-phase in the vocabulary showed up under this spec (churn
    // is only emitted when the fault plan includes churn — not here).
    for name in ["node-step", "adversary-cut", "routing", "deferred-drain"] {
        assert!(profile.phase(name).is_some(), "missing phase {name}");
    }
}
