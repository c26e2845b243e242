//! The distributed-engine differential & parity suite.
//!
//! The distributed engine runs shard workers as separate threads of
//! control speaking the `netsim-wire` binary codec over checksummed
//! channels — every envelope, fate and metric crosses a serialization
//! boundary.  Its contract is the same *byte identity* the in-process
//! sharded engine promises: for equal spec and seed, the report must be
//! identical across worker counts S ∈ {1, 2, 4}, identical to the
//! in-process sharded engine, and identical to the unsharded engine.
//! This suite proves it differentially over
//!
//! * every golden spec fixture under `tests/golden/` (the v1 clean spec
//!   and the v2 full-fault-stack spec, whose checked-in reports pin the
//!   pre-refactor engine's behaviour), and
//! * a fresh loss + delay + churn + partition spec under the combined
//!   adversary that exercises every fault path the golden fixtures
//!   leave cold — so lost, deferred, expired, churned and
//!   adversary-authored envelopes all cross the wire,
//!
//! plus a batch-level case and a baseline-workload case (a workload with
//! its own message types, hence its own `Wire` impls).
//!
//! `normalized_json` erases the engine knob (the one spec field allowed
//! to differ) before comparison; everything else must match
//! byte-for-byte.

use byzcount::prelude::*;

/// The worker counts the parity contract is stated over.
const WORKER_COUNTS: [u32; 3] = [1, 2, 4];

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// Serialize a report with its embedded engine knob reset to the default
/// (see `tests/sharded_parity.rs` — the knob selects the execution
/// layout, and the layout must not leak into any other report byte).
fn normalized_json(report: &RunReport) -> String {
    let mut report = report.clone();
    report.spec.engine = EngineSpec::Sync;
    report.to_json()
}

/// Run `spec` on the unsharded engine, the in-process sharded engine and
/// the distributed engine at every worker count, and assert every
/// normalized report is byte-identical to the unsharded reference.
fn assert_distributed_parity(spec: &RunSpec, label: &str) {
    let mut sync_spec = spec.clone();
    sync_spec.engine = EngineSpec::Sync;
    let reference = byzcount::sim::execute(&sync_spec)
        .unwrap_or_else(|e| panic!("{label}: unsharded run failed: {e}"));
    let reference_json = normalized_json(&reference);
    for shards in WORKER_COUNTS {
        // The in-process sharded engine at the same count is the
        // intermediate differential: if distributed diverges, this pins
        // whether the bug is in the sharding or in the wire crossing.
        for engine in [
            EngineSpec::Sharded { shards },
            EngineSpec::Distributed { shards },
        ] {
            let name = engine.name();
            let mut dist_spec = spec.clone();
            dist_spec.engine = engine;
            let report = byzcount::sim::execute(&dist_spec)
                .unwrap_or_else(|e| panic!("{label}: {name} run failed: {e}"));
            assert_eq!(
                normalized_json(&report),
                reference_json,
                "{label}: {name} diverged from the unsharded engine"
            );
        }
    }
}

#[test]
fn golden_v1_spec_is_worker_count_invariant() {
    let spec = RunSpec::from_json(&fixture("run_spec_v1.json")).expect("golden spec parses");
    assert_distributed_parity(&spec, "golden v1 (clean network)");
}

#[test]
fn golden_v2_faulty_spec_is_worker_count_invariant() {
    let spec = RunSpec::from_json(&fixture("run_spec_v2_faulty.json")).expect("golden spec parses");
    assert_distributed_parity(&spec, "golden v2 (full fault stack)");
}

#[test]
fn distributed_golden_runs_match_the_checked_in_reports_verbatim() {
    // Stronger than pairwise parity: the distributed engine must
    // reproduce the *checked-in* golden reports (originally generated by
    // the pre-refactor single-threaded engine) byte-for-byte, modulo
    // only the embedded engine knob — across a serialization boundary.
    for (spec_file, report_file) in [
        ("run_spec_v1.json", "run_report_v1.json"),
        ("run_spec_v2_faulty.json", "run_report_v2_faulty.json"),
    ] {
        let expected = RunReport::from_json(fixture(report_file).trim_end_matches('\n'))
            .expect("golden report parses");
        let mut spec = RunSpec::from_json(&fixture(spec_file)).expect("golden spec parses");
        spec.engine = EngineSpec::Distributed { shards: 2 };
        let report = byzcount::sim::execute(&spec).expect("distributed golden run");
        assert_eq!(
            normalized_json(&report),
            normalized_json(&expected),
            "{spec_file}: the distributed engine drifted from the golden report"
        );
    }
}

#[test]
fn fresh_faulty_churn_spec_is_worker_count_invariant() {
    // Every fault shape at rates high enough to fire constantly, under
    // the combined adversary — the coordinator's fate scatter carries
    // Deliver, Drop and Delay fates, the delay rings defer across the
    // final round, churn crashes and recovers workers' nodes, and the
    // adversary authors replacement envelopes, all over the wire.
    let spec = Simulation::builder()
        .topology(TopologySpec::SmallWorld { n: 192, d: 6 })
        .workload(WorkloadSpec::Byzantine)
        .placement(PlacementSpec::RandomBudget { delta: 0.6 })
        .adversary(AdversarySpec::Combined)
        .fault(FaultSpec::Compose(vec![
            FaultSpec::Loss { rate: 0.15 },
            FaultSpec::Delay {
                max_delay: 3,
                rate: 0.3,
            },
            FaultSpec::Churn {
                rate: 0.015,
                downtime: 4,
            },
            FaultSpec::Partition {
                start: 3,
                duration: 6,
            },
        ]))
        .seed(0x5AAD_0001)
        .build()
        .expect("spec")
        .spec()
        .clone();
    // The run must actually exercise the fault paths for the parity
    // claim to mean anything.
    let report = byzcount::sim::execute(&spec).expect("reference run");
    assert!(report.messages_lost > 0, "loss never fired");
    assert!(report.messages_delayed > 0, "delay never fired");
    assert!(report.churn_crashes > 0, "churn never fired");
    assert_distributed_parity(&spec, "fresh faulty + churn");
}

#[test]
fn baseline_workload_is_worker_count_invariant() {
    // The engine knob reaches the baselines through the same dispatch as
    // the counting protocols; spanning-tree + faults exercises a
    // workload whose message type has its own `Wire` impl.
    let spec = Simulation::builder()
        .topology(TopologySpec::SmallWorldH { n: 192, d: 6 })
        .workload(WorkloadSpec::SpanningTree {
            max_rounds: None,
            attack: AttackSpec::None,
        })
        .fault(FaultSpec::Compose(vec![
            FaultSpec::Loss { rate: 0.05 },
            FaultSpec::Delay {
                max_delay: 2,
                rate: 0.2,
            },
        ]))
        .seed(0x5AAD_0002)
        .build()
        .expect("spec")
        .spec()
        .clone();
    assert_distributed_parity(&spec, "spanning-tree baseline");
}

/// Spawn an in-test shard-worker fleet member: bind `addr`, serve every
/// accepted connection's shard session on its own thread (exactly what
/// `byzcount-cli shard-worker --listen` does), and return the bound
/// address.  The accept loop is detached; it dies with the test process.
fn spawn_worker(addr: &str) -> String {
    use byzcount::campaign::net::Listener;
    use byzcount::sim::{serve_shard_conn, FullRegistry};
    let listener = Listener::bind(addr).unwrap_or_else(|e| panic!("bind {addr}: {e}"));
    let bound = listener.local_addr().expect("bound address");
    std::thread::spawn(move || loop {
        match listener.accept() {
            Ok(Some(mut stream)) => {
                std::thread::spawn(move || {
                    let _ = serve_shard_conn(&mut stream, &FullRegistry);
                });
            }
            Ok(None) => {}
            Err(_) => break,
        }
    });
    bound
}

fn tmp_sock(tag: &str) -> String {
    format!(
        "unix:{}",
        std::env::temp_dir()
            .join(format!("byz-parity-{tag}-{}.sock", std::process::id()))
            .display()
    )
}

#[test]
fn socket_transports_are_byte_identical_to_in_process_pipes() {
    // The transport leg of the parity contract: for equal spec and seed,
    // the distributed engine's report must be byte-identical whether the
    // shard workers are in-process pipe threads, remote workers behind
    // Unix sockets, behind TCP loopback, or a mixed fleet — across every
    // worker count, on both golden fixtures (the v2 spec drives the full
    // fault stack over each transport).
    let unix_fleet = vec![spawn_worker(&tmp_sock("a")), spawn_worker(&tmp_sock("b"))];
    let tcp_fleet = vec![spawn_worker("127.0.0.1:0"), spawn_worker("127.0.0.1:0")];
    let mixed_fleet = vec![unix_fleet[0].clone(), tcp_fleet[1].clone()];

    for fixture_name in ["run_spec_v1.json", "run_spec_v2_faulty.json"] {
        let spec = RunSpec::from_json(&fixture(fixture_name)).expect("golden spec parses");
        let mut sync_spec = spec.clone();
        sync_spec.engine = EngineSpec::Sync;
        let reference = byzcount::sim::execute(&sync_spec).expect("unsharded reference");
        let reference_json = normalized_json(&reference);
        for shards in WORKER_COUNTS {
            let mut dist_spec = spec.clone();
            dist_spec.engine = EngineSpec::Distributed { shards };
            // In-process pipes: the fallback when no worker addresses
            // are given (empty fleet ≡ None).
            let pipes = byzcount::sim::execute_workers(&dist_spec, None, &[])
                .unwrap_or_else(|e| panic!("{fixture_name} S={shards} pipes: {e}"));
            assert_eq!(
                normalized_json(&pipes),
                reference_json,
                "{fixture_name} S={shards}: in-process pipes diverged from the unsharded engine"
            );
            for (label, fleet) in [
                ("unix", &unix_fleet),
                ("tcp", &tcp_fleet),
                ("mixed", &mixed_fleet),
            ] {
                let report = byzcount::sim::execute_workers(&dist_spec, None, fleet)
                    .unwrap_or_else(|e| panic!("{fixture_name} S={shards} {label}: {e}"));
                assert_eq!(
                    normalized_json(&report),
                    reference_json,
                    "{fixture_name} S={shards}: {label} transport diverged from the unsharded engine"
                );
            }
        }
    }
    for addr in &unix_fleet {
        if let Some(path) = addr.strip_prefix("unix:") {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[test]
fn socket_transports_carry_adversarial_faulty_runs_identically() {
    // Same transport sweep over a fresh loss + delay + churn spec under
    // the combined adversary, so adversary-authored and fault-scattered
    // envelopes cross real sockets (the golden fixture above leaves the
    // churn path cold).
    let spec = Simulation::builder()
        .topology(TopologySpec::SmallWorld { n: 128, d: 6 })
        .workload(WorkloadSpec::Byzantine)
        .placement(PlacementSpec::RandomBudget { delta: 0.6 })
        .adversary(AdversarySpec::Combined)
        .fault(FaultSpec::Compose(vec![
            FaultSpec::Loss { rate: 0.1 },
            FaultSpec::Delay {
                max_delay: 2,
                rate: 0.25,
            },
            FaultSpec::Churn {
                rate: 0.01,
                downtime: 4,
            },
        ]))
        .seed(0x5AAD_0004)
        .build()
        .expect("spec")
        .spec()
        .clone();
    let reference = byzcount::sim::execute(&spec).expect("reference run");
    assert!(reference.churn_crashes > 0, "churn never fired");
    let reference_json = normalized_json(&reference);
    let fleet = vec![spawn_worker(&tmp_sock("adv")), spawn_worker("127.0.0.1:0")];
    for shards in WORKER_COUNTS {
        let mut dist_spec = spec.clone();
        dist_spec.engine = EngineSpec::Distributed { shards };
        let report = byzcount::sim::execute_workers(&dist_spec, None, &fleet)
            .unwrap_or_else(|e| panic!("S={shards}: {e}"));
        assert_eq!(
            normalized_json(&report),
            reference_json,
            "S={shards}: socket transport diverged on the adversarial faulty run"
        );
    }
    if let Some(path) = fleet[0].strip_prefix("unix:") {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn batch_reports_are_worker_count_invariant() {
    // Batch-level parity: the whole BatchReport (per-run reports in
    // expansion order plus per-size aggregates) must be byte-identical,
    // modulo the embedded knob — the workers are torn down and respawned
    // per cell, so this also exercises repeated handshakes.
    let normalize_batch = |mut batch: BatchReport| -> String {
        batch.spec.run.engine = EngineSpec::Sync;
        for run in &mut batch.runs {
            run.spec.engine = EngineSpec::Sync;
        }
        batch.to_json()
    };
    let build = |engine: EngineSpec| {
        let mut batch = Simulation::builder()
            .topology(TopologySpec::SmallWorld { n: 96, d: 6 })
            .workload(WorkloadSpec::Byzantine)
            .placement(PlacementSpec::RandomBudget { delta: 0.6 })
            .adversary(AdversarySpec::Silent)
            .fault(FaultSpec::Loss { rate: 0.1 })
            .seeds(SeedPolicy::Sequence {
                base: 0x5AAD_0003,
                count: 4,
            })
            .sizes(&[64, 96])
            .build()
            .expect("spec")
            .batch_spec();
        batch.run.engine = engine;
        byzcount::sim::execute_batch(&batch).expect("batch run")
    };
    let reference = normalize_batch(build(EngineSpec::Sync));
    for shards in [1u32, 2] {
        assert_eq!(
            normalize_batch(build(EngineSpec::Distributed { shards })),
            reference,
            "batch diverged at S={shards}"
        );
    }
}
