//! Integration tests for the unified `Simulation` API: serde round-trips,
//! determinism, cross-topology execution and parallel batching.

use byzcount::prelude::*;

fn byzantine_sim(topology: TopologySpec, seed: u64) -> Simulation {
    Simulation::builder()
        .topology(topology)
        .workload(WorkloadSpec::Byzantine)
        .placement(PlacementSpec::Random { count: 4 })
        .adversary(AdversarySpec::Silent)
        .seed(seed)
        .build()
        .expect("spec")
}

#[test]
fn run_spec_and_report_round_trip_losslessly() {
    let report = Simulation::builder()
        .topology(TopologySpec::SmallWorld { n: 128, d: 6 })
        .placement(PlacementSpec::RandomBudget { delta: 0.6 })
        .adversary(AdversarySpec::Combined)
        .seed(u64::MAX - 17) // exercise the full u64 seed space
        .build()
        .unwrap()
        .run()
        .unwrap();

    // Spec round-trip.
    let spec_json = report.spec.to_json();
    let spec_back = RunSpec::from_json(&spec_json).unwrap();
    assert_eq!(spec_back, report.spec);
    assert_eq!(spec_back.to_json(), spec_json);
    assert_eq!(spec_back.seed, u64::MAX - 17, "u64 seeds must survive JSON");

    // Report round-trip.
    let report_json = report.to_json();
    let report_back = RunReport::from_json(&report_json).unwrap();
    assert_eq!(report_back, report);
    assert_eq!(report_back.to_json(), report_json);
}

#[test]
fn same_spec_and_seed_give_identical_reports() {
    let spec = byzantine_sim(TopologySpec::SmallWorld { n: 192, d: 6 }, 77)
        .spec()
        .clone();
    let a = byzcount::sim::execute(&spec).unwrap();
    let b = byzcount::sim::execute(&spec).unwrap();
    assert_eq!(a, b);
    assert_eq!(a.to_json(), b.to_json(), "reports must be byte-identical");

    // And a different seed genuinely changes the run.
    let mut other = spec.clone();
    other.seed ^= 1;
    let c = byzcount::sim::execute(&other).unwrap();
    assert_ne!(a.to_json(), c.to_json());
}

#[test]
fn determinism_matrix_threads_and_shards_cannot_change_reports() {
    // The determinism matrix, extended to the sharded *and* async
    // engines: one RunSpec and one BatchSpec, each executed over the
    // cross product of worker counts RAYON_NUM_THREADS ∈ {1, 2, 8} ×
    // engines {unsharded, sharded S ∈ {1, 2, 4, 8}, async and sharded
    // async S = 3 (uniform clocks)}, must produce byte-identical JSON in
    // every cell (modulo the embedded engine knob, which is the one field
    // that names the cell).  The worker count is pinned through the rayon
    // shim's programmatic override (equivalent to RAYON_NUM_THREADS), so
    // this genuinely varies both the batch fan-out *and* the sharded
    // engine's lane count, L = min(S, threads), which each run fixes once
    // at its start; engine-internal state (reused inboxes, outboxes, arenas,
    // per-shard deferral rings of delayed envelopes and node steps) must never leak
    // between runs or depend on scheduling.  (Byte-identity *across* the
    // buffer-reuse refactor — old engine vs new — is locked down
    // separately by tests/golden_reports.rs, whose expected files were
    // generated by the pre-refactor engine.)
    let spec = Simulation::builder()
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
        .seed(0xD17E_C7A1)
        .build()
        .expect("spec")
        .spec()
        .clone();
    let batch = BatchSpec {
        version: SPEC_VERSION,
        run: spec.clone(),
        seeds: SeedPolicy::Sequence {
            base: 0xD17E_C7A1,
            count: 6,
        },
        sizes: Some(vec![96, 160]),
    };
    let engines = [
        EngineSpec::Sync,
        EngineSpec::Sharded { shards: 1 },
        EngineSpec::Sharded { shards: 2 },
        EngineSpec::Sharded { shards: 4 },
        EngineSpec::Sharded { shards: 8 },
        EngineSpec::asynchronous(),
        EngineSpec::ShardedAsync {
            shards: 3,
            clocks: ClockPlan::Uniform,
        },
    ];
    // Erase the one intentionally-varying field before comparison.
    let run_json = |engine: EngineSpec| {
        let mut spec = spec.clone();
        spec.engine = engine;
        let mut report = byzcount::sim::execute(&spec).expect("run");
        report.spec.engine = EngineSpec::Sync;
        report.to_json()
    };
    let batch_json = |engine: EngineSpec| {
        let mut batch = batch.clone();
        batch.run.engine = engine;
        let mut report = byzcount::sim::execute_batch(&batch).expect("batch");
        report.spec.run.engine = EngineSpec::Sync;
        for run in &mut report.runs {
            run.spec.engine = EngineSpec::Sync;
        }
        report.to_json()
    };

    // The worker count is varied through the rayon shim's programmatic
    // override, not `std::env::set_var` — mutating the environment races
    // against concurrent `getenv` calls from other test threads.  The
    // override is process-global but harmless to concurrent tests: no
    // result in this suite may depend on the worker count (that is the
    // property under test).
    struct RestoreOverride;
    impl Drop for RestoreOverride {
        fn drop(&mut self) {
            rayon::set_num_threads_override(None);
        }
    }
    let _restore = RestoreOverride; // clears the override even on panic
    let mut reference_run: Option<String> = None;
    let mut reference_batch: Option<String> = None;
    for threads in [1usize, 2, 8] {
        rayon::set_num_threads_override(Some(threads));
        for engine in engines {
            let cell = format!("threads={threads} × engine={}", engine.name());
            let run = run_json(engine);
            match &reference_run {
                None => reference_run = Some(run),
                Some(reference) => {
                    assert_eq!(&run, reference, "{cell} changed a run report")
                }
            }
            // The batch leg of the matrix: every thread count, and one
            // engine per family (unsharded, the widest sharding, async) —
            // the full engine sweep on batches is covered per-run above.
            if matches!(
                engine,
                EngineSpec::Sync | EngineSpec::Sharded { shards: 8 } | EngineSpec::Async { .. }
            ) {
                let batch = batch_json(engine);
                match &reference_batch {
                    None => reference_batch = Some(batch),
                    Some(reference) => {
                        assert_eq!(&batch, reference, "{cell} changed a batch report")
                    }
                }
            }
        }
    }
}

#[test]
fn heterogeneous_async_runs_are_thread_count_invariant() {
    // Past the parity boundary, determinism still holds: a heterogeneous-
    // clock async run is *different* from the sync run by design, but it
    // must be byte-identical to itself under every worker count (batch
    // fan-out must never leak into the event order).
    let batch = Simulation::builder()
        .topology(TopologySpec::SmallWorld { n: 96, d: 6 })
        .workload(WorkloadSpec::Byzantine)
        .placement(PlacementSpec::RandomBudget { delta: 0.6 })
        .adversary(AdversarySpec::Silent)
        .fault(FaultSpec::Delay {
            max_delay: 2,
            rate: 0.2,
        })
        .async_clocks(ClockPlan::Stratified {
            every: 3,
            period: 2,
        })
        .seeds(SeedPolicy::Sequence {
            base: 0xA5B1_0007,
            count: 4,
        })
        .build()
        .expect("spec")
        .batch_spec();
    struct RestoreOverride;
    impl Drop for RestoreOverride {
        fn drop(&mut self) {
            rayon::set_num_threads_override(None);
        }
    }
    let _restore = RestoreOverride;
    let mut reference: Option<String> = None;
    for threads in [1usize, 2, 8] {
        rayon::set_num_threads_override(Some(threads));
        let report = byzcount::sim::execute_batch(&batch).expect("batch");
        let json = report.to_json();
        match &reference {
            None => reference = Some(json),
            Some(reference) => assert_eq!(
                &json, reference,
                "threads={threads} changed a heterogeneous async batch"
            ),
        }
    }
}

#[test]
fn repeated_runs_reuse_engine_buffers_without_state_leaks() {
    // Back-to-back executions of the same prepared spec (the bench harness
    // path) must be identical: every reused buffer starts each run clean.
    use byzcount_core::sim::PreparedRun;
    let spec = Simulation::builder()
        .topology(TopologySpec::SmallWorld { n: 128, d: 6 })
        .workload(WorkloadSpec::Byzantine)
        .placement(PlacementSpec::RandomBudget { delta: 0.6 })
        .adversary(AdversarySpec::Silent)
        .seed(91)
        .build()
        .expect("spec")
        .spec()
        .clone();
    let prepared = PreparedRun::new(&spec).expect("prepare");
    let a = prepared
        .execute(&byzcount::sim::FullRegistry)
        .expect("run 1");
    let b = prepared
        .execute(&byzcount::sim::FullRegistry)
        .expect("run 2");
    let c = byzcount::sim::execute(&spec).expect("one-shot");
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(
        a.to_json(),
        c.to_json(),
        "prepared and one-shot paths must agree byte-for-byte"
    );
}

#[test]
fn algorithm2_runs_on_watts_strogatz_and_tree_topologies() {
    // Cross-topology smoke test: the protocol machinery must execute (and
    // terminate within its round cap) on graphs that are nothing like the
    // paper's expander.  Estimate quality is not asserted — the paper's
    // guarantees assume small-world structure; what matters is that the
    // unified API drives the full protocol anywhere.
    let topologies = [
        TopologySpec::WattsStrogatz {
            n: 96,
            k_half: 3,
            beta: 0.1,
        },
        TopologySpec::BalancedTree { n: 96, arity: 3 },
        TopologySpec::RandomTree {
            n: 96,
            max_degree: Some(6),
        },
    ];
    for topology in topologies {
        let report = Simulation::builder()
            .topology(topology.clone())
            .workload(WorkloadSpec::Byzantine)
            .placement(PlacementSpec::Random { count: 3 })
            .adversary(AdversarySpec::Silent)
            .max_rounds(4000)
            .seed(5)
            .build()
            .unwrap_or_else(|e| panic!("{topology:?}: {e}"))
            .run()
            .unwrap_or_else(|e| panic!("{topology:?}: {e}"));
        assert_eq!(report.n, 96, "{topology:?}");
        assert!(report.rounds > 0, "{topology:?}");
        assert!(
            report.rounds <= 4000,
            "{topology:?} exceeded its round cap: {}",
            report.rounds
        );
        // The run must have produced decisions or crashes, not silence.
        assert!(
            report.honest_decided + report.honest_crashed > 0,
            "{topology:?}: no honest node reached a terminal state"
        );
    }
}

#[test]
fn basic_counting_runs_on_all_five_topology_families() {
    for topology in [
        TopologySpec::SmallWorld { n: 96, d: 6 },
        TopologySpec::SmallWorldH { n: 96, d: 6 },
        TopologySpec::WattsStrogatz {
            n: 96,
            k_half: 3,
            beta: 0.1,
        },
        TopologySpec::BalancedTree { n: 96, arity: 3 },
        TopologySpec::RandomTree {
            n: 96,
            max_degree: Some(6),
        },
    ] {
        let report = Simulation::builder()
            .topology(topology.clone())
            .workload(WorkloadSpec::Basic)
            .max_rounds(4000)
            .seed(9)
            .build()
            .unwrap()
            .run()
            .unwrap_or_else(|e| panic!("{topology:?}: {e}"));
        assert!(report.rounds > 0, "{topology:?}");
    }
}

#[test]
fn all_four_baselines_run_through_the_builder_on_three_topologies() {
    let topologies = [
        TopologySpec::SmallWorldH { n: 128, d: 6 },
        TopologySpec::WattsStrogatz {
            n: 128,
            k_half: 3,
            beta: 0.1,
        },
        TopologySpec::BalancedTree { n: 128, arity: 3 },
    ];
    let workloads = [
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
    ];
    for topology in &topologies {
        for workload in &workloads {
            let report = Simulation::builder()
                .topology(topology.clone())
                .workload(workload.clone())
                .seed(3)
                .build()
                .unwrap()
                .run()
                .unwrap_or_else(|e| panic!("{topology:?} × {workload:?}: {e}"));
            assert!(
                report.completed,
                "{topology:?} × {workload:?} did not complete"
            );
            assert!(report.estimate.decided > 0, "{topology:?} × {workload:?}");
        }
    }
}

#[test]
fn multi_seed_batch_runs_in_parallel_and_round_trips() {
    // Acceptance criterion: a ≥8-seed batch runs (rayon-parallel) and its
    // report serializes to JSON that round-trips losslessly.
    let batch = Simulation::builder()
        .topology(TopologySpec::SmallWorld { n: 128, d: 6 })
        .workload(WorkloadSpec::Byzantine)
        .placement(PlacementSpec::RandomBudget { delta: 0.6 })
        .adversary(AdversarySpec::HonestBehaving)
        .seeds(SeedPolicy::Sequence {
            base: 0xFEED,
            count: 8,
        })
        .build()
        .unwrap()
        .run_batch()
        .unwrap();
    assert_eq!(batch.runs.len(), 8);
    let seeds: std::collections::HashSet<u64> = batch.runs.iter().map(|r| r.seed).collect();
    assert_eq!(seeds.len(), 8, "each run must use a distinct derived seed");
    let agg = batch.aggregate_for(128).unwrap();
    assert_eq!(agg.runs, 8);
    assert!(agg.good_fraction.unwrap().mean > 0.8);
    assert!(agg.rounds.mean > 0.0);

    let json = batch.to_json();
    let back = BatchReport::from_json(&json).unwrap();
    assert_eq!(back, batch);
    assert_eq!(
        back.to_json(),
        json,
        "batch JSON must round-trip losslessly"
    );
}

#[test]
fn batch_spec_json_is_executable() {
    // A campaign can be described entirely as data, shipped as JSON, and
    // executed elsewhere — the CLI `run` path.
    let sim = Simulation::builder()
        .topology(TopologySpec::SmallWorld { n: 96, d: 6 })
        .workload(WorkloadSpec::Basic)
        .seeds(SeedPolicy::Explicit(vec![1, 2, 3]))
        .sizes(&[96, 128])
        .build()
        .unwrap();
    let json = sim.batch_spec().to_json();
    let parsed = BatchSpec::from_json(&json).unwrap();
    let report = byzcount::sim::execute_batch(&parsed).unwrap();
    assert_eq!(report.runs.len(), 6);
    assert_eq!(report.aggregates.len(), 2);
}

#[test]
fn placement_integrates_with_the_spec_layer() {
    // A concrete Placement embeds into a spec and reproduces exactly.
    let placement = Placement::random(128, 9, 4);
    let report = Simulation::builder()
        .topology(TopologySpec::SmallWorld { n: 128, d: 6 })
        .workload(WorkloadSpec::Byzantine)
        .placement(placement.to_spec())
        .adversary(AdversarySpec::HonestBehaving)
        .seed(2)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(report.byzantine_count, 9);
}

#[test]
fn old_free_functions_and_builder_agree() {
    // The deprecated-free wrappers and the builder drive the same engine;
    // a fault-free basic run must produce the same per-node estimates when
    // fed the same network and execution seed.
    let spec = Simulation::builder()
        .topology(TopologySpec::SmallWorld { n: 128, d: 6 })
        .workload(WorkloadSpec::Basic)
        .seed(31)
        .build()
        .unwrap();
    let report = spec.run().unwrap();
    let eval2 = report.counting.unwrap().eval_factor2;
    assert_eq!(
        eval2.honest_total, 128,
        "builder must evaluate all honest nodes like the free functions do"
    );
    assert!(eval2.good_fraction_of_honest > 0.9);
}

#[test]
fn out_of_range_protocol_params_are_spec_errors_not_panics() {
    // Each of these once panicked inside the run (or, for `k = 0`, ran
    // with `k − 1` wrapped around); a campaign worker that panicked left
    // its job running forever.  Validation must refuse them up front.
    let explicit = |d, k| {
        ParamsSpec::Explicit(ProtocolParams {
            d,
            k,
            delta: 0.6,
            epsilon: 0.1,
            edge_expansion: 1.0,
        })
    };
    let cases = [
        ParamsSpec::Derived {
            delta: 0.6,
            epsilon: 1.0,
        },
        ParamsSpec::Derived {
            delta: 0.0,
            epsilon: 0.1,
        },
        explicit(2, 1),
        explicit(6, 0),
    ];
    let base = byzantine_sim(TopologySpec::SmallWorld { n: 64, d: 6 }, 3)
        .spec()
        .clone();
    for params in cases {
        let mut spec = base.clone();
        spec.params = params.clone();
        assert!(
            matches!(spec.validate(), Err(SimError::Spec(_))),
            "validate must refuse {params:?}"
        );
        assert!(
            matches!(byzcount::sim::execute(&spec), Err(SimError::Spec(_))),
            "execute must refuse {params:?}"
        );
    }
}
