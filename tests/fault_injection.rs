//! End-to-end tests for the `netsim-faults` subsystem through the whole
//! stack: v1-spec compatibility, zero-rate equivalence, determinism of
//! faulty runs, and the honest-traffic-only invariant.

use byzcount::prelude::*;
use proptest::prelude::*;
use serde_json::Value;

fn demo_sim(seed: u64) -> Simulation {
    Simulation::builder()
        .topology(TopologySpec::SmallWorld { n: 160, d: 6 })
        .workload(WorkloadSpec::Byzantine)
        .placement(PlacementSpec::RandomBudget { delta: 0.6 })
        .adversary(AdversarySpec::Combined)
        .seed(seed)
        .build()
        .expect("spec")
}

/// Rewrite a current spec's JSON into its v1 form: stamp `version: 1` and
/// remove the `fault` and `engine` keys (v1 predates both the fault layer
/// and the engine knob).
fn downgrade_to_v1(json: &str) -> String {
    let value = serde_json::parse_value_complete(json).expect("valid JSON");
    let Value::Obj(mut obj) = value else {
        panic!("spec must be an object")
    };
    obj.remove("fault");
    obj.remove("engine");
    obj.insert(
        "version".into(),
        serde_json::parse_value_complete("1").unwrap(),
    );
    serde_json::to_string_pretty(&Value::Obj(obj)).expect("stringify")
}

#[test]
fn v1_spec_and_v2_fault_none_produce_byte_identical_reports() {
    let v2_spec = demo_sim(2024).spec().clone();
    let v2_json = v2_spec.to_json();
    assert!(
        v2_json.contains("\"fault\""),
        "v2 specs spell the fault out"
    );
    assert!(v2_json.contains(&format!("\"version\": {SPEC_VERSION}")));

    let v1_json = downgrade_to_v1(&v2_json);
    assert!(!v1_json.contains("fault"));
    assert!(!v1_json.contains("engine"));
    let v1_spec = RunSpec::from_json(&v1_json).expect("v1 specs must still parse");
    assert_eq!(
        v1_spec, v2_spec,
        "parsing migrates v1 to the current-version equivalent"
    );

    let from_v1 = byzcount::sim::execute(&v1_spec).expect("v1 run");
    let from_v2 = byzcount::sim::execute(&v2_spec).expect("v2 run");
    assert_eq!(from_v1, from_v2);
    assert_eq!(
        from_v1.to_json(),
        from_v2.to_json(),
        "a v1 spec and its v2 `fault: None` equivalent must be byte-identical"
    );
}

#[test]
fn v1_batch_specs_still_deserialize_and_run() {
    let batch = Simulation::builder()
        .topology(TopologySpec::SmallWorld { n: 96, d: 6 })
        .workload(WorkloadSpec::Basic)
        .seeds(SeedPolicy::Sequence { base: 5, count: 2 })
        .build()
        .expect("spec")
        .batch_spec();
    let v2_json = batch.to_json();
    // Downgrade both the batch envelope and the inner run spec.
    let value = serde_json::parse_value_complete(&v2_json).unwrap();
    let Value::Obj(mut obj) = value else {
        panic!("batch must be an object")
    };
    obj.insert(
        "version".into(),
        serde_json::parse_value_complete("1").unwrap(),
    );
    let Some(Value::Obj(mut run)) = obj.remove("run") else {
        panic!("batch has a run object")
    };
    run.remove("fault");
    run.remove("engine");
    run.insert(
        "version".into(),
        serde_json::parse_value_complete("1").unwrap(),
    );
    obj.insert("run".into(), Value::Obj(run));
    let v1_json = serde_json::to_string_pretty(&Value::Obj(obj)).unwrap();

    let v1_batch = BatchSpec::from_json(&v1_json).expect("v1 batch must parse");
    assert_eq!(v1_batch, batch);
    let a = byzcount::sim::execute_batch(&v1_batch).expect("v1 batch run");
    let b = byzcount::sim::execute_batch(&batch).expect("v2 batch run");
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn faulty_runs_are_deterministic_and_seed_sensitive() {
    let build = |seed: u64| {
        Simulation::builder()
            .topology(TopologySpec::SmallWorld { n: 160, d: 6 })
            .workload(WorkloadSpec::Byzantine)
            .placement(PlacementSpec::RandomBudget { delta: 0.6 })
            .adversary(AdversarySpec::Combined)
            .fault(FaultSpec::Compose(vec![
                FaultSpec::Loss { rate: 0.15 },
                FaultSpec::Delay {
                    max_delay: 2,
                    rate: 0.25,
                },
                FaultSpec::Churn {
                    rate: 0.01,
                    downtime: 4,
                },
                FaultSpec::Partition {
                    start: 3,
                    duration: 5,
                },
            ]))
            .seed(seed)
            .build()
            .expect("spec")
    };
    let a = build(31).run().expect("run");
    let b = build(31).run().expect("run");
    assert_eq!(a, b);
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "faulty runs stay byte-reproducible"
    );
    let c = build(32).run().expect("run");
    assert_ne!(a.to_json(), c.to_json());
    // The faults actually fired.
    assert!(a.messages_lost > 0);
    assert!(a.messages_delayed > 0);
}

#[test]
fn total_loss_still_delivers_byzantine_traffic_end_to_end() {
    // Loss rate 1.0 destroys every honest envelope, yet the adversary's
    // Byzantine traffic keeps flowing — faults weaken the network, never
    // the adversary.
    let report = Simulation::builder()
        .topology(TopologySpec::SmallWorld { n: 128, d: 6 })
        .workload(WorkloadSpec::Byzantine)
        .placement(PlacementSpec::RandomBudget { delta: 0.6 })
        .adversary(AdversarySpec::Combined)
        .fault(FaultSpec::Loss { rate: 1.0 })
        .seed(9)
        .build()
        .expect("spec")
        .run()
        .expect("run");
    assert!(report.messages_lost > 0, "honest traffic was destroyed");
    assert!(
        report.messages_delivered > 0,
        "Byzantine envelopes must bypass the fault layer"
    );
}

#[test]
fn delays_past_the_final_round_expire_and_are_never_delivered() {
    // Regression test for the expired-deferral accounting: every honest
    // envelope is delayed far beyond the engine's round cap, so every one
    // of them must end up in `messages_expired` — and none in
    // `messages_delivered`.  (Without Byzantine nodes, delivered counts
    // only honest traffic, so the two counters partition the delayed set.)
    let report = Simulation::builder()
        .topology(TopologySpec::SmallWorld { n: 96, d: 6 })
        .workload(WorkloadSpec::Basic)
        .fault(FaultSpec::Delay {
            max_delay: 100_000,
            rate: 1.0,
        })
        .max_rounds(20)
        .seed(44)
        .build()
        .expect("spec")
        .run()
        .expect("run");
    assert!(
        report.messages_expired > 0,
        "a delay reaching past the final round must increment messages_expired"
    );
    // Delays are uniform in 1..=Δ, so with Δ = 100 000 and a 20-round cap
    // virtually every deferred envelope out-lives the run; the handful
    // whose delay happened to land inside the cap arrived normally.
    assert!(
        report.messages_expired > 100 * report.messages_delivered.max(1),
        "almost every delayed envelope must expire, not deliver \
         (expired {}, delivered {})",
        report.messages_expired,
        report.messages_delivered
    );
    assert_eq!(
        report.messages_delayed,
        report.messages_delivered + report.messages_expired,
        "an envelope is delivered or expired, never both and never neither"
    );
}

#[test]
fn partially_expiring_delays_conserve_the_delayed_count() {
    // Moderate delays: some deferred envelopes arrive, the in-flight rest
    // expires at the cap.  delivered + expired must exactly account for
    // every delayed envelope (no double counting, no losses).
    let report = Simulation::builder()
        .topology(TopologySpec::SmallWorld { n: 96, d: 6 })
        .workload(WorkloadSpec::Basic)
        .fault(FaultSpec::Delay {
            max_delay: 3,
            rate: 1.0,
        })
        .max_rounds(30)
        .seed(45)
        .build()
        .expect("spec")
        .run()
        .expect("run");
    assert!(report.messages_delayed > 0);
    assert!(report.messages_expired > 0, "some were still in flight");
    assert!(report.messages_delivered > 0, "some delays elapsed in time");
    assert_eq!(
        report.messages_delayed,
        report.messages_delivered + report.messages_expired
    );
}

#[test]
fn delays_that_saturate_the_tick_counter_expire_on_every_layout() {
    // Regression: a composed delay saturates at `u64::MAX`, and the due
    // tick `tick + delay` overflowed.  Debug builds panicked on every
    // engine; release builds wrapped the due tick into the past, so the
    // sharded layouts panicked and the distributed one lost its worker
    // while the reference engine finished.  A deferral past the end of
    // time is past the run: every delayed envelope expires, and every
    // layout reports the same run.
    let max = FaultSpec::Delay {
        max_delay: u64::MAX,
        rate: 0.5,
    };
    let spec = Simulation::builder()
        .topology(TopologySpec::SmallWorldH { n: 128, d: 6 })
        .workload(WorkloadSpec::GeometricSupport {
            ttl: None,
            attack: AttackSpec::None,
        })
        .fault(FaultSpec::Compose(vec![max.clone(), max]))
        .seed(42)
        .build()
        .expect("the spec validates")
        .spec()
        .clone();
    let normalized = |engine: EngineSpec| {
        let mut spec = spec.clone();
        spec.engine = engine;
        let mut report =
            byzcount::sim::execute(&spec).unwrap_or_else(|e| panic!("{engine:?}: {e}"));
        report.spec.engine = EngineSpec::Sync;
        report
    };
    let reference = normalized(EngineSpec::Sync);
    assert!(reference.messages_delayed > 0);
    assert_eq!(reference.messages_expired, reference.messages_delayed);
    for engine in [
        EngineSpec::Sharded { shards: 2 },
        EngineSpec::asynchronous(),
        EngineSpec::ShardedAsync {
            shards: 3,
            clocks: ClockPlan::Uniform,
        },
        EngineSpec::Distributed { shards: 2 },
    ] {
        assert_eq!(
            normalized(engine).to_json(),
            reference.to_json(),
            "{engine:?} must report what the reference engine reports"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Zero-rate faults are behaviourally invisible: a spec with loss,
    /// delay and churn rates of 0.0 produces exactly the run the fault-free
    /// spec produces (the embedded spec differs, everything else is
    /// byte-identical).  The fault RNG streams are independent of the
    /// engine's, which is what makes this hold.
    #[test]
    fn zero_rate_faults_change_nothing(seed in any::<u64>()) {
        let build = |fault: FaultSpec| {
            Simulation::builder()
                .topology(TopologySpec::SmallWorld { n: 128, d: 6 })
                .workload(WorkloadSpec::Byzantine)
                .placement(PlacementSpec::RandomBudget { delta: 0.6 })
                .adversary(AdversarySpec::Silent)
                .fault(fault)
                .seed(seed)
                .build()
                .expect("spec")
                .run()
                .expect("run")
        };
        let clean = build(FaultSpec::None);
        let zeroed = build(FaultSpec::Compose(vec![
            FaultSpec::Loss { rate: 0.0 },
            FaultSpec::Delay { max_delay: 3, rate: 0.0 },
            FaultSpec::Churn { rate: 0.0, downtime: 4 },
        ]));
        prop_assert_eq!(zeroed.messages_lost, 0);
        prop_assert_eq!(zeroed.messages_delayed, 0);
        prop_assert_eq!(zeroed.churn_crashes, 0);
        // Align the embedded specs, then the whole reports must match.
        let mut zeroed = zeroed;
        zeroed.spec = clean.spec.clone();
        prop_assert_eq!(&zeroed.to_json(), &clean.to_json());
    }
}
