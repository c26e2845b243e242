//! Property-based tests (proptest) on the core data structures and
//! protocol invariants, spanning netsim-graph, netsim-faults and
//! byzcount-core.

use byzcount::prelude::*;
use byzcount_core::color;
use proptest::prelude::*;

/// Build an arbitrary [`FaultSpec`] from fuzzed scalars.  `shape` selects
/// the variant; nesting is exercised through one `Compose` level (the spec
/// grammar is closed under composition, so one level covers the recursive
/// serde path).
fn fault_spec_from(shape: u8, rate_milli: u64, rounds: u64, nested: bool) -> FaultSpec {
    let rate = (rate_milli % 1001) as f64 / 1000.0;
    let rounds = rounds % 50 + 1;
    let leaf = match shape % 5 {
        0 => FaultSpec::None,
        1 => FaultSpec::Loss { rate },
        2 => FaultSpec::Delay {
            max_delay: rounds,
            rate,
        },
        3 => FaultSpec::Churn {
            rate,
            downtime: rounds,
        },
        _ => FaultSpec::Partition {
            start: rounds,
            duration: rounds + 2,
        },
    };
    if nested {
        FaultSpec::Compose(vec![leaf, FaultSpec::Loss { rate }, FaultSpec::None])
    } else {
        leaf
    }
}

/// Build an arbitrary [`EngineSpec`] from fuzzed scalars, covering every
/// engine family and every clock-plan shape — including the v5
/// `ShardedAsync` family, whose shard count and clock plan are both
/// fuzzed.
fn engine_spec_from(shape: u8, shards: u32) -> EngineSpec {
    match shape % 8 {
        0 => EngineSpec::Sync,
        1 => EngineSpec::Sharded {
            shards: shards % 64 + 1,
        },
        2 => EngineSpec::Async {
            clocks: ClockPlan::Uniform,
        },
        3 => EngineSpec::Async {
            clocks: ClockPlan::Stratified {
                every: shards % 7 + 1,
                period: shards % 5 + 1,
            },
        },
        4 => EngineSpec::Async {
            clocks: ClockPlan::Jittered {
                max_period: shards % 6 + 1,
            },
        },
        5 => EngineSpec::ShardedAsync {
            shards: shards % 64 + 1,
            clocks: ClockPlan::Uniform,
        },
        6 => EngineSpec::ShardedAsync {
            shards: shards % 16 + 1,
            clocks: ClockPlan::Stratified {
                every: shards % 7 + 1,
                period: shards % 5 + 1,
            },
        },
        _ => EngineSpec::ShardedAsync {
            shards: shards % 8 + 1,
            clocks: ClockPlan::Jittered {
                max_period: shards % 6 + 1,
            },
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// H(n, d) is always d-regular with nd/2 edges, for any admissible (n, d).
    #[test]
    fn hgraph_is_always_regular(n in 8usize..400, half_d in 2usize..5, seed in any::<u64>()) {
        let d = half_d * 2;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        use rand::SeedableRng;
        let h = netsim_graph::HGraph::generate(n, d, &mut rng).unwrap();
        prop_assert!(h.is_regular());
        prop_assert_eq!(h.csr().num_undirected_edges(), n * d / 2);
        prop_assert!(h.csr().is_symmetric());
    }

    /// The small-world overlay always contains H and respects the ball bound.
    #[test]
    fn small_world_overlay_contains_h(n in 20usize..200, seed in any::<u64>()) {
        let net = SmallWorldNetwork::generate_seeded(n, 6, seed).unwrap();
        let bound = (net.d() - 1).pow(net.k() as u32 + 1);
        for v in net.node_ids().take(20) {
            prop_assert!(net.g_neighbors(v).len() < bound);
            for &u in net.h_neighbors(v) {
                if u as usize != v.index() {
                    prop_assert!(net.is_g_edge(v, NodeId(u)));
                }
            }
        }
    }

    /// Geometric colors are ≥ 1 and their distribution facts are consistent.
    #[test]
    fn color_distribution_identities(r in 1u32..20, n_prime in 1usize..10_000) {
        prop_assert!((color::pr_color_ge(r) - (color::pr_color_eq(r) + color::pr_color_ge(r + 1))).abs() < 1e-12);
        let p_lt = color::pr_max_lt(r, n_prime);
        let p_ge = color::pr_max_ge(r, n_prime);
        prop_assert!((p_lt + p_ge - 1.0).abs() < 1e-9);
        prop_assert!((0.0..=1.0).contains(&p_lt));
    }

    /// The schedule locator is a bijection between rounds and positions.
    #[test]
    fn schedule_locate_is_consistent(round in 2u64..3000, eps_milli in 10u64..500) {
        let schedule = Schedule::new(8, eps_milli as f64 / 1000.0);
        if let byzcount_core::Position::InPhase(pos) = schedule.locate(round) {
            prop_assert!(pos.phase >= 1);
            prop_assert!(pos.subphase >= 1 && pos.subphase <= schedule.subphases_in_phase(pos.phase));
            prop_assert!(pos.step <= pos.phase);
            // Re-derive the round from the position.
            let mut r = byzcount_core::DISCOVERY_ROUNDS;
            for p in 1..pos.phase {
                r += schedule.rounds_in_phase(p);
            }
            r += (pos.subphase - 1) * schedule.rounds_in_subphase(pos.phase) + pos.step;
            prop_assert_eq!(r, round);
        } else {
            prop_assert!(round < 2);
        }
    }

    /// Placements never exceed their budget and masks match node lists.
    #[test]
    fn placement_mask_consistency(n in 1usize..500, count in 0usize..600, seed in any::<u64>()) {
        let p = Placement::random(n, count, seed);
        prop_assert_eq!(p.count(), count.min(n));
        prop_assert_eq!(p.nodes().len(), p.count());
        prop_assert_eq!(p.mask().iter().filter(|&&b| b).count(), p.count());
    }

    /// Serde round-trip fuzz (parse ∘ print = id) for `RunSpec`, over every
    /// fault shape, every engine shape, the full u64 seed space and the
    /// schema-visible optional fields.  Printing the parsed spec must also
    /// reproduce the exact bytes, so specs are canonical and diffable.
    #[test]
    fn run_spec_serde_round_trip_is_identity(
        seed in any::<u64>(),
        n in 2usize..5000,
        d_half in 2usize..6,
        fault_shape in 0u8..10,
        rate_milli in any::<u64>(),
        rounds in any::<u64>(),
        nested in proptest::option::of(0u8..1),
        max_rounds in proptest::option::of(1u64..100_000),
        engine_shape in 0u8..10,
        shards in any::<u32>(),
    ) {
        let spec = RunSpec {
            version: SPEC_VERSION,
            topology: TopologySpec::SmallWorld { n, d: 2 * d_half },
            workload: WorkloadSpec::Byzantine,
            placement: PlacementSpec::RandomBudget { delta: 0.6 },
            adversary: AdversarySpec::Combined,
            fault: fault_spec_from(fault_shape, rate_milli, rounds, nested.is_some()),
            engine: engine_spec_from(engine_shape, shards),
            params: ParamsSpec::Derived { delta: 0.6, epsilon: 0.1 },
            seed,
            max_rounds,
        };
        prop_assert!(spec.validate().is_ok(), "{spec:?}");
        let json = spec.to_json();
        let back = RunSpec::from_json(&json).expect("fuzzed spec must parse");
        prop_assert_eq!(&back, &spec);
        prop_assert_eq!(back.to_json(), json, "print ∘ parse must be the identity");
    }

    /// Downward migration fuzz, v5 → v4 → v3 → v2 → v1: strip the
    /// async-family engine value (and stamp version 3) off any serialized
    /// v5 spec — the result must still parse, to the same spec with the
    /// default `Sync` engine and the current version; a v4 stamp over a
    /// v4-legal engine value (`Async`) and a v3 stamp over a v3-legal one
    /// (`Sharded`) must each preserve that engine.  One version further
    /// down, stripping `engine` (version 2) and then `fault` too (version
    /// 1) must yield the corresponding defaults.
    #[test]
    fn older_spec_versions_migrate_to_current_defaults(
        seed in any::<u64>(),
        n in 2usize..5000,
        fault_shape in 0u8..10,
        rate_milli in any::<u64>(),
        rounds in any::<u64>(),
        clock_shape in 0u8..10,
    ) {
        use serde::{Number, Serialize, Value};
        let mut spec = RunSpec {
            version: SPEC_VERSION,
            topology: TopologySpec::SmallWorld { n, d: 6 },
            workload: WorkloadSpec::Byzantine,
            placement: PlacementSpec::RandomBudget { delta: 0.6 },
            adversary: AdversarySpec::Combined,
            fault: fault_spec_from(fault_shape, rate_milli, rounds, false),
            // Start from a v4-or-v5-only engine value: any `Async` clock
            // shape or any `ShardedAsync` shape (shapes 2..8).
            engine: engine_spec_from(2 + clock_shape % 6, rate_milli as u32),
            params: ParamsSpec::Derived { delta: 0.6, epsilon: 0.1 },
            seed,
            max_rounds: None,
        };
        let strip = |spec: &RunSpec, version: u64, keys: &[&str]| -> String {
            let mut v = spec.to_value();
            let obj = v.as_obj_mut().expect("specs serialize to objects");
            obj.insert("version".into(), Value::Num(Number::U(version)));
            for key in keys {
                obj.remove(*key);
            }
            serde_json::to_string_pretty(&v).expect("value prints")
        };
        // v5 → v3: the async-family engine value is the only v4/v5-only
        // content; stripping it (version 3, no engine key) must read as
        // Sync and migrate back to the current version.
        let parsed = RunSpec::from_json(&strip(&spec, 3, &["engine"]))
            .expect("v3 spec must parse");
        spec.engine = EngineSpec::Sync;
        prop_assert_eq!(&parsed, &spec);
        prop_assert_eq!(parsed.version, SPEC_VERSION);
        // A v4 stamp over a v4-legal engine value (async clocks) survives
        // unchanged — v5 added only the `ShardedAsync` vocabulary.
        spec.engine = engine_spec_from(2 + clock_shape % 3, rate_milli as u32);
        let parsed = RunSpec::from_json(&strip(&spec, 4, &[]))
            .expect("v4 spec with an Async engine must parse");
        prop_assert_eq!(&parsed, &spec);
        prop_assert_eq!(parsed.version, SPEC_VERSION);
        // A v3 stamp over a v3-legal engine value survives unchanged.
        spec.engine = EngineSpec::Sharded { shards: 5 };
        let parsed = RunSpec::from_json(&strip(&spec, 3, &[]))
            .expect("v3 spec with a Sharded engine must parse");
        prop_assert_eq!(&parsed, &spec);
        prop_assert_eq!(parsed.version, SPEC_VERSION);
        // v2: no engine field.
        let parsed = RunSpec::from_json(&strip(&spec, 2, &["engine"]))
            .expect("v2 spec must parse");
        spec.engine = EngineSpec::Sync;
        prop_assert_eq!(&parsed, &spec);
        prop_assert_eq!(parsed.version, SPEC_VERSION);
        // v1: no engine and no fault field.
        let parsed = RunSpec::from_json(&strip(&spec, 1, &["engine", "fault"]))
            .expect("v1 spec must parse");
        spec.fault = FaultSpec::None;
        prop_assert_eq!(&parsed, &spec);
    }

    /// `DelayRing` against a `BTreeMap` model: a random schedule of pushes
    /// (due now, near, across ring growth, past the ring's 4,096-tick cap,
    /// at `u64::MAX`, and onto ticks that already hold items) and drains at increasing ticks that skip ahead
    /// as sparse ticking does, never past a due tick.  Every drain hands
    /// back exactly the model's items for its tick, in push order, and
    /// `in_flight()` and `next_due()` agree with the model after every
    /// step.
    #[test]
    fn delay_ring_matches_a_btreemap_model(
        start in 0u64..10_000,
        ops in proptest::collection::vec(any::<u64>(), 1..300),
    ) {
        use byzcount::runtime::DelayRing;
        use std::collections::BTreeMap;
        let mut ring: DelayRing<u32> = DelayRing::new();
        let mut model: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        let (mut now, mut next_id) = (start, 0u32);
        for &op in &ops {
            let arg = op >> 3;
            if op % 8 < 5 {
                let pending: Vec<u64> = model.keys().copied().collect();
                let due = match arg % 7 {
                    0 => now,
                    1 => now.saturating_add(1 + (arg >> 3) % 8),
                    2 => now.saturating_add(1 + (arg >> 3) % 64),
                    3 => now.saturating_add(1 + (arg >> 3) % 4096),
                    4 => now.saturating_add(4096 + (arg >> 3) % 10_000),
                    5 => u64::MAX,
                    // A tick that already holds items, which may have
                    // spilled while it was far out.
                    _ if pending.is_empty() => now,
                    _ => pending[(arg >> 3) as usize % pending.len()],
                };
                ring.push(now, due, next_id);
                model.entry(due).or_default().push(next_id);
                next_id += 1;
            } else {
                let mut got = Vec::new();
                ring.drain_due(now, |id| got.push(id));
                prop_assert_eq!(got, model.remove(&now).unwrap_or_default());
                if now == u64::MAX {
                    break;
                }
                // Skip ahead, but never past the next due tick: a short
                // step, or (like sparse ticking) straight to the next due.
                let next = model.keys().next().copied();
                now = match next {
                    Some(due) if op % 8 == 7 => due,
                    _ => now.saturating_add(1 + arg % 16).min(next.unwrap_or(u64::MAX)),
                };
            }
            let pending: usize = model.values().map(Vec::len).sum();
            prop_assert_eq!(ring.in_flight(), pending);
            prop_assert_eq!(ring.next_due(), model.keys().next().copied());
        }
    }

    /// Serde round-trip fuzz for `FaultSpec` on its own (the hand-written
    /// serde impls): every generated shape must survive value-level
    /// round-tripping unchanged.
    #[test]
    fn fault_spec_serde_round_trip_is_identity(
        shape in 0u8..10,
        rate_milli in any::<u64>(),
        rounds in any::<u64>(),
        nested in proptest::option::of(0u8..1),
    ) {
        use byzcount::faults::FaultSpec as FS;
        use serde::{Deserialize, Serialize};
        let spec = fault_spec_from(shape, rate_milli, rounds, nested.is_some());
        let back = FS::from_value(&spec.to_value()).expect("round trip");
        prop_assert_eq!(back, spec);
    }

    /// `ComposedFaults` order-invariance: composing the *same constituent
    /// plans* (same per-plan seeds) in either order gives every envelope
    /// the same fate.  Drop decisions commute because Drop dominates and
    /// every plan is consulted for every envelope regardless of earlier
    /// verdicts; delays commute because they add.
    #[test]
    fn composed_fault_fates_are_order_invariant(
        loss_rate_milli in 0u64..1001,
        delay_rate_milli in 0u64..1001,
        max_delay in 1u64..6,
        loss_seed in any::<u64>(),
        delay_seed in any::<u64>(),
        envelopes in 1usize..400,
    ) {
        use byzcount::faults::{ComposedFaults, EnvelopeFate, FaultPlan, IidLoss, RandomDelay};
        let loss_rate = loss_rate_milli as f64 / 1000.0;
        let delay_rate = delay_rate_milli as f64 / 1000.0;
        let fates = |mut plan: ComposedFaults| -> Vec<EnvelopeFate> {
            (0..envelopes)
                .map(|i| {
                    plan.envelope_fate(i as u64, NodeId((i % 7) as u32), NodeId((i % 11) as u32))
                })
                .collect()
        };
        let loss_then_delay = ComposedFaults::new(vec![
            Box::new(IidLoss::new(loss_rate, loss_seed)),
            Box::new(RandomDelay::new(max_delay, delay_rate, delay_seed)),
        ]);
        let delay_then_loss = ComposedFaults::new(vec![
            Box::new(RandomDelay::new(max_delay, delay_rate, delay_seed)),
            Box::new(IidLoss::new(loss_rate, loss_seed)),
        ]);
        let a = fates(loss_then_delay);
        let b = fates(delay_then_loss);
        // Full fate equality — which subsumes the Drop-dominance case:
        // loss∘delay ≡ delay∘loss on every envelope, dropped or not.
        prop_assert_eq!(&a, &b);
    }

    /// Engine invariance over randomized synchronous specs: for a fuzzed
    /// topology size, seed and fault shape (every variant reachable via
    /// `fault_spec_from`, nesting included), executing the spec on the
    /// sharded engine (fuzzed shard count), on the async engine with
    /// uniform clocks, and on the sharded-async engine (same fuzzed shard
    /// count, uniform clocks) produces reports byte-identical to the
    /// classic engine's — the parity contract of the whole engine family,
    /// stated as a property rather than over fixtures.
    #[test]
    fn randomized_synchronous_specs_are_engine_invariant(
        seed in any::<u64>(),
        n in 48usize..128,
        fault_shape in 0u8..10,
        rate_milli in 0u64..400, // cap rates so runs still terminate fast
        rounds in any::<u64>(),
        nested in proptest::option::of(0u8..1),
        shards in 2u32..10,
    ) {
        let base = RunSpec {
            version: SPEC_VERSION,
            topology: TopologySpec::SmallWorld { n, d: 6 },
            workload: WorkloadSpec::Byzantine,
            placement: PlacementSpec::RandomBudget { delta: 0.6 },
            adversary: AdversarySpec::Silent,
            fault: fault_spec_from(fault_shape, rate_milli, rounds, nested.is_some()),
            engine: EngineSpec::Sync,
            params: ParamsSpec::Derived { delta: 0.6, epsilon: 0.1 },
            seed,
            max_rounds: Some(4000),
        };
        let reference = byzcount::sim::execute(&base).expect("sync run");
        for engine in [
            EngineSpec::Sharded { shards },
            EngineSpec::asynchronous(),
            EngineSpec::ShardedAsync {
                shards,
                clocks: ClockPlan::Uniform,
            },
        ] {
            let mut spec = base.clone();
            spec.engine = engine;
            let mut report = byzcount::sim::execute(&spec).expect("engine run");
            report.spec.engine = EngineSpec::Sync; // the one intentional delta
            prop_assert_eq!(
                report.to_json(),
                reference.to_json(),
                "{} diverged from the classic engine", engine.name()
            );
        }
    }

    /// Evaluation never counts more good nodes than honest nodes, and the
    /// good fraction is a probability.
    #[test]
    fn evaluation_bounds(estimates in proptest::collection::vec(proptest::option::of(1u64..40), 1..80)) {
        let n = estimates.len();
        let outcome = CountingOutcome {
            n,
            estimates,
            decided_round: vec![None; n],
            crashed: vec![false; n],
            byzantine: vec![false; n],
            params: ProtocolParams::new(8, 3, 0.6, 0.1, 1.0),
            metrics: Default::default(),
            completed: true,
        };
        let eval = outcome.evaluate();
        prop_assert!(eval.honest_good <= eval.honest_total);
        prop_assert!((0.0..=1.0).contains(&eval.good_fraction_of_honest));
        prop_assert!(eval.honest_decided <= eval.honest_total);
    }
}

// ---------------------------------------------------------------------------
// O(events) engine fuzz: sparse ticking and per-shard clock domains must be
// invisible in results.  These properties drive the runtime engines
// directly — the spec layer always takes the sparse `run()` path, so the
// dense reference loop is only reachable at this level.
// ---------------------------------------------------------------------------

/// The fuzzed max-flood message: fixed 64-bit payload.
#[derive(Clone, Debug, PartialEq)]
struct FuzzVal(u64);

impl MessageSize for FuzzVal {
    fn message_size(&self) -> SizedMessage {
        SizedMessage::new(0, 64)
    }
}

impl wire::Wire for FuzzVal {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(r: &mut wire::Reader<'_>) -> Result<Self, wire::WireError> {
        Ok(FuzzVal(<u64 as wire::Wire>::decode(r)?))
    }
}

/// A fuzzable max-flood protocol: every node draws a value from its node
/// RNG, floods the running maximum, and decides at a TTL.  Mirrors the
/// engine test-suite workhorse, with enough quiet rounds between floods
/// for sparse ticking to have something to skip.
#[derive(Clone)]
struct FuzzFlood {
    best: u64,
    ttl: u64,
    started: bool,
}

impl Protocol for FuzzFlood {
    type Message = FuzzVal;
    type Output = u64;

    fn step(
        &mut self,
        ctx: &NodeContext<'_>,
        inbox: &[Envelope<FuzzVal>],
        outbox: &mut Outbox<FuzzVal>,
        rng: &mut rand_chacha::ChaCha8Rng,
    ) -> Action<u64> {
        use rand::Rng;
        if !self.started {
            self.started = true;
            self.best = rng.gen::<u64>() | 1;
            outbox.broadcast(ctx.neighbors.iter(), FuzzVal(self.best));
            return Action::Continue;
        }
        let mut improved = false;
        for env in inbox {
            if env.payload.0 > self.best {
                self.best = env.payload.0;
                improved = true;
            }
        }
        if improved {
            outbox.broadcast(ctx.neighbors.iter(), FuzzVal(self.best));
        }
        if ctx.round >= self.ttl {
            Action::Decide(self.best)
        } else {
            Action::Continue
        }
    }

    // Once started, an empty inbox improves nothing, so only the decision
    // at the TTL acts without input.
    fn idle_until(&self, round: u64) -> u64 {
        if self.started && round < self.ttl {
            self.ttl
        } else {
            round
        }
    }
}

/// Ring topology: every node has two neighbors, so floods cross the whole
/// graph and every fault shape has traffic to act on.
fn ring_graph(n: usize) -> netsim_graph::Csr {
    let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
    netsim_graph::Csr::from_undirected_edges(n, &edges).unwrap()
}

/// Every clock-plan shape, with fuzzed stratification parameters.
fn clock_plan_from(shape: u8, every: u32, period: u32) -> ClockPlan {
    match shape % 4 {
        0 => ClockPlan::Uniform,
        1 => ClockPlan::Stratified { every, period },
        2 => ClockPlan::Stratified {
            every: 2,
            period: period + 2,
        },
        _ => ClockPlan::Jittered { max_period: period },
    }
}

fn fuzz_states(n: usize, ttl: u64) -> Vec<FuzzFlood> {
    (0..n)
        .map(|_| FuzzFlood {
            best: 0,
            ttl,
            started: false,
        })
        .collect()
}

/// [`FuzzFlood`] without its [`Protocol::idle_until`] declaration: every
/// engine steps it every round, quiet or not.
#[derive(Clone)]
struct NeverQuiescent(FuzzFlood);

impl Protocol for NeverQuiescent {
    type Message = FuzzVal;
    type Output = u64;

    fn step(
        &mut self,
        ctx: &NodeContext<'_>,
        inbox: &[Envelope<FuzzVal>],
        outbox: &mut Outbox<FuzzVal>,
        rng: &mut rand_chacha::ChaCha8Rng,
    ) -> Action<u64> {
        self.0.step(ctx, inbox, outbox, rng)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sparse ≡ dense: for any clock plan and any fault shape, the sparse
    /// `run()` loop (which jumps over idle ticks) produces outputs,
    /// statuses and metrics identical to a dense tick-by-tick reference —
    /// tick skipping is a pure execution-cost optimization with no
    /// observable semantics.
    #[test]
    fn sparse_ticking_is_invisible_for_any_clock_plan_and_fault_shape(
        seed in any::<u64>(),
        n in 4usize..24,
        clock_shape in 0u8..8,
        every in 2u32..6,
        period in 2u32..9,
        fault_shape in 0u8..10,
        rate_milli in 0u64..400,
        rounds in any::<u64>(),
        nested in proptest::option::of(0u8..1),
    ) {
        let g = ring_graph(n);
        let clocks = clock_plan_from(clock_shape, every, period);
        let cfg = EngineConfig { max_rounds: 600, stop_when_all_decided: true };
        let fault = fault_spec_from(fault_shape, rate_milli, rounds, nested.is_some());
        // Plans are deterministic in (spec, n, seed), so building twice
        // yields identical fault streams for the two executions.
        let plan = || fault.build_plan(n, &vec![true; n], seed ^ 0xFA17);
        let engine = || ShardedEngine::new(
            &g, fuzz_states(n, 120), vec![false; n], NullAdversary, cfg, seed,
            Layout::InProcess { shards: 1, clocks },
        ).with_fault_plan_opt(plan());
        let mut dense = engine();
        while !dense.finished() {
            dense.step_tick().expect("in process");
        }
        let dense = dense.into_result().expect("in process");
        let sparse = engine().run().expect("in process");
        prop_assert_eq!(&sparse.outputs, &dense.outputs);
        prop_assert_eq!(&sparse.decided_round, &dense.decided_round);
        prop_assert_eq!(&sparse.crashed, &dense.crashed);
        prop_assert_eq!(&sparse.statuses, &dense.statuses);
        prop_assert_eq!(&sparse.metrics, &dense.metrics);
        prop_assert_eq!(sparse.completed, dense.completed);
    }

    /// Shard-count invariance: S ∈ {1, 2, 4, 8} in-process shards produce
    /// results identical to the one-shard layout under any clock plan and
    /// any fault shape, and the wire layout over in-process pipes at
    /// S ∈ {1, 2, 4} (uniform clocks) equals `SyncEngine` on the same
    /// fault shape — the shard layout and the transport are execution
    /// details, never semantic ones.
    #[test]
    fn sharded_async_engine_is_shard_count_invariant(
        seed in any::<u64>(),
        n in 4usize..24,
        clock_shape in 0u8..8,
        every in 2u32..6,
        period in 2u32..9,
        fault_shape in 0u8..10,
        rate_milli in 0u64..400,
        rounds in any::<u64>(),
        nested in proptest::option::of(0u8..1),
    ) {
        let g = ring_graph(n);
        let clocks = clock_plan_from(clock_shape, every, period);
        let cfg = EngineConfig { max_rounds: 600, stop_when_all_decided: true };
        let fault = fault_spec_from(fault_shape, rate_milli, rounds, nested.is_some());
        let plan = || fault.build_plan(n, &vec![true; n], seed ^ 0xFA17);
        let run = |layout: Layout| ShardedEngine::new(
            &g, fuzz_states(n, 120), vec![false; n], NullAdversary, cfg, seed, layout,
        ).with_fault_plan_opt(plan()).run().expect("pipes never fail");
        let sync = SyncEngine::new(&g, fuzz_states(n, 120), vec![false; n], NullAdversary, cfg, seed)
            .with_fault_plan_opt(plan())
            .run();
        let reference = run(Layout::InProcess { shards: 1, clocks });
        let layouts = [1usize, 2, 4, 8]
            .map(|shards| (Layout::InProcess { shards, clocks }, &reference))
            .into_iter()
            .chain([1usize, 2, 4].map(|shards| (Layout::Wire { shards, fleet: None }, &sync)));
        for (layout, expected) in layouts {
            let result = run(layout.clone());
            prop_assert_eq!(&result.outputs, &expected.outputs, "{:?}", layout);
            prop_assert_eq!(&result.decided_round, &expected.decided_round, "{:?}", layout);
            prop_assert_eq!(&result.crashed, &expected.crashed, "{:?}", layout);
            prop_assert_eq!(&result.statuses, &expected.statuses, "{:?}", layout);
            prop_assert_eq!(&result.metrics, &expected.metrics, "{:?}", layout);
            prop_assert_eq!(result.completed, expected.completed, "{:?}", layout);
        }
    }

    /// Skipping idle nodes is invisible: `FuzzFlood` declares its quiet
    /// rounds idle, so the sharded layouts skip its idle steps (and, under
    /// uniform clocks and a plan that never churns, its idle ticks), and
    /// `NeverQuiescent` is the same protocol stepped every round.  On
    /// the reference engine, in-process shards under every clock-plan
    /// shape, and pipe workers, and under every fault shape (churn
    /// included), the two give identical results.
    #[test]
    fn skipping_quiescent_nodes_is_invisible_on_every_layout(
        seed in any::<u64>(),
        n in 4usize..24,
        shards in 1usize..5,
        every in 2u32..6,
        period in 2u32..9,
        fault_shape in 0u8..10,
        rate_milli in 0u64..400,
        rounds in any::<u64>(),
        nested in proptest::option::of(0u8..1),
    ) {
        let g = ring_graph(n);
        let cfg = EngineConfig { max_rounds: 600, stop_when_all_decided: true };
        let fault = fault_spec_from(fault_shape, rate_milli, rounds, nested.is_some());
        let exec = |engine| Exec {
            engine,
            fault_plan: fault.build_plan(n, &vec![true; n], seed ^ 0xFA17),
            ..Exec::default()
        };
        let skipping = |engine| run_with_engine(
            &g, fuzz_states(n, 120), vec![false; n], NullAdversary, cfg, seed, exec(engine),
        ).expect("pipes never fail");
        let stepping = |engine| run_with_engine(
            &g,
            fuzz_states(n, 120).into_iter().map(NeverQuiescent).collect(),
            vec![false; n],
            NullAdversary,
            cfg,
            seed,
            exec(engine),
        ).expect("pipes never fail");
        let engines = [EngineKind::Sync, EngineKind::Sharded { shards }, EngineKind::Distributed { shards }]
            .into_iter()
            .chain((0..4).map(|shape| EngineKind::ShardedAsync {
                shards,
                clocks: clock_plan_from(shape, every, period),
            }));
        for engine in engines {
            let (a, b) = (skipping(engine), stepping(engine));
            prop_assert_eq!(&a.outputs, &b.outputs, "{:?}", engine);
            prop_assert_eq!(&a.decided_round, &b.decided_round, "{:?}", engine);
            prop_assert_eq!(&a.crashed, &b.crashed, "{:?}", engine);
            prop_assert_eq!(&a.statuses, &b.statuses, "{:?}", engine);
            prop_assert_eq!(&a.metrics, &b.metrics, "{:?}", engine);
            prop_assert_eq!(a.completed, b.completed, "{:?}", engine);
        }
    }
}

// ---------------------------------------------------------------------------
// Campaign protocol fuzz: the wire parser must never panic, whatever the
// bytes, and must apply the handshake compatibility rules exactly.
// ---------------------------------------------------------------------------

use byzcount_campaign::protocol::{self, Hello, Request, Response, PROTO_MAJOR, PROTO_MINOR};

/// Assemble an adversarial frame line from fuzzed scalars: truncations of
/// valid frames, unknown verbs, wrong-kind bodies, binary junk.
fn hostile_line(shape: u8, verb_seed: u64, cut_milli: u64, job_byte: u8) -> String {
    let verbs = [
        "submit",
        "status",
        "results",
        "cancel",
        "hello",
        "merge",
        "",
        "\u{1F980}",
    ];
    let verb = verbs[(verb_seed % verbs.len() as u64) as usize];
    let line = match shape % 8 {
        0 => format!("{{\"{verb}\": {{}}}}"),
        1 => format!("{{\"{verb}\": {{\"job\": {job_byte}}}}}"),
        2 => format!("{{\"{verb}\": [{job_byte}, {verb_seed}]}}"),
        3 => format!("{{\"{verb}\": null}}"),
        4 => format!("[{job_byte}]"),
        5 => format!("{job_byte}"),
        6 => String::from_utf8_lossy(&[job_byte, 0xFF, b'{', job_byte]).into_owned(),
        _ => protocol::encode_line(&Request::Status {
            job: "fuzzed".into(),
        }),
    };
    // Truncate to an arbitrary prefix: torn frames must parse-or-error,
    // never panic.
    let keep = line.len() as u64 * (cut_milli % 1001) / 1000;
    let mut cut = keep as usize;
    while cut < line.len() && !line.is_char_boundary(cut) {
        cut += 1;
    }
    line[..cut].to_string()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary (possibly torn) frames decode to Ok or to a clean
    /// protocol error — both requests and responses, plus the hello path.
    #[test]
    fn campaign_frames_never_panic(
        shape in any::<u8>(),
        verb_seed in any::<u64>(),
        cut_milli in any::<u64>(),
        job_byte in any::<u8>(),
    ) {
        let line = hostile_line(shape, verb_seed, cut_milli, job_byte);
        let _ = protocol::decode_line::<Request>(&line);
        let _ = protocol::decode_line::<Response>(&line);
        let _ = protocol::decode_hello(&line);
    }

    /// Well-formed requests survive the wire unchanged, whatever the job
    /// id and cursor; unknown verbs are rejected without panicking.
    #[test]
    fn campaign_requests_round_trip_and_reject_unknown_verbs(
        cursor in any::<u64>(),
        max in any::<u32>(),
        merged in proptest::option::of(0u8..1),
        job_tail in 0u64..1_000_000,
    ) {
        let job = format!("job-{job_tail}");
        let request = Request::Results {
            job: job.clone(),
            cursor,
            max,
            merged: merged.is_some(),
        };
        let line = protocol::encode_line(&request);
        prop_assert_eq!(line.matches('\n').count(), 1);
        let back: Request = protocol::decode_line(&line).expect("round trip");
        prop_assert_eq!(back, request);

        let unknown = format!("{{\"verb-{job_tail}\": {{\"job\": \"{job}\"}}}}");
        prop_assert!(protocol::decode_line::<Request>(&unknown).is_err());
    }

    /// Hello compatibility: any minor (ours, older, future) is accepted
    /// as long as the major matches *and* the peer's spec schema is not
    /// newer than ours (0 is the unpinned wildcard); every other major,
    /// and any newer spec schema, is rejected.  Unknown fields riding
    /// along a newer minor's hello are ignored.
    #[test]
    fn campaign_hello_compatibility_rules(
        major in 0u32..5,
        minor in any::<u32>(),
        spec_version in any::<u32>(),
        extra in any::<u64>(),
    ) {
        let line = format!(
            "{{\"hello\": {{\"proto_major\": {major}, \"proto_minor\": {minor}, \
             \"spec_version\": {spec_version}, \"extension_{extra}\": [{extra}]}}}}\n"
        );
        let hello = protocol::decode_hello(&line).expect("hello with extras parses");
        prop_assert_eq!(hello.proto_major, major);
        prop_assert_eq!(hello.proto_minor, minor);
        let compatible = hello.check_compatible().is_ok();
        prop_assert_eq!(
            compatible,
            major == PROTO_MAJOR && (spec_version == 0 || spec_version <= SPEC_VERSION)
        );
        // Sanity: our own hello is always compatible with itself.
        prop_assert!(Hello::current().check_compatible().is_ok());
        prop_assert_eq!(Hello::current().proto_minor, PROTO_MINOR);
    }
}

// ---------------------------------------------------------------------------
// Observability fuzz: trace record shapes and the `stats` telemetry verb
// must round-trip losslessly through their wire encodings, and the trace
// validator must recover exactly the counters a writer was fed.
// ---------------------------------------------------------------------------

use byzcount::trace::{
    check_trace, Counter as TraceCounter, CounterSet, Phase as TracePhase, PhaseProfiler,
    Recorder as TraceRecorder, TraceWriter, COUNTERS as TRACE_COUNTERS, GAUGES as TRACE_GAUGES,
};
use byzcount_campaign::protocol::{JobTelemetry, ServerStats};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Counter-set snapshots and phase profiles — the two trace record
    /// shapes embedded in bench reports — survive JSON round trips for
    /// arbitrary counter/gauge/shard/value combinations.  (The proptest
    /// shim has no tuple strategies, so each fuzzed `u64` is bit-sliced
    /// into the cell's pick/shard/value fields.)
    #[test]
    fn trace_record_shapes_round_trip(
        cells in proptest::collection::vec(any::<u64>(), 0..24),
        spans in proptest::collection::vec(any::<u64>(), 0..24),
    ) {
        let set = CounterSet::new();
        for &cell in &cells {
            let idx = (cell & 0xFF) as usize % (TRACE_COUNTERS.len() + TRACE_GAUGES.len());
            let shard = ((cell >> 8) % 9) as u32;
            let value = cell >> 16;
            if idx < TRACE_COUNTERS.len() {
                set.add(shard, 0, TRACE_COUNTERS[idx], value % 1_000_003);
            } else {
                set.gauge(shard, 0, TRACE_GAUGES[idx - TRACE_COUNTERS.len()], value);
            }
        }
        let snap = set.snapshot();
        let json = serde_json::to_string(&snap).expect("serialize snapshot");
        let back: byzcount::trace::CounterSnapshot =
            serde_json::from_str(&json).expect("parse snapshot");
        prop_assert_eq!(&back, &snap);
        prop_assert_eq!(serde_json::to_string(&back).expect("re-serialize"), json);

        let profiler = PhaseProfiler::new();
        for &span in &spans {
            let phase = byzcount::trace::PHASES[(span & 0xFF) as usize % byzcount::trace::PHASES.len()];
            let shard = ((span >> 8) % 5) as u32;
            profiler.phase_begin(shard, 0, phase);
            profiler.phase_end(shard, 0, phase);
        }
        let profile = profiler.report();
        let json = serde_json::to_string(&profile).expect("serialize profile");
        let back: byzcount::trace::PhaseProfile =
            serde_json::from_str(&json).expect("parse profile");
        prop_assert_eq!(back, profile);
    }

    /// Whatever (delta, shard, round) pattern a run emits, rendering the
    /// NDJSON trace and re-validating it with `check_trace` recovers the
    /// exact counter totals — the trace file is a lossless channel.
    #[test]
    fn trace_writer_render_and_check_recover_exact_totals(
        deltas in proptest::collection::vec(any::<u64>(), 1..32),
    ) {
        let writer = TraceWriter::in_memory();
        let mut expect_delivered = 0u64;
        let mut expect_dropped = 0u64;
        for (round, &word) in deltas.iter().enumerate() {
            let shard = (word % 3) as u32;
            let delta = (word >> 8) % 1_000_000 + 1;
            let time = round as u64;
            writer.phase_begin(shard, time, TracePhase::Round);
            if (word >> 2) % 2 == 0 {
                writer.add(shard, time, TraceCounter::MessagesDelivered, delta);
                expect_delivered += delta;
            } else {
                writer.add(shard, time, TraceCounter::MessagesDropped, delta);
                expect_dropped += delta;
            }
            writer.phase_end(shard, time, TracePhase::Round);
        }
        let text = writer.render();
        let checked = check_trace(&text).expect("well-formed trace");
        prop_assert_eq!(checked.counter_total("messages_delivered"), expect_delivered);
        prop_assert_eq!(checked.counter_total("messages_dropped"), expect_dropped);
        prop_assert_eq!(checked.open_spans, 0);
        // Rendering is a pure function of the recorded events.
        prop_assert_eq!(writer.render(), text);
    }

    /// The `stats` verb (protocol minor 1): arbitrary telemetry payloads
    /// round-trip the wire losslessly, including job lists and absent
    /// ETAs, and frames with unknown future fields still parse.
    #[test]
    fn stats_frames_round_trip_and_tolerate_future_fields(
        uptime_milli in any::<u32>(),
        counts in proptest::collection::vec(any::<u16>(), 8..9),
        jobs in proptest::collection::vec(any::<u64>(), 0..6),
        extra in any::<u64>(),
    ) {
        let stats = ServerStats {
            uptime_s: uptime_milli as f64 / 1000.0,
            workers: counts[0] as u64,
            busy_workers: counts[1] as u64,
            queue_depth: counts[2] as u64,
            running_jobs: jobs.len() as u64,
            cells_completed: counts[3] as u64,
            cells_pending: counts[4] as u64,
            cells_per_s: counts[5] as f64 / 16.0,
            fsyncs: counts[6] as u64,
            fsync_p50_us: counts[7] as u64,
            fsync_p90_us: counts[7] as u64 * 2,
            fsync_p99_us: counts[7] as u64 * 4,
            jobs: jobs
                .iter()
                .map(|&word| {
                    let completed = (word >> 20) & 0xFFFF;
                    JobTelemetry {
                        job: format!("job-{}", word % 1_000_000),
                        state: "running".into(),
                        completed,
                        total: completed + ((word >> 36) & 0xFFFF),
                        eta_s: (word % 2 == 0).then(|| (word >> 52) as f64 / 8.0),
                    }
                })
                .collect(),
        };
        let line = protocol::encode_line(&Response::Stats(stats.clone()));
        prop_assert_eq!(line.matches('\n').count(), 1);
        let back: Response = protocol::decode_line(&line).expect("round trip");
        prop_assert_eq!(back, Response::Stats(stats));

        // The request side is a bare verb and must survive the wire too.
        let request_line = protocol::encode_line(&Request::Stats);
        let request: Request = protocol::decode_line(&request_line).expect("request");
        prop_assert_eq!(request, Request::Stats);

        // Forward tolerance: a future minor may add fields; today's
        // parser must ignore them rather than error.
        let extended = format!(
            "{{\"stats\": {{\"uptime_s\": 1.5, \"workers\": 2, \"busy_workers\": 0, \
             \"queue_depth\": 0, \"running_jobs\": 0, \"cells_completed\": 9, \
             \"cells_pending\": 0, \"cells_per_s\": 3.0, \"fsyncs\": 9, \
             \"fsync_p50_us\": 10, \"fsync_p90_us\": 20, \"fsync_p99_us\": 30, \
             \"jobs\": [], \"future_field_{extra}\": {extra}}}}}\n"
        );
        let parsed: Response = protocol::decode_line(&extended).expect("future-tolerant");
        match parsed {
            Response::Stats(s) => prop_assert_eq!(s.cells_completed, 9),
            other => prop_assert!(false, "wrong variant: {:?}", other),
        }
    }
}

// ---------------------------------------------------------------------------
// Binary wire-codec fuzz: the `netsim-wire` layer the distributed engine's
// shard channels speak.  Round trips must be the identity for every payload
// the engine ships (envelope batches, metrics), and hostile frames —
// truncated, bit-flipped, over-length — must decode to clean errors, never
// panic or over-allocate.
// ---------------------------------------------------------------------------

use byzcount::runtime::wire;
use byzcount_core::CountingMessage;
use netsim_graph::NodeId as WireNodeId;

/// Build an arbitrary counting message from fuzzed scalars.
fn counting_message_from(shape: u8, word: u64) -> CountingMessage {
    let ids: Vec<u32> = (0..(word % 7)).map(|i| (word >> (i * 4)) as u32).collect();
    match shape % 3 {
        0 => CountingMessage::Adjacency { neighbors: ids },
        1 => CountingMessage::Flood {
            color: (word % 61) as u32 + 1,
            path: ids.into(),
        },
        _ => CountingMessage::Audit {
            color: (word % 61) as u32 + 1,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Envelope batches — the distributed engine's bulkiest payload —
    /// survive the codec byte-for-byte for arbitrary senders, receivers
    /// and message shapes, and the encoding is canonical (encode ∘ decode
    /// ∘ encode = encode).
    #[test]
    fn envelope_batches_round_trip_through_the_wire_codec(
        words in proptest::collection::vec(any::<u64>(), 0..48),
    ) {
        let batch: Vec<Envelope<CountingMessage>> = words
            .iter()
            .map(|&w| Envelope::new(
                WireNodeId((w % 1031) as u32),
                WireNodeId(((w >> 16) % 1031) as u32),
                counting_message_from((w >> 32) as u8, w),
            ))
            .collect();
        let bytes = wire::encode_to_vec(&batch);
        let back: Vec<Envelope<CountingMessage>> =
            wire::decode_from_slice(&bytes).expect("round trip");
        prop_assert_eq!(&back, &batch);
        prop_assert_eq!(wire::encode_to_vec(&back), bytes, "encoding is canonical");
    }

    /// Run metrics — the shard→coordinator result payload — round-trip
    /// for arbitrary counter values, including the nested max-message
    /// and the per-round histogram.
    #[test]
    fn run_metrics_round_trip_through_the_wire_codec(
        counters in proptest::collection::vec(any::<u64>(), 10..11),
        per_round in proptest::collection::vec(any::<u64>(), 0..32),
    ) {
        let metrics = RunMetrics {
            rounds: counters[0],
            messages_delivered: counters[1],
            messages_dropped: counters[2],
            messages_lost: counters[3],
            messages_delayed: counters[4],
            messages_expired: counters[5],
            churn_crashes: counters[6],
            churn_recoveries: counters[7],
            total_ids: counters[8],
            total_bits: counters[9],
            max_message: SizedMessage::new(counters[0] as u32, counters[1] as u32),
            per_round_messages: per_round,
        };
        let bytes = wire::encode_to_vec(&metrics);
        let back: RunMetrics = wire::decode_from_slice(&bytes).expect("round trip");
        prop_assert_eq!(back, metrics);
    }

    /// Hostile frames: take a valid checksummed frame and truncate it at
    /// every possible byte boundary, flip an arbitrary bit, or inflate
    /// the length prefix past the frame cap.  Every mutation must read
    /// as a clean error (or, for a pure length-prefix truncation, a torn
    /// frame) — never a panic, and never an attempt to allocate the
    /// claimed length.
    #[test]
    fn mutated_frames_fail_cleanly(
        words in proptest::collection::vec(any::<u64>(), 1..24),
        cut_milli in any::<u64>(),
        flip_at in any::<u64>(),
    ) {
        let payload = wire::encode_to_vec(&words);
        let mut frame = Vec::new();
        wire::write_frame(&mut frame, &payload).expect("vec write");

        // The pristine frame reads back exactly.
        let mut buf = Vec::new();
        wire::read_frame(&mut &frame[..], &mut buf).expect("pristine frame");
        prop_assert_eq!(&buf, &payload);

        // Truncation at any boundary: error, never panic.
        let cut = (frame.len() as u64 * (cut_milli % 1000) / 1000) as usize;
        prop_assert!(cut < frame.len());
        prop_assert!(
            wire::read_frame(&mut &frame[..cut], &mut buf).is_err(),
            "torn frame at {cut}/{} must error", frame.len()
        );
        // `read_frame_opt` distinguishes the clean-EOF case (nothing at
        // all) from a torn frame (some bytes, then EOF).
        prop_assert!(matches!(wire::read_frame_opt(&mut &frame[..0], &mut buf), Ok(false)));
        if cut > 0 {
            prop_assert!(wire::read_frame_opt(&mut &frame[..cut], &mut buf).is_err());
        }

        // A single flipped bit anywhere breaks the checksum (or the
        // length field, which the cap and the remaining-byte bound catch).
        let mut flipped = frame.clone();
        let bit = (flip_at % (frame.len() as u64 * 8)) as usize;
        flipped[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            wire::read_frame(&mut &flipped[..], &mut buf).is_err(),
            "bit flip at {bit} must not read back as a valid frame"
        );

        // An over-length prefix is rejected up front — decoding must not
        // trust it enough to allocate.
        let mut oversized = frame.clone();
        oversized[..4].copy_from_slice(&(wire::MAX_FRAME_BYTES as u32 + 1).to_le_bytes());
        prop_assert!(wire::read_frame(&mut &oversized[..], &mut buf).is_err());
    }

    /// Truncations and bit flips of a *payload* (inside a valid frame)
    /// fail cleanly in the typed decoder: every mutation is either a
    /// clean `Err` or decodes to some value — never a panic, and a
    /// successful decode of a mutated envelope batch can only happen if
    /// the mutation landed in a value field (tag/length corruption that
    /// passes produces different-but-valid data, which re-encodes).
    #[test]
    fn mutated_payloads_never_panic_the_typed_decoder(
        words in proptest::collection::vec(any::<u64>(), 1..24),
        cut_milli in any::<u64>(),
        flip_at in any::<u64>(),
    ) {
        let batch: Vec<Envelope<CountingMessage>> = words
            .iter()
            .map(|&w| Envelope::new(
                WireNodeId((w % 97) as u32),
                WireNodeId(((w >> 8) % 97) as u32),
                counting_message_from((w >> 16) as u8, w),
            ))
            .collect();
        let bytes = wire::encode_to_vec(&batch);

        let cut = (bytes.len() as u64 * (cut_milli % 1000) / 1000) as usize;
        prop_assert!(
            wire::decode_from_slice::<Vec<Envelope<CountingMessage>>>(&bytes[..cut]).is_err(),
            "a truncated payload is missing data and must error"
        );

        let mut flipped = bytes.clone();
        let bit = (flip_at % (bytes.len() as u64 * 8)) as usize;
        flipped[bit / 8] ^= 1 << (bit % 8);
        if let Ok(decoded) =
            wire::decode_from_slice::<Vec<Envelope<CountingMessage>>>(&flipped)
        {
            // Reachable only when the flip hit a plain value bit; the
            // result is then itself a valid, re-encodable batch.
            prop_assert_eq!(wire::encode_to_vec(&decoded), flipped);
        }
    }
}

// ---------------------------------------------------------------------------
// Per-tick batch fuzz: the compact encoding the distributed engine's shard
// channels use for arenas (delta-coded senders) and fates (references into
// the receiving shard's own arenas, or whole envelopes).  Round trips are
// the identity, the encoding is canonical, and truncated or bit-flipped
// batches decode to clean errors or to batches that re-encode to the very
// same bytes.
// ---------------------------------------------------------------------------

use byzcount::runtime::batch::{decode_arena, decode_fates, encode_arena, Fate, FatesWriter};

/// The node range of the fuzzed shard.
const BATCH_SENDERS: std::ops::Range<u32> = 200..1_300;
/// The tick the fuzzed fates belong to.
const BATCH_TICK: u64 = 40;

/// An arena in node order: each word steps the sender forward by 0–3
/// nodes inside [`BATCH_SENDERS`] and picks a recipient and a message.
fn arena_from(words: &[u64]) -> Vec<Envelope<CountingMessage>> {
    let mut from = BATCH_SENDERS.start;
    words
        .iter()
        .map(|&w| {
            from = (from + (w % 4) as u32).min(BATCH_SENDERS.end - 1);
            let to = WireNodeId(((w >> 8) % 70_000) as u32);
            Envelope::new(
                WireNodeId(from),
                to,
                counting_message_from((w >> 32) as u8, w),
            )
        })
        .collect()
}

/// Fates over an arena of `shipped` envelopes: each word is a reference
/// (stepping forward 1–4 while the index stays below `shipped`) or a
/// whole envelope, due now or 1–5 ticks later.
fn fates_from(words: &[u64], shipped: usize) -> Vec<(Option<u64>, Fate<CountingMessage>)> {
    let mut next = 0;
    words
        .iter()
        .map(|&w| {
            let due = (w & 1 == 1).then(|| BATCH_TICK + 1 + (w >> 1) % 5);
            let step = ((w >> 4) % 4) as usize;
            let fate = if w & 2 == 0 && next + step < shipped {
                next += step + 1;
                Fate::Own(next - 1)
            } else {
                Fate::Whole(Envelope::new(
                    WireNodeId((w >> 12) as u32 % 5_000),
                    WireNodeId((w >> 24) as u32 % 5_000),
                    counting_message_from((w >> 40) as u8, w),
                ))
            };
            (due, fate)
        })
        .collect()
}

fn encode_arena_bytes(arena: &[Envelope<CountingMessage>]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_arena(&mut out, BATCH_SENDERS.start, arena);
    out
}

fn decode_arena_bytes(bytes: &[u8]) -> Result<Vec<Envelope<CountingMessage>>, wire::WireError> {
    let mut r = wire::Reader::new(bytes);
    let mut arena = Vec::new();
    decode_arena(&mut r, BATCH_SENDERS, &mut arena)?;
    r.finish()?;
    Ok(arena)
}

fn encode_fates_bytes(items: &[(Option<u64>, Fate<CountingMessage>)]) -> Vec<u8> {
    let mut writer = FatesWriter::default();
    writer.begin(BATCH_TICK);
    for (due, fate) in items {
        match fate {
            Fate::Own(i) => writer.own(*due, *i),
            Fate::Whole(env) => writer.whole(*due, env),
        }
    }
    let mut out = Vec::new();
    writer.finish(&mut out);
    out
}

type FuzzFates = Vec<(Option<u64>, Fate<CountingMessage>)>;

fn decode_fates_bytes(bytes: &[u8], shipped: usize) -> Result<FuzzFates, wire::WireError> {
    let mut r = wire::Reader::new(bytes);
    let mut items = Vec::new();
    decode_fates(&mut r, BATCH_TICK, shipped, |due, fate| {
        items.push((due, fate));
        Ok(())
    })?;
    r.finish()?;
    Ok(items)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arenas and fates survive their encodings unchanged, and decoding
    /// then re-encoding gives back the same bytes.
    #[test]
    fn arenas_and_fates_round_trip_canonically(
        arena_words in proptest::collection::vec(any::<u64>(), 0..64),
        fate_words in proptest::collection::vec(any::<u64>(), 0..64),
    ) {
        let arena = arena_from(&arena_words);
        let bytes = encode_arena_bytes(&arena);
        let back = decode_arena_bytes(&bytes).expect("arena round trip");
        prop_assert_eq!(&back, &arena);
        prop_assert_eq!(encode_arena_bytes(&back), bytes, "arena encoding is canonical");

        let items = fates_from(&fate_words, arena.len());
        let bytes = encode_fates_bytes(&items);
        let back = decode_fates_bytes(&bytes, arena.len()).expect("fates round trip");
        prop_assert_eq!(&back, &items);
        prop_assert_eq!(encode_fates_bytes(&back), bytes, "fates encoding is canonical");
    }

    /// Truncated batches are errors; a bit-flipped batch is an error or
    /// another valid batch that re-encodes to the flipped bytes.  Neither
    /// ever panics.
    #[test]
    fn mutated_batches_fail_cleanly_or_stay_canonical(
        words in proptest::collection::vec(any::<u64>(), 1..32),
        cut_milli in any::<u64>(),
        flip_at in any::<u64>(),
    ) {
        let arena = arena_from(&words);
        let arena_bytes = encode_arena_bytes(&arena);
        let fates_bytes = encode_fates_bytes(&fates_from(&words, arena.len()));
        let cut = |len: usize| (len as u64 * (cut_milli % 1000) / 1000) as usize;
        let flip = |bytes: &[u8]| {
            let mut flipped = bytes.to_vec();
            let bit = (flip_at % (bytes.len() as u64 * 8)) as usize;
            flipped[bit / 8] ^= 1 << (bit % 8);
            flipped
        };

        prop_assert!(decode_arena_bytes(&arena_bytes[..cut(arena_bytes.len())]).is_err());
        let flipped = flip(&arena_bytes);
        if let Ok(decoded) = decode_arena_bytes(&flipped) {
            prop_assert_eq!(encode_arena_bytes(&decoded), flipped);
        }

        let shipped = arena.len();
        prop_assert!(decode_fates_bytes(&fates_bytes[..cut(fates_bytes.len())], shipped).is_err());
        let flipped = flip(&fates_bytes);
        if let Ok(decoded) = decode_fates_bytes(&flipped, shipped) {
            prop_assert_eq!(encode_fates_bytes(&decoded), flipped);
        }
    }
}

// ---------------------------------------------------------------------------
// The counting hot path's lookups against the answers they replaced
// ---------------------------------------------------------------------------

use byzcount_core::discovery::{reconstruct, DiscoveryOutcome};
use netsim_graph::row;
use std::collections::HashMap;

/// A xorshift stream, so one fuzzed seed builds a whole row, query
/// sequence or report set.
struct Stream(u64);

impl Stream {
    fn new(seed: u64) -> Self {
        Stream(seed | 1)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n.max(1)
    }

    /// A sorted row of `len` ids below `span`; a small span repeats ids.
    fn sorted_row(&mut self, len: usize, span: u64) -> Vec<u32> {
        let mut row: Vec<u32> = (0..len).map(|_| self.below(span) as u32).collect();
        row.sort_unstable();
        row
    }
}

/// The `HashMap` form `reconstruct` had before it borrowed its reports,
/// kept verbatim as the oracle: `reports` maps a sender to its last
/// report.
fn reconstruct_with_a_hashmap(
    me: u32,
    my_neighbors: &[u32],
    reports: &HashMap<u32, Vec<u32>>,
) -> DiscoveryOutcome {
    let deg = my_neighbors.len();
    if deg == 0 {
        return DiscoveryOutcome::default();
    }
    // Local index of each neighbour (and of `me`, as the last bit).
    let local: HashMap<u32, usize> = my_neighbors
        .iter()
        .enumerate()
        .map(|(i, &u)| (u, i))
        .collect();
    let words = (deg + 1).div_ceil(64);
    let me_bit = deg; // index of `me` in the bitset universe

    let mut conflict = false;
    let mut missing_reports = 0usize;

    // Bitset of I(u) = (reported N_G(u) ∪ is `me` listed) ∩ (N_G(v) ∪ {v}).
    let mut inter: Vec<Vec<u64>> = vec![vec![0u64; words]; deg];
    let mut reported_sets: Vec<Option<&Vec<u32>>> = vec![None; deg];
    for (i, &u) in my_neighbors.iter().enumerate() {
        match reports.get(&u) {
            Some(list) => {
                reported_sets[i] = Some(list);
                let mut lists_me = false;
                for &x in list {
                    if x == me {
                        lists_me = true;
                        oracle_set_bit(&mut inter[i], me_bit);
                    } else if let Some(&j) = local.get(&x) {
                        oracle_set_bit(&mut inter[i], j);
                    }
                }
                if !lists_me {
                    // Adjacency is symmetric; omitting `me` is a lie.
                    conflict = true;
                }
            }
            None => {
                missing_reports += 1;
                conflict = true;
            }
        }
    }

    // Symmetry check between pairs of reporting neighbours: if u lists w but
    // w does not list u (both being our neighbours), the reports conflict.
    for (i, &u) in my_neighbors.iter().enumerate() {
        let Some(list_u) = reported_sets[i] else {
            continue;
        };
        for &w in list_u {
            if w == me {
                continue;
            }
            if let Some(&j) = local.get(&w) {
                if let Some(list_w) = reported_sets[j] {
                    if !list_w.contains(&u) {
                        conflict = true;
                    }
                }
            }
        }
    }

    // Containment order: u is deeper than w when I(u) ⊊ I(w), with the two
    // endpoints masked out of both sides.  The masking is essential: a node
    // never lists itself, so `w ∈ I(u)` but `w ∉ I(w)` (and symmetrically
    // for `u`), which would make every pair incomparable and classify the
    // whole G-neighbourhood as maximal.  H-neighbours are the maximal
    // elements; depths follow the longest containment chain.
    let mut dominated_by: Vec<Vec<usize>> = vec![Vec::new(); deg];
    for i in 0..deg {
        for j in 0..deg {
            if i != j && oracle_strict_subset_ignoring(&inter[i], &inter[j], i, j) {
                dominated_by[i].push(j);
            }
        }
    }
    let mut is_maximal: Vec<bool> = dominated_by.iter().map(|d| d.is_empty()).collect();
    // Size refinement: on a tree-like ball an `H`-neighbour's intersection
    // has 2d−1 elements while a depth-2 neighbour's has only d, so requiring
    // |I| ≥ ⌈3d̂/2⌉ (d̂ = (max|I|+1)/2 estimates d) sits midway between the
    // two and cuts through the short-cycle noise that keeps the pure
    // containment order from resolving at simulation scales.  Only applied
    // when the ball actually looks like an expander ball (d̂ ≥ 3): on
    // degenerate topologies (trees, rings — where `G ≈ H` and every
    // neighbour is a true `H`-neighbour) the intersections are tiny and the
    // containment order alone is the right answer.
    let pops: Vec<u32> = inter
        .iter()
        .map(|b| b.iter().map(|w| w.count_ones()).sum())
        .collect();
    let maxp = pops.iter().copied().max().unwrap_or(0);
    if maxp >= 5 {
        let d_hat = maxp.div_ceil(2);
        // `d̂ + 3` approximates the tree midpoint ⌈3d̂/2⌉ at the simulated
        // degrees (d = 6..10) while staying gentle when short cycles inflate
        // `maxp` — the midpoint formula over-prunes there and starts missing
        // true `H`-edges, which is the one error direction flooding cannot
        // absorb.
        let thr = d_hat + 3;
        for i in 0..deg {
            is_maximal[i] = is_maximal[i] && pops[i] >= thr;
        }
    }
    let mut depths = vec![1u8; deg];
    // Longest-chain depths by relaxation; the iteration cap guards against
    // the (non-transitive) artefacts short cycles can produce at small n.
    for _ in 0..deg {
        let mut changed = false;
        for i in 0..deg {
            if dominated_by[i].is_empty() {
                continue;
            }
            let deepest_parent = dominated_by[i]
                .iter()
                .map(|&j| depths[j])
                .max()
                .unwrap_or(0);
            let want = deepest_parent.saturating_add(1);
            if depths[i] != want {
                depths[i] = want;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut h_neighbors: Vec<u32> = (0..deg)
        .filter(|&i| is_maximal[i])
        .map(|i| my_neighbors[i])
        .collect();
    h_neighbors.sort_unstable();

    DiscoveryOutcome {
        h_neighbors,
        depths,
        conflict,
        missing_reports,
    }
}

#[inline]
fn oracle_set_bit(bits: &mut [u64], idx: usize) {
    bits[idx / 64] |= 1u64 << (idx % 64);
}

/// `a ⊊ b` for bitsets of equal width, ignoring positions `skip1`/`skip2`.
fn oracle_strict_subset_ignoring(a: &[u64], b: &[u64], skip1: usize, skip2: usize) -> bool {
    let mut equal = true;
    for (idx, (&wa, &wb)) in a.iter().zip(b.iter()).enumerate() {
        let mut mask = u64::MAX;
        if skip1 / 64 == idx {
            mask &= !(1u64 << (skip1 % 64));
        }
        if skip2 / 64 == idx {
            mask &= !(1u64 << (skip2 % 64));
        }
        let (wa, wb) = (wa & mask, wb & mask);
        if wa & !wb != 0 {
            return false;
        }
        if wa != wb {
            equal = false;
        }
    }
    !equal
}

/// One node's view for the discovery property: its id, its sorted row (ids
/// may repeat, and the row may hold the node itself), and its inbox of
/// `(sender, report)` pairs in arrival order.
struct DiscoveryCase {
    me: u32,
    row: Vec<u32>,
    inbox: Vec<(u32, Vec<u32>)>,
}

impl DiscoveryCase {
    /// Honest reports over a random multigraph on `span` ids, then
    /// perturbed: reports unsorted, with repeated or foreign ids or the
    /// sender itself, missing, sent twice, or sent by a non-neighbour.
    fn generate(s: &mut Stream, span: u64, degree: u64, lie_permille: u64) -> Self {
        let span = span.max(2);
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); span as usize];
        for u in 0..span as u32 {
            for _ in 0..=s.below(degree) {
                let v = s.below(span) as u32;
                rows[u as usize].push(v);
                if v != u {
                    rows[v as usize].push(u);
                }
            }
        }
        for row in &mut rows {
            row.sort_unstable();
        }
        let me = s.below(span) as u32;
        let row = rows[me as usize].clone();
        let lie = |s: &mut Stream| s.below(1000) < lie_permille;
        let mut inbox = Vec::new();
        for &u in &row {
            if lie(s) {
                continue; // silent
            }
            let mut report = rows[u as usize].clone();
            if lie(s) && !report.is_empty() {
                let gone = s.below(report.len() as u64) as usize;
                report.remove(gone);
            }
            if lie(s) {
                report.push(s.below(span + 4) as u32); // maybe foreign
            }
            if lie(s) {
                report.push(u); // self-listing
            }
            if lie(s) && !report.is_empty() {
                let twice = report[s.below(report.len() as u64) as usize];
                report.push(twice);
            }
            if lie(s) {
                report.reverse();
            }
            inbox.push((u, report));
            if lie(s) {
                // A second report from the same sender: the last one wins.
                let len = s.below(6) as usize;
                inbox.push((u, s.sorted_row(len, span)));
            }
        }
        if lie(s) {
            let stranger = span as u32 + s.below(3) as u32;
            inbox.push((stranger, vec![me]));
        }
        if lie(s) && inbox.len() > 1 {
            let (a, b) = (s.below(inbox.len() as u64), s.below(inbox.len() as u64));
            inbox.swap(a as usize, b as usize);
        }
        DiscoveryCase { me, row, inbox }
    }
}

fn same_outcome(a: &DiscoveryOutcome, b: &DiscoveryOutcome) -> bool {
    (&a.h_neighbors, &a.depths, a.conflict, a.missing_reports)
        == (&b.h_neighbors, &b.depths, b.conflict, b.missing_reports)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The row lookups answer as a scan of the row does, on sorted rows
    /// that repeat ids, for ids in the row, between its ids and past it.
    /// Their positions follow the rules the counting node and discovery
    /// read: the first and the last occurrence of a repeated id.
    #[test]
    fn row_lookups_answer_as_a_scan(
        seed in any::<u64>(),
        len in 0usize..48,
        span in 1u64..96,
    ) {
        let mut s = Stream::new(seed);
        let r = s.sorted_row(len, span);
        for id in 0..span as u32 + 2 {
            let first = r.iter().position(|&x| x == id);
            let last = r.iter().rposition(|&x| x == id);
            let place = r.iter().filter(|&&x| x < id).count();
            let count = r.iter().filter(|&&x| x == id).count();
            prop_assert_eq!(row::positions(&r, id), place..place + count);
            prop_assert_eq!(row::first(&r, id), first);
            prop_assert_eq!(row::last(&r, id), last);
            prop_assert_eq!(row::contains(&r, id), r.binary_search(&id).is_ok());
        }
    }

    /// Discovery from borrowed reports gives exactly what the `HashMap`
    /// form gave, on honest and on lying reports, over rows that repeat
    /// ids.
    #[test]
    fn discovery_from_borrowed_reports_matches_the_hashmap_form(
        seed in any::<u64>(),
        span in 2u64..40,
        degree in 1u64..5,
        lie_permille in 0u64..400,
    ) {
        let mut s = Stream::new(seed);
        let case = DiscoveryCase::generate(&mut s, span, degree, lie_permille);
        let mut map: HashMap<u32, Vec<u32>> = HashMap::new();
        for (sender, report) in &case.inbox {
            map.insert(*sender, report.clone());
        }
        let oracle = reconstruct_with_a_hashmap(case.me, &case.row, &map);
        let sent = case.inbox.iter().map(|(u, r)| (*u, r.as_slice()));
        let borrowed = reconstruct(case.me, &case.row, sent);
        prop_assert!(
            same_outcome(&borrowed, &oracle),
            "me {} row {:?} inbox {:?}: {:?} != {:?}",
            case.me, case.row, case.inbox, borrowed, oracle
        );
    }
}
