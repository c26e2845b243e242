//! E12 (part 2): what Byzantine tolerance costs — Algorithm 1 vs Algorithm 2
//! on the same fault-free network — and what the unified `Simulation`
//! builder costs compared to driving the engine directly.
//!
//! The builder-vs-direct pair runs the *identical* pipeline (topology
//! generation + protocol execution) so the difference isolates the API
//! layer: spec validation, seed-stream derivation, placement
//! materialization and report assembly.  It should be lost in the noise of
//! the protocol run itself.
use byzcount_analysis::RunSimulation;
use byzcount_core::sim::{FaultSpec, Simulation, TopologySpec, WorkloadSpec};
use byzcount_core::{run_counting, Counting, ProtocolParams};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netsim_graph::SmallWorldNetwork;
use netsim_runtime::{Exec, NoFaults, NullAdversary};

fn bench_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol_overhead");
    group.sample_size(10);
    for &n in &[512usize, 1024] {
        let net = SmallWorldNetwork::generate_seeded(n, 6, 9).unwrap();
        let params = ProtocolParams::for_network_default_expansion(&net, 0.6, 0.1);
        let (alg1, alg2) = (Counting::basic(params), Counting::byzantine(params));
        let byz = vec![false; n];
        group.bench_with_input(BenchmarkId::new("algorithm1", n), &n, |b, _| {
            b.iter(|| run_counting(&net, alg1, &byz, NullAdversary, 13, Exec::default()))
        });
        group.bench_with_input(BenchmarkId::new("algorithm2", n), &n, |b, _| {
            b.iter(|| run_counting(&net, alg2, &byz, NullAdversary, 13, Exec::default()))
        });
    }
    group.finish();

    // Builder vs direct: same end-to-end pipeline, measured both ways.
    let mut group = c.benchmark_group("builder_vs_direct");
    group.sample_size(10);
    for &n in &[512usize, 1024] {
        group.bench_with_input(BenchmarkId::new("direct_pipeline", n), &n, |b, &n| {
            b.iter(|| {
                // Mirror exactly what the builder does: generate the
                // topology, derive parameters, run Algorithm 2.
                let net = SmallWorldNetwork::generate_seeded(n, 6, 13).unwrap();
                let params = ProtocolParams::for_network_default_expansion(&net, 0.6, 0.1);
                let byz = vec![false; n];
                let alg2 = Counting::byzantine(params);
                run_counting(&net, alg2, &byz, NullAdversary, 13, Exec::default())
            })
        });
        let sim = Simulation::builder()
            .topology(TopologySpec::SmallWorld { n, d: 6 })
            .workload(WorkloadSpec::Byzantine)
            .seed(13)
            .build()
            .expect("builder spec");
        group.bench_with_input(BenchmarkId::new("builder_pipeline", n), &n, |b, _| {
            b.iter(|| sim.run().expect("builder run"))
        });
    }
    group.finish();

    // The fault subsystem must cost nothing when disabled.  Three rungs of
    // the same engine round loop:
    //   no_fault_layer  — no plan installed (the pre-fault-layer path);
    //   spec_fault_none — `FaultSpec::None` through the spec layer, which
    //                     resolves to "no plan installed";
    //   noop_plan       — a do-nothing plan *installed*, pricing the
    //                     per-envelope dynamic dispatch the spec layer
    //                     avoids for `FaultSpec::None`.
    let mut group = c.benchmark_group("fault_layer_overhead");
    group.sample_size(10);
    for &n in &[512usize, 1024] {
        let net = SmallWorldNetwork::generate_seeded(n, 6, 9).unwrap();
        let alg2 = Counting::byzantine(ProtocolParams::for_network_default_expansion(
            &net, 0.6, 0.1,
        ));
        let byz = vec![false; n];
        group.bench_with_input(BenchmarkId::new("no_fault_layer", n), &n, |b, _| {
            b.iter(|| run_counting(&net, alg2, &byz, NullAdversary, 13, Exec::default()))
        });
        let honest = vec![true; n];
        group.bench_with_input(BenchmarkId::new("spec_fault_none", n), &n, |b, _| {
            b.iter(|| {
                assert!(FaultSpec::None.build_plan(n, &honest, 13).is_none());
                run_counting(&net, alg2, &byz, NullAdversary, 13, Exec::default())
            })
        });
        group.bench_with_input(BenchmarkId::new("noop_plan", n), &n, |b, _| {
            b.iter(|| {
                let exec = Exec {
                    fault_plan: Some(Box::new(NoFaults)),
                    ..Exec::default()
                };
                run_counting(&net, alg2, &byz, NullAdversary, 13, exec)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_overhead);
criterion_main!(benches);
