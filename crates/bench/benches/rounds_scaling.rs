//! E2: rounds grow like log^3 n — measured via wall-clock of honest runs
//! (the round counts themselves are printed by `byzcount-cli e2`).
use byzcount_core::{run_counting, Counting, ProtocolParams};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netsim_graph::SmallWorldNetwork;
use netsim_runtime::{Exec, NullAdversary};

fn bench_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("rounds_scaling");
    group.sample_size(10);
    for &n in &[256usize, 1024, 4096] {
        let net = SmallWorldNetwork::generate_seeded(n, 6, 5).unwrap();
        let params = ProtocolParams::for_network_default_expansion(&net, 0.6, 0.1);
        let honest = vec![false; n];
        group.bench_with_input(BenchmarkId::new("algorithm1_honest", n), &n, |b, _| {
            b.iter(|| {
                let alg1 = Counting::basic(params);
                run_counting(&net, alg1, &honest, NullAdversary, 11, Exec::default())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_rounds);
criterion_main!(benches);
