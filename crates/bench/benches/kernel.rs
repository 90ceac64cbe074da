//! Micro-benchmarks for the simulation kernel hot paths.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use gm_sim::dist::Zipf;
use gm_sim::{LogHistogram, RngFactory};
use rand::Rng;

fn bench_zipf(c: &mut Criterion) {
    let mut group = c.benchmark_group("zipf");
    for n in [1_000usize, 100_000] {
        let z = Zipf::new(n, 0.9);
        let mut rng = RngFactory::new(1).stream("bench");
        group.bench_with_input(BenchmarkId::new("sample", n), &n, |b, _| {
            b.iter(|| black_box(z.sample(&mut rng)))
        });
    }
    group.finish();
}

fn bench_histogram(c: &mut Criterion) {
    let mut rng = RngFactory::new(2).stream("bench");
    c.bench_function("histogram/record", |b| {
        let mut h = LogHistogram::for_latency_secs();
        b.iter(|| h.record(black_box(rng.gen::<f64>() * 0.1 + 1e-5)))
    });
    c.bench_function("histogram/quantile_p99", |b| {
        let mut h = LogHistogram::for_latency_secs();
        for _ in 0..100_000 {
            h.record(rng.gen::<f64>() * 0.1 + 1e-5);
        }
        b.iter(|| black_box(h.quantile(0.99)))
    });
}

criterion_group!(benches, bench_zipf, bench_histogram);
criterion_main!(benches);
