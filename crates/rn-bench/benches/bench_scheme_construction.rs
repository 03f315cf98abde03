//! E8 — labeling-scheme construction cost: benchmarks the λ / λ_ack / λ_arb
//! constructions as the network grows and regenerates the cost table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rn_experiments::experiments::{family, scheme_cost};
use rn_experiments::ExperimentConfig;
use rn_labeling::{lambda, lambda_ack, lambda_arb};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_scheme_construction");
    group.sample_size(15);
    for n in [64usize, 256, 1024] {
        let g = family("gnp_sparse").generate(n, 1).unwrap();
        group.bench_with_input(BenchmarkId::new("lambda", n), &g, |b, g| {
            b.iter(|| std::hint::black_box(lambda::construct(g, 0).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("lambda_ack", n), &g, |b, g| {
            b.iter(|| std::hint::black_box(lambda_ack::construct(g, 0).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("lambda_arb", n), &g, |b, g| {
            b.iter(|| std::hint::black_box(lambda_arb::construct(g).unwrap()));
        });
    }
    group.finish();

    let cfg = ExperimentConfig {
        sizes: vec![64, 256],
        seeds: vec![1],
        threads: rn_radio::batch::default_threads(),
    };
    println!("\n{}", scheme_cost::run(&cfg));
}

criterion_group!(benches, bench);
criterion_main!(benches);
