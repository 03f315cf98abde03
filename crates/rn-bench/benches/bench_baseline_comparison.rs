//! E9 — baseline comparison: benchmarks λ against the unique-identifier and
//! square-colouring baselines through one shared graph and regenerates the
//! comparison table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rn_broadcast::session::{Scheme, Session};
use rn_experiments::experiments::{baseline_comparison, family};
use rn_experiments::ExperimentConfig;
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_baseline_comparison");
    group.sample_size(10);
    let g = Arc::new(family("grid").generate(100, 1).unwrap());
    for (name, scheme) in [
        ("lambda", Scheme::Lambda),
        ("unique_ids", Scheme::UniqueIds),
        ("square_coloring", Scheme::SquareColoring),
    ] {
        group.bench_with_input(BenchmarkId::new(name, g.node_count()), &g, |b, g| {
            b.iter(|| {
                std::hint::black_box(
                    Session::builder(scheme, Arc::clone(g))
                        .message(7)
                        .build()
                        .unwrap()
                        .run(),
                )
            });
        });
    }
    group.finish();

    let cfg = ExperimentConfig {
        sizes: vec![16, 64],
        seeds: vec![1],
        threads: rn_radio::batch::default_threads(),
    };
    println!("\n{}", baseline_comparison::run(&cfg));
}

criterion_group!(benches, bench);
criterion_main!(benches);
