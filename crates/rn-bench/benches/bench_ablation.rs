//! A1 — ablations: benchmarks the minimal-dominating-set reduction under the
//! different candidate orders and regenerates both ablation tables.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rn_experiments::experiments::{ablation, family};
use rn_experiments::ExperimentConfig;
use rn_graph::algorithms::ReductionOrder;
use rn_labeling::lambda;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("a1_reduction_order");
    group.sample_size(15);
    let g = family("gnp_sparse").generate(256, 1).unwrap();
    for (name, order) in [
        ("forward", ReductionOrder::Forward),
        ("reverse", ReductionOrder::Reverse),
        ("random", ReductionOrder::Random(7)),
    ] {
        group.bench_with_input(BenchmarkId::new(name, g.node_count()), &g, |b, g| {
            b.iter(|| std::hint::black_box(lambda::construct_with_order(g, 0, order).unwrap()));
        });
    }
    group.finish();

    let cfg = ExperimentConfig {
        sizes: vec![16, 48],
        seeds: vec![1],
        threads: rn_radio::batch::default_threads(),
    };
    for t in ablation::run(&cfg) {
        println!("\n{t}");
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
