//! E4 — label length / message size comparison: benchmarks assigning each
//! scheme and regenerates the comparison table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rn_experiments::experiments::{family, label_length};
use rn_experiments::ExperimentConfig;
use rn_labeling::scheme::{LabelingScheme, SchemeKind};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_label_length");
    group.sample_size(20);
    let g = family("gnp_sparse").generate(256, 1).unwrap();
    for scheme in SchemeKind::ALL {
        let id = BenchmarkId::new(scheme.name(), g.node_count());
        group.bench_with_input(id, &g, |b, g| {
            b.iter(|| std::hint::black_box(scheme.assign(g, 0).unwrap()));
        });
    }
    group.finish();

    let cfg = ExperimentConfig {
        sizes: vec![16, 64, 256],
        seeds: vec![1],
        threads: rn_radio::batch::default_threads(),
    };
    println!("\n{}", label_length::run(&cfg));
}

criterion_group!(benches, bench);
criterion_main!(benches);
