//! E2 — Theorem 2.9: benchmarks algorithm B across sizes and families, both
//! as the full pipeline (labeling + simulation) and as an amortized session
//! run (the labeling constructed once, only the simulation repeating), and
//! regenerates the completion-round table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rn_broadcast::session::{Scheme, Session};
use rn_experiments::experiments::{broadcast_time, family};
use rn_experiments::ExperimentConfig;
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_broadcast_time");
    group.sample_size(15);
    for label in ["path", "grid", "gnp_sparse"] {
        for n in [64usize, 256] {
            let g = Arc::new(family(label).generate(n, 1).unwrap());
            let full_id = BenchmarkId::new(format!("{label}_full"), g.node_count());
            group.bench_with_input(full_id, &g, |b, g| {
                b.iter(|| {
                    std::hint::black_box(
                        Session::builder(Scheme::Lambda, Arc::clone(g))
                            .message(7)
                            .build()
                            .unwrap()
                            .run(),
                    )
                });
            });
            let session = Session::builder(Scheme::Lambda, Arc::clone(&g))
                .message(7)
                .build()
                .unwrap();
            let amortized_id = BenchmarkId::new(format!("{label}_amortized"), g.node_count());
            group.bench_with_input(amortized_id, &session, |b, s| {
                b.iter(|| std::hint::black_box(s.run()));
            });
        }
    }
    group.finish();

    let cfg = ExperimentConfig {
        sizes: vec![16, 64, 256],
        seeds: vec![1],
        threads: rn_radio::batch::default_threads(),
    };
    println!("\n{}", broadcast_time::run(&cfg));
}

criterion_group!(benches, bench);
criterion_main!(benches);
