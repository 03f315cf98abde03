//! E3 — Theorem 3.9: benchmarks algorithm B_ack through the session API and
//! regenerates the acknowledgement-window table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rn_broadcast::session::{Scheme, Session};
use rn_experiments::experiments::{ack_time, family};
use rn_experiments::ExperimentConfig;
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e3_ack_time");
    group.sample_size(15);
    for label in ["path", "random_tree", "gnp_sparse"] {
        for n in [64usize, 256] {
            let g = Arc::new(family(label).generate(n, 1).unwrap());
            let id = BenchmarkId::new(label, g.node_count());
            group.bench_with_input(id, &g, |b, g| {
                b.iter(|| {
                    std::hint::black_box(
                        Session::builder(Scheme::LambdaAck, Arc::clone(g))
                            .message(7)
                            .build()
                            .unwrap()
                            .run(),
                    )
                });
            });
        }
    }
    group.finish();

    let cfg = ExperimentConfig {
        sizes: vec![16, 64, 256],
        seeds: vec![1],
        threads: rn_radio::batch::default_threads(),
    };
    println!("\n{}", ack_time::run(&cfg));
}

criterion_group!(benches, bench);
criterion_main!(benches);
