//! E10 — common completion round: benchmarks the B_ack + B composition and
//! regenerates its table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rn_broadcast::common_round::run_common_round;
use rn_experiments::experiments::{common_round, family};
use rn_experiments::ExperimentConfig;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_common_round");
    group.sample_size(15);
    for label in ["path", "grid"] {
        let g = family(label).generate(64, 1).unwrap();
        let id = BenchmarkId::new(label, g.node_count());
        group.bench_with_input(id, &g, |b, g| {
            b.iter(|| std::hint::black_box(run_common_round(g, 0, 7).unwrap()));
        });
    }
    group.finish();

    let cfg = ExperimentConfig {
        sizes: vec![16, 64],
        seeds: vec![1],
        threads: rn_radio::batch::default_threads(),
    };
    println!("\n{}", common_round::run(&cfg));
}

criterion_group!(benches, bench);
criterion_main!(benches);
