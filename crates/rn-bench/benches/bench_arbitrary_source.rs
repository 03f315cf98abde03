//! E5 — arbitrary-source broadcast: benchmarks the three-phase algorithm
//! B_arb — both the full pipeline and an amortized run against a session's
//! cached source-independent labeling — and regenerates its sweep table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rn_broadcast::session::{RunSpec, Scheme, Session};
use rn_experiments::experiments::{arbitrary_source, family};
use rn_experiments::ExperimentConfig;
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e5_arbitrary_source");
    group.sample_size(10);
    for label in ["cycle", "grid", "gnp_sparse"] {
        let g = Arc::new(family(label).generate(64, 1).unwrap());
        let source = g.node_count() / 2;
        let full_id = BenchmarkId::new(format!("{label}_full"), g.node_count());
        group.bench_with_input(full_id, &g, |b, g| {
            b.iter(|| {
                std::hint::black_box(
                    Session::builder(Scheme::LambdaArb, Arc::clone(g))
                        .source(source)
                        .message(7)
                        .build()
                        .unwrap()
                        .run(),
                )
            });
        });
        // λ_arb labels are source-independent: the amortized variant reuses
        // one cached labeling for a run from an arbitrary source.
        let session = Session::builder(Scheme::LambdaArb, Arc::clone(&g))
            .message(7)
            .build()
            .unwrap();
        let amortized_id = BenchmarkId::new(format!("{label}_amortized"), g.node_count());
        group.bench_with_input(amortized_id, &session, |b, s| {
            b.iter(|| std::hint::black_box(s.run_with(RunSpec::new(source, 7)).unwrap()));
        });
    }
    group.finish();

    let cfg = ExperimentConfig {
        sizes: vec![16, 48],
        seeds: vec![1],
        threads: rn_radio::batch::default_threads(),
    };
    println!("\n{}", arbitrary_source::run(&cfg));
}

criterion_group!(benches, bench);
criterion_main!(benches);
