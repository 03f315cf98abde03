//! Metrics-overhead benchmark: the price of the telemetry hook in the
//! simulator's round loop, in rounds/second, on both engines.
//!
//! The zero-cost claim rn-telemetry makes is structural: with no sink
//! installed the engines never assemble a `RoundMetrics` value — the hook
//! is one `Option` test per round — so an uninstrumented run should measure
//! indistinguishably from the pre-telemetry simulator. This bench pins the
//! claim with numbers, and also prices the two real sink modes:
//!
//! * `none`    — no sink installed (the default, and the baseline);
//! * `noop`    — a [`NoopSink`] installed: the engines assemble the
//!   per-round `RoundMetrics` and the sink discards it, isolating the cost
//!   of metric *assembly* from the cost of *aggregation*;
//! * `counter` — a [`CounterSink`] installed: assembly plus the full
//!   aggregation arithmetic, the mode `Session::run_instrumented` and
//!   `sweep --metrics` actually pay for.
//!
//! Workloads mirror the round-throughput ladder's extremes: a degree-2 path
//! (per-node protocol driving dominates, metric assembly is relatively most
//! visible) and a G(n, p) of average degree 32 (delivery scanning dominates,
//! assembly amortises away). Runs are 2n rounds with tracing off, as in
//! `bench_round_throughput`.
//!
//! Modes: default n = 10 000 with 3 samples; `--quick` (or `BENCH_QUICK=1`)
//! n = 2 000 with 1 sample; `--test` one tiny iteration (cargo bench-test).
//! Output is the printed table only — overhead ratios are too noisy across
//! machines to gate on a committed file; the committed gate for engine
//! throughput lives in `BENCH_simulator_quick.json` + `telemetry-report
//! --bench-guard`.

use rn_broadcast::algo_b::BNode;
use rn_graph::{generators, Graph};
use rn_labeling::lambda;
use rn_radio::{CounterSink, Engine, NoopSink, RadioNode, Simulator};
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
enum SinkMode {
    None,
    Noop,
    Counter,
}

impl SinkMode {
    const ALL: [SinkMode; 3] = [SinkMode::None, SinkMode::Noop, SinkMode::Counter];
}

struct Config {
    n: usize,
    samples: usize,
}

fn config() -> Config {
    let args: Vec<String> = std::env::args().collect();
    let test_mode = args.iter().any(|a| a == "--test");
    let quick = test_mode
        || args.iter().any(|a| a == "--quick")
        || std::env::var("BENCH_QUICK").is_ok_and(|v| v == "1");
    Config {
        n: if test_mode {
            200
        } else if quick {
            2_000
        } else {
            10_000
        },
        samples: if quick { 1 } else { 3 },
    }
}

/// Median rounds/second over `samples` runs of `rounds` rounds with the
/// given engine and sink mode, tracing off.
fn measure<N: RadioNode>(
    graph: &Arc<Graph>,
    make_nodes: impl Fn() -> Vec<N>,
    engine: Engine,
    mode: SinkMode,
    rounds: u64,
    samples: usize,
) -> f64 {
    let mut rates: Vec<f64> = (0..samples)
        .map(|_| {
            let mut sim = Simulator::new(Arc::clone(graph), make_nodes())
                .without_trace()
                .with_engine(engine);
            sim = match mode {
                SinkMode::None => sim,
                SinkMode::Noop => sim.with_metrics(Box::new(NoopSink)),
                SinkMode::Counter => sim.with_metrics(Box::new(CounterSink::default())),
            };
            let start = Instant::now();
            sim.run_rounds(rounds);
            let secs = start.elapsed().as_secs_f64();
            std::hint::black_box(sim.current_round());
            std::hint::black_box(sim.metrics_counters());
            rounds as f64 / secs
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[rates.len() / 2]
}

fn bench_workload(name: &str, graph: Graph, cfg: &Config) {
    let graph = Arc::new(graph);
    let rounds = 2 * graph.node_count() as u64;
    let labeling = lambda::construct(&graph, 0)
        .expect("workload is connected")
        .into_labeling();
    let make_nodes = move || BNode::network(&labeling, 0, 7);
    for engine in [Engine::ListenerCentric, Engine::EventDriven] {
        let rates: Vec<f64> = SinkMode::ALL
            .iter()
            .map(|&mode| measure(&graph, &make_nodes, engine, mode, rounds, cfg.samples))
            .collect();
        let overhead = |i: usize| (rates[0] / rates[i] - 1.0) * 100.0;
        println!(
            "metrics_overhead/{name}/n={} [{engine:?}]: none {:.0} rounds/s, \
             noop {:.0} rounds/s ({:+.1}%), counter {:.0} rounds/s ({:+.1}%)",
            graph.node_count(),
            rates[0],
            rates[1],
            overhead(1),
            rates[2],
            overhead(2),
        );
    }
}

fn main() {
    let cfg = config();
    let n = cfg.n;
    bench_workload("path", generators::path(n), &cfg);
    bench_workload(
        "gnp-avg-deg-32",
        generators::gnp_connected(n, 32.0 / n as f64, 1).unwrap(),
        &cfg,
    );
    println!(
        "overhead = slowdown vs the no-sink baseline; 'noop' prices RoundMetrics \
         assembly, 'counter' adds aggregation (the run_instrumented mode)"
    );
}
