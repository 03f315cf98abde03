//! Differential check of the deterministic run counters: on every
//! [`TopologyFamily`] preset and every general scheme, the counters a
//! [`CounterSink`](radio_labeling::radio::CounterSink) aggregates during an
//! instrumented run must reproduce the trace-derived [`ExecutionStats`]
//! field for field. The counters are assembled incrementally inside the
//! engines' hot paths; the trace walk recomputes the same quantities from
//! the recorded events — agreement on the full topology × scheme matrix
//! pins the two derivations to each other.

use radio_labeling::broadcast::session::{Scheme, Session};
use radio_labeling::graph::generators::{self, TopologyFamily};
use radio_labeling::radio::testing::ChaosNode;
use radio_labeling::radio::{CounterSink, ExecutionStats, Simulator};
use std::sync::Arc;

const N: usize = 16;
const SEED: u64 = 1;

#[test]
fn counters_equal_trace_derived_stats_on_every_preset_and_general_scheme() {
    for family in TopologyFamily::PRESETS {
        let graph = Arc::new(
            family
                .generate(N, SEED)
                .unwrap_or_else(|e| panic!("{}: {e}", family.name())),
        );
        for scheme in Scheme::GENERAL {
            let session = Session::builder(scheme, Arc::clone(&graph))
                .build()
                .unwrap_or_else(|e| panic!("{}/{}: {e}", family.name(), scheme.name()));
            let (report, metrics) = session.run_instrumented();
            let counters = metrics
                .counters
                .unwrap_or_else(|| panic!("{}/{}: no counters", family.name(), scheme.name()));
            assert_eq!(
                ExecutionStats::from_counters(&counters),
                report.stats,
                "{}/{}: counter-derived stats diverge from the trace walk",
                family.name(),
                scheme.name()
            );
            assert_eq!(
                metrics.counters_match_trace,
                Some(true),
                "{}/{}",
                family.name(),
                scheme.name()
            );
        }
    }
}

#[test]
fn node_steps_count_the_frontier_each_engine_drives() {
    // `node_steps` sums the per-round frontier: a protocol whose wake
    // hints are all 0 (the `ChaosNode` test protocol keeps the default) is
    // due again every round, so it steps every node every executed round,
    // while λ's wake-hint frontier steps strictly fewer.
    let graph = Arc::new(generators::path(64));
    let n = graph.node_count() as u64;
    let mut dense = Simulator::new(Arc::clone(&graph), ChaosNode::network(64, 3))
        .without_trace()
        .with_metrics(Box::new(CounterSink::new()));
    let outcome = dense.run_rounds(40);
    assert_eq!(outcome.rounds_executed, 40);
    let c = dense.metrics_counters().expect("counting sink");
    assert_eq!(c.node_steps, outcome.rounds_executed * n);
    let session = Session::builder(Scheme::Lambda, Arc::clone(&graph))
        .build()
        .expect("λ labels a path");
    let (frontier, metrics) = session.run_instrumented();
    let c = metrics.counters.expect("instrumented run");
    assert!(frontier.rounds_executed > 0);
    assert!(
        c.node_steps < frontier.rounds_executed * n,
        "frontier λ stepped {} nodes in {} rounds",
        c.node_steps,
        frontier.rounds_executed
    );
}
