//! Golden cost counters of a `Session` run.
//!
//! The other golden files pin what a run reports; this one pins what it
//! costs, in the two deterministic work counters: `node_steps` (nodes the
//! engine drove, summed over the rounds) and `harness_visits` (node states
//! the session harness examined). A change that makes a scheme do
//! asymptotically more work fails here deterministically, without timing
//! anything. Each row is one instrumented, untraced run of a
//! `Scheme::GENERAL` entry from source 0, on the fast engine, and the test
//! compares the counters with `tests/golden/cost_counters.txt`.
//!
//! Instances: path, random tree and sparse G(n, p) (average degree 4),
//! seed 1, at n ∈ {256, 512}.
//!
//! A row may only change together with a deliberate change to what a run
//! costs; the failure message prints each changed row as it now reads, for
//! updating the file in that same change.

use radio_labeling::broadcast::session::{Scheme, Session, TracePolicy};
use radio_labeling::graph::generators::TopologyFamily;
use radio_labeling::radio::RunCounters;
use std::sync::Arc;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/cost_counters.txt"
);

const FAMILIES: [TopologyFamily; 3] = [
    TopologyFamily::Path,
    TopologyFamily::RandomTree,
    TopologyFamily::GnpAvgDegree { avg_degree: 4.0 },
];

const SIZES: [usize; 2] = [256, 512];

/// The counters of one instrumented, untraced run from source 0.
fn counters(family: TopologyFamily, n: usize, scheme: Scheme) -> RunCounters {
    let graph = Arc::new(family.generate(n, 1).expect("cost families generate"));
    let session = Session::builder(scheme, graph)
        .trace(TracePolicy::Disabled)
        .build()
        .unwrap_or_else(|e| panic!("{}/{n}/{}: {e}", family.name(), scheme.name()));
    let (_, metrics) = session.run_instrumented();
    metrics.counters.expect("instrumented runs count")
}

fn actual_rows() -> Vec<String> {
    let mut rows = vec!["# <family>/<n>/<scheme> node_steps harness_visits".to_string()];
    for family in FAMILIES {
        for n in SIZES {
            for scheme in Scheme::GENERAL {
                let c = counters(family, n, scheme);
                rows.push(format!(
                    "{}/{n}/{} {} {}",
                    family.name(),
                    scheme.name(),
                    c.node_steps,
                    c.harness_visits
                ));
            }
        }
    }
    rows
}

#[test]
fn cost_counters_match_the_golden_file() {
    let actual = actual_rows().join("\n") + "\n";
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden file is committed");
    let changed: Vec<String> = golden
        .lines()
        .zip(actual.lines())
        .filter(|(g, a)| g != a)
        .map(|(g, a)| format!("  golden: {g}\n  actual: {a}"))
        .collect();
    assert!(
        changed.is_empty() && golden.lines().count() == actual.lines().count(),
        "cost counters changed ({} rows):\n{}\nactual file:\n{actual}",
        changed.len(),
        changed.join("\n")
    );
}

#[test]
fn lambda_and_lambda_ack_cost_grows_linearly_on_a_path() {
    // Both parked between their events and observed only where a round
    // changed something, λ and λ_ack cost O(n) on a path: doubling n may
    // at most (about) double each counter. λ_arb still grows ~4× — its
    // countdowns keep every informed node driven until completion.
    for scheme in [Scheme::Lambda, Scheme::LambdaAck] {
        let small = counters(TopologyFamily::Path, 256, scheme);
        let large = counters(TopologyFamily::Path, 512, scheme);
        for (name, a, b) in [
            ("node_steps", small.node_steps, large.node_steps),
            ("harness_visits", small.harness_visits, large.harness_visits),
        ] {
            if a > 0 {
                assert!(
                    b as f64 <= 2.2 * a as f64,
                    "{}: {name} grew from {a} at n = 256 to {b} at n = 512",
                    scheme.name()
                );
            }
        }
    }
}
