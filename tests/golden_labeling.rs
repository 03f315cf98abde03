//! Golden digests of the labeling constructions.
//!
//! Every scheme is derived from the five-sequence construction of §2.1, so a
//! change to that construction moves every engine at once and no
//! engine-vs-engine comparison can see it. This test pins the constructions
//! themselves: for each instance it hashes the λ, λ_ack, λ_arb,
//! `multi_lambda:8` and gossip labelings, and the (FRONTIER_i, DOM_i, NEW_i)
//! of every stage under the Forward, Reverse and a Random reduction order,
//! and compares the hashes with `tests/golden/labeling_digests.txt`.
//!
//! Instances: every `TopologyFamily::PRESETS` entry at n ∈ {64, 500} (seed 1)
//! from sources {0, n/2}, plus every connected graph with n ≤ 6 from every
//! source (one row per n, folding all graphs and sources).
//!
//! A digest may only change together with a deliberate change to the
//! constructions' output; the failure message prints each changed row as
//! it now reads, for updating the file in that same change.

use radio_labeling::graph::algorithms::ReductionOrder;
use radio_labeling::graph::enumerate::connected_graphs;
use radio_labeling::graph::generators::TopologyFamily;
use radio_labeling::graph::{Graph, NodeId};
use radio_labeling::labeling::{
    gossip, lambda, lambda_ack, lambda_arb, multi, Labeling, LabelingError, SequenceConstruction,
};
use radio_labeling::radio::Digest;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/labeling_digests.txt"
);

/// Column order of every row.
const COLUMNS: [&str; 8] = [
    "lambda",
    "lambda_ack",
    "lambda_arb",
    "multi8",
    "gossip",
    "stages_fwd",
    "stages_rev",
    "stages_rnd",
];

const ORDERS: [ReductionOrder; 3] = [
    ReductionOrder::Forward,
    ReductionOrder::Reverse,
    ReductionOrder::Random(7),
];

fn nodes(d: Digest, vs: &[NodeId]) -> Digest {
    let ws: Vec<u64> = vs.iter().map(|&v| v as u64).collect();
    d.words(&ws)
}

fn labels(d: Digest, l: &Labeling) -> Digest {
    let mut d = d.word(l.node_count() as u64);
    for label in l.labels() {
        d = d.word(label.len() as u64).word(label.value());
    }
    d
}

fn stages(d: Digest, c: &SequenceConstruction) -> Digest {
    let mut d = d.word(c.source() as u64).word(c.ell() as u64);
    for st in c.stages() {
        d = nodes(d.word(st.index as u64), &st.frontier);
        d = nodes(d, &st.dom);
        d = nodes(d, &st.new);
    }
    d
}

/// Folds a construction result; errors fold their message so a changed
/// error is caught too.
fn result<T>(
    d: Digest,
    r: Result<T, LabelingError>,
    ok: impl FnOnce(Digest, T) -> Digest,
) -> Digest {
    match r {
        Ok(v) => ok(d.word(1), v),
        Err(e) => {
            let bytes: Vec<u64> = e.to_string().bytes().map(u64::from).collect();
            d.word(0).words(&bytes)
        }
    }
}

/// The `multi_lambda:8` source set a session would pick: 8 sources spread
/// evenly over the node range.
fn multi_sources(n: usize) -> Vec<NodeId> {
    let k = 8.min(n);
    let mut spread: Vec<NodeId> = (0..k).map(|i| i * n / k).collect();
    spread.dedup();
    spread
}

/// Folds one (graph, source) instance into the eight column digests.
fn fold(acc: &mut [Digest; 8], g: &Graph, s: NodeId) {
    acc[0] = result(acc[0], lambda::construct(g, s), |d, x| {
        stages(labels(d, x.labeling()), x.construction())
    });
    acc[1] = result(acc[1], lambda_ack::construct(g, s), |d, x| {
        labels(d, x.labeling()).word(x.z() as u64)
    });
    acc[2] = result(
        acc[2],
        lambda_arb::construct_with_coordinator(g, s, ReductionOrder::Forward),
        |d, x| {
            labels(d, x.labeling())
                .word(x.r() as u64)
                .word(x.z() as u64)
        },
    );
    acc[3] = result(
        acc[3],
        multi::construct_with_coordinator(g, &multi_sources(g.node_count()), s),
        |d, x| labels(d, x.labeling()).word(x.coordinator() as u64),
    );
    acc[4] = result(acc[4], gossip::construct_with_coordinator(g, s), |d, x| {
        labels(d, x.labeling()).word(x.coordinator() as u64)
    });
    for (slot, order) in acc[5..].iter_mut().zip(ORDERS) {
        *slot = result(*slot, SequenceConstruction::build(g, s, order), |d, c| {
            stages(d, &c)
        });
    }
}

fn row(name: &str, acc: [Digest; 8]) -> String {
    let cols: Vec<String> = acc.iter().map(|d| format!("{:016x}", d.finish())).collect();
    format!("{name} {}", cols.join(" "))
}

fn fresh() -> [Digest; 8] {
    std::array::from_fn(|i| Digest::new(0x601d_0000 + i as u64))
}

fn actual_rows() -> Vec<String> {
    let mut rows = Vec::new();
    for family in TopologyFamily::PRESETS {
        for n in [64, 500] {
            let g = family.generate(n, 1).expect("preset families generate");
            let n = g.node_count();
            for s in [0, n / 2] {
                let mut acc = fresh();
                fold(&mut acc, &g, s);
                rows.push(row(&format!("{}/n{n}/s{s}", family.name()), acc));
            }
        }
    }
    for n in 1..=6 {
        let mut acc = fresh();
        for g in connected_graphs(n) {
            for s in 0..n {
                fold(&mut acc, &g, s);
            }
        }
        rows.push(row(&format!("connected/n{n}/all"), acc));
    }
    rows
}

#[test]
fn labeling_digests_match_the_golden_file() {
    let header = format!("# instance {}", COLUMNS.join(" "));
    let actual: Vec<String> = std::iter::once(header).chain(actual_rows()).collect();
    let actual = actual.join("\n") + "\n";
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden file is committed");
    let changed: Vec<String> = golden
        .lines()
        .zip(actual.lines())
        .filter(|(g, a)| g != a)
        .map(|(g, a)| format!("  golden: {g}\n  actual: {a}"))
        .collect();
    assert!(
        changed.is_empty() && golden.lines().count() == actual.lines().count(),
        "labeling digests changed ({} rows):\n{}",
        changed.len(),
        changed.join("\n")
    );
}
