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
//! The file's second block pins the cost of the §2.1 construction behind
//! every λ-family labeling: `SequenceConstruction::adjacency_reads` from
//! source 0, on the same instances plus `clustered_gnp`, whose dense
//! clusters keep large frontiers alive for many stages.
//!
//! The third block pins gossip's coordinator search:
//! `Centre::bfs_passes` of the all-nodes `centre` on the same four
//! families. One BFS per source would make every row read n.
//!
//! The fourth block pins graph generation: `UnitDiskInstance::pairs_examined`
//! of the `unit_disk:8` preset's instance, the node pairs whose distance the
//! generator computed.
//!
//! A row may only change together with a deliberate change to what a run
//! costs; the failure message prints each changed row as it now reads, for
//! updating the file in that same change.

use radio_labeling::broadcast::session::{Scheme, Session, TracePolicy};
use radio_labeling::graph::algorithms::{centre, ReductionOrder};
use radio_labeling::graph::generators::{unit_disk, TopologyFamily, UnitDiskInstance};
use radio_labeling::graph::Graph;
use radio_labeling::labeling::sequences::SequenceConstruction;
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

/// The construction rows add a dense family to [`FAMILIES`].
const CLUSTERED: TopologyFamily = TopologyFamily::ClusteredGnp {
    clusters: 6,
    p_in: 0.6,
    p_out: 0.01,
};

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

/// The instance of a construction row and its §2.1 construction from
/// source 0.
fn construction(family: TopologyFamily, n: usize) -> (Graph, SequenceConstruction) {
    let graph = family.generate(n, 1).expect("cost families generate");
    let c = SequenceConstruction::build(&graph, 0, ReductionOrder::Forward)
        .unwrap_or_else(|e| panic!("{}/{n}: {e}", family.name()));
    (graph, c)
}

/// The BFS passes of gossip's coordinator search (every node a source).
fn coordinator_passes(family: TopologyFamily, n: usize) -> usize {
    let graph = family.generate(n, 1).expect("cost families generate");
    let all: Vec<usize> = graph.nodes().collect();
    centre(&graph, &all)
        .unwrap_or_else(|| panic!("{}/{n}: disconnected", family.name()))
        .bfs_passes
}

/// The `unit_disk:8` preset's instance at seed 1, with its positions and
/// counters: the radius `unit_disk_with_degree` picks for degree 8.
fn unit_disk_instance(n: usize) -> UnitDiskInstance {
    let radius = (8.0 / (std::f64::consts::PI * n as f64)).sqrt();
    let inst = unit_disk(n, radius, 1).expect("radius in range");
    let preset = TopologyFamily::UnitDisk { avg_degree: 8.0 }.generate(n, 1);
    assert_eq!(Ok(&inst.graph), preset.as_ref(), "unit_disk:8 radius");
    inst
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
    rows.push("# <family>/<n>/construction adjacency_reads".to_string());
    for family in FAMILIES.into_iter().chain([CLUSTERED]) {
        for n in SIZES {
            let (_, c) = construction(family, n);
            rows.push(format!(
                "{}/{n}/construction {}",
                family.name(),
                c.adjacency_reads()
            ));
        }
    }
    rows.push("# <family>/<n>/coordinator bfs_passes".to_string());
    for family in FAMILIES.into_iter().chain([CLUSTERED]) {
        for n in SIZES {
            rows.push(format!(
                "{}/{n}/coordinator {}",
                family.name(),
                coordinator_passes(family, n)
            ));
        }
    }
    rows.push("# <family>/<n>/generate pairs_examined".to_string());
    for n in SIZES {
        rows.push(format!(
            "unit_disk/{n}/generate {}",
            unit_disk_instance(n).pairs_examined
        ));
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
fn cost_grows_linearly_on_a_path() {
    // Every node sleeps until the local round it acts in and the harness
    // observes only the nodes a round changed, so λ, λ_ack, λ_arb and
    // multi_lambda cost O(n) on a path: doubling n may at most (about)
    // double each counter. Gossip's engine cost is linear too, but its
    // harness keeps one completion cursor per message (k = n), so its
    // `harness_visits` still grows ~4×.
    let both = |scheme| (scheme, true);
    for (scheme, harness) in [
        both(Scheme::Lambda),
        both(Scheme::LambdaAck),
        both(Scheme::LambdaArb),
        both(Scheme::MultiLambda { k: 2 }),
        (Scheme::Gossip, false),
    ] {
        let small = counters(TopologyFamily::Path, 256, scheme);
        let large = counters(TopologyFamily::Path, 512, scheme);
        let mut pairs = vec![("node_steps", small.node_steps, large.node_steps)];
        if harness {
            pairs.push(("harness_visits", small.harness_visits, large.harness_visits));
        }
        for (name, a, b) in pairs {
            assert!(a > 0, "{}: {name} counted nothing", scheme.name());
            assert!(
                b as f64 <= 2.2 * a as f64,
                "{}: {name} grew from {a} at n = 256 to {b} at n = 512",
                scheme.name()
            );
        }
    }
}

#[test]
fn construction_reads_grow_linearly_on_sparse_families() {
    // Stage i reads the rows of NEW_{i−1} and of C_i = DOM_{i−1} ∪ NEW_{i−1};
    // on these families that is O(n + m) over the whole build.
    for family in FAMILIES {
        let (_, small) = construction(family, 256);
        let (_, large) = construction(family, 512);
        let (a, b) = (small.adjacency_reads(), large.adjacency_reads());
        assert!(a > 0, "{}: counted nothing", family.name());
        assert!(
            b as f64 <= 2.2 * a as f64,
            "{}: adjacency_reads grew from {a} at n = 256 to {b} at n = 512",
            family.name()
        );
    }
}

#[test]
fn construction_reads_stay_bounded_on_dense_clusters() {
    // On clustered_gnp a frontier node stays in FRONTIER_i for many stages,
    // so counting each one's dominators from its own row would read
    // Σ_i Σ_{t∈FRONTIER_i} deg(t) entries, a multiple of 2m that grows with
    // n. The build counts them from the candidates' rows instead and stays
    // under BOUND · (2m + n). Swapping the candidate rows of the cover
    // count for the frontier rows would break that bound, as the second
    // assert checks.
    const BOUND: f64 = 4.5;
    for n in SIZES {
        let (g, c) = construction(CLUSTERED, n);
        let budget = BOUND * (2 * g.edge_count() + g.node_count()) as f64;
        let reads = c.adjacency_reads();
        assert!(
            reads as f64 <= budget,
            "n = {n}: {reads} adjacency reads, over {budget}"
        );
        let degree_sum = |set: &[usize]| set.iter().map(|&v| g.degree(v) as u64).sum::<u64>();
        let (mut candidate_rows, mut frontier_rows) = (0, 0);
        for w in c.stages().windows(2) {
            // C_i = DOM_{i−1} ∪ NEW_{i−1}, two disjoint sets.
            candidate_rows += degree_sum(&w[0].dom) + degree_sum(&w[0].new);
            frontier_rows += degree_sum(&w[1].frontier);
        }
        let frontier_side = reads - candidate_rows + frontier_rows;
        assert!(
            frontier_side as f64 > budget,
            "n = {n}: a frontier-side count ({frontier_side}) would also fit in {budget}"
        );
    }
}

#[test]
fn gossip_coordinator_takes_a_bounded_number_of_passes() {
    // The eccentricity bounds settle the centre of these sparse families in
    // a few BFS passes at any n; one BFS per node would take n.
    for family in FAMILIES {
        for n in SIZES {
            let passes = coordinator_passes(family, n);
            assert!(
                passes <= 32,
                "{}/{n}: {passes} coordinator BFS passes",
                family.name()
            );
        }
    }
}

#[test]
fn unit_disk_examines_a_linear_number_of_pairs() {
    // Each point is compared only with the points of its own grid cell and
    // the 8 around it, cells about one radius wide: O(n + m) pairs in
    // expectation. An all-pairs scan examines n(n − 1)/2, ~26 (n + m) at
    // n = 256 and growing 4× per doubling.
    const BOUND: f64 = 4.0;
    let examined = SIZES.map(|n| {
        let inst = unit_disk_instance(n);
        let budget = BOUND * (n + inst.graph.edge_count()) as f64;
        let pairs = inst.pairs_examined;
        assert!(
            pairs > 0 && pairs as f64 <= budget,
            "n = {n}: {pairs} pairs examined, over {budget}"
        );
        pairs
    });
    assert!(
        examined[1] as f64 <= 2.2 * examined[0] as f64,
        "pairs_examined grew from {} at n = 256 to {} at n = 512",
        examined[0],
        examined[1]
    );
}
