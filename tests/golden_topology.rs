//! Golden digests of the generated topologies.
//!
//! Every labeling and every run is computed from a graph that
//! `TopologyFamily::generate` built, so a change to a generator or to the
//! CSR builder moves every other golden file at once without saying why.
//! This test pins the graphs themselves: for each instance it hashes the
//! node count and every CSR row, and compares the hashes with
//! `tests/golden/topology_digests.txt`.
//!
//! Columns: the graph, its square G² (`square_graph`, which collapses the
//! many two-hop paths between a pair into one edge), and the number of
//! repair edges the generator added to connect its sample. A `-` marks a
//! column a row does not compute.
//!
//! Instances:
//! - every `TopologyFamily::PRESETS` entry plus `series_parallel`, at
//!   n ∈ {64, 500} and seeds {1, 7};
//! - the benchmark's lambda-xl families at n = 3000, seed 7 (graph only);
//! - three families whose samples come out disconnected, so the connectivity
//!   repair runs: `gnp_avg_degree:0.5`, `unit_disk:1` and `clustered_gnp`
//!   with no cross-cluster edges. Their repair count is checked against an
//!   independent replay of the sample;
//! - `random_bipartite_connected` at (a, b, p) ∈ {(12, 15, 0.2),
//!   (40, 60, 0.02), (2000, 2000, 2·10⁻⁴)} and seeds {1, 7}, whose sparse
//!   samples need one cross edge per extra component; the repair count is
//!   checked the same way.
//!
//! A digest may only change together with a deliberate change to the
//! generated graphs; the failure message prints each changed row as it now
//! reads, for updating the file in that same change.

use radio_labeling::graph::algorithms::{connected_components, square_graph};
use radio_labeling::graph::generators::{random_bipartite_connected, unit_disk, TopologyFamily};
use radio_labeling::graph::Graph;
use radio_labeling::radio::Digest;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/topology_digests.txt"
);

const SEEDS: [u64; 2] = [1, 7];

/// The lambda-xl benchmark workload's families, generated at n = 3000.
const XL_FAMILIES: [TopologyFamily; 5] = [
    TopologyFamily::Path,
    TopologyFamily::Grid,
    TopologyFamily::RandomTree,
    TopologyFamily::UnitDisk { avg_degree: 8.0 },
    TopologyFamily::ClusteredGnp {
        clusters: 6,
        p_in: 0.6,
        p_out: 0.01,
    },
];

/// Clusters of the repaired `clustered_gnp` rows; with `p_out = 0` each
/// cluster is at least one component of the sample.
const CLUSTERS: usize = 6;

fn digest(g: &Graph) -> String {
    let mut d = Digest::new(0x7090_0000).word(g.node_count() as u64);
    for v in g.nodes() {
        let row: Vec<u64> = g.neighbors(v).iter().map(|&w| w as u64).collect();
        d = d.words(&row);
    }
    format!("{:016x}", d.finish())
}

fn row(name: &str, g: &Graph, square: bool, repairs: Option<usize>) -> String {
    let square = if square {
        digest(&square_graph(g))
    } else {
        "-".into()
    };
    let repairs = repairs.map_or_else(|| "-".into(), |r| r.to_string());
    format!("{name} {} {square} {repairs}", digest(g))
}

/// The sample a pairwise generator draws before its repair: one
/// `gen_bool(p(i, j))` per pair `i < j`, in row order.
fn pair_sample(n: usize, seed: u64, p: impl Fn(usize, usize) -> f64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(p(i, j)) {
                edges.push((i, j));
            }
        }
    }
    Graph::from_edges(n, &edges).expect("a pair sample is simple")
}

/// Checks that `g` is `sample` plus one edge per extra component of the
/// sample, and returns that edge count.
fn repairs_of(sample: &Graph, g: &Graph) -> usize {
    let repairs = connected_components(sample).len() - 1;
    assert!(sample.edges().all(|(u, v)| g.has_edge(u, v)));
    assert_eq!(g.edge_count(), sample.edge_count() + repairs);
    repairs
}

/// `clustered_gnp`'s node-to-cluster map: contiguous ranges, the first
/// `n % clusters` of them one node longer.
fn cluster_of(n: usize, clusters: usize) -> Vec<usize> {
    (0..clusters)
        .flat_map(|c| std::iter::repeat_n(c, n / clusters + usize::from(c < n % clusters)))
        .collect()
}

fn repaired_rows(rows: &mut Vec<String>) {
    for n in [64, 500] {
        for seed in SEEDS {
            let gnp = TopologyFamily::GnpAvgDegree { avg_degree: 0.5 }
                .generate(n, seed)
                .expect("gnp_avg_degree generates");
            let gnp_repairs = repairs_of(&pair_sample(n, seed, |_, _| 0.5 / n as f64), &gnp);

            let disk = TopologyFamily::UnitDisk { avg_degree: 1.0 }
                .generate(n, seed)
                .expect("unit_disk generates");
            let radius = (1.0 / (std::f64::consts::PI * n as f64)).sqrt();
            let inst = unit_disk(n, radius, seed).expect("radius in range");
            assert_eq!(inst.graph, disk, "unit_disk:1 radius");

            let clustered = TopologyFamily::ClusteredGnp {
                clusters: CLUSTERS,
                p_in: 0.6,
                p_out: 0.0,
            }
            .generate(n, seed)
            .expect("clustered_gnp generates");
            let c = cluster_of(n, CLUSTERS);
            let sample = pair_sample(n, seed, |i, j| if c[i] == c[j] { 0.6 } else { 0.0 });
            let clustered_repairs = repairs_of(&sample, &clustered);
            assert!(clustered_repairs >= CLUSTERS - 1);

            for (name, g, repairs) in [
                ("gnp_avg_degree:0.5", gnp, gnp_repairs),
                ("unit_disk:1", disk, inst.repair_edges),
                ("clustered_gnp:p_out=0", clustered, clustered_repairs),
            ] {
                rows.push(row(
                    &format!("{name}/n{n}/seed{seed}"),
                    &g,
                    true,
                    Some(repairs),
                ));
            }
        }
    }
}

/// `random_bipartite_connected`'s sample: one `gen_bool(p)` per cross pair
/// `(i, a + j)`, left node `i` in the outer loop.
fn bipartite_sample(a: usize, b: usize, p: f64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for i in 0..a {
        for j in 0..b {
            if rng.gen_bool(p) {
                edges.push((i, a + j));
            }
        }
    }
    Graph::from_edges(a + b, &edges).expect("a cross-pair sample is simple")
}

fn bipartite_rows(rows: &mut Vec<String>) {
    for (a, b, p) in [(12, 15, 0.2), (40, 60, 0.02), (2000, 2000, 2e-4)] {
        for seed in SEEDS {
            let g = random_bipartite_connected(a, b, p, seed).expect("valid parameters");
            let repairs = repairs_of(&bipartite_sample(a, b, p, seed), &g);
            assert!(
                g.edges().all(|(u, v)| (u < a) != (v < a)),
                "every edge crosses the sides"
            );
            let name = format!("random_bipartite_connected:{a}x{b}:p{p}/seed{seed}");
            rows.push(row(&name, &g, true, Some(repairs)));
        }
    }
}

fn actual_rows() -> Vec<String> {
    let mut rows = Vec::new();
    let registry = TopologyFamily::PRESETS
        .into_iter()
        .chain([TopologyFamily::SeriesParallel]);
    for family in registry {
        for n in [64, 500] {
            for seed in SEEDS {
                let g = family
                    .generate(n, seed)
                    .expect("registry families generate");
                let name = format!("{}/n{}/seed{seed}", family.name(), g.node_count());
                rows.push(row(&name, &g, true, None));
            }
        }
    }
    for family in XL_FAMILIES {
        let g = family
            .generate(3000, 7)
            .expect("lambda-xl families generate");
        let name = format!("{}/n{}/seed7", family.name(), g.node_count());
        rows.push(row(&name, &g, false, None));
    }
    repaired_rows(&mut rows);
    bipartite_rows(&mut rows);
    rows
}

#[test]
fn topology_digests_match_the_golden_file() {
    let header = "# instance graph square repairs".to_string();
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
        "topology digests changed ({} rows):\n{}",
        changed.len(),
        changed.join("\n")
    );
}
