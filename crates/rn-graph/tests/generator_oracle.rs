//! Reference implementations of the pairwise random generators.
//!
//! `unit_disk` compares each point only with the points of nearby grid
//! cells, and the Bernoulli pair generators (`gnp_connected`,
//! `clustered_gnp`, `random_bipartite_connected`) sample each node's row
//! without branching and pack the rows straight into CSR form. The plain
//! loops below are what they replace: every pair `i < j` in row order, one
//! distance test or one `gen_bool` draw each, through `GraphBuilder`. Each
//! test asserts that a generator returns exactly its reference's output,
//! repair edges and positions included, over radii, densities and cluster
//! layouts chosen to hit the edge cases (radii whose inverse is an integer,
//! a radius below any point spacing, empty and complete samples, one node
//! per cluster).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rn_graph::algorithms::connectivity::{connect, connected_components};
use rn_graph::generators::{
    clustered_gnp, gnp_connected, random_bipartite_connected, unit_disk, UnitDiskInstance,
};
use rn_graph::{Graph, GraphBuilder};

const SEEDS: std::ops::Range<u64> = 0..20;

/// `unit_disk` as an all-pairs scan.
fn unit_disk_reference(n: usize, radius: f64, seed: u64) -> UnitDiskInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let positions: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
        .collect();
    let mut b = GraphBuilder::new(n);
    let r2 = radius * radius;
    for i in 0..n {
        for j in (i + 1)..n {
            let dx = positions[i].0 - positions[j].0;
            let dy = positions[i].1 - positions[j].1;
            if dx * dx + dy * dy <= r2 {
                b.add_edge(i, j).expect("fresh pair");
            }
        }
    }
    let (graph, repair_edges) = connect(b.build()).expect("a repair stays simple");
    UnitDiskInstance {
        graph,
        positions,
        radius,
        repair_edges,
        pairs_examined: (n * n.saturating_sub(1) / 2) as u64,
    }
}

/// The pair sample of a Bernoulli pair generator: one `gen_bool(p(i, j))`
/// per pair `i < j`, in row order, skipping the pairs `p` maps to `None`.
fn pair_sample(n: usize, seed: u64, p: impl Fn(usize, usize) -> Option<f64>) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if let Some(p) = p(i, j) {
                if rng.gen_bool(p) {
                    b.add_edge(i, j).expect("fresh pair");
                }
            }
        }
    }
    b.build()
}

fn gnp_reference(n: usize, p: f64, seed: u64) -> Graph {
    connect(pair_sample(n, seed, |_, _| Some(p))).unwrap().0
}

fn clustered_reference(n: usize, clusters: usize, p_in: f64, p_out: f64, seed: u64) -> Graph {
    // Contiguous near-equal clusters, the first `n % clusters` one longer.
    let base = n / clusters;
    let extra = n % clusters;
    let cluster_of = |v: usize| {
        let boundary = extra * (base + 1);
        if v < boundary {
            v / (base + 1)
        } else {
            extra + (v - boundary) / base.max(1)
        }
    };
    let sample = pair_sample(n, seed, |i, j| {
        Some(if cluster_of(i) == cluster_of(j) {
            p_in
        } else {
            p_out
        })
    });
    connect(sample).unwrap().0
}

/// `random_bipartite_connected`: left node `i` draws over the right side
/// `a..a + b`, then every other component joins node 0's with one cross
/// edge.
fn bipartite_reference(a: usize, b: usize, p: f64, seed: u64) -> Graph {
    let g = pair_sample(a + b, seed, |i, j| (i < a && j >= a).then_some(p));
    let comps = connected_components(&g);
    let smallest_right = |c: &[usize]| c.iter().copied().find(|&v| v >= a);
    let mut first_right = smallest_right(&comps[0]);
    let mut absorbed = None;
    let mut extra = Vec::new();
    for (i, comp) in comps.iter().enumerate().skip(1) {
        if absorbed == Some(i) {
            continue;
        }
        match (smallest_right(comp), first_right) {
            (Some(v), _) => {
                extra.push((0, v));
                first_right = Some(first_right.map_or(v, |r| r.min(v)));
            }
            (None, Some(r)) => extra.push((comp[0], r)),
            (None, None) => {
                extra.push((comp[0], a));
                extra.push((0, a));
                first_right = Some(a);
                absorbed = comps.iter().position(|c| c.binary_search(&a).is_ok());
            }
        }
    }
    g.with_extra_edges(&extra).unwrap()
}

#[test]
fn unit_disk_matches_the_all_pairs_scan() {
    let radii = (1..=10)
        .map(|k| 1.0 / k as f64)
        .chain([0.15, 0.7, std::f64::consts::SQRT_2, 1e-9]);
    for radius in radii {
        for n in [1, 2, 40, 500] {
            for seed in SEEDS {
                let got = unit_disk(n, radius, seed).unwrap();
                let want = unit_disk_reference(n, radius, seed);
                let at = format!("n = {n}, radius = {radius}, seed = {seed}");
                assert_eq!(got.graph, want.graph, "{at}");
                assert_eq!(got.positions, want.positions, "{at}");
                assert_eq!(got.radius.to_bits(), want.radius.to_bits(), "{at}");
                assert_eq!(got.repair_edges, want.repair_edges, "{at}");
                assert!(got.pairs_examined <= want.pairs_examined, "{at}");
            }
        }
    }
}

#[test]
fn a_radius_below_every_spacing_leaves_only_repair_edges() {
    for seed in 0..3 {
        let inst = unit_disk(1000, 1e-9, seed).unwrap();
        assert_eq!(inst.repair_edges, 999, "seed {seed}");
        assert_eq!(inst.graph.edge_count(), 999, "seed {seed}");
    }
}

#[test]
fn clustered_gnp_matches_the_pair_loop() {
    for n in [1, 2, 23, 97] {
        for clusters in [1, 4, n] {
            if clusters > n {
                continue;
            }
            for p_in in [0.0, 0.6, 1.0] {
                for p_out in [0.0, 0.05, 0.6, 1.0] {
                    for seed in 0..5 {
                        assert_eq!(
                            clustered_gnp(n, clusters, p_in, p_out, seed).unwrap(),
                            clustered_reference(n, clusters, p_in, p_out, seed),
                            "n = {n}, clusters = {clusters}, p = ({p_in}, {p_out}), seed = {seed}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn gnp_connected_matches_the_pair_loop() {
    for n in [1, 2, 30, 200] {
        for p in [0.0, 0.01, 0.05, 0.6, 1.0] {
            for seed in 0..10 {
                assert_eq!(
                    gnp_connected(n, p, seed).unwrap(),
                    gnp_reference(n, p, seed),
                    "n = {n}, p = {p}, seed = {seed}"
                );
            }
        }
    }
}

#[test]
fn random_bipartite_connected_matches_the_pair_loop() {
    for (a, b) in [(1, 1), (3, 7), (12, 15), (40, 60)] {
        for p in [0.0, 0.02, 0.2, 1.0] {
            for seed in 0..10 {
                assert_eq!(
                    random_bipartite_connected(a, b, p, seed).unwrap(),
                    bipartite_reference(a, b, p, seed),
                    "{a}x{b}, p = {p}, seed = {seed}"
                );
            }
        }
    }
}
