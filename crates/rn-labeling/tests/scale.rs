//! Scale guard for the §2.1 construction and the λ labels built on it.
//!
//! A construction that spends `O(n)` per stage needs Θ(n²) time on a path
//! from an endpoint (ℓ = n stages); one that also stores `INF_i`/`UNINF_i`
//! per stage needs Θ(n²) memory, tens of gigabytes here. One that counts
//! each frontier node's dominators from the frontier node's own row reads
//! Θ(m·ℓ) entries on dense clusters, and an x2 assignment that scans all of
//! `NEW_i` per repeating dominator costs Θ(n²) on a sparse G(n, p). Gossip's
//! coordinator, chosen with one BFS per node, would cost Θ(n·(n + m)); the
//! eccentricity-bounding search must settle it in a few passes. Ignored
//! by default because a debug build is slow at these sizes; run it in
//! release with
//!
//! ```text
//! cargo test --release -p rn-labeling -- --ignored
//! ```

use rn_graph::algorithms::centre;
use rn_graph::generators::{self, TopologyFamily};
use rn_graph::Graph;
use rn_labeling::{gossip, lambda};

const N: usize = 100_000;

/// Builds λ from `source` and checks that the NEW sets cover every node but
/// the source (Corollary 2.7) and that the build read O(n + m) adjacency
/// entries; returns ℓ.
fn build_and_check(g: &Graph, source: usize) -> usize {
    let scheme = lambda::construct(g, source).expect("connected instance");
    let c = scheme.construction();
    let informed: usize = c.stages().iter().map(|s| s.new.len()).sum();
    assert_eq!(informed, g.node_count() - 1);
    assert_eq!(scheme.labeling().node_count(), g.node_count());
    let budget = 5 * (2 * g.edge_count() + g.node_count()) as u64;
    assert!(
        c.adjacency_reads() <= budget,
        "{} adjacency reads, over {budget}",
        c.adjacency_reads()
    );
    c.ell()
}

#[test]
#[ignore = "n = 10^5; run in release with --ignored"]
fn lambda_builds_at_one_hundred_thousand_nodes() {
    // A path from an endpoint informs one node per stage: ℓ = n.
    assert_eq!(build_and_check(&generators::path(N), 0), N);
    build_and_check(&generators::grid(316, 317), 0);
    build_and_check(&generators::random_tree(N, 1), N / 2);
}

#[test]
#[ignore = "n = 10^5; run in release with --ignored"]
fn lambda_builds_on_unit_disk_at_one_hundred_thousand_nodes() {
    let g = generators::unit_disk_with_degree(N, 8.0, 1).expect("unit_disk generates");
    build_and_check(&g, 0);
}

#[test]
#[ignore = "n = 10^4 dense clusters; run in release with --ignored"]
fn lambda_builds_on_dense_clusters_at_ten_thousand_nodes() {
    // About 10^7 adjacency entries, most of them inside the six clusters.
    let family = TopologyFamily::ClusteredGnp {
        clusters: 6,
        p_in: 0.6,
        p_out: 0.01,
    };
    let g = family.generate(10_000, 1).expect("clustered_gnp generates");
    build_and_check(&g, 0);
}

#[test]
#[ignore = "n = 5 * 10^4; run in release with --ignored"]
fn lambda_builds_on_sparse_gnp_at_fifty_thousand_nodes() {
    let family = TopologyFamily::GnpAvgDegree { avg_degree: 4.0 };
    let g = family
        .generate(50_000, 1)
        .expect("gnp_avg_degree generates");
    build_and_check(&g, 0);
}

/// Chooses gossip's coordinator and checks that the search behind it took
/// at most 32 BFS passes; returns the coordinator.
fn gossip_coordinator(g: &Graph) -> usize {
    let all: Vec<usize> = g.nodes().collect();
    let c = centre(g, &all).expect("connected instance");
    assert!(c.bfs_passes <= 32, "{} BFS passes", c.bfs_passes);
    let coordinator = gossip::choose_coordinator(g).expect("connected instance");
    assert_eq!(coordinator, c.node);
    coordinator
}

#[test]
#[ignore = "n = 10^5; run in release with --ignored"]
fn gossip_coordinator_at_one_hundred_thousand_nodes() {
    // The two middle nodes of the path tie; the smaller index wins.
    assert_eq!(gossip_coordinator(&generators::path(N)), N / 2 - 1);
    gossip_coordinator(&generators::grid(316, 317));
    gossip_coordinator(&generators::random_tree(N, 1));
}
