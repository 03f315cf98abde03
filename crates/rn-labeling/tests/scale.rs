//! Scale guard for the §2.1 construction: λ at n = 10⁵.
//!
//! A construction that spends `O(n)` per stage needs Θ(n²) time on a path
//! from an endpoint (ℓ = n stages); one that also stores `INF_i`/`UNINF_i`
//! per stage needs Θ(n²) memory, tens of gigabytes here. Ignored by default
//! because a debug build is slow at this size; run it in release with
//!
//! ```text
//! cargo test --release -p rn-labeling -- --ignored
//! ```

use rn_graph::generators;
use rn_graph::Graph;
use rn_labeling::lambda;

const N: usize = 100_000;

/// Builds λ from `source` and checks that the NEW sets cover every node but
/// the source (Corollary 2.7); returns ℓ.
fn build_and_check(g: &Graph, source: usize) -> usize {
    let scheme = lambda::construct(g, source).expect("connected instance");
    let c = scheme.construction();
    let informed: usize = c.stages().iter().map(|s| s.new.len()).sum();
    assert_eq!(informed, g.node_count() - 1);
    assert_eq!(scheme.labeling().node_count(), g.node_count());
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
