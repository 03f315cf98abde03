//! Scale guard for the generators whose parameters depend on `n`.
//!
//! `unit_disk_with_degree` picks the radius `sqrt(target/(π n))`. Any fixed
//! lower bound on that radius overrides the target once `n` is large: a
//! floor of 0.01 turns a target of 8 into an average degree of 18.7 at
//! n = 60 000. At n = 100 000 the guard also needs the cell-bucketed edge
//! search: an all-pairs scan takes about ten seconds there. Ignored by
//! default because a debug build is slow at this size; run it in release
//! with
//!
//! ```text
//! cargo test --release -p rn-graph -- --ignored
//! ```

use rn_graph::generators::unit_disk_with_degree;

#[test]
#[ignore = "n = 100 000; run in release with --ignored"]
fn unit_disk_keeps_its_target_degree_at_one_hundred_thousand_nodes() {
    let g = unit_disk_with_degree(100_000, 8.0, 1).expect("unit_disk generates");
    let avg = g.average_degree();
    assert!((6.0..=10.0).contains(&avg), "average degree {avg}");
}
