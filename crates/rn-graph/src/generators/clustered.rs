//! Clustered random graphs and degree-capped random graphs.
//!
//! Two families the plain G(n, p) generator cannot express:
//!
//! * **clustered G(n, p)** — a planted-partition graph (dense inside
//!   clusters, sparse between them), the shape of real deployments with
//!   buildings, floors or pockets of devices;
//! * **degree-capped random graphs** — connected random graphs whose maximum
//!   degree never exceeds a cap Δ, the bounded-degree regime in which the
//!   paper's `O(n)` round bounds are tight up to constants.

use super::pairs::sample_pairs;
use crate::algorithms::connectivity::connect;
use crate::error::GraphError;
use crate::graph::{Graph, GraphBuilder};
use rand::Rng;
use rand::SeedableRng;

/// Connected planted-partition ("clustered") G(n, p) graph: `n` nodes are
/// split into `clusters` near-equal groups; a pair inside one group is an
/// edge with probability `p_in`, a pair across groups with probability
/// `p_out`. If the sample is disconnected it is repaired with one linking
/// edge per extra component (the minimum augmentation), so the result is
/// always connected.
///
/// Node numbering is by cluster: cluster `c` occupies a contiguous index
/// range, with the first `n % clusters` clusters holding one extra node.
///
/// Cost: one `gen_bool` draw per pair, n(n − 1)/2 in all, plus O(n + m) to
/// pack and repair the sample.
///
/// Returns an error if `n == 0`, `clusters == 0`, `clusters > n`, or either
/// probability is outside `[0, 1]`.
pub fn clustered_gnp(
    n: usize,
    clusters: usize,
    p_in: f64,
    p_out: f64,
    seed: u64,
) -> Result<Graph, GraphError> {
    if n == 0 || clusters == 0 || clusters > n {
        return Err(GraphError::InvalidParameters {
            reason: format!(
                "clustered_gnp requires 1 <= clusters <= n, got n = {n}, clusters = {clusters}"
            ),
        });
    }
    for (name, p) in [("p_in", p_in), ("p_out", p_out)] {
        if !(0.0..=1.0).contains(&p) || p.is_nan() {
            return Err(GraphError::InvalidParameters {
                reason: format!("clustered_gnp requires {name} in [0, 1], got {p}"),
            });
        }
    }
    // Node i draws over the rest of its cluster with p_in, then over every
    // later cluster with p_out. The first `n % clusters` clusters hold
    // `n / clusters + 1` nodes; `end` is the end of i's cluster.
    let (mut cluster, mut end) = (0, 0);
    let sample = sample_pairs(n, seed, |i| {
        if i == end {
            end += n / clusters + usize::from(cluster < n % clusters);
            cluster += 1;
        }
        [(i + 1..end, p_in), (end..n, p_out)]
    })?;
    Ok(connect(sample)?.0)
}

/// Connected random graph with maximum degree at most `max_degree`: a
/// degree-respecting random spanning tree (each new node attaches to a
/// uniformly random earlier node that still has spare degree) plus random
/// extra edges, each accepted only while both endpoints stay under the cap.
///
/// The number of extra-edge attempts is `2n`, which lands the average degree
/// between the tree's `~2` and the cap without ever violating it; the cap is
/// a hard invariant, checked by the generator property tests.
///
/// Returns an error if `n == 0`, or if `n >= 3` and `max_degree < 2`
/// (a connected graph on three or more nodes needs a degree-2 node).
pub fn degree_capped_random(n: usize, max_degree: usize, seed: u64) -> Result<Graph, GraphError> {
    if n == 0 {
        return Err(GraphError::InvalidParameters {
            reason: "degree_capped_random requires n >= 1".into(),
        });
    }
    if n >= 2 && max_degree < 1 || n >= 3 && max_degree < 2 {
        return Err(GraphError::InvalidParameters {
            reason: format!(
                "degree_capped_random requires max_degree >= 2 for n >= 3 \
                 (got n = {n}, max_degree = {max_degree})"
            ),
        });
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    let mut degree = vec![0usize; n];
    // Spanning tree under the cap: node v attaches to a random earlier node
    // with spare degree. With max_degree >= 2 such a node always exists
    // (attaching consumes one unit at the parent and one at v, so at any
    // point at least the previous node has spare degree).
    for v in 1..n {
        let candidate = rng.gen_range(0..v);
        let parent = if degree[candidate] < max_degree {
            candidate
        } else {
            // One random probe, then a scan: total and still O(n) amortised,
            // since the scan only triggers once most early nodes are full.
            (0..v)
                .rev()
                .find(|&u| degree[u] < max_degree)
                .expect("a node with spare degree always exists under cap >= 2")
        };
        b.add_edge(v, parent).expect("fresh tree edge");
        degree[v] += 1;
        degree[parent] += 1;
    }
    // Random chords, respecting the cap.
    if n >= 3 {
        for _ in 0..2 * n {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v && degree[u] < max_degree && degree[v] < max_degree && !b.has_edge(u, v) {
                b.add_edge(u, v).expect("checked fresh edge");
                degree[u] += 1;
                degree[v] += 1;
            }
        }
    }
    b.try_build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::is_connected;

    #[test]
    fn clustered_gnp_is_always_connected() {
        for seed in 0..6 {
            let g = clustered_gnp(40, 5, 0.6, 0.01, seed).unwrap();
            assert!(is_connected(&g), "seed {seed}");
            assert_eq!(g.node_count(), 40);
        }
    }

    #[test]
    fn clusters_are_denser_than_the_cut() {
        // With p_in = 1 and p_out = 0 the graph is a disjoint union of
        // cliques plus only the repair edges.
        let g = clustered_gnp(20, 4, 1.0, 0.0, 3).unwrap();
        // 4 cliques of 5 nodes: 4 * C(5,2) = 40 intra edges + 3 repair edges.
        assert_eq!(g.edge_count(), 40 + 3);
        assert!(is_connected(&g));
    }

    #[test]
    fn uneven_cluster_sizes_are_handled() {
        // 23 nodes over 4 clusters: sizes 6, 6, 6, 5.
        let g = clustered_gnp(23, 4, 1.0, 0.0, 1).unwrap();
        assert_eq!(g.node_count(), 23);
        assert!(is_connected(&g));
        let clique_edges = 3 * (6 * 5 / 2) + (5 * 4 / 2);
        assert_eq!(g.edge_count(), clique_edges + 3);
    }

    #[test]
    fn clustered_gnp_deterministic_per_seed() {
        let a = clustered_gnp(30, 5, 0.5, 0.02, 9).unwrap();
        let b = clustered_gnp(30, 5, 0.5, 0.02, 9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn clustered_gnp_rejects_bad_parameters() {
        assert!(clustered_gnp(0, 1, 0.5, 0.5, 0).is_err());
        assert!(clustered_gnp(10, 0, 0.5, 0.5, 0).is_err());
        assert!(clustered_gnp(10, 11, 0.5, 0.5, 0).is_err());
        assert!(clustered_gnp(10, 2, 1.5, 0.5, 0).is_err());
        assert!(clustered_gnp(10, 2, 0.5, -0.1, 0).is_err());
        assert!(clustered_gnp(10, 2, f64::NAN, 0.5, 0).is_err());
    }

    #[test]
    fn degree_cap_is_a_hard_invariant() {
        for seed in 0..6 {
            for &cap in &[2usize, 3, 4, 8] {
                let g = degree_capped_random(50, cap, seed).unwrap();
                assert!(is_connected(&g), "cap {cap}, seed {seed}");
                assert!(
                    g.max_degree() <= cap,
                    "cap {cap} violated: max degree {}",
                    g.max_degree()
                );
            }
        }
    }

    #[test]
    fn cap_two_is_a_path() {
        let g = degree_capped_random(12, 2, 4).unwrap();
        assert!(is_connected(&g));
        assert!(g.max_degree() <= 2);
        // Connected with max degree 2: a path or a cycle.
        assert!(g.edge_count() == 11 || g.edge_count() == 12);
    }

    #[test]
    fn degree_capped_deterministic_per_seed() {
        let a = degree_capped_random(25, 4, 7).unwrap();
        let b = degree_capped_random(25, 4, 7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn degree_capped_small_cases() {
        assert_eq!(degree_capped_random(1, 0, 0).unwrap().node_count(), 1);
        assert_eq!(degree_capped_random(2, 1, 0).unwrap().edge_count(), 1);
        assert!(degree_capped_random(0, 2, 0).is_err());
        assert!(degree_capped_random(2, 0, 0).is_err());
        assert!(degree_capped_random(5, 1, 0).is_err());
    }
}
