//! Randomised graph families: connected Erdős–Rényi graphs, random bipartite
//! graphs and near-regular graphs.
//!
//! All generators take an explicit seed and are fully deterministic for a
//! given seed, which keeps every experiment reproducible.

use super::pairs::sample_pairs;
use crate::algorithms::connectivity::{connect, connected_components};
use crate::error::GraphError;
use crate::graph::{Graph, GraphBuilder};
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;

/// Connected Erdős–Rényi graph G(n, p): every pair is an edge independently
/// with probability `p`; if the sample is disconnected it is repaired by
/// adding one edge from the first component to each other component (the
/// minimum augmentation), so the result is always connected.
///
/// Cost: one `gen_bool` draw per pair, n(n − 1)/2 in all, plus O(n + m) to
/// pack and repair the sample.
///
/// Returns an error if `n == 0` or `p` is not in `[0, 1]`.
pub fn gnp_connected(n: usize, p: f64, seed: u64) -> Result<Graph, GraphError> {
    if n == 0 {
        return Err(GraphError::InvalidParameters {
            reason: "gnp_connected requires n >= 1".into(),
        });
    }
    if !(0.0..=1.0).contains(&p) || p.is_nan() {
        return Err(GraphError::InvalidParameters {
            reason: format!("gnp_connected requires p in [0, 1], got {p}"),
        });
    }
    Ok(connect(sample_pairs(n, seed, |i| [(i + 1..n, p)])?)?.0)
}

/// Connected random bipartite graph with sides of size `a` and `b`: each
/// cross pair is an edge with probability `p`, then the graph is repaired to
/// be connected by adding cross edges between components (never edges inside
/// a side, so bipartiteness is preserved).
pub fn random_bipartite_connected(
    a: usize,
    b: usize,
    p: f64,
    seed: u64,
) -> Result<Graph, GraphError> {
    if a == 0 || b == 0 {
        return Err(GraphError::InvalidParameters {
            reason: "random_bipartite_connected requires a, b >= 1".into(),
        });
    }
    if !(0.0..=1.0).contains(&p) || p.is_nan() {
        return Err(GraphError::InvalidParameters {
            reason: format!("random_bipartite_connected requires p in [0, 1], got {p}"),
        });
    }
    // Left node i draws over the right side a..a + b; right nodes draw
    // nothing.
    let right = |i| if i < a { a..a + b } else { 0..0 };
    let g = sample_pairs(a + b, seed, |i| [(right(i), p)])?;
    // Repair connectivity while preserving bipartiteness: merge every other
    // component, in order of its smallest node, into node 0's component with
    // one cross edge. Node 0 is on the left; `first_right` is the smallest
    // right-side node (index >= a) that node 0's component holds so far.
    let comps = connected_components(&g);
    let smallest_right = |c: &[usize]| c.iter().copied().find(|&v| v >= a);
    let mut first_right = smallest_right(&comps[0]);
    // The component of node `a`, once an all-left component was joined to it.
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
                // This component and node 0's both lie on the left: join
                // this one to `a`'s component, then the merged component to
                // node 0 through `a`, the smallest right-side node.
                extra.push((comp[0], a));
                extra.push((0, a));
                first_right = Some(a);
                absorbed = comps.iter().position(|c| c.binary_search(&a).is_ok());
            }
        }
    }
    g.with_extra_edges(&extra)
}

/// Connected "near-regular" graph: a random Hamiltonian cycle plus random
/// chords until the average degree reaches `target_degree`. Degrees are
/// concentrated around the target but not exactly regular (a true random
/// regular graph sampler is not needed by any experiment).
///
/// Returns an error if `n < 3` or `target_degree < 2` or
/// `target_degree >= n`.
pub fn random_regularish(n: usize, target_degree: usize, seed: u64) -> Result<Graph, GraphError> {
    if n < 3 {
        return Err(GraphError::InvalidParameters {
            reason: "random_regularish requires n >= 3".into(),
        });
    }
    if target_degree < 2 || target_degree >= n {
        return Err(GraphError::InvalidParameters {
            reason: format!(
                "random_regularish requires 2 <= target_degree < n, got {target_degree}"
            ),
        });
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        b.add_edge(order[i], order[(i + 1) % n])
            .expect("cycle edge");
    }
    let target_edges = n * target_degree / 2;
    let mut attempts = 0usize;
    let max_attempts = 50 * target_edges.max(1);
    while b.edge_count() < target_edges && attempts < max_attempts {
        attempts += 1;
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v && !b.has_edge(u, v) {
            b.add_edge(u, v).expect("checked fresh edge");
        }
    }
    b.try_build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{is_bipartite, is_connected};

    #[test]
    fn gnp_is_always_connected() {
        for seed in 0..8 {
            for &p in &[0.0, 0.05, 0.3, 1.0] {
                let g = gnp_connected(30, p, seed).unwrap();
                assert!(is_connected(&g), "p = {p}, seed = {seed}");
                assert_eq!(g.node_count(), 30);
            }
        }
    }

    #[test]
    fn gnp_p_one_is_complete() {
        let g = gnp_connected(10, 1.0, 3).unwrap();
        assert_eq!(g.edge_count(), 45);
    }

    #[test]
    fn gnp_p_zero_is_a_tree_after_repair() {
        let g = gnp_connected(10, 0.0, 3).unwrap();
        assert!(crate::algorithms::is_tree(&g));
    }

    #[test]
    fn gnp_single_node() {
        let g = gnp_connected(1, 0.5, 0).unwrap();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn gnp_rejects_bad_parameters() {
        assert!(gnp_connected(0, 0.5, 0).is_err());
        assert!(gnp_connected(5, -0.1, 0).is_err());
        assert!(gnp_connected(5, 1.5, 0).is_err());
        assert!(gnp_connected(5, f64::NAN, 0).is_err());
    }

    #[test]
    fn gnp_deterministic_per_seed() {
        let a = gnp_connected(25, 0.2, 77).unwrap();
        let b = gnp_connected(25, 0.2, 77).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn random_bipartite_is_connected_and_bipartite() {
        for seed in 0..6 {
            for &p in &[0.0, 0.1, 0.5, 1.0] {
                let g = random_bipartite_connected(8, 11, p, seed).unwrap();
                assert!(is_connected(&g), "p = {p}, seed = {seed}");
                assert!(is_bipartite(&g), "p = {p}, seed = {seed}");
            }
        }
    }

    #[test]
    fn random_bipartite_rejects_bad_parameters() {
        assert!(random_bipartite_connected(0, 3, 0.5, 0).is_err());
        assert!(random_bipartite_connected(3, 0, 0.5, 0).is_err());
        assert!(random_bipartite_connected(3, 3, 2.0, 0).is_err());
    }

    #[test]
    fn random_regularish_structure() {
        let g = random_regularish(40, 6, 5).unwrap();
        assert!(is_connected(&g));
        assert_eq!(g.node_count(), 40);
        let avg = g.average_degree();
        assert!((4.0..=8.0).contains(&avg), "avg degree {avg}");
    }

    #[test]
    fn random_regularish_rejects_bad_parameters() {
        assert!(random_regularish(2, 2, 0).is_err());
        assert!(random_regularish(10, 1, 0).is_err());
        assert!(random_regularish(10, 10, 0).is_err());
    }

    #[test]
    fn random_regularish_deterministic_per_seed() {
        let a = random_regularish(20, 4, 9).unwrap();
        let b = random_regularish(20, 4, 9).unwrap();
        assert_eq!(a, b);
    }
}
