//! Randomised graph families: connected Erdős–Rényi graphs, random bipartite
//! graphs and near-regular graphs.
//!
//! All generators take an explicit seed and are fully deterministic for a
//! given seed, which keeps every experiment reproducible.

use crate::algorithms::connectivity::{connect, is_connected};
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
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(p) {
                b.add_edge(i, j).expect("fresh pair");
            }
        }
    }
    Ok(connect(b.try_build()?)?.0)
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
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::new(a + b);
    for i in 0..a {
        for j in 0..b {
            if rng.gen_bool(p) {
                builder.add_edge(i, a + j).expect("fresh cross pair");
            }
        }
    }
    let mut g = builder.try_build()?;
    // Repair connectivity while preserving bipartiteness: attach every
    // component to component 0 via a cross edge.
    while !is_connected(&g) {
        let comps = crate::algorithms::connectivity::connected_components(&g);
        let (first, rest) = comps.split_first().expect("at least one component");
        let other = &rest[0];
        // Find u in first on the left side and v in other on the right side,
        // or vice versa.
        let left_first = first.iter().copied().find(|&v| v < a);
        let right_other = other.iter().copied().find(|&v| v >= a);
        let (u, v) = match (left_first, right_other) {
            (Some(u), Some(v)) => (u, v),
            _ => {
                let right_first = first.iter().copied().find(|&v| v >= a);
                let left_other = other.iter().copied().find(|&v| v < a);
                match (left_other, right_first) {
                    (Some(u), Some(v)) => (u, v),
                    _ => {
                        // Both components are entirely on the same side
                        // (isolated nodes); bridge them through any node of the
                        // opposite side.
                        let u = other[0];
                        let v = if u < a { a } else { 0 };
                        (u, v)
                    }
                }
            }
        };
        g = g.with_extra_edges(&[(u, v)])?;
    }
    Ok(g)
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
