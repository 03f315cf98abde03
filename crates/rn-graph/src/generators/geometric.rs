//! Geometric (unit-disk) radio networks.
//!
//! The paper's motivating scenario is a set of deployed transmitting devices
//! whose positions and ranges only a central monitor knows. The standard
//! abstraction for that setting is the **unit-disk graph**: nodes are points
//! in the unit square and two nodes are joined iff they are within the
//! transmission radius of each other. This generator provides that workload
//! (with a connectivity repair identical in spirit to the one used for
//! G(n, p)), so the experiment suite can run on "deployment-shaped" networks
//! and not just combinatorial families.

use crate::algorithms::connectivity::connect;
use crate::error::GraphError;
use crate::graph::{Graph, GraphBuilder};
use rand::Rng;
use rand::SeedableRng;

/// A generated unit-disk instance: the graph plus the node positions that
/// induced it (useful for plotting and for range-based experiments).
#[derive(Debug, Clone)]
pub struct UnitDiskInstance {
    /// The connected unit-disk graph.
    pub graph: Graph,
    /// Node positions in the unit square, indexed by node id.
    pub positions: Vec<(f64, f64)>,
    /// The transmission radius used.
    pub radius: f64,
    /// Number of repair edges added to make the graph connected (0 when the
    /// random instance was already connected).
    pub repair_edges: usize,
}

/// Generates a connected unit-disk graph on `n` nodes: positions are sampled
/// uniformly in the unit square, nodes within distance `radius` are joined,
/// and if the result is disconnected the components are linked by one repair
/// edge each (count reported in the instance).
///
/// Returns an error if `n == 0` or `radius` is not in `(0, √2]`.
pub fn unit_disk(n: usize, radius: f64, seed: u64) -> Result<UnitDiskInstance, GraphError> {
    if n == 0 {
        return Err(GraphError::InvalidParameters {
            reason: "unit_disk requires n >= 1".into(),
        });
    }
    if !(radius > 0.0 && radius <= std::f64::consts::SQRT_2) || radius.is_nan() {
        return Err(GraphError::InvalidParameters {
            reason: format!("unit_disk requires radius in (0, sqrt(2)], got {radius}"),
        });
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
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
    let (graph, repair_edges) = connect(b.try_build()?)?;
    Ok(UnitDiskInstance {
        graph,
        positions,
        radius,
        repair_edges,
    })
}

/// Convenience wrapper returning only the graph, with a radius chosen so the
/// expected degree is around `target_degree`: `r = sqrt(target/(π n))`,
/// capped at √2, the diagonal of the unit square. There is no lower bound,
/// so the degree stays on target however large `n` grows.
pub fn unit_disk_with_degree(n: usize, target_degree: f64, seed: u64) -> Result<Graph, GraphError> {
    if target_degree <= 0.0 || target_degree.is_nan() {
        return Err(GraphError::InvalidParameters {
            reason: format!(
                "unit_disk_with_degree requires a positive target degree, got {target_degree}"
            ),
        });
    }
    let radius = (target_degree / (std::f64::consts::PI * n.max(1) as f64))
        .sqrt()
        .min(std::f64::consts::SQRT_2);
    Ok(unit_disk(n, radius, seed)?.graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms;

    #[test]
    fn instances_are_connected_simple_graphs() {
        for seed in 0..6 {
            for &radius in &[0.15, 0.3, 0.6] {
                let inst = unit_disk(40, radius, seed).unwrap();
                assert_eq!(inst.graph.node_count(), 40);
                assert_eq!(inst.positions.len(), 40);
                assert!(algorithms::is_connected(&inst.graph));
            }
        }
    }

    #[test]
    fn larger_radius_gives_denser_graphs() {
        let sparse = unit_disk(60, 0.15, 3).unwrap();
        let dense = unit_disk(60, 0.5, 3).unwrap();
        assert!(dense.graph.edge_count() > sparse.graph.edge_count());
    }

    #[test]
    fn full_radius_is_complete() {
        let inst = unit_disk(12, std::f64::consts::SQRT_2, 1).unwrap();
        assert_eq!(inst.graph.edge_count(), 12 * 11 / 2);
        assert_eq!(inst.repair_edges, 0);
    }

    #[test]
    fn tiny_radius_relies_on_repair_edges() {
        let inst = unit_disk(30, 0.01, 5).unwrap();
        assert!(algorithms::is_connected(&inst.graph));
        assert!(inst.repair_edges > 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = unit_disk(25, 0.3, 9).unwrap();
        let b = unit_disk(25, 0.3, 9).unwrap();
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.positions, b.positions);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(unit_disk(0, 0.3, 0).is_err());
        assert!(unit_disk(10, 0.0, 0).is_err());
        assert!(unit_disk(10, 2.0, 0).is_err());
        assert!(unit_disk(10, f64::NAN, 0).is_err());
        assert!(unit_disk_with_degree(10, 0.0, 0).is_err());
    }

    #[test]
    fn degree_targeting_is_roughly_right() {
        let g = unit_disk_with_degree(200, 8.0, 4).unwrap();
        let avg = g.average_degree();
        assert!(avg > 3.0 && avg < 16.0, "average degree {avg}");
    }

    #[test]
    fn edges_respect_the_radius() {
        let inst = unit_disk(50, 0.25, 7).unwrap();
        let repaired = inst.repair_edges;
        let mut too_long = 0usize;
        for (u, v) in inst.graph.edges() {
            let dx = inst.positions[u].0 - inst.positions[v].0;
            let dy = inst.positions[u].1 - inst.positions[v].1;
            if (dx * dx + dy * dy).sqrt() > inst.radius + 1e-12 {
                too_long += 1;
            }
        }
        // Only repair edges may exceed the radius.
        assert!(too_long <= repaired);
    }
}
