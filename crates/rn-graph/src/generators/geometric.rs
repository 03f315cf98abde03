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
use crate::graph::{Graph, UpperRows};
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
    /// Number of node pairs whose distance the generator computed: the
    /// deterministic cost of the edge search.
    pub pairs_examined: u64,
}

/// Generates a connected unit-disk graph on `n` nodes: positions are sampled
/// uniformly in the unit square, nodes within distance `radius` are joined,
/// and if the result is disconnected the components are linked by one repair
/// edge each (count reported in the instance).
///
/// Cost: expected O(n + m). The points are bucketed into grid cells at least
/// `radius` wide, and each point is compared only with the higher-numbered
/// points of its own cell and the 8 around it
/// ([`pairs_examined`](UnitDiskInstance::pairs_examined) counts them).
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
    let (rows, pairs_examined) = disk_rows(&positions, radius);
    let (graph, repair_edges) = connect(rows.pack()?)?;
    Ok(UnitDiskInstance {
        graph,
        positions,
        radius,
        repair_edges,
        pairs_examined,
    })
}

/// The upper rows of the unit-disk graph on `positions`, and the number of
/// pairs whose distance was computed.
///
/// The unit square is cut into `side × side` cells. Each cell is slightly
/// wider than `radius`, so that rounding `x · side` cannot put two points
/// within `radius` of each other into cells that are not adjacent, and
/// `side ≤ ⌈√n⌉`, so that a tiny radius cannot allocate more cells than
/// points. A counting sort lists the points cell by cell (row-major), in
/// node order within a cell.
fn disk_rows(positions: &[(f64, f64)], radius: f64) -> (UpperRows, u64) {
    let n = positions.len();
    let max_side = (n as f64).sqrt().ceil() as usize;
    let side = ((1.0 / (radius * (1.0 + 2f64.powi(-20)))) as usize).clamp(1, max_side);
    let coordinate = |t: f64| ((t * side as f64) as usize).min(side - 1);
    let cells: Vec<usize> = positions
        .iter()
        .map(|&(x, y)| coordinate(y) * side + coordinate(x))
        .collect();
    let mut start = vec![0; side * side + 1];
    for &c in &cells {
        start[c + 1] += 1;
    }
    for c in 0..side * side {
        start[c + 1] += start[c];
    }
    let mut next = start.clone();
    let mut members = vec![0; n];
    for (i, &c) in cells.iter().enumerate() {
        members[next[c]] = i;
        next[c] += 1;
    }
    // Positions in cell order, so a scan reads them contiguously.
    let member_positions: Vec<(f64, f64)> = members.iter().map(|&j| positions[j]).collect();

    let r2 = radius * radius;
    let mut pairs_examined = 0u64;
    let mut rows = UpperRows::default();
    let mut row = Vec::new();
    for (i, &(xi, yi)) in positions.iter().enumerate() {
        let (cx, cy) = (cells[i] % side, cells[i] / side);
        let (x_lo, x_hi) = (cx.saturating_sub(1), (cx + 1).min(side - 1));
        for ny in cy.saturating_sub(1)..=(cy + 1).min(side - 1) {
            // The cells x_lo..=x_hi of one cell row are contiguous.
            for k in start[ny * side + x_lo]..start[ny * side + x_hi + 1] {
                let j = members[k];
                if j > i {
                    pairs_examined += 1;
                    let dx = xi - member_positions[k].0;
                    let dy = yi - member_positions[k].1;
                    if dx * dx + dy * dy <= r2 {
                        row.push(j);
                    }
                }
            }
        }
        row.sort_unstable();
        rows.push_row(&row);
        row.clear();
    }
    (rows, pairs_examined)
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
