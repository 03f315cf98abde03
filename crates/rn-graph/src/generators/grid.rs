//! Grid-like families: rectangular grids, ladders and tori.

use crate::graph::{Graph, GraphBuilder};

/// `rows × cols` grid graph. Node `(i, j)` has index `i * cols + j`; edges join
/// horizontally and vertically adjacent cells.
///
/// # Panics
/// Panics if `rows == 0` or `cols == 0`.
pub fn grid(rows: usize, cols: usize) -> Graph {
    assert!(rows >= 1 && cols >= 1, "grid requires rows, cols >= 1");
    let mut b = GraphBuilder::new(rows * cols);
    for i in 0..rows {
        for j in 0..cols {
            let v = i * cols + j;
            if j + 1 < cols {
                b.add_edge(v, v + 1).expect("horizontal grid edge");
            }
            if i + 1 < rows {
                b.add_edge(v, v + cols).expect("vertical grid edge");
            }
        }
    }
    b.build()
}

/// Ladder graph: the `2 × n` grid.
///
/// # Panics
/// Panics if `n == 0`.
pub fn ladder(n: usize) -> Graph {
    grid(2, n)
}

/// `rows × cols` torus (grid with wrap-around edges in both dimensions).
///
/// # Panics
/// Panics if `rows < 3` or `cols < 3` (smaller wrap-arounds would create
/// parallel edges in a simple graph).
pub fn torus(rows: usize, cols: usize) -> Graph {
    assert!(rows >= 3 && cols >= 3, "torus requires rows, cols >= 3");
    let mut b = GraphBuilder::new(rows * cols);
    for i in 0..rows {
        for j in 0..cols {
            let v = i * cols + j;
            let right = i * cols + (j + 1) % cols;
            let down = ((i + 1) % rows) * cols + j;
            b.add_edge(v, right).expect("torus edge");
            b.add_edge(v, down).expect("torus edge");
        }
    }
    b.build()
}

/// Index of the cell `(row, col)` in a `rows × cols` grid generated by
/// [`grid`]. Exposed so labeling schemes for grids can recover coordinates.
pub fn grid_index(cols: usize, row: usize, col: usize) -> usize {
    row * cols + col
}

/// Inverse of [`grid_index`]: the `(row, col)` coordinates of node `v`.
pub fn grid_coordinates(cols: usize, v: usize) -> (usize, usize) {
    (v / cols, v % cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{self, is_connected};

    #[test]
    fn grid_counts() {
        let g = grid(3, 4);
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 3 * 3 + 4 * 2);
        assert!(is_connected(&g));
        assert!(algorithms::is_bipartite(&g));
    }

    #[test]
    fn one_by_n_grid_is_a_path() {
        let g = grid(1, 6);
        assert!(algorithms::is_tree(&g));
        assert_eq!(g.edge_count(), 5);
        let h = grid(6, 1);
        assert_eq!(h.edge_count(), 5);
    }

    #[test]
    fn grid_degrees() {
        let g = grid(4, 5);
        // corners
        for &(i, j) in &[(0, 0), (0, 4), (3, 0), (3, 4)] {
            assert_eq!(g.degree(grid_index(5, i, j)), 2);
        }
        // interior
        assert_eq!(g.degree(grid_index(5, 1, 1)), 4);
        assert_eq!(g.max_degree(), 4);
    }

    #[test]
    #[should_panic(expected = "grid requires rows, cols >= 1")]
    fn grid_zero_panics() {
        let _ = grid(0, 4);
    }

    #[test]
    fn ladder_is_two_by_n() {
        let g = ladder(5);
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.edge_count(), 5 + 8);
    }

    #[test]
    fn torus_is_regular() {
        let g = torus(3, 4);
        assert_eq!(g.node_count(), 12);
        assert!(g.nodes().all(|v| g.degree(v) == 4));
        assert_eq!(g.edge_count(), 24);
        assert!(is_connected(&g));
    }

    #[test]
    #[should_panic(expected = "torus requires rows, cols >= 3")]
    fn torus_too_small_panics() {
        let _ = torus(2, 4);
    }

    #[test]
    fn grid_index_roundtrip() {
        for v in 0..20 {
            let (r, c) = grid_coordinates(5, v);
            assert_eq!(grid_index(5, r, c), v);
        }
    }

    #[test]
    fn grid_diameter_is_manhattan() {
        let g = grid(3, 5);
        assert_eq!(algorithms::diameter(&g), Some(2 + 4));
    }
}
