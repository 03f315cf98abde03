//! Greedy colourings and the square of a graph.
//!
//! The paper observes (§1.1) that a proper colouring of the square of the
//! graph G² yields an O(log Δ)-bit labeling scheme for broadcast: nodes with
//! the same colour are at distance ≥ 3, so if every colour class transmits in
//! its own slot no collisions occur at any listener. This module provides the
//! square-graph construction and deterministic greedy colourings used by that
//! baseline labeling scheme and by the label-length experiment (E4).

use crate::graph::{Graph, GraphBuilder, NodeId};

/// Vertex orderings for the greedy colouring heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColoringOrder {
    /// Colour nodes in index order `0, 1, 2, ...`.
    Natural,
    /// Colour nodes in non-increasing degree order (Welsh–Powell).
    DegreeDescending,
    /// Colour nodes in BFS order from node 0 (falls back to index order for
    /// nodes unreachable from 0).
    BfsFromZero,
}

/// Greedy proper colouring of `g` using the natural vertex order.
///
/// Returns one colour (0-based) per node. The number of colours used is at
/// most Δ + 1.
pub fn greedy_coloring(g: &Graph) -> Vec<usize> {
    greedy_coloring_with_order(g, ColoringOrder::Natural)
}

/// Greedy proper colouring with a selectable vertex order.
pub fn greedy_coloring_with_order(g: &Graph, order: ColoringOrder) -> Vec<usize> {
    let n = g.node_count();
    let ordering: Vec<NodeId> = match order {
        ColoringOrder::Natural => (0..n).collect(),
        ColoringOrder::DegreeDescending => {
            let mut v: Vec<NodeId> = (0..n).collect();
            v.sort_by_key(|&u| std::cmp::Reverse(g.degree(u)));
            v
        }
        ColoringOrder::BfsFromZero => {
            if n == 0 {
                Vec::new()
            } else {
                let mut seen = vec![false; n];
                let mut order_vec = Vec::with_capacity(n);
                let mut queue = std::collections::VecDeque::new();
                seen[0] = true;
                queue.push_back(0);
                while let Some(u) = queue.pop_front() {
                    order_vec.push(u);
                    for &v in g.neighbors(u) {
                        if !seen[v] {
                            seen[v] = true;
                            queue.push_back(v);
                        }
                    }
                }
                for (v, &was_seen) in seen.iter().enumerate() {
                    if !was_seen {
                        order_vec.push(v);
                    }
                }
                order_vec
            }
        }
    };

    let mut color = vec![usize::MAX; n];
    let mut forbidden: Vec<usize> = Vec::new();
    for &u in &ordering {
        forbidden.clear();
        for &v in g.neighbors(u) {
            if color[v] != usize::MAX {
                forbidden.push(color[v]);
            }
        }
        forbidden.sort_unstable();
        forbidden.dedup();
        // Smallest colour not in `forbidden`.
        let mut c = 0;
        for &f in &forbidden {
            if f == c {
                c += 1;
            } else if f > c {
                break;
            }
        }
        color[u] = c;
    }
    color
}

/// Number of colours used by a colouring (max + 1), or 0 for an empty graph.
pub fn color_count(coloring: &[usize]) -> usize {
    coloring.iter().copied().max().map_or(0, |m| m + 1)
}

/// Whether `coloring` is a proper colouring of `g` (no edge is monochromatic).
pub fn is_proper_coloring(g: &Graph, coloring: &[usize]) -> bool {
    coloring.len() == g.node_count() && g.edges().all(|(u, v)| coloring[u] != coloring[v])
}

/// The square G² of a graph: same node set, with an edge between every pair of
/// distinct nodes at distance 1 or 2 in `g`.
pub fn square_graph(g: &Graph) -> Graph {
    let n = g.node_count();
    let mut b = GraphBuilder::new(n);
    // `row_of[w] == u` once w is in u's row: a pair joined by many two-hop
    // paths becomes one edge.
    let mut row_of = vec![usize::MAX; n];
    for u in 0..n {
        for &v in g.neighbors(u) {
            for &w in std::iter::once(&v).chain(g.neighbors(v)) {
                if u < w && row_of[w] != u {
                    row_of[w] = u;
                    b.add_edge(u, w).expect("valid edge");
                }
            }
        }
    }
    b.build()
}

/// Greedy proper colouring of the square of `g`, the basis of the
/// O(log Δ)-bit baseline labeling scheme.
///
/// Returns `(coloring, color_count)`. The colouring is proper for G², hence
/// any two nodes with the same colour are at distance at least 3 in `g`.
pub fn square_graph_coloring(g: &Graph, order: ColoringOrder) -> (Vec<usize>, usize) {
    let sq = square_graph(g);
    let coloring = greedy_coloring_with_order(&sq, order);
    let k = color_count(&coloring);
    (coloring, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn greedy_coloring_is_proper_on_cycle() {
        for n in 3..12 {
            let g = generators::cycle(n);
            let c = greedy_coloring(&g);
            assert!(is_proper_coloring(&g, &c), "cycle({n})");
            assert!(color_count(&c) <= 3);
        }
    }

    #[test]
    fn greedy_coloring_complete_graph_uses_n_colors() {
        let g = generators::complete(5);
        let c = greedy_coloring(&g);
        assert!(is_proper_coloring(&g, &c));
        assert_eq!(color_count(&c), 5);
    }

    #[test]
    fn greedy_coloring_bound_delta_plus_one() {
        let g = generators::grid(4, 5);
        for order in [
            ColoringOrder::Natural,
            ColoringOrder::DegreeDescending,
            ColoringOrder::BfsFromZero,
        ] {
            let c = greedy_coloring_with_order(&g, order);
            assert!(is_proper_coloring(&g, &c));
            assert!(color_count(&c) <= g.max_degree() + 1);
        }
    }

    #[test]
    fn coloring_empty_graph() {
        let g = Graph::empty(0);
        let c = greedy_coloring(&g);
        assert!(c.is_empty());
        assert_eq!(color_count(&c), 0);
        assert!(is_proper_coloring(&g, &c));
    }

    #[test]
    fn coloring_edgeless_graph_uses_one_color() {
        let g = Graph::empty(5);
        let c = greedy_coloring(&g);
        assert_eq!(color_count(&c), 1);
    }

    #[test]
    fn is_proper_coloring_detects_bad_coloring() {
        let g = generators::path(3);
        assert!(!is_proper_coloring(&g, &[0, 0, 1]));
        assert!(!is_proper_coloring(&g, &[0, 1])); // wrong length
        assert!(is_proper_coloring(&g, &[0, 1, 0]));
    }

    #[test]
    fn square_of_path_connects_distance_two() {
        let g = generators::path(5);
        let sq = square_graph(&g);
        assert!(sq.has_edge(0, 1));
        assert!(sq.has_edge(0, 2));
        assert!(!sq.has_edge(0, 3));
        assert_eq!(sq.edge_count(), 4 + 3); // distance-1 plus distance-2 pairs
    }

    #[test]
    fn square_of_complete_graph_is_itself() {
        let g = generators::complete(5);
        let sq = square_graph(&g);
        assert_eq!(sq.edge_count(), g.edge_count());
    }

    #[test]
    fn square_of_star_is_complete() {
        let g = generators::star(6);
        let sq = square_graph(&g);
        assert_eq!(sq.edge_count(), 6 * 5 / 2);
    }

    #[test]
    fn square_coloring_separates_distance_two_nodes() {
        let g = generators::grid(3, 4);
        let (c, k) = square_graph_coloring(&g, ColoringOrder::DegreeDescending);
        assert!(k >= 1);
        // Same colour implies distance >= 3 in g.
        let dist0 = crate::algorithms::bfs_distances(&g, 0);
        for v in g.nodes() {
            if v != 0 && c[v] == c[0] {
                assert!(dist0[v].unwrap() >= 3);
            }
        }
    }

    #[test]
    fn square_coloring_color_count_matches_vector() {
        let g = generators::cycle(8);
        let (c, k) = square_graph_coloring(&g, ColoringOrder::Natural);
        assert_eq!(k, color_count(&c));
        assert!(is_proper_coloring(&square_graph(&g), &c));
    }
}
