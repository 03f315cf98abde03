//! One-bit labeling schemes for special graph classes (paper §5, conclusion).
//!
//! The paper's conclusion claims (without giving the constructions in detail)
//! that single-bit labels suffice for broadcast in several restricted graph
//! classes. This module provides concrete, simulation-verified 1-bit schemes
//! for two such classes — cycles and grid graphs — driven by a single
//! universal "delay-relay" algorithm (`rn-broadcast::delay_relay`):
//!
//! * every non-source node retransmits the source message exactly once,
//!   `1 + b` rounds after first receiving it, where `b` is its 1-bit label;
//! * the source transmits once, in its first round.
//!
//! **Cycles** (`C_n`): for odd `n` the two broadcast waves travelling around
//! the cycle never collide, so the all-zero labeling works; for even `n` the
//! antipodal node would see both waves arrive simultaneously (this is exactly
//! the four-cycle impossibility of §1.1), so one neighbour of the source is
//! labeled 1, delaying one wave by a round and breaking the symmetry.
//!
//! **Grids**: nodes in the source's row are labeled 0 (fast relay) and all
//! other nodes 1 (slow relay). The wave first races along the source's row
//! and then proceeds down every column at half speed, so every node hears
//! exactly one transmitter in the round it is first reached and no
//! collision ever blocks progress (experiment E6 of the
//! `rn_experiments::experiments` index checks this from every source).
//!
//! The schemes reject graphs outside their class with
//! [`LabelingError::UnsupportedGraphClass`]. The broader (series-parallel,
//! radius-2) claims sketched in the paper's conclusion are not reproduced:
//! cycles and grids stand in for them.

use crate::error::LabelingError;
use crate::label::{Label, Labeling};
use rn_graph::algorithms::properties::is_cycle_graph;
use rn_graph::{generators, Graph, NodeId};

/// Scheme name for [`cycle_onebit`].
pub const CYCLE_SCHEME_NAME: &str = "onebit_cycle";
/// Scheme name for [`grid_onebit`].
pub const GRID_SCHEME_NAME: &str = "onebit_grid";

/// 1-bit labeling for a cycle graph with the given source.
///
/// Odd cycles get the all-zero labeling; even cycles get a single 1 on one
/// neighbour of the source (the smaller-numbered one, for determinism).
pub fn cycle_onebit(g: &Graph, source: NodeId) -> Result<Labeling, LabelingError> {
    if g.node_count() == 0 {
        return Err(LabelingError::EmptyGraph);
    }
    if source >= g.node_count() {
        return Err(LabelingError::SourceOutOfRange {
            source,
            node_count: g.node_count(),
        });
    }
    if !is_cycle_graph(g) {
        return Err(LabelingError::UnsupportedGraphClass {
            scheme: CYCLE_SCHEME_NAME,
            required: "a cycle graph (connected, all degrees 2, n >= 3)".into(),
        });
    }
    let n = g.node_count();
    let mut bits = vec![false; n];
    if n.is_multiple_of(2) {
        let delayed = g.neighbors(source)[0];
        bits[delayed] = true;
    }
    Ok(Labeling::new(
        bits.into_iter().map(Label::one_bit).collect(),
        CYCLE_SCHEME_NAME,
    ))
}

/// 1-bit labeling for a canonically numbered `rows × cols` grid (node
/// `(i, j)` has index `i * cols + j`, as produced by
/// [`rn_graph::generators::grid`]) with the given source.
///
/// Nodes in the source's row get label 0 ("fast relay"), all other nodes get
/// label 1 ("slow relay").
pub fn grid_onebit(
    g: &Graph,
    rows: usize,
    cols: usize,
    source: NodeId,
) -> Result<Labeling, LabelingError> {
    if g.node_count() == 0 {
        return Err(LabelingError::EmptyGraph);
    }
    if source >= g.node_count() {
        return Err(LabelingError::SourceOutOfRange {
            source,
            node_count: g.node_count(),
        });
    }
    if rows == 0 || cols == 0 || rows * cols != g.node_count() || *g != generators::grid(rows, cols)
    {
        return Err(LabelingError::UnsupportedGraphClass {
            scheme: GRID_SCHEME_NAME,
            required: format!("the canonically numbered {rows}x{cols} grid"),
        });
    }
    let source_row = source / cols;
    let labels = (0..g.node_count())
        .map(|v| Label::one_bit(v / cols != source_row))
        .collect();
    Ok(Labeling::new(labels, GRID_SCHEME_NAME))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_scheme_rejects_non_cycles() {
        assert!(cycle_onebit(&generators::path(5), 0).is_err());
        assert!(cycle_onebit(&generators::complete(4), 0).is_err());
        assert!(cycle_onebit(&Graph::empty(0), 0).is_err());
        assert!(cycle_onebit(&generators::cycle(6), 9).is_err());
    }

    #[test]
    fn odd_cycles_use_all_zero_labels() {
        for n in [3, 5, 7, 9, 15] {
            let g = generators::cycle(n);
            let l = cycle_onebit(&g, 2 % n).unwrap();
            assert_eq!(l.length(), 1);
            assert!(g.nodes().all(|v| !l.get(v).x1()), "n = {n}");
            assert_eq!(l.distinct_count(), 1);
        }
    }

    #[test]
    fn even_cycles_mark_exactly_one_source_neighbor() {
        for n in [4, 6, 8, 10, 20] {
            let g = generators::cycle(n);
            let source = 3 % n;
            let l = cycle_onebit(&g, source).unwrap();
            let marked: Vec<_> = g.nodes().filter(|&v| l.get(v).x1()).collect();
            assert_eq!(marked.len(), 1, "n = {n}");
            assert!(g.has_edge(source, marked[0]));
            assert_eq!(l.distinct_count(), 2);
        }
    }

    #[test]
    fn grid_scheme_marks_off_row_nodes() {
        let g = generators::grid(3, 4);
        let source = 5; // row 1, col 1
        let l = grid_onebit(&g, 3, 4, source).unwrap();
        assert_eq!(l.length(), 1);
        for v in g.nodes() {
            let in_source_row = v / 4 == 1;
            assert_eq!(l.get(v).x1(), !in_source_row, "node {v}");
        }
    }

    #[test]
    fn grid_scheme_rejects_wrong_dimensions_and_non_grids() {
        let g = generators::grid(3, 4);
        assert!(grid_onebit(&g, 4, 3, 0).is_err());
        assert!(grid_onebit(&g, 2, 6, 0).is_err());
        assert!(grid_onebit(&generators::cycle(12), 3, 4, 0).is_err());
        assert!(grid_onebit(&g, 3, 4, 99).is_err());
        assert!(grid_onebit(&Graph::empty(0), 0, 0, 0).is_err());
    }

    #[test]
    fn one_by_n_grid_all_fast() {
        let g = generators::grid(1, 7);
        let l = grid_onebit(&g, 1, 7, 3).unwrap();
        assert!(g.nodes().all(|v| !l.get(v).x1()));
    }

    #[test]
    fn n_by_one_grid_only_source_row_fast() {
        let g = generators::grid(7, 1);
        let l = grid_onebit(&g, 7, 1, 3).unwrap();
        let fast: Vec<_> = g.nodes().filter(|&v| !l.get(v).x1()).collect();
        assert_eq!(fast, vec![3]);
    }
}
