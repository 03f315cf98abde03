//! Graph algorithms used by the labeling schemes and the experiment harness.
//!
//! Everything here is deterministic and works on the immutable [`crate::Graph`]
//! type. The sub-modules group the algorithms by theme; the most commonly used
//! entry points are re-exported at this level.

pub mod bfs;
pub mod coloring;
pub mod connectivity;
pub mod domination;
pub mod properties;
pub mod recognition;

pub use bfs::{
    bfs_distances, bfs_layers, bfs_tree_parents, centre, diameter, eccentricity, radius, Centre,
};
pub use coloring::{greedy_coloring, square_graph, square_graph_coloring};
pub use connectivity::{connected_components, is_connected};
pub use domination::{
    dominates, dominator_count, greedy_dominating_set, is_dominating_set,
    is_minimal_dominating_set, minimal_dominating_subset, neighborhood_of_set, DominationScratch,
    ReductionOrder,
};
pub use properties::{degree_histogram, is_bipartite, is_tree};
pub use recognition::{is_caterpillar, is_grid, is_series_parallel};
