//! Graph generators: the workload families used throughout the experiments.
//!
//! Every generator is deterministic; randomised families take an explicit
//! `u64` seed so experiments are exactly reproducible. Families with
//! unconditionally valid parameters panic on degenerate input (e.g. `path(0)`)
//! because that is a programmer error; families whose parameters can be
//! invalid in interesting ways return [`Result`].
//!
//! Individual generator functions build one shape each; the
//! [`TopologyFamily`] registry unifies all of them behind a single seeded,
//! connectivity-checked entry point ([`TopologyFamily::generate`]) that the
//! experiment sweeps, benches and CLI share.

mod adversarial;
mod basic;
mod clustered;
mod family;
mod geometric;
mod grid;
mod pairs;
mod random;
mod structured;
mod trees;

pub use adversarial::star_of_cliques;
pub use basic::{barbell, complete, complete_bipartite, cycle, lollipop, path, star, wheel};
pub use clustered::{clustered_gnp, degree_capped_random};
pub use family::TopologyFamily;
pub use geometric::{unit_disk, unit_disk_with_degree, UnitDiskInstance};
pub use grid::{grid, grid_coordinates, grid_index, ladder, torus};
pub use random::{gnp_connected, random_bipartite_connected, random_regularish};
pub use structured::{fan, hypercube, series_parallel, theta};
pub use trees::{balanced_binary_tree, broom, caterpillar, random_tree, spider};
